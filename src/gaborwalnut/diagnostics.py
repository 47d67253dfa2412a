"""Desk-scale verification machinery for the operator identities.

Everything here evaluates finite sums exactly on the cyclic grid: multiplier
extraction from dense matrices, summability reports for the multipliers of
``S^-1``, the mixed-bracket convolution identity and its norm estimate, a
two-sided summability probe (reported, never asserted), and the construction
of the non-summable dual perturbation with its exact orthogonality check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .amalgam import AmalgamProfile, _profile, amalgam_norm, amalgam_profile
from .bracket import (
    PeriodicVector,
    _bracket_cosets,
    _class_rows,
    _residue_classes,
    bracket_product,
)
from .core import (
    GaborLattice,
    Grid,
    Signal,
    Weight,
    _same_grid,
    signed_range,
    signed_rep,
    tf_shift,
)
from .errors import (
    DimensionError,
    DomainError,
    LatticeError,
    SizeError,
)
from .frame_op import (
    DENSE_LIMIT,
    WalnutCoeffs,
    _coset_blocks,
    analysis,
    frame_operator_walnut,
    walnut_coefficients,
    walnut_weighted_sum,
)
from .invert import _check_tol, _inverse_walnut

__all__ = [
    "SummabilityReport",
    "IdentityResidual",
    "dense_matrix",
    "extract_walnut_from_matrix",
    "dual_summability_report",
    "mixed_bracket",
    "convo_identity_residual",
    "bracket_series",
    "estimate_convest",
    "conjecture_probe",
    "build_counterexample",
    "counterexample_report",
    "forbound_slack",
    "forbound_check",
]


@dataclass(frozen=True, eq=False)
class SummabilityReport:
    """Weighted sup-norm series of the multipliers of ``S^-1`` (the dual's).

    ``per_r`` lists ``(signed r, sup|G~_r|, nu(r), product)`` in the fixed
    signed order; ``tail_profile`` holds the running partial sums, ending at
    ``weighted_sum``.  ``cross_check_error`` is the largest absolute
    difference, over the table's entries, between the block-inverse
    multipliers and those read off LU solves of the dense oracle's first
    ``a`` coset blocks (``None`` above ``DENSE_LIMIT``); it is not scaled by
    the size of the multipliers.
    """

    lattice: GaborLattice
    weight: str
    per_r: tuple[tuple[int, float, float, float], ...]
    weighted_sum: float
    tail_profile: np.ndarray
    cross_check_error: float | None

    def tail_fraction(self, radius: int) -> float:
        """Share of the weighted sum carried by indices with ``|r| > radius``."""
        head = sum(p for (r, _, _, p) in self.per_r if abs(r) <= radius)
        if self.weighted_sum == 0.0:
            return 0.0
        return (self.weighted_sum - head) / self.weighted_sum


@dataclass(frozen=True)
class IdentityResidual:
    """Worst absolute deviation of a two-sided identity and where it occurs."""

    max_abs_error: float
    worst_k: int
    worst_x: int


def dense_matrix(op: Callable[[Signal], Signal], grid: Grid) -> np.ndarray:
    """Materialize a linear map on signals: column ``j`` is ``op(delta_j)``."""
    L = grid.L
    if L > DENSE_LIMIT:
        raise SizeError(f"dense materialization limited to L <= {DENSE_LIMIT}")
    out = np.zeros((L, L), dtype=complex)
    basis = np.zeros(L, dtype=complex)
    for j in range(L):
        basis[j] = 1.0
        out[:, j] = op(Signal(grid, basis)).samples
        basis[j] = 0.0
    return out


def extract_walnut_from_matrix(
    Mmat: np.ndarray, lat: GaborLattice
) -> tuple[WalnutCoeffs, float]:
    """Read the multiplier family off the strided diagonals of a dense matrix.

    For each signed ``r`` the entries ``Mmat[j, j - r*M]`` are averaged over
    one period in ``j``; any deviation from that periodicity is folded into
    the returned off-structure mass together with the absolute sum of all
    entries away from the strided diagonals.
    """
    L = lat.grid.L
    if Mmat.shape != (L, L):
        raise DimensionError(f"expected a {L}x{L} matrix, got {Mmat.shape}")
    rows = np.arange(L)
    factor = lat.M / lat.grid.s
    table = np.zeros((lat.b, lat.a), dtype=complex)
    structure = np.zeros((L, L), dtype=bool)
    off_mass = 0.0
    for r in signed_range(lat.b):
        cols = (rows - r * lat.M) % L
        structure[rows, cols] = True
        diag = np.asarray(Mmat[rows, cols], dtype=complex)
        per = diag.reshape(L // lat.a, lat.a)
        mean = per.mean(axis=0)
        off_mass += float(np.max(np.abs(per - mean[None, :]), initial=0.0))
        table[r] = mean / factor
    off_mass += float(np.sum(np.abs(Mmat[~structure])))
    return WalnutCoeffs(lat=lat, table=table), off_mass


def _dense_inverse_table(W: WalnutCoeffs) -> np.ndarray:
    """Multiplier table of ``S^-1`` from LU solves of the first ``a`` coset
    blocks ``b x b`` of the dense frame matrix ``S``, gathered here from the
    table (``frame_op._coset_blocks``, ``a*b**2`` entries); neither the
    ``L x L`` matrix nor the fiber stack and its decomposition are read.

    Column ``c`` of ``S^-1`` is the solution, against ``e_0``, of the block
    of ``S`` on the coset ``c + k*M (mod L)``, ``k < b``; the ``a`` columns
    ``c < a <= M`` lie in the first ``a`` cosets and are solved as one
    stack.  Column ``c`` meets strided diagonal ``r`` in row
    ``(c + r*M) mod L``, entry ``k = r mod b`` of its solution, which is
    entry ``(c + k*M) mod a`` of ``G~_r``; as ``c`` runs over one period
    those entries fill the row.
    """
    a, b, M = W.lat.a, W.lat.b, W.lat.M
    k = np.arange(b)[:, None]
    # e_0 as a (1, b, 1) stack: NumPy < 2 reads a 2-d right-hand side as a
    # stack of vectors
    X = np.linalg.solve(_coset_blocks(W, np.arange(a)),
                        np.eye(b, 1, dtype=complex)[None])
    table = np.empty((b, a), dtype=complex)
    table[k, (np.arange(a) + k * M) % a] = X[..., 0].T
    return table / W.factor


def dual_summability_report(
    g: Signal,
    lat: GaborLattice,
    w: Weight,
    tol: float = 1e-12,
) -> SummabilityReport:
    """Weighted multiplier series of ``S^-1``, the canonical dual's.

    The multipliers are read off the inverted fiber blocks of ``S``
    (:func:`invert._inverse_walnut`): nothing is solved, and ``tol`` is only
    validated.  At ``L <= DENSE_LIMIT`` they are always cross-checked
    against those read off LU solves of the dense oracle's first ``a``
    coset blocks (:func:`_dense_inverse_table`), an independent route to
    the same operator; ``cross_check_error`` is the largest absolute
    difference.  It reads the table ``g`` keeps, whose eigendecomposition
    the solvers after it read too.
    """
    _check_tol(tol)
    W = walnut_coefficients(g, lat)
    Wd = _inverse_walnut(W)
    prof = _profile(Wd.table, w)
    sups, weights = prof.block_sups, prof.weights
    per_r = zip(prof.indices.tolist(), sups.tolist(), weights.tolist(),
                (sups * weights).tolist())
    err = None
    if lat.grid.L <= DENSE_LIMIT:
        err = float(np.max(np.abs(_dense_inverse_table(W) - Wd.table)))
    return SummabilityReport(
        lattice=lat,
        weight=w.describe(),
        per_r=tuple(per_r),
        weighted_sum=prof.norm,
        tail_profile=prof.weighted_cumsums,
        cross_check_error=err,
    )


def mixed_bracket(g: Signal, gd: Signal, lat: GaborLattice, k: int) -> PeriodicVector:
    """Scaled mixed bracket ``(M/s) * [gd, T_{k*a} g]`` at period ``M``.

    Its Fourier-series coefficients are the Gabor coefficients of ``gd``
    against the system generated by ``g``, which the tests verify.
    """
    _same_grid(lat.grid, g, gd)
    pv = bracket_product(gd, tf_shift(g, k * lat.a, 0), lat.M)
    return PeriodicVector(lat.M, (lat.M / lat.grid.s) * pv.values)


def bracket_series(f: Signal, h: Signal, lat: GaborLattice, w: Weight) -> np.ndarray:
    """Running sums of ``sup|[f, T_{n*a} h]_M| * nu(n)`` over signed ``n``.

    The last entry is the weighted sup-norm series itself.  The sups are
    taken a residue class at a time (:func:`bracket._class_rows`), so no
    ``N x M`` table is held; ``amalgam._profile`` refuses one not finite.
    """
    _same_grid(lat.grid, f, h)
    F = np.fft.fft(f.samples.reshape(lat.b, lat.M), axis=0)
    sups = np.empty(lat.N)
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, q, H in _residue_classes(h.samples, lat):
            sups[rows] = np.abs(_class_rows(F, H, q)).max(axis=1)
    return _profile(sups[:, None], w).weighted_cumsums


# Entries of one table block of _verify_pass: whole column cosets, at
# least one (cf. frame_op._CHUNK)
_CHUNK = 2 ** 14


def convo_identity_residual(g: Signal, gd: Signal, lat: GaborLattice) -> IdentityResidual:
    """Residual of the mixed-bracket convolution identity.

    For every signed time index ``k`` and every point ``x`` of one period,
    compares ``[gd, T_{k*a} g](x)`` with
    ``(M/s) * sum_n conj([g, T_{n*a} g])(x - k*a) * [gd, T_{(k+n)*a} gd](x)``.
    Exact (to rounding) when ``gd`` is the canonical dual of ``g``.

    The sum over ``n`` is a cyclic correlation along the rows of the
    tables, which :func:`_verify_pass` streams a block of column cosets at a
    time: ``O(P*N*M + N*M*log N)`` operations with ``P = M / gcd(a, M)``
    against ``N**2 * M`` for the direct sum, and no ``N x M`` array held.
    Ties go to the first maximum in sorted signed ``k``, then in ``x``.
    """
    return _verify_pass(g, gd, lat, Weight.constant())[0]


def estimate_convest(
    g: Signal, gd: Signal, lat: GaborLattice, w: Weight
) -> tuple[float, float]:
    """Both sides of the mixed-bracket norm estimate.

    ``lhs`` is the weighted sup-norm series of the mixed brackets; ``rhs`` is
    ``(M/s)`` times the product of the corresponding pure series for ``g``
    and ``gd``.  The contract ``lhs <= rhs`` holds for every even
    submultiplicative weight.
    """
    _, lhs, rhs = _verify_pass(g, gd, lat, w)
    return lhs, rhs


def _verify_pass(g: Signal, gd: Signal, lat: GaborLattice,
                 w: Weight) -> tuple[IdentityResidual, float, float]:
    """The identity residual and both sides of the norm estimate, in one
    pass over the tables ``[gd, T g]``, ``[g, T g]`` and ``[gd, T gd]``.

    Every class shift ``k*a mod M`` is a multiple of ``d = gcd(a, M)``, so
    the tables are built a block of whole column cosets ``x0 + d*y`` at a
    time (:func:`bracket._bracket_cosets`) and each block goes to
    :func:`_block_residual`.  Each table keeps the running maxima of its
    row moduli, which ``amalgam._profile`` prices, so both series equal
    those of the whole tables bit for bit.  Only the spectra of ``g`` and
    ``gd``, one block and ``3*N`` sups stay resident.  A table that is not
    finite raises ``DomainError`` naming it.
    """
    _same_grid(lat.grid, g, gd)
    M, N = lat.M, lat.N
    d = math.gcd(lat.a, M)
    P = M // d
    Fg, Fgd = (np.fft.fft(f.samples.reshape(lat.b, M), axis=0) for f in (g, gd))
    cls_g, cls_gd = (list(_residue_classes(f.samples, lat)) for f in (g, gd))
    tables = (("[gd, T g]", Fgd, cls_g), ("[g, T g]", Fg, cls_g),
              ("[gd, T gd]", Fgd, cls_gd))
    step = min(d, max(1, _CHUNK // (N * P)))  # cosets per block
    sups = [np.zeros(N) for _ in tables]
    best = IdentityResidual(max_abs_error=-1.0, worst_k=0, worst_x=0)
    for x0 in range(0, d, step):
        xs = slice(x0, min(x0 + step, d))
        with np.errstate(over="ignore", invalid="ignore"):
            blocks = [_bracket_cosets(F, cls, lat, xs) for _, F, cls in tables]
            for (name, _, _), block, m in zip(tables, blocks, sups):
                np.maximum(m, np.abs(block).reshape(N, -1).max(axis=1), out=m)
                if not np.isfinite(m).all():
                    raise DomainError(f"bracket table {name} is not finite")
            best = _block_residual(lat, x0, *blocks, best)
    lhs, sum_g, sum_gd = (_profile(m[:, None], w).norm for m in sups)
    return best, lhs, (M / lat.grid.s) * sum_g * sum_gd


def _block_residual(lat: GaborLattice, x0: int, mixed: np.ndarray,
                    Bg: np.ndarray, Bgd: np.ndarray,
                    best: IdentityResidual) -> IdentityResidual:
    """The running maximum ``best`` updated by the identity residual on a
    block of the tables: columns ``x0 + i + d*y`` laid out as ``[n, y, i]``,
    which is ascending in ``x`` along the last two axes.

    With ``P = M/d``, ``Q = N/P`` and ``tau`` the inverse of ``a/d`` modulo
    ``P``, class ``c`` of ``k mod P`` shifts the columns by
    ``d*(c*a/d mod P)``.  Per ``(j0, i)`` the class sum of the row spectra
    at ``j = j0 + q*Q`` is one ``P x P`` product, whose entry ``(y, x1)``
    pairs column ``y`` of ``conj([g, T g])`` with column ``x1`` of
    ``[gd, T gd]`` in class ``tau*(x1 - y) mod P``; one length-``Q``
    inverse FFT then gives rows ``c::P``.  A larger value wins, an equal
    one only if it comes first in signed ``k``, then ``x``.  A residual
    that is not finite raises ``DomainError``.
    """
    M, N = lat.M, lat.N
    d = math.gcd(lat.a, M)
    P = M // d  # k*a mod M depends on k mod P, and P | N
    Q, nx = N // P, mixed.shape[2]
    c = np.arange(P)
    # entry (y, x1) of the class product is in class c at y = x1 - c*a/d
    y_of = (c - (lat.a // d) * c[:, None]) % P
    phase = np.exp(2j * np.pi * (pow(lat.a // d, -1, P) * np.outer(c, c) % P) / P)
    twiddle = np.exp(2j * np.pi * np.outer(np.arange(Q), c) / N) \
        * (M / lat.grid.s / P)
    # row spectra at j = j0 + q*Q as [q, j0, y, i], times the class phases
    # exp(2*pi*i*tau*q*y/P)
    Sg, Sgd = (np.fft.fft(B.reshape(N, P * nx), axis=0).reshape(P, Q, P, nx)
               * phase[:, None, :, None] for B in (Bg, Bgd))
    Z = np.conj(Sg.transpose(1, 3, 2, 0)) @ Sgd.transpose(1, 3, 0, 2)
    Z = Z[:, :, y_of, c] * twiddle[:, None, :, None]  # [j0, i, c, x1]
    R = np.fft.ifft(Z, axis=0).transpose(0, 2, 3, 1).reshape(N, P * nx)
    err = np.abs(mixed.reshape(N, P * nx) - R)
    top = float(err.max())
    if not math.isfinite(top):
        raise DomainError("identity residual is not finite")
    if top < best.max_abs_error:
        return best
    # rows in sorted signed-k order: row k mod N sits at position k + half
    half = (N - 1) // 2
    p, i = divmod(int(np.argmax(np.roll(err, half, axis=0))), P * nx)
    y, i = divmod(i, nx)
    new = IdentityResidual(max_abs_error=top, worst_k=p - half,
                           worst_x=x0 + i + d * y)
    return max(best, new,
               key=lambda r: (r.max_abs_error, -r.worst_k, -r.worst_x))


def conjecture_probe(gd: Signal, lat: GaborLattice, w: Weight) -> tuple[float, float]:
    """Weighted multiplier series of ``gd`` in both block geometries.

    Returns ``(sum over stride-M translates at period a, sum over stride-a
    translates at period M)`` side by side.  Whether finiteness of the first
    forces finiteness of the second is open, so nothing is asserted here.
    """
    sum_alpha = walnut_weighted_sum(walnut_coefficients(gd, lat), w)
    return sum_alpha, float(bracket_series(gd, gd, lat, w)[-1])


def build_counterexample(a_rule, grid: Grid) -> Signal:
    """Unit-modulated staircase with prescribed per-unit amplitudes.

    ``h(j) = a(rep(j//s)) * exp(2*pi*i*j/s)``: constant modulus per unit
    interval, oscillating at one cycle per unit.  ``a_rule`` is ``"harmonic"``
    (``a_k = 1/(|k|+1)``), a callable on signed unit indices, or a mapping.
    With square-summable, non-summable amplitudes this signal has finite
    energy but its block norm grows without bound as the grid widens.
    """
    K, s = grid.units, grid.s
    if K < 4:
        raise DomainError(f"counterexample needs at least 4 units, got K={K}")
    if s < 4:
        raise DomainError(f"counterexample needs s >= 4 to resolve the "
                          f"unit-frequency factor, got s={s}")
    if a_rule == "harmonic":
        coeff = lambda k: 1.0 / (abs(k) + 1.0)
    elif callable(a_rule):
        coeff = a_rule
    elif isinstance(a_rule, Mapping):
        coeff = lambda k: a_rule.get(k, 0.0)
    else:
        raise DomainError(f"unsupported amplitude rule {a_rule!r}")
    j = np.arange(grid.L)
    amps = np.array([coeff(signed_rep(u, K)) for u in range(K)], dtype=complex)
    return Signal(grid, np.repeat(amps, s) * np.exp(2j * np.pi * j / s))


def counterexample_report(
    h: Signal, g: Signal, lat: GaborLattice, w: Weight
) -> tuple[float, AmalgamProfile]:
    """Orthogonality and growth diagnostics for the staircase perturbation.

    Validates that ``lat`` is the half-unit-step, unit-frequency-step lattice
    the construction is tied to, then returns the largest inner product of
    ``h`` against the adjoint-lattice shifts of ``g`` (integer-unit
    translations, even-unit-frequency modulations) together with the
    half-unit block profile of ``h``.  The inner products vanish by exact
    geometric cancellation whenever ``s`` is even.  They are the Gabor
    coefficients of ``h`` on the adjoint lattice (time step ``s``,
    frequency step ``2K``), one call of :func:`frame_op.analysis`.
    """
    grid = lat.grid
    K, s = grid.units, grid.s
    if s % 2 != 0:
        raise LatticeError(f"construction requires even s, got s={s}")
    if lat.a != s // 2 or lat.b != K:
        raise LatticeError(
            f"lattice (a={lat.a}, b={lat.b}) is not the half-unit/unit-frequency "
            f"geometry (a={s // 2}, b={K}) this construction is tied to"
        )
    _same_grid(grid, h, g)
    # the adjoint lattice: unit time step s, frequency step 2K (s even
    # makes 2K divide L), so M = s/2 modulations
    inner = analysis(g, GaborLattice(grid, s, 2 * K), h).values
    max_inner = float(np.abs(inner).max())
    profile = amalgam_profile(h, s // 2, w)
    return max_inner, profile


def forbound_slack(W: WalnutCoeffs, w: Weight) -> float:
    """Block-misalignment slack of the multiplier-sum norm bound.

    Each strided translation by ``r*M`` smears one length-``a`` block over at
    most two, shifted by ``q = floor(r*M/a)`` blocks; weight submultiplicativity
    prices that shift at ``nu(q)`` (plus ``nu(q+1)`` when misaligned) instead
    of ``nu(r)``.  The returned slack is the relative excess of the aligned
    bound over the plain weighted multiplier sum, and is 0 when every stride
    lands on block boundaries with matching weights.
    """
    lat = W.lat
    nblocks = lat.grid.L // lat.a
    prof = _profile(W.table, w)
    q, rem = np.divmod(prof.indices * lat.M, lat.a)
    c = w(signed_rep(q, nblocks)) + np.where(
        rem != 0, w(signed_rep(q + 1, nblocks)), 0.0)
    plain = prof.norm
    if plain == 0.0:
        return 0.0
    aligned = float(np.cumsum(prof.block_sups * c)[-1])
    return max(0.0, aligned / plain - 1.0)


def forbound_check(
    g: Signal,
    lat: GaborLattice,
    w: Weight,
    trials: int = 100,
    seed: int = 0,
) -> float:
    """Worst observed block-norm amplification ratio of the frame operator.

    Over seeded random signals ``f``, returns the max of
    ``||S f|| / (weighted multiplier sum * factor * ||f||)`` in the
    block-``a`` weighted sup norm.  The ratio never exceeds
    ``1 + forbound_slack(...)`` for even submultiplicative weights.
    """
    W = walnut_coefficients(g, lat)
    denom_const = walnut_weighted_sum(W, w) * W.factor
    if denom_const == 0.0:
        return 0.0
    rng = np.random.default_rng(seed)
    L = lat.grid.L
    worst = 0.0
    for _ in range(trials):
        f = Signal(lat.grid, rng.standard_normal(L) + 1j * rng.standard_normal(L))
        num = amalgam_norm(frame_operator_walnut(W, f), lat.a, w)
        den = denom_const * amalgam_norm(f, lat.a, w)
        worst = max(worst, num / den)
    return worst
