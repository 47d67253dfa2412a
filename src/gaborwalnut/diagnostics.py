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
from .bracket import PeriodicVector, _bracket_table, bracket_product
from .core import (
    GaborLattice,
    Grid,
    Signal,
    Weight,
    signed_range,
    signed_rep,
    tf_shift,
)
from .errors import (
    DimensionError,
    DomainError,
    GridMismatchError,
    LatticeError,
    SizeError,
)
from .frame_op import (
    WalnutCoeffs,
    analysis,
    dense_frame_matrix,
    frame_operator_walnut,
    walnut_coefficients,
    walnut_weighted_sum,
)
from .invert import DENSE_LIMIT, _check_tol, _inverse_walnut

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
    ``weighted_sum``.  ``cross_check_error`` is the worst deviation between
    the block-inverse multipliers and those read off an LU solve of the
    dense matrix for the ``a`` columns that the extraction reads (``None``
    when skipped, and above ``DENSE_LIMIT``).
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


def _dense_inverse_table(g: Signal, lat: GaborLattice) -> np.ndarray:
    """Multiplier table of ``S^-1`` from an LU solve of the dense frame
    matrix for its first ``a`` columns, the ones the extraction reads.

    Column ``c`` of ``S^-1`` meets strided diagonal ``r`` in row
    ``(c + r*M) mod L``, which is entry ``(c + r*M) mod a`` of ``G~_r``;
    as ``c`` runs over one period those entries fill the row.
    """
    L, a = lat.grid.L, lat.a
    X = np.linalg.solve(dense_frame_matrix(g, lat), np.eye(L, a, dtype=complex))
    r = np.array(signed_range(lat.b))[:, None]
    c = np.arange(a)
    j = c + r * lat.M
    table = np.empty((lat.b, a), dtype=complex)
    table[r % lat.b, j % a] = X[j % L, c]
    return table / (lat.M / lat.grid.s)


def dual_summability_report(
    g: Signal,
    lat: GaborLattice,
    w: Weight,
    tol: float = 1e-12,
    cross_check: bool = True,
) -> SummabilityReport:
    """Weighted multiplier series of ``S^-1``, the canonical dual's.

    The multipliers are read off the inverted fiber blocks of ``S``
    (:func:`invert._inverse_walnut`): nothing is solved, and ``tol`` is only
    validated.  When the grid is small enough they are cross-checked against
    those read off an LU solve of the dense frame matrix for the ``a``
    columns that the extraction reads (:func:`_dense_inverse_table`), an
    independent route to the same operator.
    """
    _check_tol(tol)
    Wd = _inverse_walnut(g, lat)
    prof = _profile(Wd.table, w)
    sups, weights = prof.block_sups, prof.weights
    per_r = zip(prof.indices.tolist(), sups.tolist(), weights.tolist(),
                (sups * weights).tolist())
    err = None
    if cross_check and lat.grid.L <= DENSE_LIMIT:
        err = float(np.max(np.abs(_dense_inverse_table(g, lat) - Wd.table)))
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
    if g.grid != gd.grid or g.grid != lat.grid:
        raise GridMismatchError("windows and lattice must share one grid")
    pv = bracket_product(gd, tf_shift(g, k * lat.a, 0), lat.M)
    return PeriodicVector(lat.M, (lat.M / lat.grid.s) * pv.values)


def bracket_series(f: Signal, h: Signal, lat: GaborLattice, w: Weight) -> np.ndarray:
    """Running sums of ``sup|[f, T_{n*a} h]_M| * nu(n)`` over signed ``n``.

    The last entry is the weighted sup-norm series itself.
    """
    return _profile(_bracket_table(f, h, lat), w).weighted_cumsums


def _verify_tables(
    g: Signal, gd: Signal, lat: GaborLattice
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bracket tables ``[gd, T g]``, ``[g, T g]`` and ``[gd, T gd]``.

    Both the convolution identity and the norm estimate read these three;
    ``cli`` builds them once for both.
    """
    if g.grid != gd.grid or g.grid != lat.grid:
        raise GridMismatchError("windows and lattice must share one grid")
    return (_bracket_table(gd, g, lat), _bracket_table(g, g, lat),
            _bracket_table(gd, gd, lat))


def convo_identity_residual(g: Signal, gd: Signal, lat: GaborLattice) -> IdentityResidual:
    """Residual of the mixed-bracket convolution identity.

    For every signed time index ``k`` and every point ``x`` of one period,
    compares ``[gd, T_{k*a} g](x)`` with
    ``(M/s) * sum_n conj([g, T_{n*a} g])(x - k*a) * [gd, T_{(k+n)*a} gd](x)``.
    Exact (to rounding) when ``gd`` is the canonical dual of ``g``.

    For each residue class of ``k`` modulo ``P = M / gcd(a, M)`` the column
    shift ``k*a mod M`` is fixed, so the sum over ``n`` is a cyclic
    correlation along the rows of the tables: one elementwise product of
    their length-``N`` FFTs, folded to length ``N / P`` and inverted there.
    That costs ``O(P*N*M + N*M*log N)`` against ``N**2 * M`` for the direct
    sum, and holds a few ``N x M`` arrays.  Ties go to the first maximum in
    sorted signed ``k``, then in ``x``.
    """
    return _identity_residual(lat, *_verify_tables(g, gd, lat))


def _identity_residual(lat: GaborLattice, mixed: np.ndarray, Bg: np.ndarray,
                       Bgd: np.ndarray) -> IdentityResidual:
    M, N = lat.M, lat.N
    P = M // math.gcd(lat.a, M)  # k*a mod M depends on k mod P, and P | N
    Q = N // P
    Fg = np.fft.fft(Bg, axis=0)
    np.conj(Fg, out=Fg)
    Fgd = np.fft.fft(Bgd, axis=0)
    prod = np.empty((N, M), dtype=complex)
    # rows in sorted signed-k order: row k mod N sits at position k + half
    half = (N - 1) // 2
    err = np.empty((N, M))
    q = np.arange(P)
    j0 = np.arange(Q)
    for c in range(P):
        # spectra of column x - c*a of conj(Bg) and column x of Bgd
        shift = (c * lat.a) % M
        np.multiply(Fg[:, :M - shift], Fgd[:, shift:], out=prod[:, shift:])
        np.multiply(Fg[:, M - shift:], Fgd[:, :shift], out=prod[:, :shift])
        # rows c::P of the length-N inverse FFT, as a length-Q one of the
        # spectrum folded over j = j0 + q*Q with the twiddles of row c
        fold = np.exp(2j * np.pi * (c * q % P) / P) * (M / lat.grid.s / P)
        z = (fold @ prod.reshape(P, Q * M)).reshape(Q, M)
        z *= np.exp(2j * np.pi * (c * j0) / N)[:, None]
        rows = np.arange(c, N, P)
        err[(rows + half) % N] = np.abs(mixed[c::P] - np.fft.ifft(z, axis=0))
    worst_p, worst_x = divmod(int(np.argmax(err)), M)
    return IdentityResidual(max_abs_error=float(err[worst_p, worst_x]),
                            worst_k=worst_p - half, worst_x=worst_x)


def estimate_convest(
    g: Signal, gd: Signal, lat: GaborLattice, w: Weight
) -> tuple[float, float]:
    """Both sides of the mixed-bracket norm estimate.

    ``lhs`` is the weighted sup-norm series of the mixed brackets; ``rhs`` is
    ``(M/s)`` times the product of the corresponding pure series for ``g``
    and ``gd``.  The contract ``lhs <= rhs`` holds for every even
    submultiplicative weight.
    """
    return _convest(lat, w, *_verify_tables(g, gd, lat))


def _convest(lat: GaborLattice, w: Weight, mixed: np.ndarray, Bg: np.ndarray,
             Bgd: np.ndarray) -> tuple[float, float]:
    lhs, sum_g, sum_gd = (_profile(t, w).norm for t in (mixed, Bg, Bgd))
    return lhs, (lat.M / lat.grid.s) * sum_g * sum_gd


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
    if h.grid != grid or g.grid != grid:
        raise GridMismatchError("signals and lattice must share one grid")
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
