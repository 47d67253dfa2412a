"""Desk-scale verification machinery for the operator identities.

Everything here evaluates finite sums exactly on the cyclic grid: multiplier
extraction from dense matrices, summability reports for the dual window's
multipliers, the mixed-bracket convolution identity and its norm estimate, a
two-sided summability probe (reported, never asserted), and the construction
of the non-summable dual perturbation with its exact orthogonality check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .amalgam import AmalgamProfile, amalgam_norm, amalgam_profile
from .bracket import PeriodicVector, bracket_product
from .core import (
    GaborLattice,
    Grid,
    Signal,
    Weight,
    inner_product,
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
    dense_frame_matrix,
    frame_operator_walnut,
    walnut_coefficients,
    walnut_weighted_sum,
)
from .invert import DENSE_LIMIT, dual_window

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
    """Weighted sup-norm series of the dual window's multiplier family.

    ``per_r`` lists ``(signed r, sup|G~_r|, nu(r), product)`` in the fixed
    signed order; ``tail_profile`` holds the running partial sums, ending at
    ``weighted_sum``.  ``cross_check_error`` is the worst deviation between
    the bracket-computed multipliers and those extracted from the dense
    inverse matrix (``None`` when the dense path was skipped).
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
    return WalnutCoeffs(lat=lat, table=table, factor=factor), off_mass


def dual_summability_report(
    g: Signal,
    lat: GaborLattice,
    w: Weight,
    tol: float = 1e-12,
    cross_check: bool = True,
) -> SummabilityReport:
    """Weighted multiplier series of the canonical dual window.

    Computes the dual, folds its correlation multipliers, and reports their
    weighted sup-norm series.  When the grid is small enough the multipliers
    are cross-checked against those extracted from the inverse of the dense
    frame matrix, which must agree since inverting the operator and taking
    the frame operator of the dual are the same map.
    """
    gd = dual_window(g, lat, method="cg", tol=tol)
    Wd = walnut_coefficients(gd, lat)
    per_r = []
    partial = []
    total = 0.0
    for r, sup in Wd.sup_norms().items():
        nu = float(w(r))
        total += sup * nu
        per_r.append((r, sup, nu, sup * nu))
        partial.append(total)
    err = None
    if cross_check and lat.grid.L <= DENSE_LIMIT:
        Sinv = np.linalg.inv(dense_frame_matrix(g, lat))
        extracted, _ = extract_walnut_from_matrix(Sinv, lat)
        err = float(np.max(np.abs(extracted.table - Wd.table)))
    return SummabilityReport(
        lattice=lat,
        weight=w.describe(),
        per_r=tuple(per_r),
        weighted_sum=total,
        tail_profile=np.array(partial),
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


def _bracket_table(f: Signal, h: Signal, lat: GaborLattice) -> np.ndarray:
    """Rows ``n = 0..N-1`` of ``[f, T_{n*a} h]`` at period ``M``."""
    return np.stack(
        [
            bracket_product(f, tf_shift(h, n * lat.a, 0), lat.M).values
            for n in range(lat.N)
        ]
    )


def bracket_series(f: Signal, h: Signal, lat: GaborLattice, w: Weight) -> np.ndarray:
    """Running sums of ``sup|[f, T_{n*a} h]_M| * nu(n)`` over signed ``n``.

    The last entry is the weighted sup-norm series itself.
    """
    sups = np.abs(_bracket_table(f, h, lat)).max(axis=1)
    order = signed_range(lat.N)
    return np.cumsum([float(sups[n]) * float(w(n)) for n in order])


def convo_identity_residual(g: Signal, gd: Signal, lat: GaborLattice) -> IdentityResidual:
    """Residual of the mixed-bracket convolution identity.

    For every signed time index ``k`` and every point ``x`` of one period,
    compares ``[gd, T_{k*a} g](x)`` with
    ``(M/s) * sum_n conj([g, T_{n*a} g])(x - k*a) * [gd, T_{(k+n)*a} gd](x)``.
    Exact (to rounding) when ``gd`` is the canonical dual of ``g``.
    """
    if g.grid != gd.grid or g.grid != lat.grid:
        raise GridMismatchError("windows and lattice must share one grid")
    M, N = lat.M, lat.N
    Bg = _bracket_table(g, g, lat)
    Bgd = _bracket_table(gd, gd, lat)
    worst = -1.0
    worst_k = worst_x = 0
    for k in sorted(signed_range(N)):
        lhs = bracket_product(gd, tf_shift(g, k * lat.a, 0), M).values
        shift = (k * lat.a) % M
        rows = np.stack([Bgd[(k + n) % N] for n in range(N)])
        rhs = (lat.M / lat.grid.s) * np.sum(
            np.roll(np.conj(Bg), shift, axis=1) * rows, axis=0
        )
        err = np.abs(lhs - rhs)
        x = int(np.argmax(err))
        if float(err[x]) > worst:
            worst = float(err[x])
            worst_k, worst_x = k, x
    return IdentityResidual(max_abs_error=worst, worst_k=worst_k, worst_x=worst_x)


def estimate_convest(
    g: Signal, gd: Signal, lat: GaborLattice, w: Weight
) -> tuple[float, float]:
    """Both sides of the mixed-bracket norm estimate.

    ``lhs`` is the weighted sup-norm series of the mixed brackets; ``rhs`` is
    ``(M/s)`` times the product of the corresponding pure series for ``g``
    and ``gd``.  The contract ``lhs <= rhs`` holds for every even
    submultiplicative weight.
    """
    if g.grid != gd.grid or g.grid != lat.grid:
        raise GridMismatchError("windows and lattice must share one grid")
    lhs = float(bracket_series(gd, g, lat, w)[-1])
    sum_g = float(bracket_series(g, g, lat, w)[-1])
    sum_gd = float(bracket_series(gd, gd, lat, w)[-1])
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
    amps = np.array([coeff(signed_rep(int(u), K)) for u in j // s], dtype=complex)
    return Signal(grid, amps * np.exp(2j * np.pi * j / s))


def counterexample_report(
    h: Signal, g: Signal, lat: GaborLattice, w: Weight
) -> tuple[float, AmalgamProfile]:
    """Orthogonality and growth diagnostics for the staircase perturbation.

    Validates that ``lat`` is the half-unit-step, unit-frequency-step lattice
    the construction is tied to, then returns the largest inner product of
    ``h`` against the adjoint-lattice shifts of ``g`` (integer-unit
    translations, even-unit-frequency modulations) together with the
    half-unit block profile of ``h``.  The inner products vanish by exact
    geometric cancellation whenever ``s`` is even.
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
    j = np.arange(grid.L)
    max_inner = 0.0
    for m in range(s // 2):
        mod = np.exp(2j * np.pi * (2 * m * K % grid.L) * j / grid.L)
        for n in range(K):
            shifted = Signal(grid, mod * np.roll(g.samples, n * s))
            max_inner = max(max_inner, abs(inner_product(h, shifted)))
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
    plain = 0.0
    aligned = 0.0
    for r, sup in W.sup_norms().items():
        q, rem = divmod(r * lat.M, lat.a)
        c_r = float(w(signed_rep(q, nblocks)))
        if rem != 0:
            c_r += float(w(signed_rep(q + 1, nblocks)))
        plain += sup * float(w(r))
        aligned += sup * c_r
    if plain == 0.0:
        return 0.0
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
