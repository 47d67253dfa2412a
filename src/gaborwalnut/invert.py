"""Frame bounds, canonical dual and tight windows, inverse application.

The dense eigendecomposition is the oracle; matrix-free paths (power
iteration, conjugate gradients, contour quadrature) use only the multiplier
table's ``apply`` and are cross-checked against it in the tests.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import GaborLattice, Signal, signed_range
from .errors import (
    BranchError,
    ConvergenceError,
    DomainError,
    GridMismatchError,
    NotAFrameError,
    NotAFrameWarning,
    SizeError,
)
from .frame_op import (
    WalnutCoeffs,
    analysis,
    dense_frame_matrix,
    synthesis,
    walnut_coefficients,
)

__all__ = [
    "FrameBounds",
    "SolverReport",
    "frame_bounds",
    "inverse_solve",
    "dual_window",
    "tight_window",
    "inverse_sqrt_matrix_contour",
    "verify_reconstruction",
]

DENSE_LIMIT = 1024
# A lower bound this far below B (relatively) is treated as zero.
NOT_A_FRAME_RTOL = 1e-12


@dataclass(frozen=True)
class FrameBounds:
    """Extreme Rayleigh quotients of the frame operator.

    ``not_a_frame`` is set when the lower bound is zero relative to the upper
    one; the system then fails the two-sided energy inequality.
    """

    A: float
    B: float
    method: str
    not_a_frame: bool

    @property
    def is_frame(self) -> bool:
        return not self.not_a_frame


@dataclass(frozen=True, eq=False)
class SolverReport:
    """Iteration count and relative residual history of a linear solve."""

    method: str
    iterations: int
    residuals: np.ndarray
    converged: bool


def _gershgorin_upper(W: WalnutCoeffs) -> float:
    """Row-sum bound on the spectral radius of the multiplier-form operator."""
    rowsum = sum(np.abs(W.table[r]) for r in signed_range(W.lat.b))
    return float(W.factor * rowsum.max())


def _power_extreme(apply_op, L: int, tol: float, max_iter: int, seed: int = 0) -> float:
    """Largest eigenvalue of a Hermitian PSD operator by power iteration.

    Stops when the Rayleigh quotient is stationary to ``tol`` (relative
    change) and the eigen-residual is below ``10*tol`` relative to the
    estimate; for Hermitian operators the residual bounds the eigenvalue
    error directly, which keeps clustered spectra honest.
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(L) + 1j * rng.standard_normal(L)
    v /= np.linalg.norm(v)
    lam_old = None
    for _ in range(max_iter):
        w = apply_op(v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0  # operator annihilates the iterate: extreme eigenvalue 0
        lam = float(np.real(np.vdot(v, w)))
        resid = float(np.linalg.norm(w - lam * v))
        v = w / nw
        scale = max(abs(lam), 1e-300)
        if (
            lam_old is not None
            and abs(lam - lam_old) <= tol * scale
            and resid <= 10.0 * tol * scale
        ):
            return lam
        lam_old = lam
    raise ConvergenceError(f"power iteration did not converge in {max_iter} steps")


def frame_bounds(
    g: Signal,
    lat: GaborLattice,
    method: str | None = None,
    tol: float = 1e-10,
    max_iter: int = 400_000,
    seed: int = 0,
) -> FrameBounds:
    """Lower and upper frame bounds of the system generated by ``g`` on ``lat``.

    ``dense`` diagonalizes the full matrix (grid length at most
    ``DENSE_LIMIT``); ``power_iteration`` runs matrix-free on the operator and
    on its reflection below a row-sum upper estimate.  Without a method the
    size picks: ``dense`` up to ``DENSE_LIMIT``, ``power_iteration`` above.
    """
    if method is None:
        method = "dense" if lat.grid.L <= DENSE_LIMIT else "power_iteration"
    if method == "dense":
        L = lat.grid.L
        if L > DENSE_LIMIT:
            raise SizeError(f"dense bounds limited to L <= {DENSE_LIMIT}, got {L}")
        S = dense_frame_matrix(g, lat)
        ev = np.linalg.eigvalsh(S)
        A, B = float(ev[0]), float(ev[-1])
    elif method == "power_iteration":
        W = walnut_coefficients(g, lat)
        L = lat.grid.L
        B = _power_extreme(W.apply, L, tol, max_iter, seed=seed)
        mu = _gershgorin_upper(W)

        def shifted(v):
            return mu * v - W.apply(v)

        A = mu - _power_extreme(shifted, L, tol, max_iter, seed=seed + 1)
    else:
        raise ValueError(f"unknown method {method!r}")
    A = max(A, 0.0)
    B = max(B, A)
    not_frame = A <= NOT_A_FRAME_RTOL * B
    if not_frame:
        warnings.warn(
            f"lower frame bound {A:.3e} vanishes relative to upper {B:.3e}",
            NotAFrameWarning,
            stacklevel=2,
        )
    return FrameBounds(A=A, B=B, method=method, not_a_frame=not_frame)


def _cg_hermitian(apply_op, rhs: np.ndarray, tol: float, max_iter: int):
    """Conjugate gradients for a Hermitian positive-definite operator."""
    x = np.zeros_like(rhs)
    r = rhs - apply_op(x)
    p = r.copy()
    rs = float(np.real(np.vdot(r, r)))
    nrhs = float(np.linalg.norm(rhs))
    if nrhs == 0.0:
        return x, np.zeros(0), True
    history = []
    for _ in range(max_iter):
        rel = math.sqrt(rs) / nrhs
        history.append(rel)
        if rel <= tol:
            return x, np.array(history), True
        Ap = apply_op(p)
        denom = float(np.real(np.vdot(p, Ap)))
        if denom <= 0.0:
            break  # operator not positive definite on this subspace
        alpha = rs / denom
        x = x + alpha * p
        r = r - alpha * Ap
        rs_new = float(np.real(np.vdot(r, r)))
        p = r + (rs_new / rs) * p
        rs = rs_new
    history.append(math.sqrt(rs) / nrhs)
    return x, np.array(history), math.sqrt(rs) / nrhs <= tol


def _frame_or_raise(g: Signal, lat: GaborLattice, bounds: FrameBounds | None,
                    tol: float) -> FrameBounds:
    """Check ``tol``, compute the bounds when none are given, refuse non-frames."""
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tolerance must be finite and > 0, got {tol!r}")
    if bounds is None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NotAFrameWarning)
            bounds = frame_bounds(g, lat, tol=min(tol, 1e-10))
    if bounds.not_a_frame:
        raise NotAFrameError(
            f"system is not a frame (A={bounds.A:.3e}, B={bounds.B:.3e})"
        )
    return bounds


def inverse_solve(
    g: Signal,
    lat: GaborLattice,
    rhs: Signal,
    method: str = "cg",
    tol: float = 1e-10,
    max_iter: int | None = None,
    bounds: FrameBounds | None = None,
) -> tuple[Signal, SolverReport]:
    """Solve ``S x = rhs`` for the frame operator of ``g``; returns the report too.

    ``cg`` is matrix-free on the multiplier table; ``dense`` factors the full
    matrix.  Raises ``DomainError`` for a tolerance that is not finite and
    positive, ``NotAFrameError`` when the lower frame bound vanishes and
    ``ConvergenceError`` on an exhausted iteration budget.
    """
    _frame_or_raise(g, lat, bounds, tol)
    L = lat.grid.L
    if max_iter is None:
        max_iter = max(1000, 10 * L)
    if method == "dense":
        if L > DENSE_LIMIT:
            raise SizeError(f"dense solve limited to L <= {DENSE_LIMIT}, got {L}")
        S = dense_frame_matrix(g, lat)
        x = np.linalg.solve(S, rhs.samples)
        rel = float(
            np.linalg.norm(S @ x - rhs.samples)
            / max(np.linalg.norm(rhs.samples), 1e-300)
        )
        return Signal(lat.grid, x), SolverReport("dense", 1, np.array([rel]), True)
    if method != "cg":
        raise ValueError(f"unknown method {method!r}")
    W = walnut_coefficients(g, lat)
    x, hist, ok = _cg_hermitian(W.apply, rhs.samples, tol, max_iter)
    if not ok:
        raise ConvergenceError(
            f"{method} stalled at relative residual {hist[-1]:.3e} "
            f"after {len(hist)} iterations (tol {tol:.1e})"
        )
    return Signal(lat.grid, x), SolverReport(method, len(hist), hist, True)


def dual_window(g: Signal, lat: GaborLattice, method: str = "cg",
                tol: float = 1e-10) -> Signal:
    """Canonical dual window: the solution of ``S gd = g``."""
    return inverse_solve(g, lat, g, method=method, tol=tol)[0]


def _contour_nodes(A: float, B: float, n: int):
    """Quadrature nodes on the circle enclosing ``[A, B]`` with 10% margin."""
    center = 0.5 * (A + B)
    radius = 0.5 * (B - A) + 0.1 * A
    if center - radius <= 0.0:
        raise BranchError(
            f"contour with center {center:.3e} and radius {radius:.3e} "
            "crosses the branch cut"
        )
    theta = 2.0 * np.pi * np.arange(n) / n
    lam = center + radius * np.exp(1j * theta)
    # d(lambda)/(2*pi*i) collapses to radius*e^{i*theta}/n per node
    dweight = radius * np.exp(1j * theta) / n
    return lam, dweight


def _resolvent_cgnr(apply_op, lam: complex, rhs: np.ndarray, tol: float,
                    max_iter: int) -> np.ndarray:
    """Solve ``(lam I - S) x = rhs`` by CG on the normal equations.

    The shifted operator is normal but not Hermitian for complex ``lam``;
    its Gram square is Hermitian positive definite whenever ``lam`` avoids
    the spectrum, which the contour margin guarantees.
    """
    def fwd(v):
        return lam * v - apply_op(v)

    def adj(v):
        return np.conj(lam) * v - apply_op(v)

    x, hist, ok = _cg_hermitian(lambda v: adj(fwd(v)), adj(rhs), tol, max_iter)
    if not ok:
        raise ConvergenceError(
            f"resolvent solve at node {lam:.6g} stalled (residual {hist[-1]:.3e})"
        )
    return x


CONTOUR_NODES_START = 16
CONTOUR_NODES_MAX = 4096


def tight_window(g: Signal, lat: GaborLattice, method: str = "contour",
                 tol: float = 1e-10) -> Signal:
    """Canonical tight window: the inverse square root of the frame operator
    applied to ``g``.

    ``dense`` diagonalizes and maps eigenvalues through the principal inverse
    square root (the oracle).  ``contour`` evaluates the same function as a
    circle integral around the spectrum with the trapezoid rule, doubling the
    node count from 16 until two successive levels agree to ``tol`` (cap
    4096); every node needs one shifted solve, done matrix-free.  A
    tolerance that is not finite and positive raises ``DomainError``.
    """
    bounds = _frame_or_raise(g, lat, None, tol)
    L = lat.grid.L
    if method == "dense":
        if L > DENSE_LIMIT:
            raise SizeError(f"dense tight window limited to L <= {DENSE_LIMIT}")
        S = dense_frame_matrix(g, lat)
        ev, V = np.linalg.eigh(S)
        y = V @ ((V.conj().T @ g.samples) / np.sqrt(ev))
        return Signal(lat.grid, y)
    if method != "contour":
        raise ValueError(f"unknown method {method!r}")
    W = walnut_coefficients(g, lat)
    inner_tol = max(tol * 1e-2, 1e-13)
    max_iter = max(2000, 20 * L)
    prev = None
    n = CONTOUR_NODES_START
    while n <= CONTOUR_NODES_MAX:
        lam, dweight = _contour_nodes(bounds.A, bounds.B, n)
        acc = np.zeros(L, dtype=complex)
        for lm, wgt in zip(lam, dweight):
            x = _resolvent_cgnr(W.apply, lm, g.samples, inner_tol, max_iter)
            acc += wgt * lm ** -0.5 * x
        if prev is not None:
            delta = np.linalg.norm(acc - prev) / max(np.linalg.norm(acc), 1e-300)
            if delta < tol:
                return Signal(lat.grid, acc)
        prev = acc
        n *= 2
    raise ConvergenceError(
        f"contour quadrature did not settle within {CONTOUR_NODES_MAX} nodes"
    )


def inverse_sqrt_matrix_contour(S: np.ndarray, A: float, B: float,
                                tol: float = 1e-10) -> np.ndarray:
    """Dense inverse square root by the same contour quadrature.

    Resolvents are dense solves here; used to check the quadrature against
    the eigendecomposition at matrix level.
    """
    L = S.shape[0]
    if A <= 0.0:
        raise NotAFrameError("inverse square root needs a positive lower bound")
    eye = np.eye(L, dtype=complex)
    prev = None
    n = CONTOUR_NODES_START
    while n <= CONTOUR_NODES_MAX:
        lam, dweight = _contour_nodes(A, B, n)
        acc = np.zeros((L, L), dtype=complex)
        for lm, wgt in zip(lam, dweight):
            acc += wgt * lm ** -0.5 * np.linalg.solve(lm * eye - S, eye)
        if prev is not None:
            delta = np.linalg.norm(acc - prev) / max(np.linalg.norm(acc), 1e-300)
            if delta < tol:
                return acc
        prev = acc
        n *= 2
    raise ConvergenceError(
        f"contour quadrature did not settle within {CONTOUR_NODES_MAX} nodes"
    )


def verify_reconstruction(g: Signal, gd: Signal, lat: GaborLattice,
                          trials: int = 10, seed: int = 0) -> float:
    """Worst relative reconstruction residual over random signals.

    Checks both pairings: analyze with ``gd`` and synthesize with ``g``, and
    the reverse.  Returns the max of the two relative residuals over all
    trials; near zero exactly when the windows are dual to each other.
    """
    if g.grid != gd.grid or g.grid != lat.grid:
        raise GridMismatchError("windows and lattice must share one grid")
    rng = np.random.default_rng(seed)
    L = lat.grid.L
    worst = 0.0
    for _ in range(trials):
        f = Signal(lat.grid, rng.standard_normal(L) + 1j * rng.standard_normal(L))
        nf = np.linalg.norm(f.samples)
        r1 = synthesis(g, lat, analysis(gd, lat, f)).samples - f.samples
        r2 = synthesis(gd, lat, analysis(g, lat, f)).samples - f.samples
        worst = max(worst, np.linalg.norm(r1) / nf, np.linalg.norm(r2) / nf)
    return worst
