"""Frame bounds, canonical dual and tight windows, inverse application.

The one default engine is ``fiber``: in the Zak domain the frame operator
splits into ``L/p`` Hermitian ``p x p`` blocks with ``p = a / gcd(a, M)``
(:meth:`WalnutCoeffs.fibers`), so its bounds, inverse and inverse square
root are exact batched eigen- and linear-algebra at ``O(L * p**2)``, plus
one length-``b`` FFT per coset on the way in and out.  A lattice with
``a | M`` (every power-of-two frame) has ``p = 1``: the blocks are scalars.
The stack holds ``L*p`` entries, capped by ``FIBER_LIMIT``, above which
every default raises ``SizeError``.  It is built once per table and is
read-only: a fiber solve checks its residual with ``W.apply``, which on a
table with many nonzero rows multiplies by the same stack.  The ``dense``
oracle runs the same code on one ``L x L`` block, the assembled matrix,
and takes its residual from that matrix too; it never builds the fiber
blocks, so its bounds and not-a-frame verdict are its own.  ``contour``
is quadrature on the fiber blocks.  Power iteration and conjugate
gradients are explicit cross-checks, the only methods the cap does not
refuse.  Conjugate gradients use only ``W.apply``.  Power iteration runs
in the coordinates of ``_to_zak`` on ``W.fibers()`` and on its reflection,
a second stack of the same size, so above the cap it needs more memory
than ``fiber`` would, and at no size is it the cheaper route to the
bounds.  Bounds passed to ``inverse_solve`` skip only the bounds that
decide the not-a-frame verdict.  ``S^-1`` itself, in Walnut form, is the inverted fiber blocks
mapped back to a table (``_inverse_walnut``); no dual is solved for it.

A computed dual or tight window is checked exactly by
``duality_defect``, the Walnut-form biorthogonality defect of the pair at
``O(b*n)`` for a shorter support run of ``n``; ``verify_reconstruction``
reconstructs random signals through analysis and synthesis and stays as its
independent oracle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import GaborLattice, Signal, _adopt
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
    _block_size,
    _from_zak,
    _pair_rows,
    _to_zak,
    _zak_product,
    _zak_table,
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
    "duality_defect",
    "verify_reconstruction",
]

DENSE_LIMIT = 1024
# Entries of the fiber block stack, L*p: 2**22 complex values are 64 MiB.
FIBER_LIMIT = 2**22
# A lower bound this far below B (relatively) is treated as zero.
NOT_A_FRAME_RTOL = 1e-12
# Power-iteration steps, and the seeds of its start vectors for B and for A.
POWER_MAX_ITER = 400_000
POWER_SEEDS = (0, 1)
_TINY = np.finfo(float).tiny
# What the cap does not refuse, by the caller's own method.
_ABOVE_CAP = {"power_iteration": "; method='power_iteration' is not refused "
                                  "but builds that stack and a reflected copy",
              "cg": "; method='cg' with bounds= runs matrix-free"}


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


@dataclass(frozen=True, eq=False)
class SolverReport:
    """Iteration count and relative residual history of a linear solve."""

    method: str
    iterations: int
    residuals: np.ndarray
    converged: bool


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tolerance must be finite and > 0, got {tol!r}")


def _method_for(method: str | None, lat: GaborLattice, extra: str) -> str:
    """Resolve ``method`` (``fiber`` when None; ``extra`` is the caller's own
    method besides ``fiber`` and ``dense``) and refuse a size its storage
    cannot hold.  ``contour`` runs on the fiber blocks and has their cap.
    """
    L = lat.grid.L
    entries = L * _block_size(lat)
    method = "fiber" if method is None else method
    if method not in ("fiber", "dense", extra):
        raise ValueError(f"unknown method {method!r}")
    if method in ("fiber", "contour") and entries > FIBER_LIMIT:
        raise SizeError(f"fiber blocks limited to L*p <= {FIBER_LIMIT}, "
                        f"got {entries}{_ABOVE_CAP.get(extra, '')}")
    if method == "dense" and L > DENSE_LIMIT:
        raise SizeError(f"dense path limited to L <= {DENSE_LIMIT}, got {L}")
    return method


def _blocks(g: Signal, lat: GaborLattice, method: str):
    """``(apply, blocks, to, back)``: the operator as a stack of Hermitian
    blocks, ``S v = back((blocks @ to(v)[..., None])[..., 0])``, and the
    ``S v`` that checks a solve's residual.

    ``dense``: :func:`dense_frame_matrix` as a ``(1, L, L)`` stack, applied
    as that matrix; any other method: the ``(L/p, p, p)`` Zak-domain
    blocks ``W.fibers()``, applied as ``W.apply``.
    """
    if method == "dense":
        S = dense_frame_matrix(g, lat)
        return lambda v: S @ v, S[None], lambda v: v[None], lambda z: z[0]
    W = walnut_coefficients(g, lat)
    return (W.apply, W.fibers(), lambda v: _to_zak(v, lat),
            lambda z: _from_zak(z, lat))


def _gershgorin_upper(W: WalnutCoeffs) -> float:
    """Row-sum bound on the spectral radius of the multiplier-form operator."""
    return float(W.factor * np.abs(W.table).sum(axis=0).max())


def _power_extreme(blocks: np.ndarray, lat: GaborLattice, tol: float,
                   seed: int) -> float:
    """Largest eigenvalue of a Hermitian PSD block stack by power iteration.

    The iterate lives in the coordinates of :func:`frame_op._to_zak`, a
    scaled unitary map, so the Rayleigh quotients and eigen-residuals are
    those of the operator on samples.  Only the seeded start vector is
    mapped; each step is one :func:`frame_op._zak_product` (elementwise at
    ``p = 1``), with norms and inner products as dots over float views.
    Stops when the Rayleigh quotient is stationary to ``tol`` (relative
    change) and the eigen-residual is below ``10*tol`` relative to the
    estimate; for Hermitian operators the residual bounds the eigenvalue
    error directly, which keeps clustered spectra honest.
    """
    rng = np.random.default_rng(seed)
    L = lat.grid.L
    v = np.ascontiguousarray(
        _to_zak(rng.standard_normal(L) + 1j * rng.standard_normal(L), lat))
    w, res = np.empty_like(v), np.empty_like(v)
    vf, wf, rf = (x.reshape(-1).view(float) for x in (v, w, res))
    vf *= 1.0 / math.sqrt(np.dot(vf, vf))
    lam_old = None
    lam = resid = math.nan
    change = math.inf
    for _ in range(POWER_MAX_ITER):
        _zak_product(blocks, v, w)
        nw = math.sqrt(np.dot(wf, wf))
        if nw == 0.0:
            return 0.0  # operator annihilates the iterate: extreme eigenvalue 0
        lam = float(np.dot(vf, wf))  # Re<v, w>
        np.multiply(vf, lam, out=rf)
        np.subtract(wf, rf, out=rf)
        resid = math.sqrt(np.dot(rf, rf))
        np.multiply(wf, 1.0 / nw, out=vf)
        # zero the parts below the normal range: subnormal arithmetic is slow
        vf[np.abs(vf) < _TINY] = 0.0
        scale = max(abs(lam), 1e-300)
        if lam_old is not None:
            change = abs(lam - lam_old)
            if change <= tol * scale and resid <= 10.0 * tol * scale:
                return lam
        lam_old = lam
    scale = max(abs(lam), 1e-300)
    raise ConvergenceError(
        f"power iteration did not converge in {POWER_MAX_ITER} steps: "
        f"Rayleigh quotient {lam:.6e}, relative change {change / scale:.1e}, "
        f"relative eigen-residual {resid / scale:.1e} (tol {tol:.1e})"
    )


def _bounds(A: float, B: float, method: str) -> FrameBounds:
    """Bounds from extreme eigenvalue estimates, with the not-a-frame rule."""
    A = max(A, 0.0)
    B = max(B, A)
    return FrameBounds(A=A, B=B, method=method,
                       not_a_frame=A <= NOT_A_FRAME_RTOL * B)


def frame_bounds(
    g: Signal,
    lat: GaborLattice,
    method: str | None = None,
    tol: float = 1e-10,
) -> FrameBounds:
    """Lower and upper frame bounds of the system generated by ``g`` on ``lat``.

    ``fiber`` (the default) takes the extreme eigenvalues of the fiber
    blocks and raises ``SizeError`` above ``FIBER_LIMIT``; ``dense`` those
    of the full matrix as one block (grid length at most ``DENSE_LIMIT``);
    ``power_iteration`` iterates on the operator and on its reflection
    below a row-sum upper estimate (``POWER_MAX_ITER`` steps each, start
    vectors seeded by ``POWER_SEEDS``); the cap does not refuse it, but it
    steps on the same stack ``W.fibers()`` as ``fiber`` and on a reflected
    copy: at L = 49152, p = 2 its tracemalloc peak is twice that of
    ``fiber`` (7.3 against 3.6 MiB) and it takes hundreds of times as long.
    A tolerance that is not finite and positive raises ``DomainError``.
    """
    _check_tol(tol)
    method = _method_for(method, lat, "power_iteration")
    if method in ("fiber", "dense"):
        ev = np.linalg.eigvalsh(_blocks(g, lat, method)[1])
        A, B = float(ev.min()), float(ev.max())
    else:
        W = walnut_coefficients(g, lat)
        blocks = W.fibers()
        B = _power_extreme(blocks, lat, tol, POWER_SEEDS[0])
        # A from the reflection mu - S, a new stack beside the read-only one
        mu = _gershgorin_upper(W)
        reflected = mu * np.eye(blocks.shape[-1]) - blocks
        A = mu - _power_extreme(reflected, lat, tol, POWER_SEEDS[1])
    bounds = _bounds(A, B, method)
    if bounds.not_a_frame:
        warnings.warn(
            f"lower frame bound {bounds.A:.3e} vanishes relative to upper "
            f"{bounds.B:.3e}",
            NotAFrameWarning,
            stacklevel=2,
        )
    return bounds


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


def _frame_or_raise(bounds: FrameBounds) -> FrameBounds:
    """``bounds``, or ``NotAFrameError`` when they fail the not-a-frame rule
    of :func:`_bounds`, ``A <= NOT_A_FRAME_RTOL * B``."""
    if bounds.not_a_frame:
        raise NotAFrameError(
            f"system is not a frame (A={bounds.A:.3e}, B={bounds.B:.3e})"
        )
    return bounds


def inverse_solve(
    g: Signal,
    lat: GaborLattice,
    rhs: Signal,
    method: str | None = None,
    tol: float = 1e-10,
    max_iter: int | None = None,
    bounds: FrameBounds | None = None,
) -> tuple[Signal, SolverReport]:
    """Solve ``S x = rhs`` for the frame operator of ``g``; returns the report too.

    ``fiber`` (the default) solves each fiber block; ``dense`` solves the
    full matrix as one block by LU.  Both report the relative residual,
    ``fiber`` through ``W.apply`` and ``dense`` through its own matrix, and
    the report's ``converged`` says whether it is at most ``tol``.  ``cg``
    is matrix-free on the multiplier table.
    Without ``bounds`` the not-a-frame verdict comes from the eigenvalues
    of the same blocks (``fiber``, ``dense``) or from the default
    :func:`frame_bounds` (``cg``); supplied ``bounds`` skip that and decide
    the verdict, so above ``FIBER_LIMIT``, where ``fiber`` raises
    ``SizeError``, ``cg`` with ``bounds`` is the method that runs.  Raises
    ``GridMismatchError`` when ``rhs`` lives on another grid,
    ``DomainError`` for a tolerance that is not finite and positive,
    ``NotAFrameError`` when the lower frame bound vanishes and
    ``ConvergenceError`` on an exhausted iteration budget.
    """
    method = _method_for(method, lat, "cg")
    _check_tol(tol)
    if rhs.grid != lat.grid:
        raise GridMismatchError("right-hand side and lattice must share one grid")
    L = lat.grid.L
    if method in ("fiber", "dense"):
        apply, blocks, to, back = _blocks(g, lat, method)
        if bounds is None:
            ev = np.linalg.eigvalsh(blocks)
            bounds = _bounds(float(ev.min()), float(ev.max()), method)
        _frame_or_raise(bounds)
        x = back(np.linalg.solve(blocks, to(rhs.samples)[..., None])[..., 0])
        rel = float(
            np.linalg.norm(apply(x) - rhs.samples)
            / max(np.linalg.norm(rhs.samples), 1e-300)
        )
        return (_adopt(Signal, grid=lat.grid, samples=x),
                SolverReport(method, 1, np.array([rel]), bool(rel <= tol)))
    if bounds is None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NotAFrameWarning)
            bounds = frame_bounds(g, lat, tol=min(tol, 1e-10))
    _frame_or_raise(bounds)
    if max_iter is None:
        max_iter = max(1000, 10 * L)
    W = walnut_coefficients(g, lat)
    x, hist, ok = _cg_hermitian(W.apply, rhs.samples, tol, max_iter)
    if not ok:
        raise ConvergenceError(
            f"{method} stalled at relative residual {hist[-1]:.3e} "
            f"after {len(hist)} iterations (tol {tol:.1e})"
        )
    return (_adopt(Signal, grid=lat.grid, samples=x),
            SolverReport(method, len(hist), hist, True))


def dual_window(g: Signal, lat: GaborLattice, method: str | None = None,
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


CONTOUR_NODES_START = 16
CONTOUR_NODES_MAX = 4096


def _contour_inverse_sqrt(blocks: np.ndarray, rhs: np.ndarray, A: float,
                          B: float, tol: float) -> np.ndarray:
    """Contour quadrature of ``blocks**-0.5 @ rhs`` for a stack of Hermitian
    blocks whose spectrum lies inside ``[A, B]``.

    Every node ``lam`` is one batched solve ``(lam I - blocks) x = rhs``.
    Trapezoid rule on the circle around ``[A, B]``, doubling the node count
    from ``CONTOUR_NODES_START`` (a level halves the sum of the one before
    and adds its new nodes) until two levels agree to ``tol`` (cap
    ``CONTOUR_NODES_MAX``).
    """
    eye = np.eye(blocks.shape[-1])
    prev = None
    n = CONTOUR_NODES_START
    while n <= CONTOUR_NODES_MAX:
        lam, dweight = _contour_nodes(A, B, n)
        new = slice(None) if prev is None else slice(1, None, 2)
        acc = sum(wgt * lm ** -0.5 * np.linalg.solve(lm * eye - blocks, rhs)
                  for lm, wgt in zip(lam[new], dweight[new]))
        if prev is not None:
            acc = acc + 0.5 * prev
            delta = np.linalg.norm(acc - prev) / max(np.linalg.norm(acc), 1e-300)
            if delta < tol:
                return acc
        prev = acc
        n *= 2
    raise ConvergenceError(
        f"contour quadrature did not settle within {n // 2} nodes "
        f"(B/A = {B / A:.3g}, tol {tol:.1e})"
    )


def _eigh_or_raise(g: Signal, lat: GaborLattice, method: str):
    """``(ev, V, bounds, blocks, to, back)``: ``blocks = V diag(ev) V^H`` for
    :func:`_blocks`, whose extreme ``ev`` decide the not-a-frame verdict."""
    _, blocks, to, back = _blocks(g, lat, method)
    ev, V = np.linalg.eigh(blocks)
    bounds = _bounds(float(ev.min()), float(ev.max()), method)
    return ev, V, _frame_or_raise(bounds), blocks, to, back


def _inverse_walnut(g: Signal, lat: GaborLattice) -> WalnutCoeffs:
    """Table of ``S^-1 = S_{gd,gd}`` without solving for ``gd``: the fiber
    blocks' ``V diag(1/ev) V^H`` mapped back by ``frame_op._zak_table``."""
    ev, V = _eigh_or_raise(g, lat, _method_for("fiber", lat, "fiber"))[:2]
    inv = _zak_table((V / ev[:, None, :]) @ V.conj().swapaxes(1, 2), lat)
    return _adopt(WalnutCoeffs, lat=lat, table=inv)


def tight_window(g: Signal, lat: GaborLattice, method: str | None = None,
                 tol: float = 1e-10) -> Signal:
    """Canonical tight window: the inverse square root of the frame operator
    applied to ``g``.

    ``fiber`` (the default) diagonalizes each fiber block, takes the frame
    bounds from those eigenvalues and maps them through ``ev**-0.5``;
    ``dense`` does the same on the full matrix as one block (the oracle).
    ``contour`` takes the same bounds from the fiber blocks and evaluates
    ``blocks**-0.5`` as a circle integral around the spectrum with the
    trapezoid rule, one batched block solve per node (see
    :func:`_contour_inverse_sqrt`).  ``fiber`` and ``contour`` raise
    ``SizeError`` above ``FIBER_LIMIT``.  A tolerance that is not finite and
    positive raises ``DomainError``.
    """
    method = _method_for(method, lat, "contour")
    _check_tol(tol)
    ev, V, bounds, blocks, to, back = _eigh_or_raise(g, lat, method)
    z = to(g.samples)[..., None]
    if method == "contour":
        y = _contour_inverse_sqrt(blocks, z, bounds.A, bounds.B, tol)
    else:
        y = V @ ((V.conj().swapaxes(1, 2) @ z) / np.sqrt(ev)[..., None])
    return _adopt(Signal, grid=lat.grid, samples=back(y[..., 0]))


def duality_defect(g: Signal, gd: Signal, lat: GaborLattice) -> float:
    """Exact duality defect of the pair ``(g, gd)`` in Walnut form.

    ``D = sum_r sup_x |(M/s) [gd, T_{r*M} g]_a(x) - delta_{r0}|`` over all
    ``b`` signed ``r``.  The mixed multipliers ``(M/s) [gd, T_{r*M} g]_a``
    are those of ``S_{gd,g}``, so ``D`` bounds ``||S_{gd,g} - I||`` and,
    since the two pairings are adjoint, ``||S_{g,gd} - I||``; it therefore
    bounds every reconstruction residual of both pairings that
    :func:`verify_reconstruction` can find.  ``D = 0`` exactly when the
    windows are dual (Wexler-Raz/Janssen biorthogonality; Janssen, JFAA 1,
    1995).  Costs ``b*n`` products, ``n`` the shorter support run of the
    two windows: the rows of :func:`frame_op._pair_rows`, of which a
    self-pair ``gd is g`` sums ``b/2 + 1`` (its Walnut table).
    """
    if g.grid != gd.grid or g.grid != lat.grid:
        raise GridMismatchError("windows and lattice must share one grid")
    # the self-pair's rows are the Walnut table, half of them summed
    rows = walnut_coefficients(g, lat).table if gd is g else \
        _pair_rows(gd.samples, g.samples, lat, lat.b)
    rows = (lat.M / lat.grid.s) * rows
    rows[0] -= 1.0
    return float(np.abs(rows).max(axis=1).sum())


def verify_reconstruction(g: Signal, gd: Signal, lat: GaborLattice,
                          trials: int = 10, seed: int = 0) -> float:
    """Worst relative reconstruction residual over random signals; the
    library oracle for :func:`duality_defect`.

    Checks both pairings: analyze with ``gd`` and synthesize with ``g``, and
    the reverse, through :func:`analysis` and :func:`synthesis` only.
    Returns the max of the two relative residuals over all trials; near
    zero exactly when the windows are dual to each other, and never above
    the defect ``D`` beyond rounding.  Needs at least one trial: with none
    there is nothing to check.
    """
    if g.grid != gd.grid or g.grid != lat.grid:
        raise GridMismatchError("windows and lattice must share one grid")
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
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
