"""Frame bounds, canonical dual and tight windows, inverse application.

The one default engine is ``fiber``: in the Zak domain the frame operator
splits into Hermitian ``p x p`` blocks, ``p = a / gcd(a, M)``, one per
orbit of ``T_a`` kept, ``c*(b/p)`` of them with ``c = gcd(a, M)``
(:meth:`WalnutCoeffs.fibers`).  Its bounds, inverse and inverse square
root are exact batched eigen- and linear-algebra at ``O(a*b*p)``, each
block applied to the ``P = M/c`` vectors of its orbit, between FFTs along
the cosets.  The stack holds ``a*b`` entries, capped where it is built by
``frame_op.FIBER_LIMIT``: above it every reader raises ``SizeError``.

Every solver reads one operator value, which :func:`_operator` picks for
its method: the table ``W = walnut_coefficients(g, lat)``, which ``g``
keeps, with one stack and one eigendecomposition, each built at most once;
or for ``dense`` a ``frame_op._Dense`` built for the call: the ``M`` coset
blocks ``b x b`` of the dense matrix gathered from the table, with its own.
Both are block stacks, read by the same batched algebra, and each gives
its own bounds, verdict and residual.  ``contour`` is quadrature on the
fiber blocks; power iteration and conjugate gradients are cross-checks.
``S^-1`` in Walnut form is the inverted fiber blocks mapped back to a
table (``_inverse_walnut``); no dual is solved for it.

A computed dual or tight window is checked exactly by ``duality_defect``,
the Walnut-form biorthogonality defect at ``O(b*n)`` for a shorter support
run of ``n``; ``verify_reconstruction`` reconstructs random signals
through analysis and synthesis and stays as its independent oracle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import GaborLattice, Signal, _adopt, _same_grid
from .errors import (
    ConvergenceError,
    DomainError,
    NotAFrameError,
    NotAFrameWarning,
)
from .frame_op import (
    DENSE_LIMIT,  # also read as invert.DENSE_LIMIT
    WalnutCoeffs,
    _Dense,
    _pair_rows,
    _zak_product,
    _zak_solve,
    _zak_table,
    analysis,
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

# A lower bound this far below B (relatively) is treated as zero.
NOT_A_FRAME_RTOL = 1e-12
# Power-iteration steps, and the seeds of its start vectors for B and for A.
POWER_MAX_ITER = 400_000
POWER_SEEDS = (0, 1)
_TINY = np.finfo(float).tiny


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


def _operator(W: WalnutCoeffs, method: str | None, *others: str):
    """``(method, op)``: ``method`` resolved (``fiber`` when None; ``others``
    are the caller's besides ``fiber`` and ``dense``) and the value it reads,
    a new ``_Dense(W)`` for ``dense``, else ``W``; each caps its array."""
    method = "fiber" if method is None else method
    if method not in ("fiber", "dense", *others):
        raise ValueError(f"unknown method {method!r}")
    return method, _Dense(W) if method == "dense" else W


def _gershgorin_upper(W: WalnutCoeffs) -> float:
    """Row-sum bound on the spectral radius of the multiplier-form operator."""
    return float(W.factor * np.abs(W.table).sum(axis=0).max())


def _power_extreme(blocks: np.ndarray, W: WalnutCoeffs, tol: float,
                   seed: int) -> float:
    """Largest eigenvalue of a Hermitian PSD block stack by power iteration.

    The seeded start vector is mapped once by ``W._to``, a scaled unitary
    map, to the ``P`` vectors of each block's orbit, the columns of a
    ``p x P`` matrix ``V``.  The loop reads ``V`` only through ``V V^H``
    (norms, ``Re tr(V^H B V)``, residuals), so ``V`` becomes ``R^T`` for
    ``V^T = Q R``, one batched QR: ``min(p, P)`` columns with the same
    ``V V^H``, an ``(n, min(p, P), c, p)`` iterate of at most ``a*b``
    entries for an ``(n, c, p, p)`` stack.  Each step is one
    :func:`frame_op._zak_product` with dots over float views.  Stops when
    the Rayleigh quotient is stationary to ``tol`` (relative) and the
    eigen-residual, which bounds the eigenvalue error of a Hermitian
    operator, is below ``10*tol`` relative to the estimate.
    """
    rng = np.random.default_rng(seed)
    L = W.lat.grid.L
    v = W._to(rng.standard_normal(L) + 1j * rng.standard_normal(L))
    v = np.linalg.qr(v.swapaxes(1, 2), mode="r").swapaxes(1, 2).copy()
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


def _bounds(ev, method: str) -> FrameBounds:
    """Bounds from eigenvalues (or extreme eigenvalue estimates), with the
    not-a-frame rule."""
    A = max(float(np.min(ev)), 0.0)
    B = max(float(np.max(ev)), A)
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
    blocks; ``dense`` those of the dense matrix's coset blocks (``SizeError``
    above ``DENSE_LIMIT``); ``power_iteration`` iterates on the operator and
    on its reflection below a row-sum upper estimate (``POWER_MAX_ITER``
    steps each, seeded by ``POWER_SEEDS``) on ``W.fibers()`` and a
    reflected copy, hundreds of times as long, each step on at most ``a*b``
    entries: a start vector's ``P`` orbit copies fold into ``min(p, P)``
    columns with the same Gram matrix and iterates (:func:`_power_extreme`).
    Both stack readers raise ``SizeError`` above ``frame_op.FIBER_LIMIT``,
    and a tolerance that is not finite and positive ``DomainError``.
    """
    _check_tol(tol)
    W = walnut_coefficients(g, lat)
    method, op = _operator(W, method, "power_iteration")
    if method != "power_iteration":
        bounds = _bounds(op._spectrum, method)
    else:
        blocks = W.fibers()
        B = _power_extreme(blocks, W, tol, POWER_SEEDS[0])
        # A from the reflection mu - S, a new stack beside the read-only one
        mu = _gershgorin_upper(W)
        reflected = mu * np.eye(blocks.shape[-1]) - blocks
        A = mu - _power_extreme(reflected, W, tol, POWER_SEEDS[1])
        bounds = _bounds((A, B), method)
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
    nrhs = max(float(np.linalg.norm(rhs)), 1e-300)  # a zero rhs stops at once
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

    ``fiber`` (the default) solves each fiber block; ``dense`` each coset
    block of the dense matrix, by LU; ``cg`` is matrix-free on the table.
    Each report ends in the solution's true relative residual through its
    value's apply (for ``cg`` in place of the recurrence's), and
    ``converged`` is that ``<= tol``.  Without ``bounds`` the not-a-frame
    verdict comes from the eigenvalues of the value's blocks (for ``cg`` the
    fiber blocks); supplied ``bounds`` decide it instead.  Above
    ``frame_op.FIBER_LIMIT`` only ``cg`` with ``bounds`` escapes the
    stack's ``SizeError``: there every apply sums its rows.  Raises
    ``GridMismatchError`` when ``rhs`` lives on another grid,
    ``DomainError`` for a tolerance that is not finite and positive,
    ``NotAFrameError`` when the lower frame bound vanishes and
    ``ConvergenceError`` on an exhausted iteration budget.
    """
    _check_tol(tol)
    _same_grid(lat.grid, rhs)
    W = walnut_coefficients(g, lat)
    method, op = _operator(W, method, "cg")
    if bounds is None:
        bounds = _bounds(op._spectrum, method)
    _frame_or_raise(bounds)
    if method == "cg":
        if max_iter is None:
            max_iter = max(1000, 10 * lat.grid.L)
        x, hist, ok = _cg_hermitian(W.apply, rhs.samples, tol, max_iter)
        if not ok:
            raise ConvergenceError(
                f"{method} stalled at relative residual {hist[-1]:.3e} "
                f"after {len(hist)} iterations (tol {tol:.1e})")
    else:
        x = op._back(_zak_solve(op.fibers(), op._to(rhs.samples)))
        hist = np.zeros(1)
    # every method's last residual is its solution's own, on its value
    hist[-1] = np.linalg.norm(op.apply(x) - rhs.samples) / max(
        np.linalg.norm(rhs.samples), 1e-300)
    return (_adopt(Signal, grid=lat.grid, samples=x),
            SolverReport(method, len(hist), hist, bool(hist[-1] <= tol)))


def dual_window(g: Signal, lat: GaborLattice, method: str | None = None,
                tol: float = 1e-10) -> Signal:
    """Canonical dual window: the solution of ``S gd = g``."""
    return inverse_solve(g, lat, g, method=method, tol=tol)[0]


def _contour_nodes(A: float, B: float, n: int):
    """Quadrature nodes on the circle enclosing ``[A, B]`` with 10% margin,
    which clears the branch cut: its left edge is ``0.9*A > 0`` on a frame."""
    center = 0.5 * (A + B)
    radius = 0.5 * (B - A) + 0.1 * A
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
    blocks with spectrum inside ``[A, B]`` and ``rhs`` in the coordinates of
    :func:`frame_op._zak_solve`, one batched solve ``(lam I - blocks) x =
    rhs`` per node ``lam``.  Trapezoid rule on the circle around ``[A, B]``,
    doubling the nodes from ``CONTOUR_NODES_START`` (a level halves the sum
    of the one before and adds its new nodes) until two levels agree to
    ``tol`` (cap ``CONTOUR_NODES_MAX``).
    """
    eye = np.eye(blocks.shape[-1])
    prev = None
    n = CONTOUR_NODES_START
    while n <= CONTOUR_NODES_MAX:
        lam, dweight = _contour_nodes(A, B, n)
        new = slice(None) if prev is None else slice(1, None, 2)
        acc = sum(wgt * lm ** -0.5 * _zak_solve(lm * eye - blocks, rhs)
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


def _inverse_walnut(W: WalnutCoeffs) -> WalnutCoeffs:
    """Table of ``S^-1 = S_{gd,gd}`` without solving for ``gd``: the fiber
    blocks' ``V diag(1/ev) V^H`` from ``W``'s one decomposition, mapped back
    by ``frame_op._zak_table``."""
    ev, V = W._eigh
    _frame_or_raise(_bounds(ev, "fiber"))
    inv = _zak_table((V / ev[..., None, :]) @ V.conj().swapaxes(-1, -2), W.lat)
    return _adopt(WalnutCoeffs, lat=W.lat, table=inv)


def tight_window(g: Signal, lat: GaborLattice, method: str | None = None,
                 tol: float = 1e-10) -> Signal:
    """Canonical tight window: the inverse square root of the frame operator
    applied to ``g``.

    ``fiber`` (the default) maps the eigenvalues of the decomposition ``W``
    caches through ``ev**-0.5``, after the bounds they give; ``dense`` does
    the same on the dense matrix's coset blocks (the oracle).  ``contour``
    takes the bounds from the fiber eigenvalues alone and evaluates
    ``blocks**-0.5`` as a circle integral around the spectrum
    (:func:`_contour_inverse_sqrt`).  ``fiber`` and ``contour`` raise
    ``SizeError`` above ``frame_op.FIBER_LIMIT``, and a tolerance that is
    not finite and positive ``DomainError``.
    """
    _check_tol(tol)
    method, op = _operator(walnut_coefficients(g, lat), method, "contour")
    # contour reads the eigenvalues alone, so it never pays for V
    ev, V = (op._spectrum, None) if method == "contour" else op._eigh
    bounds = _frame_or_raise(_bounds(ev, method))
    z = op._to(g.samples)
    if method == "contour":
        y = _contour_inverse_sqrt(op.fibers(), z, bounds.A, bounds.B, tol)
    else:
        z = np.moveaxis(z, -3, -1)  # each block's orbit vectors as columns
        y = np.moveaxis(V @ ((V.conj().swapaxes(-1, -2) @ z)
                             / np.sqrt(ev)[..., None]), -1, -3)
    return _adopt(Signal, grid=lat.grid, samples=op._back(y))


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
    self-pair ``gd is g`` sums ``b/2 + 1`` (its Walnut table).  Rows that
    are not finite raise ``DomainError`` there.
    """
    _same_grid(lat.grid, g, gd)
    # the self-pair's rows are the Walnut table, half of them summed
    rows = walnut_coefficients(g, lat).table if gd is g else \
        _pair_rows(gd, g, lat, lat.b)
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
    _same_grid(lat.grid, g, gd)
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
