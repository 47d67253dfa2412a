"""Gabor analysis/synthesis, the frame operator, and its Walnut form.

``analysis`` and ``synthesis`` are length-``M`` DFTs of bracket tables at
``O(N * L)`` cost.  ``frame_operator_direct`` evaluates the dense double sum
over all lattice points and is the oracle every faster path is judged
against.  The Walnut form collapses the modulation sum into ``b`` strided
multiplier terms,

    ``S f(j) = (M/s) * sum_r G_r(j) * f(j - r*M)``,

dropping the cost per application from ``O(L * M * N)`` to ``O(L * b)``.
Restricted to one coset of ``M*Z_L`` the same form is a ``b x b`` matrix, so
the operator splits into ``M`` independent Hermitian blocks (its fibers).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bracket import _bracket_table, _translates, correlation_G
from .core import GaborLattice, Signal, Weight, signed_range
from .errors import DimensionError, GridMismatchError, LatticeError
from .amalgam import amalgam_norm

__all__ = [
    "Coeffs",
    "WalnutCoeffs",
    "analysis",
    "synthesis",
    "frame_operator_direct",
    "walnut_coefficients",
    "frame_operator_walnut",
    "walnut_weighted_sum",
    "dense_frame_matrix",
]


@dataclass(frozen=True, eq=False)
class Coeffs:
    """Gabor coefficient matrix, modulation index by time index."""

    lat: GaborLattice
    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=complex)
        if arr.shape != (self.lat.M, self.lat.N):
            raise DimensionError(
                f"expected shape {(self.lat.M, self.lat.N)}, got {arr.shape}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True, eq=False)
class WalnutCoeffs:
    """Multiplier family of a frame operator as one read-only ``(b, a)`` table.

    Row ``r mod b`` holds one period of ``G_r``, so a signed ``r`` indexes its
    row directly.  ``factor`` is the collapsed modulation count per sample,
    ``M/s`` (the discrete inverse frequency step).
    """

    lat: GaborLattice
    table: np.ndarray
    factor: float

    def __post_init__(self):
        arr = np.array(self.table, dtype=complex)
        if arr.shape != (self.lat.b, self.lat.a):
            raise LatticeError(
                f"multiplier table has shape {arr.shape}, expected "
                f"{(self.lat.b, self.lat.a)}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "table", arr)

    def sup_norms(self) -> dict[int, float]:
        """Sup norm of each multiplier, keyed by signed index."""
        sups = np.abs(self.table).max(axis=1)
        return {r: float(sups[r]) for r in signed_range(self.lat.b)}

    def apply(self, v: np.ndarray) -> np.ndarray:
        """``factor * sum_r G_r * T_{r*M} v`` on a length-``L`` array.

        Summation runs over signed ``r`` in the fixed ``0, 1, -1, ...`` order;
        ``T_{r*M} v`` is read as a window of ``v`` concatenated with itself.
        """
        lat = self.lat
        L = lat.grid.L
        vv = np.concatenate([v, v])
        out = np.zeros((L // lat.a, lat.a), dtype=complex)
        for r in signed_range(lat.b):
            s = (r * lat.M) % L
            out += self.table[r] * vv[L - s:2 * L - s].reshape(-1, lat.a)
        return self.factor * out.reshape(L)

    def fibers(self) -> tuple[np.ndarray, np.ndarray]:
        """The operator as ``M`` independent Hermitian ``b x b`` blocks.

        On the coset ``j0 + M*Z_L`` the Walnut form acts as the matrix
        ``C[k, k'] = factor * G_{k-k'}((j0 + k*M) mod a)``.  Returns the
        ``(M, b, b)`` stack of those matrices and the ``(M, b)`` map
        ``J[j0, k] = j0 + k*M`` from block coordinates to samples, so that
        ``(S v)[J] = blocks @ v[J]`` blockwise.  Holds ``L*b`` entries.
        """
        lat = self.lat
        k = np.arange(lat.b)
        J = np.arange(lat.M)[:, None] + lat.M * k
        rows = (k[:, None] - k) % lat.b
        return (self.factor * self.table)[rows, (J % lat.a)[:, :, None]], J


def analysis(g: Signal, lat: GaborLattice, f: Signal) -> Coeffs:
    """Gabor coefficients ``<f, M_{m*b} T_{n*a} g>`` for all lattice points.

    Column ``n`` is the length-``M`` DFT of the bracket ``[f, T_{n*a} g]_M``
    divided by ``s``, the identity of :func:`bracket_fourier_coeffs`.  The
    bracket table costs ``O(N*L)`` products and the DFTs ``O(N*M*log M)``;
    no ``M x L`` phase matrix is built.
    """
    if g.grid != f.grid or g.grid != lat.grid:
        raise GridMismatchError("window, signal and lattice must share one grid")
    table = _bracket_table(f, g, lat)
    return Coeffs(lat, np.fft.fft(table, axis=1).T / lat.grid.s)


def synthesis(g: Signal, lat: GaborLattice, c: Coeffs) -> Signal:
    """Superposition ``sum_{m,n} c[m,n] * M_{m*b} T_{n*a} g``.

    The reverse of :func:`analysis`: ``M * ifft(c[:, n])`` is one period of
    the ``M``-periodic factor ``sum_m c[m,n] * exp(2*pi*i*m*j/M)`` that
    multiplies ``T_{n*a} g``, and the products are folded over ``n`` chunk
    by chunk.  Costs ``O(N*L + N*M*log M)``.
    """
    if g.grid != lat.grid:
        raise GridMismatchError("window and lattice must share one grid")
    if c.lat != lat:
        raise DimensionError("coefficient matrix belongs to a different lattice")
    L, M = lat.grid.L, lat.M
    periods = M * np.fft.ifft(c.values, axis=0).T
    out = np.zeros((L // M, M), dtype=complex)
    for n, rows in _translates(g.samples, lat):
        out += np.einsum("nkx,nx->kx", rows.reshape(len(n), L // M, M), periods[n])
    return Signal(g.grid, out.reshape(L))


def _phases(lat: GaborLattice) -> np.ndarray:
    L = lat.grid.L
    j = np.arange(L)
    return np.exp(-2j * np.pi * np.outer(np.arange(lat.M) * lat.b, j) / L)


def _shift_table(g: Signal, lat: GaborLattice) -> np.ndarray:
    return np.stack([np.roll(g.samples, n * lat.a) for n in range(lat.N)])


def frame_operator_direct(g: Signal, lat: GaborLattice, f: Signal) -> Signal:
    """Frame operator by the full double sum; the oracle for all fast paths.

    Multiplies the ``M x L`` phase matrix and the ``N x L`` table of
    translates densely, ``O(M*N*L)``, and shares no code with
    :func:`analysis` or :func:`synthesis`.
    """
    if g.grid != f.grid or g.grid != lat.grid:
        raise GridMismatchError("window, signal and lattice must share one grid")
    E = _phases(lat)
    W = _shift_table(g, lat)
    c = (E * f.samples[None, :]) @ np.conj(W).T / lat.grid.s
    P = np.conj(E).T @ c
    del E  # lowers the peak memory of the last (L, N) pass by the phase matrix
    return Signal(g.grid, np.einsum("jn,nj->j", P, W))


def walnut_coefficients(g: Signal, lat: GaborLattice) -> WalnutCoeffs:
    """Multiplier family of the frame operator of ``g`` on ``lat``."""
    if g.grid != lat.grid:
        raise GridMismatchError("window and lattice must share one grid")
    table = [correlation_G(g, lat, r).values for r in range(lat.b)]
    return WalnutCoeffs(lat=lat, table=table, factor=lat.M / lat.grid.s)


def frame_operator_walnut(W: WalnutCoeffs, f: Signal) -> Signal:
    """Apply the frame operator in multiplier form (see :meth:`WalnutCoeffs.apply`)."""
    if f.grid != W.lat.grid:
        raise GridMismatchError("signal grid does not match the operator grid")
    return Signal(f.grid, W.apply(f.samples))


def walnut_weighted_sum(W: WalnutCoeffs, w: Weight) -> float:
    """Weighted multiplier sum ``sum_r sup|G_r| * nu(r)`` over signed ``r``."""
    return float(sum(sup * w(r) for r, sup in W.sup_norms().items()))


def dense_frame_matrix(g: Signal, lat: GaborLattice) -> np.ndarray:
    """Dense matrix of the frame operator, assembled from its multiplier form."""
    L = lat.grid.L
    W = walnut_coefficients(g, lat)
    S = np.zeros((L, L), dtype=complex)
    rows = np.arange(L)
    for r in signed_range(lat.b):
        cols = (rows - r * lat.M) % L
        S[rows, cols] += W.factor * W.table[r][rows % lat.a]
    return S


def empirical_multiplier_ratio(g: Signal, lat: GaborLattice, w: Weight) -> float:
    """Ratio of the weighted multiplier sum to the squared window block norm.

    Reported as the empirical constant in the bound of the multiplier sums by
    ``C * ||g||^2`` (block length ``a``); returns ``inf`` for a zero window.
    """
    W = walnut_coefficients(g, lat)
    denom = amalgam_norm(g, lat.a, w) ** 2
    num = walnut_weighted_sum(W, w)
    if denom == 0.0:
        return float("inf") if num > 0 else 0.0
    return num / denom
