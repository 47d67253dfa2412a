"""Gabor analysis/synthesis, the frame operator, and its Walnut form.

``analysis`` and ``synthesis`` are length-``M`` DFTs of the polyphase
bracket tables of ``bracket``.  ``frame_operator_direct`` evaluates the
dense double sum by its own rolls and is the oracle every faster path is
judged against.  The Walnut form collapses the modulation sum into ``b`` strided
multiplier terms,

    ``S f(j) = (M/s) * sum_r G_r(j) * f(j - r*M)``.

Restricted to one coset ``j0 + M*Z_L`` this is a ``b x b`` matrix whose
row ``k`` reads the multipliers at ``(j0 + k*M) mod a``, which repeat with
period ``p = a / gcd(a, M)`` in ``k``; ``p`` divides ``b``.  A length-``b``
DFT along each coset (the Zak domain) therefore splits the operator into
``L/p`` Hermitian ``p x p`` blocks, ``L*p`` entries in all (Zibulski &
Zeevi, ACHA 4, 1997).  With ``a | M`` the blocks are ``1 x 1``: the
spectrum is the DFT of the multiplier table along ``r``.  The blocks give
the bounds, inverse and inverse square root (``invert``) and every
``apply`` that is not a short row sum; ``WalnutCoeffs.fibers`` builds them
once per table.  ``_zak_table`` maps blocks back to a table.

The multipliers are brackets ``G_r = [g, T_{r*M} g]_a`` formed by direct
products over the window's support run (``_pair_rows``), so a window whose
nonzero samples fit in ``n`` costs ``O(b*n)``, not ``O(b*L)``.  For a
window in W(L^inf, l^1) ``sum_r sup|G_r|`` is finite (Walnut, J. Math.
Anal. Appl. 165, 1992), and for a well-localized one only the few rows
``r`` whose translated support meets its own are nonzero at all.
``apply`` sums those rows directly, ``O(k*L)`` for ``k`` of them, and
multiplies by the blocks, ``O(L*p + L*log b)``, only when there are more
than 5 to 7 (``_row_sum_max``).  At ``n <= M`` every ``G_r`` with
``r != 0`` is zero and the operator is painless (Daubechies, Grossmann &
Meyer, J. Math. Phys. 27, 1986): ``apply`` is one product.  The same rows for a pair of
windows, ``[gd, T_{r*M} g]_a``, are the mixed multipliers of
``S_{gd,g}``; they give the exact duality check ``invert.duality_defect``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bracket import _bracket_table, _residue_classes
from .core import GaborLattice, Signal, Weight, _Frozen, _adopt, signed_range
from .errors import DimensionError, GridMismatchError, LatticeError
from .amalgam import _profile, amalgam_norm

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
class Coeffs(_Frozen):
    """Gabor coefficients, ``(M, N)``: modulation index by time index.

    Read-only (``core._Frozen``); a wrong shape raises ``DimensionError``.
    :func:`analysis` hands over the transpose of its row DFTs as laid out.
    """

    lat: GaborLattice
    values: np.ndarray

    def _spec(self):
        return "values", (self.lat.M, self.lat.N), DimensionError


def _block_size(lat: GaborLattice) -> int:
    """``p = a / gcd(a, M)``: the period in ``k`` of ``(j0 + k*M) mod a``."""
    return lat.a // math.gcd(lat.a, lat.M)


def _to_zak(v: np.ndarray, lat: GaborLattice) -> np.ndarray:
    """Samples to ``(L/p, p)`` block coordinates.

    A length-``b`` DFT along each coset ``j0 + M*Z_L``; frequency
    ``nu0 + t*b/p`` of coset ``j0`` is entry ``t`` of block ``(nu0, j0)``.
    """
    p = _block_size(lat)
    z = np.fft.fft(v.reshape(lat.b, lat.M), axis=0)
    return z.reshape(p, lat.b // p, lat.M).transpose(1, 2, 0).reshape(-1, p)


def _from_zak(z: np.ndarray, lat: GaborLattice) -> np.ndarray:
    """Inverse of :func:`_to_zak`."""
    p = z.shape[-1]
    y = z.reshape(lat.b // p, lat.M, p).transpose(2, 0, 1).reshape(lat.b, lat.M)
    return np.fft.ifft(y, axis=0).reshape(lat.grid.L)


def _zak_product(blocks: np.ndarray, z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = S z`` in the coordinates of :func:`_to_zak`, for ``S`` as an
    ``(L/p, p, p)`` block stack and ``z``, ``out`` of shape ``(L/p, p)``.

    At ``p = 1`` the blocks are the spectrum and the product is one
    elementwise multiply; otherwise one batched ``p x p`` product.
    """
    if blocks.shape[-1] == 1:
        return np.multiply(blocks[..., 0], z, out=out)
    return np.einsum("nij,nj->ni", blocks, z, out=out)


def _zak_blocks(table: np.ndarray, lat: GaborLattice) -> np.ndarray:
    """The operator of a ``(b, a)`` multiplier table as ``(L/p, p, p)`` blocks.

    In the coordinates of :func:`_to_zak`, block ``(nu0, j0)`` has entry
    ``[t, t'] = D[nu0 + t'*b/p, (t - t') mod p, j0]``, where ``D`` is the
    DFT of the table along ``r`` read at the ``p`` columns
    ``(j0 + rho*M) mod a`` and then along ``rho``, scaled by ``M/(s*p)``.
    """
    b, M, s = lat.b, lat.M, lat.grid.s
    p = _block_size(lat)
    cols = (np.arange(M) + M * np.arange(p)[:, None]) % lat.a
    D = np.fft.fft(np.fft.fft(table, axis=0)[:, cols], axis=1) * (M / s / p)
    t = np.arange(p)
    D = D.reshape(p, b // p, p, M)[t, :, (t[:, None] - t) % p]
    return D.transpose(2, 3, 0, 1).reshape(-1, p, p)


def _zak_table(blocks: np.ndarray, lat: GaborLattice) -> np.ndarray:
    """Inverse of :func:`_zak_blocks`: the ``(b, a)`` table of a block stack.

    Each entry of ``D`` is read back from its one block; the inverse DFT
    along ``rho`` at the columns ``(j0 + rho*M) mod a`` with
    ``j0 < gcd(a, M)``, which cover each column once, is the table's DFT.
    """
    a, b, M = lat.a, lat.b, lat.M
    p = _block_size(lat)
    t = np.arange(p)
    D = blocks.reshape(b // p, M, p, p)[:, :, (t[:, None] + t) % p, t[:, None]]
    D = np.fft.ifft(D.transpose(2, 0, 3, 1).reshape(b, p, M), axis=1)
    F = np.empty((b, a), dtype=complex)
    F[:, (np.arange(a // p) + M * t[:, None]) % a] = D[:, :, :a // p]
    return np.fft.ifft(F, axis=0) * (p / (M / lat.grid.s))


# Output samples per chunk of the direct row sum in WalnutCoeffs.apply:
# 64 KiB, which stays in cache and below the allocator's mmap threshold.
_CHUNK = 4096


def _row_sum_max(p: int) -> int:
    """Most nonzero rows ``r != 0`` that :meth:`WalnutCoeffs.apply` sums
    directly at block size ``p``: 5 at ``p = 1``, 7 above.

    Measured on random tables with ``k`` nonzero rows at L = 16384 and
    65536, b = 64 to 1024, p = 1 and 2 (one BLAS thread, 2-vCPU VM, best
    of 25 interleaved runs each): each row adds about 50 us at L = 16384
    and 220-330 us at L = 65536, where the product on the cached blocks
    takes 0.25-0.44 ms and 1.4-2.0 ms at p = 1, 0.33-0.53 ms and 1.8-2.7
    ms at p = 2.  The direct sum wins up to k = 4-6 at p = 1 and k = 6-8 at
    p = 2, with no trend in b; the rule's worst measured loss is about 17%
    (L = 16384, b = 128, p = 1, k = 5).
    """
    return 5 if p == 1 else 7


@dataclass(frozen=True, eq=False)
class WalnutCoeffs(_Frozen):
    """Multiplier family of a frame operator as one read-only ``(b, a)`` table.

    Row ``r mod b`` holds one period of ``G_r``, so a signed ``r`` indexes its
    row directly.  :attr:`factor` is the collapsed modulation count per
    sample, ``M/s`` of ``lat`` (the discrete inverse frequency step), so a
    table cannot disagree with its lattice about its scale.  The table is
    the one representation of the operator: :meth:`fibers` reads it once as
    ``p x p`` Zak-domain blocks, and :meth:`apply` either sums its few
    nonzero rows directly or multiplies by those blocks (see the module
    docstring).  The rule of ``core._Frozen`` applies; a table that is
    not ``(b, a)`` raises ``LatticeError``.
    """

    lat: GaborLattice
    table: np.ndarray

    def _spec(self):
        return "table", (self.lat.b, self.lat.a), LatticeError

    @property
    def factor(self) -> float:
        return self.lat.M / self.lat.grid.s

    @cached_property
    def _split(self) -> tuple[np.ndarray, list] | None:
        """``(factor * G_0, rows)`` for the direct row sum of :meth:`apply`,
        or None when more than ``_row_sum_max(p)`` rows ``r != 0`` are
        nonzero.  One scan finds those rows; ``rows`` lists ``(r*M mod L,
        factor * G_r)`` per nonzero row, at most ``b*a`` entries.
        """
        lat = self.lat
        M, L = lat.M, lat.grid.L
        nz = (np.flatnonzero(self.table[1:].any(axis=1)) + 1).tolist()
        if len(nz) > _row_sum_max(_block_size(lat)):
            return None
        return (self.factor * self.table[0],
                [(r * M % L, self.factor * self.table[r]) for r in nz])

    @cached_property
    def _fibers(self) -> np.ndarray:
        blocks = _zak_blocks(self.table, self.lat)
        blocks.flags.writeable = False
        return blocks

    def apply(self, v: np.ndarray) -> np.ndarray:
        """``factor * sum_r G_r * T_{r*M} v`` on a length-``L`` array.

        A table with at most :func:`_row_sum_max` nonzero rows ``r != 0``
        is summed in the time domain, ``_CHUNK`` output samples at a time:
        the exact product ``factor * G_0 * v``, then per row one product of
        ``factor * G_r`` with the read of ``v`` translated by ``r*M``,
        aligned to ``a``, and one add.  That is ``O(k*L)`` for ``k`` rows,
        with no FFT, no full-length temporary and a cache of ``k*a``
        entries (:attr:`_split`).  A painless operator (``G_r = 0`` for all
        ``r != 0``, window support at most ``M``) is the case ``k = 0``:
        ``factor * G_0 * v``, exact.  Any other table is the block product
        on :meth:`fibers`, ``r = 0`` term included: one length-``b`` FFT
        along each coset, one product per block, one inverse FFT.
        """
        lat = self.lat
        L, a = lat.grid.L, lat.a
        split = self._split
        if split is None:
            z = _to_zak(v, lat)
            return _from_zak(_zak_product(self.fibers(), z, np.empty_like(z)),
                             lat)
        diag, rows = split
        vb = v.reshape(-1, a)
        if not rows:
            return np.multiply(diag, vb).reshape(L)
        # one output chunk of C samples at a time, so that it stays in
        # cache while every row adds to it.  C is a multiple of a, so
        # sample t of a chunk and of each translated read of v meets
        # G_r(t mod a): the product is aligned to a as it stands.
        C = a * max(1, _CHUNK // a)
        out = np.empty(L, dtype=complex)
        buf = np.empty((C // a, a), dtype=complex)
        for j in range(0, L, C):
            n = min(C, L - j)
            o = out[j:j + n].reshape(-1, a)
            np.multiply(diag, vb[j // a:(j + n) // a], out=o)
            for shift, G in rows:
                np.multiply(G, _cyclic(v, j - shift, n).reshape(-1, a),
                            out=buf[:n // a])
                o += buf[:n // a]
        return out

    def fibers(self) -> np.ndarray:
        """The operator as ``L/p`` independent Hermitian ``p x p`` blocks.

        Returns the ``(L/p, p, p)`` stack, ``L*p`` entries, with
        ``p = a / gcd(a, M)``; in the coordinates of ``_to_zak`` the operator
        acts block by block, so ``S v = _from_zak(blocks @ _to_zak(v))``.
        The eigenvalues of the stack are the spectrum of the operator.  The
        stack is built once per table and is read-only: :meth:`apply` and
        every solver in ``invert`` read this one array.
        """
        return self._fibers


def analysis(g: Signal, lat: GaborLattice, f: Signal) -> Coeffs:
    """Gabor coefficients ``<f, M_{m*b} T_{n*a} g>`` for all lattice points.

    Column ``n`` is the length-``M`` DFT of the bracket ``[f, T_{n*a} g]_M``
    divided by ``s``, the identity of :func:`bracket_fourier_coeffs`.  The
    bracket table costs ``O(P*L*log b)`` and the DFTs ``O(N*M*log M)``;
    no ``M x L`` phase matrix is built.
    """
    if g.grid != f.grid or g.grid != lat.grid:
        raise GridMismatchError("window, signal and lattice must share one grid")
    coeffs = np.fft.fft(_bracket_table(f, g, lat), axis=1)
    coeffs /= lat.grid.s
    # the transposed view is kept, so synthesis reads the rows back as laid out
    return _adopt(Coeffs, lat=lat, values=coeffs.T)


def synthesis(g: Signal, lat: GaborLattice, c: Coeffs) -> Signal:
    """Superposition ``sum_{m,n} c[m,n] * M_{m*b} T_{n*a} g``.

    The reverse of :func:`analysis`: ``M * ifft(c[:, n])`` is one period of
    the ``M``-periodic factor ``sum_m c[m,n] * exp(2*pi*i*m*j/M)`` that
    multiplies ``T_{n*a} g``.  The sum over ``n`` is the adjoint of the
    bracket table: per residue class, rows ``q`` of a ``(b, M)`` array
    convolved along the columns with ``T_{rho} g``, summed as spectra.
    """
    if g.grid != lat.grid:
        raise GridMismatchError("window and lattice must share one grid")
    if c.lat != lat:
        raise DimensionError("coefficient matrix belongs to a different lattice")
    periods = np.fft.ifft(c.values.T, axis=1, norm="forward")
    acc = np.zeros((lat.b, lat.M), dtype=complex)
    for rows, q, H in _residue_classes(g.samples, lat):
        X = np.zeros((lat.b, lat.M), dtype=complex)
        X[q] = periods[rows]
        acc += np.fft.fft(X, axis=0) * H
    y = np.fft.ifft(acc, axis=0).reshape(lat.grid.L)
    return _adopt(Signal, grid=g.grid, samples=y)


def _phases(lat: GaborLattice) -> np.ndarray:
    L = lat.grid.L
    j = np.arange(L)
    return np.exp(-2j * np.pi * np.outer(np.arange(lat.M) * lat.b, j) / L)


def frame_operator_direct(g: Signal, lat: GaborLattice, f: Signal) -> Signal:
    """Frame operator by the full double sum; the oracle for all fast paths.

    Multiplies the ``M x L`` phase matrix and the translates of ``g``
    densely, ``O(M*N*L)``, and shares no code with :func:`analysis` or
    :func:`synthesis`.  The translates are formed ``2**16 // L`` at a time,
    so apart from two phase matrices no array holds more than about
    ``2**16`` entries.
    """
    if g.grid != f.grid or g.grid != lat.grid:
        raise GridMismatchError("window, signal and lattice must share one grid")
    L = lat.grid.L
    E = _phases(lat)
    Ec = np.conj(E).T
    E *= f.samples / lat.grid.s  # so E @ conj(W).T holds the coefficients
    out = np.zeros(L, dtype=complex)
    step = max(1, 2**16 // L)
    for n0 in range(0, lat.N, step):
        W = np.stack([np.roll(g.samples, n * lat.a)
                      for n in range(n0, min(n0 + step, lat.N))])
        out += np.einsum("jn,nj->j", Ec @ (E @ np.conj(W).T), W)
    return Signal(g.grid, out)


def _support_run(v: np.ndarray, a: int) -> tuple[int, int]:
    """Shortest cyclic run ``(start, n)`` outside which ``v`` is exactly 0.0.

    ``start`` and ``n`` are multiples of ``a``: the run is the complement of
    the longest cyclic gap between the length-``a`` blocks of ``v`` that hold
    a nonzero sample.  A zero signal gives ``(0, 0)`` and a signal with no
    zero block ``(0, L)``.
    """
    L = v.shape[0]
    blocks = v.reshape(L // a, a).any(axis=1)
    if blocks.all():
        return 0, L
    nz = np.flatnonzero(blocks)
    if nz.size == 0:
        return 0, 0
    gaps = np.diff(nz, append=nz[0] + L // a)
    i = int(np.argmax(gaps))
    return int(nz[(i + 1) % nz.size]) * a, L - (int(gaps[i]) - 1) * a


def _cyclic(v: np.ndarray, start: int, n: int) -> np.ndarray:
    """``n`` samples of ``v`` from ``start`` on, read cyclically; a view
    unless the read wraps, and ``O(n)`` either way."""
    L = v.shape[0]
    start %= L
    if start + n <= L:
        return v[start:start + n]
    if start + n <= 2 * L:
        return np.concatenate((v[start:], v[:start + n - L]))
    return np.concatenate((v[start:], np.resize(v, start + n - L)))


def _pair_rows(f: np.ndarray, h: np.ndarray, lat: GaborLattice,
               rows: int) -> np.ndarray:
    """Rows ``r = 0..rows-1`` of ``[f, T_{r*M} h]_a``, shape ``(rows, a)``.

    Row ``r`` is the direct product ``f * T_{r*M} conj(h)`` folded to
    period ``a``, summed over the shorter of the two support runs
    (:func:`_support_run`) only: ``O(rows*n)`` products for runs of ``n``
    samples and no FFT, so a bracket that vanishes is an exact zero.  Over
    f's run the translate is a length-``n`` read of ``conj(h)``; over h's
    run the row is ``sum_i f[i + r*M] * conj(h[i])``, rolled by
    ``r*M mod a``.  Every read that meets the other run lies within ``n``
    samples of it, so only that stretch of the other window is copied (and
    conjugated), ``O(n_other + 2n)``.  A row whose two runs do not meet is
    left at zero and costs nothing.  A full support is the run ``(0, L)``,
    so such a pair costs ``L`` products per row.  ``rows`` is at most
    ``b``; since ``T_{b*M}`` is the identity, row ``r`` also stands for
    ``r - b``.
    """
    L, a, M = lat.grid.L, lat.a, lat.M
    out = np.zeros((rows, a), dtype=complex)
    sf, nf = _support_run(f, a)
    sh, nh = (sf, nf) if h is f else _support_run(h, a)
    if nf == 0 or nh == 0:
        return out
    # T_{r*M} h's run starts d samples after f's; the runs meet when either
    # starts inside the other
    d = (sh - sf + M * np.arange(rows)) % L
    meet = np.flatnonzero((d < nf) | ((-d) % L < nh)).tolist()
    # sum over the shorter run; over h's run the row comes out rolled.  The
    # other window is read from n samples before its run on.
    if nf <= nh:
        start, n, step, base = sf, nf, -M, sh - nf
        run = _cyclic(f, sf, n)
        other = np.conj(_cyclic(h, base, min(nh + 2 * n, L + n)))
    else:
        start, n, step, base = sh, nh, M, sf - nh
        run = np.conj(_cyclic(h, sh, n))
        other = _cyclic(f, base, min(nf + 2 * n, L + n))
    run = run.reshape(-1, a)
    for r in meet:
        o = (start + step * r - base) % L
        row = (run * other[o:o + n].reshape(-1, a)).sum(axis=0)
        out[r] = row if step < 0 else np.roll(row, r * M % a)
    return out


def walnut_coefficients(g: Signal, lat: GaborLattice) -> WalnutCoeffs:
    """Multiplier family of the frame operator of ``g`` on ``lat``.

    Rows ``r = 0..b/2`` are the brackets ``[g, T_{r*M} g]_a`` by direct
    products over the support run of ``g`` (:func:`_pair_rows`),
    ``O((b/2)*n)`` when the nonzero samples fit in a cyclic run of ``n``.
    The other rows follow from ``G_{-r}(x) = conj(G_r((x + r*M) mod a))``.
    Every row is a sum of products, so a multiplier that vanishes is an
    exact zero.
    """
    if g.grid != lat.grid:
        raise GridMismatchError("window and lattice must share one grid")
    a, b, M = lat.a, lat.b, lat.M
    table = np.empty((b, a), dtype=complex)
    table[:b // 2 + 1] = _pair_rows(g.samples, g.samples, lat, b // 2 + 1)
    r = np.arange(1, (b + 1) // 2)
    table[b - r] = np.conj(table[r[:, None], (np.arange(a) + M * r[:, None]) % a])
    return _adopt(WalnutCoeffs, lat=lat, table=table)


def frame_operator_walnut(W: WalnutCoeffs, f: Signal) -> Signal:
    """Apply the frame operator in multiplier form (see :meth:`WalnutCoeffs.apply`)."""
    if f.grid != W.lat.grid:
        raise GridMismatchError("signal grid does not match the operator grid")
    return _adopt(Signal, grid=f.grid, samples=W.apply(f.samples))


def walnut_weighted_sum(W: WalnutCoeffs, w: Weight) -> float:
    """Weighted multiplier sum ``sum_r sup|G_r| * nu(r)`` over signed ``r``."""
    return _profile(W.table, w).norm


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
