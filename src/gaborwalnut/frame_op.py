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
``apply`` that is not a short row sum; a ``WalnutCoeffs`` builds them and
their eigendecomposition at most once.  ``_zak_table`` maps blocks back to a
table.

The multipliers are brackets ``G_r = [g, T_{r*M} g]_a`` formed by direct
products over the window's support run (``_pair_rows``), so a window whose
nonzero samples fit in ``n`` costs ``O(b*n)``, not ``O(b*L)``.  A window
from ``core.build_window`` records where it is nonzero, so its run comes
free; any other signal's run takes one scan of its ``L`` samples.  For a
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
from .core import GaborLattice, Signal, Weight, _Frozen, _adopt, _same_grid
from .errors import DimensionError, DomainError, LatticeError, SizeError
from .amalgam import _profile

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


def _zak_solve(blocks: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``S^-1 z`` for ``S`` and ``z`` as in :func:`_zak_product`.

    At ``p = 1`` one elementwise division; otherwise one batched LU solve,
    which the dense value's ``b x b`` coset blocks take too.
    """
    if blocks.shape[-1] == 1:
        return z / blocks[..., 0]
    return np.linalg.solve(blocks, z[..., None])[..., 0]


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


def _table_cosets(x: np.ndarray, lat: GaborLattice) -> np.ndarray:
    """The part of a per-block array (a stack, or its eigenvalues) for the
    blocks of cosets ``j0 < gcd(a, M)``, the only ones :func:`_zak_table`
    reads: a ``(b/p, gcd(a, M), ...)`` view, ``1/P`` of the stack."""
    p = _block_size(lat)
    return x.reshape(lat.b // p, lat.M, *x.shape[1:])[:, :lat.a // p]


def _zak_table(blocks: np.ndarray, lat: GaborLattice) -> np.ndarray:
    """Inverse of :func:`_zak_blocks`: the ``(b, a)`` table of a block stack,
    from its blocks of cosets ``j0 < gcd(a, M)`` (:func:`_table_cosets`).

    Each entry of ``D`` is read back from its one block; the inverse DFT
    along ``rho`` at the columns ``(j0 + rho*M) mod a`` with
    ``j0 < gcd(a, M)``, which cover each column once, is the table's DFT.
    """
    a, b, M = lat.a, lat.b, lat.M
    p = _block_size(lat)
    t = np.arange(p)
    D = blocks[:, :, (t[:, None] + t) % p, t[:, None]]
    D = np.fft.ifft(D.transpose(2, 0, 3, 1).reshape(b, p, a // p), axis=1)
    F = np.empty((b, a), dtype=complex)
    F[:, (np.arange(a // p) + M * t[:, None]) % a] = D
    return np.fft.ifft(F, axis=0) * (p / (M / lat.grid.s))


# Sizes with a dense oracle; dense_frame_matrix's L x L array is 16 MiB.
DENSE_LIMIT = 1024
# Entries of the fiber block stack, L*p: 2**22 complex values are 64 MiB.
FIBER_LIMIT = 2**22
# Output samples per chunk of the direct row sum in WalnutCoeffs.apply, and
# the length its multipliers are tiled to: 64 KiB per array, which stays in
# cache and below the allocator's mmap threshold.
_CHUNK = 4096


def _tiled(row: np.ndarray, L: int) -> np.ndarray:
    """A length-``a`` multiplier row repeated to the chunk length of
    :meth:`WalnutCoeffs.apply`, ``C = a * max(1, _CHUNK // a)`` but at most
    ``L``, as one flat contiguous array."""
    a = row.shape[0]
    return np.tile(row, min(max(1, _CHUNK // a), L // a))


def _row_sum_max(p: int) -> int:
    """Most nonzero rows ``r != 0`` that :meth:`WalnutCoeffs.apply` sums
    directly at block size ``p``: 5 at ``p = 1``, 7 above.

    Measured on random tables with ``k`` nonzero rows at L = 16384 and
    65536, b = 64 to 1024, p = 1 and 2 (one BLAS thread, 2-vCPU VM, best
    of 25 interleaved runs each).  On the flat kernel each row adds about
    25 us at L = 16384 and 85-100 us at L = 65536, where the product on
    the cached blocks takes 0.21-0.26 ms and 0.97-1.3 ms at p = 1,
    0.31-0.40 ms and 1.2-1.8 ms at p = 2.  The direct sum wins up to
    k = 7-9 (L = 16384) and 8-12 (L = 65536) at p = 1, and k = 11-13 and
    14 or more at p = 2, with no trend in b.  The rule was set when a row
    cost about twice as much and the direct sum won up to k = 4-6 and 6-8;
    it stays, since moving it would send tables of 6 to 9 rows through the
    other path and change their outputs by rounding.
    """
    return 5 if p == 1 else 7


class _Spectral:
    """The eigendecomposition ``_eigh = (ev, V)``, ``fibers() = V diag(ev)
    V^H``, of a fiber or coset block stack, built at most once and read-only.
    ``_spectrum`` is the eigenvalues alone: ``ev`` when it is held, else one
    ``eigvalsh``, so bounds alone never pay for ``V``.
    """

    @cached_property
    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        ev, V = np.linalg.eigh(self.fibers())
        ev.flags.writeable = V.flags.writeable = False
        return ev, V

    @cached_property
    def _spectrum(self) -> np.ndarray:
        held = self.__dict__.get("_eigh")
        ev = np.linalg.eigvalsh(self.fibers()) if held is None else held[0]
        ev.flags.writeable = False
        return ev


@dataclass(frozen=True, eq=False)
class WalnutCoeffs(_Frozen, _Spectral):
    """Multiplier family of a frame operator as one read-only ``(b, a)`` table.

    Row ``r mod b`` holds one period of ``G_r``, so a signed ``r`` indexes its
    row directly.  :attr:`factor` is the collapsed modulation count per
    sample, ``M/s`` of ``lat`` (the discrete inverse frequency step), so a
    table cannot disagree with its lattice about its scale.  The table is
    the one value of the operator that every layer reads: :meth:`fibers`
    reads it once as ``p x p`` Zak-domain blocks, whose eigendecomposition
    is cached beside them (:class:`_Spectral`), and :meth:`apply` either
    sums its few nonzero rows directly or multiplies by those blocks (see
    the module docstring); the dense oracle's coset blocks, ``_dense``, are
    built once too.  The rule of ``core._Frozen`` applies; a table
    that is not ``(b, a)`` raises ``LatticeError``.
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
        """``(G0, rows)`` for the direct row sum of :meth:`apply`, or None
        when more than ``_row_sum_max(p)`` rows ``r != 0`` are nonzero.

        One scan finds those rows.  ``G0`` is ``factor * G_0`` and ``rows``
        lists ``(r*M mod L, factor * G_r)`` per nonzero row, each tiled once
        to the chunk length ``C`` (:func:`_tiled`): ``(k+1)*C`` entries for
        ``k`` rows.  A painless table (``k = 0``) keeps its length-``a`` row,
        which :meth:`apply` tiles per call.
        """
        lat = self.lat
        M, L = lat.M, lat.grid.L
        nz = (np.flatnonzero(self.table[1:].any(axis=1)) + 1).tolist()
        if len(nz) > _row_sum_max(_block_size(lat)):
            return None
        if not nz:
            return self.factor * self.table[0], []
        G = [_tiled(self.factor * self.table[r], L) for r in [0, *nz]]
        return G[0], [(r * M % L, Gr) for r, Gr in zip(nz, G[1:])]

    @cached_property
    def _dense(self) -> _Dense:
        """The dense oracle's value of this table (:class:`_Dense`)."""
        return _Dense(self)

    @cached_property
    def _fibers(self) -> np.ndarray:
        entries = self.lat.grid.L * _block_size(self.lat)
        if entries > FIBER_LIMIT:
            raise SizeError(f"fiber blocks limited to L*p <= {FIBER_LIMIT}, "
                            f"got {entries}")
        blocks = _zak_blocks(self.table, self.lat)
        blocks.flags.writeable = False
        return blocks

    def apply(self, v: np.ndarray) -> np.ndarray:
        """``factor * sum_r G_r * T_{r*M} v`` on a length-``L`` array.

        A table with at most :func:`_row_sum_max` nonzero rows ``r != 0``
        is summed in the time domain, one chunk of ``C`` output samples at
        a time (:attr:`_split`): the exact product of the tiled
        ``factor * G_0`` with ``v``, then per row one product of the tiled
        ``factor * G_r`` with the read of ``v`` translated by ``r*M`` and
        one add, each on flat contiguous arrays.  That is ``O(k*L)`` for
        ``k`` rows, with no FFT, no full-length temporary and a cache of
        ``(k+1)*C`` entries.  A painless operator (``G_r = 0`` for all
        ``r != 0``, window support at most ``M``) is the case ``k = 0``:
        ``factor * G_0 * v``, exact, with ``G_0`` tiled per call.  Any other
        table is the block product on :meth:`fibers`, ``r = 0`` term
        included: one length-``b`` FFT along each coset, one product per
        block, one inverse FFT; above ``FIBER_LIMIT`` that stack is refused
        (``SizeError``), while a direct row sum runs at any size.
        """
        split = self._split
        if split is None:
            z = self._to(v)
            return self._back(_zak_product(self.fibers(), z, np.empty_like(z)))
        # C is a multiple of a, so sample t of a chunk and of each
        # translated read of v meets G_r(t mod a) at entry t of the tiles.
        # A painless table holds no tile that outlives the call: one kept
        # beside the outputs of 32 painless applies at L = 65536 made them
        # take 10-13 ms instead of 7 ms in some heap layouts, as glibc gave
        # pages back and faulted them in again
        G0, rows = split
        L = v.shape[0]
        if not rows:
            G0 = _tiled(G0, L)
        C = G0.shape[0]
        out = np.empty(L, dtype=complex)
        buf = np.empty(C if rows else 0, dtype=complex)
        for j in range(0, L, C):
            n = min(C, L - j)
            o = out[j:j + n]
            np.multiply(G0[:n], v[j:j + n], out=o)
            for shift, G in rows:
                np.multiply(G[:n], _cyclic(v, j - shift, n), out=buf[:n])
                o += buf[:n]
        return out

    def fibers(self) -> np.ndarray:
        """The operator as ``L/p`` independent Hermitian ``p x p`` blocks.

        Returns the ``(L/p, p, p)`` stack, ``L*p`` entries, with
        ``p = a / gcd(a, M)``; in the coordinates of ``_to_zak`` the operator
        acts block by block, so ``S v = _from_zak(blocks @ _to_zak(v))``.
        The eigenvalues of the stack are the spectrum of the operator.  The
        stack is built once per table and is read-only: :meth:`apply` and
        every solver in ``invert`` read this one array.  Above
        ``FIBER_LIMIT`` entries it raises ``SizeError`` before it allocates.
        """
        return self._fibers

    def _to(self, v: np.ndarray) -> np.ndarray:  # to the blocks' coordinates
        return _to_zak(v, self.lat)

    def _back(self, z: np.ndarray) -> np.ndarray:
        return _from_zak(z, self.lat)


def analysis(g: Signal, lat: GaborLattice, f: Signal) -> Coeffs:
    """Gabor coefficients ``<f, M_{m*b} T_{n*a} g>`` for all lattice points.

    Column ``n`` is the length-``M`` DFT of the bracket ``[f, T_{n*a} g]_M``
    divided by ``s``, the identity of :func:`bracket_fourier_coeffs`.  The
    bracket table costs ``O(P*L*log b)`` and the DFTs ``O(N*M*log M)``;
    no ``M x L`` phase matrix is built.
    """
    _same_grid(lat.grid, g, f)
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
    _same_grid(lat.grid, g)
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
    """The ``M x L`` matrix ``exp(-2*pi*i*m*b*j/L)``, read from a table of the
    ``L`` roots of unity at ``(m*b*j) mod L``, reduced in integers in place:
    every entry is one root evaluated at an argument below ``2*pi``."""
    L = lat.grid.L
    k = np.outer(np.arange(lat.M) * lat.b, np.arange(L))
    k %= L
    return np.exp(-2j * np.pi * np.arange(L) / L)[k]


def frame_operator_direct(g: Signal, lat: GaborLattice, f: Signal) -> Signal:
    """Frame operator by the full double sum; the oracle for all fast paths.

    Multiplies the ``M x L`` phase matrix and the translates of ``g``
    densely, ``O(M*N*L)``, and shares no code with :func:`analysis` or
    :func:`synthesis`.  The translates are gathered ``2**16 // L`` at a
    time, each chunk by one index array, so apart from two phase matrices
    no array holds more than about ``2**16`` entries.
    """
    _same_grid(lat.grid, g, f)
    L = lat.grid.L
    E = _phases(lat)
    Ec = np.conj(E).T
    E *= f.samples / lat.grid.s  # so E @ conj(W).T holds the coefficients
    out = np.zeros(L, dtype=complex)
    step = max(1, 2**16 // L)
    j = np.arange(L)
    for n0 in range(0, lat.N, step):
        n = np.arange(n0, min(n0 + step, lat.N))[:, None]
        W = g.samples[(j - n * lat.a) % L]  # row n is T_{n*a} g
        out += np.einsum("jn,nj->j", Ec @ (E @ np.conj(W).T), W)
    return Signal(g.grid, out)


def _support_run(v: np.ndarray, a: int) -> tuple[int, int]:
    """Shortest cyclic run ``(start, n)`` outside which ``v`` is exactly 0.0.

    ``start`` and ``n`` are multiples of ``a``: the run is the complement of
    the longest cyclic gap between the length-``a`` blocks of ``v`` that hold
    a nonzero sample.  A zero signal gives ``(0, 0)`` and a signal with no
    zero block ``(0, L)``.  A scan of all ``L`` samples: the run of a window
    that records its nonzero interval is read off that instead
    (:func:`_window_run`), and this scan is the reference it is tested
    against.
    """
    L = v.shape[0]
    # the real and imaginary parts side by side: -0.0 is zero, NaN is not
    blocks = (v.view(float) != 0).reshape(L // a, 2 * a).any(axis=1)
    if blocks.all():
        return 0, L
    nz = np.flatnonzero(blocks)
    if nz.size == 0:
        return 0, 0
    gaps = np.diff(nz, append=nz[0] + L // a)
    i = int(np.argmax(gaps))
    return int(nz[(i + 1) % nz.size]) * a, L - (int(gaps[i]) - 1) * a


def _window_run(g: Signal, a: int) -> tuple[int, int]:
    """:func:`_support_run` of ``g.samples``, in ``O(1)`` when ``g`` holds
    the interval ``(lo, hi)`` of its nonzero samples (``core.Signal``).

    The interval is one contiguous run that does not wrap, so its blocks
    ``lo // a .. (hi - 1) // a`` all hold a nonzero sample and the scan's
    longest gap is the one around them (with no gap, they start at block
    0 and the run is ``(0, L)``).  Any other signal is scanned.
    """
    held = g.__dict__.get("_nonzero")
    if held is None:
        return _support_run(g.samples, a)
    lo, hi = held
    if hi <= lo:
        return 0, 0
    first = lo // a
    return first * a, ((hi - 1) // a - first + 1) * a


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


def _pair_rows(f: Signal, h: Signal, lat: GaborLattice,
               rows: int) -> np.ndarray:
    """Rows ``r = 0..rows-1`` of ``[f, T_{r*M} h]_a``, shape ``(rows, a)``.

    Row ``r`` is the direct product ``f * T_{r*M} conj(h)`` folded to
    period ``a``, summed over the shorter of the two support runs
    (:func:`_window_run`) only: ``O(rows*n)`` products for runs of ``n``
    samples and no FFT, so a bracket that vanishes is an exact zero.  A
    window from ``core.build_window`` hands its run over in ``O(1)``; any
    other signal's run is one scan of its ``L`` samples.  Over
    f's run the translate is a length-``n`` read of ``conj(h)``; over h's
    run the row is ``sum_i f[i + r*M] * conj(h[i])``, rolled by
    ``r*M mod a``.  Every read that meets the other run lies within ``n``
    samples of it, so only that stretch of the other window is copied (and
    conjugated), ``O(n_other + 2n)``.  A row whose two runs do not meet is
    left at zero and costs nothing.  A full support is the run ``(0, L)``,
    so such a pair costs ``L`` products per row.  ``rows`` is at most
    ``b``; since ``T_{b*M}`` is the identity, row ``r`` also stands for
    ``r - b``.  Products that overflow are summed without a warning, and a
    row that is then not finite raises ``DomainError`` naming the Walnut
    table, the one check of :func:`walnut_coefficients` and
    :func:`invert.duality_defect`.
    """
    L, a, M = lat.grid.L, lat.a, lat.M
    out = np.zeros((rows, a), dtype=complex)
    sf, nf = _window_run(f, a)
    sh, nh = (sf, nf) if h is f else _window_run(h, a)
    f, h = f.samples, h.samples
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
    with np.errstate(over="ignore", invalid="ignore"):
        for r in meet:
            o = (start + step * r - base) % L
            row = (run * other[o:o + n].reshape(-1, a)).sum(axis=0)
            out[r] = row if step < 0 else np.roll(row, r * M % a)
    if not np.isfinite(out).all():
        raise DomainError("Walnut table is not finite: products overflow")
    return out


def walnut_coefficients(g: Signal, lat: GaborLattice) -> WalnutCoeffs:
    """Multiplier family of the frame operator of ``g`` on ``lat``.

    Rows ``r = 0..b/2`` are the brackets ``[g, T_{r*M} g]_a`` by direct
    products over the support run of ``g`` (:func:`_pair_rows`),
    ``O((b/2)*n)`` when the nonzero samples fit in a cyclic run of ``n``.
    For a window from ``core.build_window`` that run is read off the
    interval the sampler recorded, so the build costs the support alone;
    for any other signal one scan of its ``L`` samples finds it.
    The other rows follow from ``G_{-r}(x) = conj(G_r((x + r*M) mod a))``.
    Every row is a sum of products, so a multiplier that vanishes is an
    exact zero; a table that is not finite raises ``DomainError``.

    ``g`` keeps the table for the last lattice asked for, so every caller
    on one ``(g, lat)`` reads one value, whose stack, decomposition and
    dense value are built at most once.  The table holds no reference to
    ``g`` and is freed with it.
    """
    _same_grid(lat.grid, g)
    held = g.__dict__.get("_walnut")
    if held is not None and held.lat == lat:
        return held
    a, b, M = lat.a, lat.b, lat.M
    table = np.empty((b, a), dtype=complex)
    table[:b // 2 + 1] = _pair_rows(g, g, lat, b // 2 + 1)
    r = np.arange(1, (b + 1) // 2)
    table[b - r] = np.conj(table[r[:, None], (np.arange(a) + M * r[:, None]) % a])
    W = g.__dict__["_walnut"] = _adopt(WalnutCoeffs, lat=lat, table=table)
    return W


def frame_operator_walnut(W: WalnutCoeffs, f: Signal) -> Signal:
    """Apply the frame operator in multiplier form (see :meth:`WalnutCoeffs.apply`)."""
    _same_grid(W.lat.grid, f)
    return _adopt(Signal, grid=f.grid, samples=W.apply(f.samples))


def walnut_weighted_sum(W: WalnutCoeffs, w: Weight) -> float:
    """Weighted multiplier sum ``sum_r sup|G_r| * nu(r)`` over signed ``r``."""
    return _profile(W.table, w).norm


def _coset_blocks(W: WalnutCoeffs, c: np.ndarray) -> np.ndarray:
    """The ``b x b`` blocks of the dense frame matrix ``S`` of ``W``'s table
    on the cosets ``c + M*Z_L``, ``c < M``, gathered from the table alone:
    entry ``[i, k, k']`` is ``S[c_i + k*M, c_i + k'*M] =
    factor * G_{(k-k') mod b}((c_i + k*M) mod a)``.  ``S`` couples ``j``
    only with ``j - r*M``, so these blocks over all ``M`` cosets are all of
    its nonzero entries: :class:`_Dense` holds them."""
    lat = W.lat
    k = np.arange(lat.b)
    cols = (c[:, None] + k * lat.M) % lat.a
    return W.factor * W.table[(k[:, None] - k) % lat.b, cols[:, :, None]]


class _Dense(_Spectral):
    """The dense oracle's own operator value: the dense matrix ``S`` as its
    read-only ``(M, b, b)`` stack of coset blocks (:func:`_coset_blocks`),
    block ``c`` on the samples ``c + k*M``, with its own eigen-cache.  It
    reads the table only, never its fiber stack, and uses no FFT; above
    ``DENSE_LIMIT`` it raises ``SizeError`` first."""

    def __init__(self, W: WalnutCoeffs):
        lat, L = W.lat, W.lat.grid.L
        if L > DENSE_LIMIT:
            raise SizeError(f"dense path limited to L <= {DENSE_LIMIT}, got {L}")
        B = _coset_blocks(W, np.arange(lat.M))
        B.flags.writeable = False
        to = lambda v: v.reshape(lat.b, lat.M).T  # block c reads v[c + k*M]
        back = lambda z: z.T.reshape(L)
        self.fibers, self._to, self._back = (lambda: B), to, back
        self.apply = lambda v: back(np.einsum("nij,nj->ni", B, to(v)))


def dense_frame_matrix(g: Signal, lat: GaborLattice) -> np.ndarray:
    """Read-only dense ``L x L`` matrix of the frame operator: the coset
    blocks of its dense value (:class:`_Dense`; ``SizeError`` above
    ``DENSE_LIMIT``) scattered into place, the one place it is assembled."""
    blocks = walnut_coefficients(g, lat)._dense.fibers()
    rows = np.arange(lat.M)[:, None] + lat.M * np.arange(lat.b)  # c + k*M
    S = np.zeros((lat.grid.L,) * 2, dtype=complex)
    S[rows[:, :, None], rows[:, None, :]] = blocks
    S.flags.writeable = False
    return S
