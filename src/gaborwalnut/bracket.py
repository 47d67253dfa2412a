"""Bracket products and the window correlation multipliers.

The bracket of two signals at period ``p`` is the cyclic fold of ``f*conj(h)``
onto one period.  Its Fourier-series coefficients are scaled inner products
against modulations, which is the bridge between the pointwise multiplier
picture and the coefficient picture used everywhere downstream.  The
bracket tables ``[f, T_{n*a} h]_M`` are built in polyphase form, one
length-``b`` FFT per residue class of ``n*a mod M``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GaborLattice, Signal, _Frozen, _same_grid, signed_rep
from .errors import DivisibilityError

__all__ = [
    "PeriodicVector",
    "bracket_product",
    "bracket_fourier_coeffs",
    "correlation_G",
]


@dataclass(frozen=True, eq=False)
class PeriodicVector(_Frozen):
    """One period of a periodic function, ``period`` complex values,
    read-only (``core._Frozen``); a wrong length raises ``DivisibilityError``."""

    period: int
    values: np.ndarray

    def _spec(self):
        return "values", (self.period,), DivisibilityError


def _fold(values: np.ndarray, p: int) -> np.ndarray:
    L = values.shape[0]
    if p < 1 or L % p != 0:
        raise DivisibilityError(f"period {p} does not divide length {L}")
    return values.reshape(L // p, p).sum(axis=0)


def bracket_product(f: Signal, h: Signal, p: int) -> PeriodicVector:
    """Bracket ``[f, h]_p``: the ``p``-periodization of ``f * conj(h)``.

    No Riemann scaling enters the fold; scaling lives in inner products only.
    """
    _same_grid(f.grid, h)
    return PeriodicVector(p, _fold(f.samples * np.conj(h.samples), p))


def bracket_fourier_coeffs(f: Signal, h: Signal, p: int) -> np.ndarray:
    """Fourier-series coefficients of ``[f, h]_p``.

    Coefficient ``n`` is ``(1/p) * sum_x [f,h]_p(x) * exp(-2*pi*i*x*n/p)``,
    which equals ``(s/p) * <f, M_{n*L/p} h>`` with the scaled inner product.
    The identity is tested, not assumed.
    """
    pv = bracket_product(f, h, p)
    return np.fft.fft(pv.values) / p


def _residue_classes(h: np.ndarray, lat: GaborLattice):
    """``T_{n*a} h`` by residue class: with ``n*a = q*M + rho``, as a
    ``(b, M)`` array it is ``T_{rho} h`` with its rows rolled by ``q``.

    Class ``i`` of ``P = M / gcd(a, M)`` holds ``n = i, i+P, ...`` at
    ``rho = i*a mod M``.  Yields ``(rows, q, H)``: the slice of those ``n``,
    their ``q``, and the DFT along the columns of ``T_{rho} h``, a window
    of one ``(b, 2*M)`` DFT.
    """
    M, b, a = lat.M, lat.b, lat.a
    P = M // math.gcd(a, M)
    wide = np.concatenate([np.roll(h, M).reshape(b, M), h.reshape(b, M)], axis=1)
    spectra = np.fft.fft(wide, axis=0)
    for i in range(P):
        rho = i * a % M
        yield (slice(i, None, P), np.arange(i, lat.N, P) * a // M,
               spectra[:, M - rho:2 * M - rho])


def _class_rows(F: np.ndarray, H: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Rows ``q`` of one residue class of ``[f, T_{n*a} h]``, the cyclic
    correlation ``ifft(F * conj(H))`` along the columns of ``F``, the DFT
    along the columns of ``f`` as a ``(b, M)`` array, and of ``H``, the
    class's spectrum (:func:`_residue_classes`), or of one view of both.
    The kernel of every bracket table; each column is its own correlation,
    so a view's rows are bit for bit those columns of the whole table."""
    return np.fft.ifft(F * np.conj(H), axis=0)[q]


def _bracket_cosets(F: np.ndarray, classes, lat: GaborLattice,
                  xs: slice) -> np.ndarray:
    """Columns ``x0 + d*y`` (``d = gcd(a, M)``, ``y < M/d``, ``x0`` in
    ``xs``) of ``[f, T_{n*a} h]`` as ``[n, y, x0]``, from ``F`` and the
    classes of :func:`_residue_classes` of ``h``.  Every class shift is a
    multiple of ``d``, so each class reads its spectrum on the same cosets,
    as a view (:func:`_class_rows`).
    """
    d = math.gcd(lat.a, lat.M)
    shape = (lat.b, lat.M // d, d)
    Fc = F.reshape(shape)[:, :, xs]
    out = np.empty((lat.N,) + Fc.shape[1:], dtype=complex)
    for rows, q, H in classes:
        out[rows] = _class_rows(Fc, H.reshape(shape)[:, :, xs], q)
    return out


def _bracket_table(f: Signal, h: Signal, lat: GaborLattice) -> np.ndarray:
    """Rows ``n = 0..N-1`` of ``[f, T_{n*a} h]`` at period ``M``, whose DFTs
    are the Gabor coefficients (``frame_op.analysis``): the block of all
    cosets (:func:`_bracket_cosets`), one inverse FFT per class,
    ``O(P*L*log b)`` in all (Zibulski & Zeevi, ACHA 4, 1997).  The
    diagnostics read the same kernel a class or a block at a time."""
    F = np.fft.fft(f.samples.reshape(lat.b, lat.M), axis=0)
    return _bracket_cosets(F, _residue_classes(h.samples, lat), lat,
                         slice(None)).reshape(lat.N, lat.M)


def correlation_G(g: Signal, lat: GaborLattice, r: int) -> PeriodicVector:
    """Window correlation multiplier ``G_r = [g, T_{r*M} g]_a`` for signed ``r``.

    ``r`` is reduced to its signed representative modulo ``b``; translations
    by ``r*M`` and ``(r±b)*M`` coincide on the cyclic grid, so the reduction
    is exact.  One row at a time, by its own roll: the reference that the
    half-table build of :func:`frame_op.walnut_coefficients` is checked
    against.
    """
    r = signed_rep(r, lat.b)
    shifted = np.roll(g.samples, (r * lat.M) % lat.grid.L)
    return PeriodicVector(lat.a, _fold(g.samples * np.conj(shifted), lat.a))
