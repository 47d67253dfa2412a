"""Periodization, bracket products and the window correlation multipliers.

The bracket of two signals at period ``p`` is the cyclic fold of ``f*conj(h)``
onto one period.  Its Fourier-series coefficients are scaled inner products
against modulations, which is the bridge between the pointwise multiplier
picture and the coefficient picture used everywhere downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GaborLattice, Signal, signed_rep
from .errors import DivisibilityError, GridMismatchError

__all__ = [
    "PeriodicVector",
    "periodize",
    "bracket_product",
    "bracket_fourier_coeffs",
    "correlation_G",
]


@dataclass(frozen=True, eq=False)
class PeriodicVector:
    """One period of a periodic function on the grid."""

    period: int
    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=complex)
        if arr.shape != (self.period,):
            raise DivisibilityError(
                f"expected {self.period} values, got shape {arr.shape}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def sup(self) -> float:
        return float(np.max(np.abs(self.values)))


def _fold(values: np.ndarray, p: int) -> np.ndarray:
    L = values.shape[0]
    if p < 1 or L % p != 0:
        raise DivisibilityError(f"period {p} does not divide length {L}")
    return values.reshape(L // p, p).sum(axis=0)


def periodize(u: Signal, p: int) -> PeriodicVector:
    """Cyclic fold of ``u`` onto one period: ``v(x) = sum_k u(x + k*p)``."""
    return PeriodicVector(p, _fold(u.samples, p))


def bracket_product(f: Signal, h: Signal, p: int) -> PeriodicVector:
    """Bracket ``[f, h]_p``: the ``p``-periodization of ``f * conj(h)``.

    No Riemann scaling enters the fold; scaling lives in inner products only.
    """
    if f.grid != h.grid:
        raise GridMismatchError(f"grids differ: {f.grid} vs {h.grid}")
    return PeriodicVector(p, _fold(f.samples * np.conj(h.samples), p))


def bracket_fourier_coeffs(f: Signal, h: Signal, p: int) -> np.ndarray:
    """Fourier-series coefficients of ``[f, h]_p``.

    Coefficient ``n`` is ``(1/p) * sum_x [f,h]_p(x) * exp(-2*pi*i*x*n/p)``,
    which equals ``(s/p) * <f, M_{n*L/p} h>`` with the scaled inner product.
    The identity is tested, not assumed.
    """
    pv = bracket_product(f, h, p)
    return np.fft.fft(pv.values) / p


def correlation_G(g: Signal, lat: GaborLattice, r: int) -> PeriodicVector:
    """Window correlation multiplier ``G_r = [g, T_{r*M} g]_a`` for signed ``r``.

    ``r`` is reduced to its signed representative modulo ``b``; translations
    by ``r*M`` and ``(r±b)*M`` coincide on the cyclic grid, so the reduction
    is exact.
    """
    r = signed_rep(r, lat.b)
    shifted = np.roll(g.samples, (r * lat.M) % lat.grid.L)
    return PeriodicVector(lat.a, _fold(g.samples * np.conj(shifted), lat.a))
