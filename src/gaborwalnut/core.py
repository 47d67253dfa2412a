"""Finite cyclic signal model: grids, windows, time-frequency shifts, weights.

Everything downstream lives on ``Z_L`` with ``s`` samples per unit length, so
that unit-length supports, half-unit time steps and the matching frequency
steps all land on integer sample or bin counts.  Inner products carry a
``1/s`` Riemann factor; with it, discrete values reproduce their continuum
counterparts exactly on piecewise-constant test cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import (
    DimensionError,
    DivisibilityError,
    DomainError,
    GridMismatchError,
    ParseError,
)

__all__ = [
    "Grid",
    "Signal",
    "GaborLattice",
    "Weight",
    "WindowSpec",
    "AdmissibilityReport",
    "signed_rep",
    "signed_range",
    "build_grid",
    "build_window",
    "read_window_file",
    "tf_shift",
    "inner_product",
    "norm_l2",
    "check_admissible",
]


def signed_rep(k: int, period: int) -> int:
    """Reduce an integer to its representative in ``(-period/2, period/2]``."""
    lo = -((period - 1) // 2)
    return (k - lo) % period + lo


def signed_range(period: int) -> list[int]:
    """Signed representatives of ``Z_period``, ordered by ``|n|``, positive first.

    The ordering ``0, 1, -1, 2, -2, ...`` is the fixed enumeration used for
    every deterministic sum over lattice indices in this package.
    """
    hi = period // 2
    lo = hi - period + 1
    out = [0]
    for radius in range(1, hi + 1):
        out.append(radius)
        if -radius >= lo:
            out.append(-radius)
    return out


@dataclass(frozen=True)
class Grid:
    """Cyclic sample grid: ``L`` samples covering ``L/s`` unit intervals.

    ``s`` must divide ``L`` so the grid covers an integer number of units.
    """

    L: int
    s: int

    def __post_init__(self):
        if self.L < 2:
            raise DomainError(f"grid needs at least 2 samples, got L={self.L}")
        if self.s < 1:
            raise DomainError(f"samples per unit must be >= 1, got s={self.s}")
        if self.L % self.s != 0:
            raise DivisibilityError(f"s={self.s} does not divide L={self.L}")

    @property
    def units(self) -> int:
        """Number of unit intervals covered by the grid."""
        return self.L // self.s


def build_grid(L: int, s: int) -> Grid:
    """Construct a validated grid of ``L`` samples with ``s`` samples per unit."""
    return Grid(int(L), int(s))


@dataclass(frozen=True, eq=False)
class Signal:
    """A complex sample vector on a grid, immutable after construction."""

    grid: Grid
    samples: np.ndarray

    def __post_init__(self):
        arr = np.array(self.samples, dtype=complex)
        if arr.shape != (self.grid.L,):
            raise DimensionError(
                f"expected {self.grid.L} samples, got shape {arr.shape}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)


@dataclass(frozen=True)
class GaborLattice:
    """A separable time-frequency lattice on a grid.

    ``a`` is the time step in samples (``alpha = a/s`` units) and ``b`` the
    frequency step in bins (``beta = b*s/L`` inverse units).  Both must divide
    ``L``.  Redundancy ``L/(a*b)`` is reported, not enforced: undersampled
    systems must remain constructible so the not-a-frame paths can be tested.
    """

    grid: Grid
    a: int
    b: int

    def __post_init__(self):
        if self.a < 1 or self.b < 1:
            raise DomainError(f"lattice steps must be >= 1, got a={self.a}, b={self.b}")
        if self.grid.L % self.a != 0:
            raise DivisibilityError(f"a={self.a} does not divide L={self.grid.L}")
        if self.grid.L % self.b != 0:
            raise DivisibilityError(f"b={self.b} does not divide L={self.grid.L}")

    @property
    def M(self) -> int:
        """Samples per inverse frequency step (stride of the multiplier translations)."""
        return self.grid.L // self.b

    @property
    def N(self) -> int:
        """Number of distinct time shifts."""
        return self.grid.L // self.a

    @property
    def alpha(self) -> float:
        """Time step in unit lengths."""
        return self.a / self.grid.s

    @property
    def beta(self) -> float:
        """Frequency step in inverse unit lengths."""
        return self.b * self.grid.s / self.grid.L

    @property
    def redundancy(self) -> float:
        return self.grid.L / (self.a * self.b)


@dataclass(frozen=True)
class WindowSpec:
    """Recipe for a window signal; see :func:`build_window` for the samplers."""

    kind: str
    units: float = 1.0
    width: float = 1.0
    center: float | None = None
    path: str | None = None

    @classmethod
    def characteristic(cls, units: float = 1.0) -> "WindowSpec":
        return cls(kind="characteristic", units=units)

    @classmethod
    def gaussian(cls, width: float = 1.0, center: float | None = None) -> "WindowSpec":
        return cls(kind="gaussian", width=width, center=center)

    @classmethod
    def hat(cls) -> "WindowSpec":
        return cls(kind="hat")

    @classmethod
    def from_file(cls, path: str) -> "WindowSpec":
        return cls(kind="file", path=path)


def read_window_file(path: str, grid: Grid) -> Signal:
    """Read a window from a plain text file, one ``re im`` pair per line.

    The line count must equal ``grid.L``; blank lines and non-finite
    samples are not allowed.
    """
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(f"{path}:{lineno}: expected 're im', got {line!r}")
            try:
                re, im = float(parts[0]), float(parts[1])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            if not (math.isfinite(re) and math.isfinite(im)):
                raise ParseError(f"{path}:{lineno}: non-finite sample {line!r}")
            values.append(complex(re, im))
    if len(values) != grid.L:
        raise ParseError(
            f"{path}: expected {grid.L} sample lines, found {len(values)}"
        )
    return Signal(grid, np.array(values, dtype=complex))


def build_window(spec: WindowSpec, grid: Grid) -> Signal:
    """Sample a window on the grid.

    Samplers:

    * ``characteristic``: 1 on the first ``units`` unit intervals, 0 elsewhere.
    * ``gaussian``: ``exp(-pi*((j/s - c)/w)**2)``, centered at ``c`` units
      (default: mid-grid).
    * ``hat``: triangle of unit support, peak 1 at half a unit.
    * ``file``: samples read from a text file (see :func:`read_window_file`).
    """
    L, s = grid.L, grid.s
    j = np.arange(L)
    if spec.kind == "characteristic":
        n_samples = spec.units * s
        n_int = int(round(n_samples))
        if abs(n_samples - n_int) > 1e-9 or n_int <= 0:
            raise DomainError(
                f"characteristic length {spec.units} units is not a positive "
                f"integer number of samples at s={s}"
            )
        if n_int > L:
            raise DomainError(
                f"characteristic support {n_int} samples exceeds grid length {L}"
            )
        v = np.zeros(L, dtype=complex)
        v[:n_int] = 1.0
        return Signal(grid, v)
    if spec.kind == "gaussian":
        if spec.width <= 0:
            raise DomainError(f"gaussian width must be positive, got {spec.width}")
        c = grid.units / 2 if spec.center is None else spec.center
        x = j / s
        return Signal(grid, np.exp(-np.pi * ((x - c) / spec.width) ** 2).astype(complex))
    if spec.kind == "hat":
        if s > L:
            raise DomainError("hat support of one unit exceeds the grid extent")
        x = j / s
        v = np.where(x <= 0.5, 2.0 * x, np.where(x <= 1.0, 2.0 * (1.0 - x), 0.0))
        return Signal(grid, v.astype(complex))
    if spec.kind == "file":
        if spec.path is None:
            raise ParseError("file window spec has no path")
        return read_window_file(spec.path, grid)
    raise DomainError(f"unknown window kind {spec.kind!r}")


def tf_shift(f: Signal, n: int, m: int) -> Signal:
    """Time-frequency shift: translate by ``n`` samples, then modulate by ``m`` bins.

    ``(M_m T_n f)(j) = exp(2*pi*i*m*j/L) * f(j - n mod L)``.
    """
    L = f.grid.L
    shifted = np.roll(f.samples, n % L)
    if m % L == 0:
        return Signal(f.grid, shifted)
    phase = np.exp(2j * np.pi * (m % L) * np.arange(L) / L)
    return Signal(f.grid, phase * shifted)


def _require_same_grid(f: Signal, h: Signal) -> None:
    if f.grid != h.grid:
        raise GridMismatchError(f"grids differ: {f.grid} vs {h.grid}")


def inner_product(f: Signal, h: Signal) -> complex:
    """Riemann-scaled inner product ``(1/s) * sum_j f(j) * conj(h(j))``."""
    _require_same_grid(f, h)
    return complex(np.vdot(h.samples, f.samples) / f.grid.s)


def norm_l2(f: Signal) -> float:
    """Scaled Euclidean norm ``sqrt((1/s) * sum |f|^2)``."""
    return math.sqrt(float(np.sum(np.abs(f.samples) ** 2)) / f.grid.s)


@dataclass(frozen=True)
class Weight:
    """A symmetric weight ``nu`` on signed integer indices.

    Built-in kinds (all even, submultiplicative and of subexponential growth):

    * ``constant``: ``nu(n) = 1``
    * ``polynomial``: ``nu(n) = (1 + |n|)**t`` with ``t >= 0``
    * ``subexponential``: ``nu(n) = exp(c * |n|**gamma)`` with ``c > 0``,
      ``0 < gamma < 1``

    ``custom`` wraps an arbitrary integer-to-float rule; no property of it is
    assumed, which is exactly what :func:`check_admissible` is for.
    """

    kind: str
    t: float = 0.0
    c: float = 0.0
    gamma: float = 0.5
    fn: Callable[[int], float] | None = None
    label: str | None = None

    @classmethod
    def constant(cls) -> "Weight":
        return cls(kind="constant")

    @classmethod
    def polynomial(cls, t: float) -> "Weight":
        if t < 0:
            raise DomainError(f"polynomial exponent must be >= 0, got {t}")
        return cls(kind="polynomial", t=float(t))

    @classmethod
    def subexponential(cls, c: float, gamma: float) -> "Weight":
        if c <= 0:
            raise DomainError(f"subexponential rate must be > 0, got {c}")
        if not 0 < gamma < 1:
            raise DomainError(f"subexponential power must lie in (0, 1), got {gamma}")
        return cls(kind="subexponential", c=float(c), gamma=float(gamma))

    @classmethod
    def custom(cls, fn: Callable[[int], float], label: str = "custom") -> "Weight":
        return cls(kind="custom", fn=fn, label=label)

    def __call__(self, n):
        """Evaluate ``nu`` at an integer or an integer array."""
        arr = np.asarray(n)
        if self.kind == "constant":
            out = np.ones_like(arr, dtype=float)
        elif self.kind == "polynomial":
            out = (1.0 + np.abs(arr)) ** self.t
        elif self.kind == "subexponential":
            out = np.exp(self.c * np.abs(arr).astype(float) ** self.gamma)
        elif self.kind == "custom":
            out = np.array([self.fn(int(k)) for k in np.atleast_1d(arr).ravel()],
                           dtype=float).reshape(np.atleast_1d(arr).shape)
        else:
            raise DomainError(f"unknown weight kind {self.kind!r}")
        if arr.ndim == 0:
            return float(out.reshape(-1)[0])
        return out

    def describe(self) -> str:
        if self.kind == "constant":
            return "constant"
        if self.kind == "polynomial":
            return f"polynomial(t={self.t:g})"
        if self.kind == "subexponential":
            return f"subexponential(c={self.c:g}, gamma={self.gamma:g})"
        return self.label or "custom"


@dataclass(frozen=True, eq=False)
class AdmissibilityReport:
    """Finite-range evidence for the admissibility conditions of a weight.

    Evenness and submultiplicativity are checked exhaustively on the stated
    index box.  The growth condition is a limit statement, so ``grs_ratios``
    only reports the trend ``ln(nu(k*n))/k`` for ``k = 1..K`` at sampled
    ``n``; no verdict is attached to it.
    """

    is_even: bool
    submultiplicative_ok: bool
    grs_ratios: Mapping[int, np.ndarray]


def check_admissible(
    w: Weight,
    N_check: int,
    K_grs: int,
    grs_ns: tuple[int, ...] = (1, 2, 3, 5, 8),
) -> AdmissibilityReport:
    """Check a weight's admissibility on a finite range.

    ``N_check`` bounds the exhaustive evenness/submultiplicativity box;
    ``K_grs`` is the depth of the growth-trend sequence per sampled ``n``.
    """
    if N_check < 1:
        raise DomainError(f"N_check must be >= 1, got {N_check}")
    if K_grs < 2:
        raise DomainError(f"K_grs must be >= 2, got {K_grs}")
    rng = np.arange(-N_check, N_check + 1)
    vals = w(rng)
    is_even = bool(np.allclose(vals, vals[::-1], rtol=1e-12, atol=0.0))
    kk, nn = np.meshgrid(rng, rng, indexing="ij")
    lhs = w((kk + nn).ravel()).reshape(kk.shape)
    prod = np.outer(vals, vals)
    # 1e-12 headroom absorbs floating-point rounding of exact identities
    submul = bool(np.all(lhs <= prod * (1.0 + 1e-12)))
    ratios = {}
    for n in grs_ns:
        ks = np.arange(1, K_grs + 1)
        ratios[int(n)] = np.log(w(ks * int(n))) / ks
    return AdmissibilityReport(is_even=is_even, submultiplicative_ok=submul,
                               grs_ratios=ratios)
