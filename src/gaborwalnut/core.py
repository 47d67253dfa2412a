"""Finite cyclic signal model: grids, windows, time-frequency shifts, weights.

Everything downstream lives on ``Z_L`` with ``s`` samples per unit length, so
that unit-length supports, half-unit time steps and the matching frequency
steps all land on integer sample or bin counts.  Inner products carry a
``1/s`` Riemann factor; with it, discrete values reproduce their continuum
counterparts exactly on piecewise-constant test cases.
"""

from __future__ import annotations

import io
import math
from contextlib import suppress
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


class _Frozen:
    """The one array rule of the frozen array types (:class:`Signal`,
    ``Coeffs``, ``WalnutCoeffs``, ``PeriodicVector``).

    ``_spec()`` names the array field, the shape that the object's own
    grid, lattice or period fixes, and the type's error class.  The array
    must be complex and of that shape, else that error is raised, and the
    stored array is read-only.  The constructor applies the rule to a copy,
    so a caller's later writes do not reach the object; :func:`_adopt`
    applies it to the array it is handed.
    """

    def __post_init__(self):
        self._freeze(copy=True)

    def _freeze(self, copy: bool) -> None:
        name, shape, error = self._spec()
        arr = getattr(self, name)
        if copy:
            arr = np.array(arr, dtype=complex)
        if arr.dtype != complex or arr.shape != shape:
            raise error(f"{type(self).__name__}.{name}: expected a complex "
                        f"array of shape {shape}, got {arr.dtype} {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, name, arr)


def _adopt(cls, **fields):
    """An instance of the frozen array type ``cls`` that holds the array it
    is handed itself, without the constructor's copy.

    Only for an array the calling function has just allocated and hands
    over; ``fields`` names every field of ``cls``.  The rule of
    :class:`_Frozen` applies: a non-complex array, or one whose shape is not
    the one the object's own fields fix, raises the type's error.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)  # what a frozen dataclass's setattr refuses
    obj._freeze(copy=False)
    return obj


@dataclass(frozen=True, eq=False)
class Signal(_Frozen):
    """``grid.L`` complex samples on a grid, read-only (:class:`_Frozen`);
    a wrong shape raises ``DimensionError``.  A window keeps the Walnut
    table last built from it (``frame_op.walnut_coefficients``)."""

    grid: Grid
    samples: np.ndarray

    def _spec(self):
        return "samples", (self.grid.L,), DimensionError


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


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True, eq=False)
class WindowSpec:
    """Recipe for a window signal: ``sample(grid)`` builds it on a grid.

    Each kind is one classmethod that raises ``DomainError`` for a parameter
    wrong on every grid (non-finite, or a non-positive width) and returns the
    sampler closed over its parameters, which checks what depends on the grid.

    * ``characteristic(units)``: 1 on the first ``units`` unit intervals,
      0 elsewhere.
    * ``gaussian(width, center)``: ``exp(-pi*((j/s - c)/w)**2)``, centered
      at ``c`` units (default: mid-grid).
    * ``hat()``: triangle of unit support, peak 1 at half a unit.
    * ``from_file(path)``: samples read from a text file (see
      :func:`read_window_file`).
    """

    sample: Callable[[Grid], Signal]

    @classmethod
    def characteristic(cls, units: float = 1.0) -> "WindowSpec":
        _require_finite("characteristic length", units)

        def sample(grid: Grid) -> Signal:
            L, s = grid.L, grid.s
            n_samples = units * s
            n_int = int(round(n_samples))
            if abs(n_samples - n_int) > 1e-9 or n_int <= 0:
                raise DomainError(f"characteristic length {units} units is not a "
                                  f"positive integer number of samples at s={s}")
            if n_int > L:
                raise DomainError(f"characteristic support {n_int} samples "
                                  f"exceeds grid length {L}")
            v = np.zeros(L, dtype=complex)
            v[:n_int] = 1.0
            return _adopt(Signal, grid=grid, samples=v)

        return cls(sample)

    @classmethod
    def gaussian(cls, width: float = 1.0, center: float | None = None) -> "WindowSpec":
        _require_finite("gaussian width", width)
        if center is not None:
            _require_finite("gaussian center", center)
        if width <= 0:
            raise DomainError(f"gaussian width must be positive, got {width}")

        def sample(grid: Grid) -> Signal:
            L, s = grid.L, grid.s
            c = grid.units / 2 if center is None else center
            # exp(-pi*u**2) is exactly 0.0 once pi*u**2 > 745.2, so only the
            # run of j with pi*u**2 < 746 is evaluated and the rest stays 0.0
            reach = width * math.sqrt(746 / math.pi)
            lo, hi = np.clip(np.floor([s * (c - reach), s * (c + reach)]) + [0, 1],
                             0, L).astype(int)
            x = np.arange(lo, hi) / s
            v = np.zeros(L, dtype=complex)
            v.real[lo:hi] = np.exp(-np.pi * ((x - c) / width) ** 2)
            return _adopt(Signal, grid=grid, samples=v)

        return cls(sample)

    @classmethod
    def hat(cls) -> "WindowSpec":
        def sample(grid: Grid) -> Signal:
            if grid.s > grid.L:
                raise DomainError("hat support of one unit exceeds the grid extent")
            x = np.arange(grid.L) / grid.s
            v = np.where(x <= 0.5, 2.0 * x, np.where(x <= 1.0, 2.0 * (1.0 - x), 0.0))
            return _adopt(Signal, grid=grid, samples=v.astype(complex))

        return cls(sample)

    @classmethod
    def from_file(cls, path: str) -> "WindowSpec":
        # read_window_file is looked up when the spec samples, not bound here
        return cls(lambda grid: read_window_file(path, grid))


# The bytes of a plain window file: np.loadtxt parses a token of these as
# float() does, bit for bit
_PLAIN_BYTES = b"0123456789+-.eE \t\r\n"


def read_window_file(path: str, grid: Grid) -> Signal:
    """Read a window from a plain text file, one ``re im`` pair per line.

    The file must be UTF-8 text, its line count must equal ``grid.L``, and
    blank lines and non-finite samples are not allowed.  It is opened and
    read once, and its bytes are held while it is read: 0.24 MB at
    L = 8192, 31.6 MB for the b = 8192 dual at L = 2**20.  A file of
    ``grid.L`` lines of digits, signs, points, exponents and blanks, with
    ``\\n`` or ``\\r\\n`` line ends, is converted by one ``np.loadtxt`` call,
    kept if it gives ``grid.L`` finite pairs.  Any other file is walked
    line by line, decoded as a text-mode read decodes it: the first
    offending line is named as ``path:lineno``, and text that is not UTF-8
    is reported only if every line decoded before it is well formed.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    # plain bytes in grid.L lines, counted as text mode counts them (no lone
    # \r); an all-blank file is left to the walk, as np.loadtxt warns on it
    if (not data.translate(None, _PLAIN_BYTES) and not data.isspace()
            and data.count(b"\r") == data.count(b"\r\n")
            and data.count(b"\n") + (not data.endswith(b"\n")) == grid.L):
        with suppress(ValueError):  # a token or a row that np.loadtxt refuses
            values = np.loadtxt(io.BytesIO(data), comments=None, ndmin=2)
            if values.shape == (grid.L, 2) and np.isfinite(values).all():
                return _adopt(Signal, grid=grid, samples=values.view(complex).ravel())
    # the walk decodes in the chunks, and splits the lines, of an open file
    samples = []
    lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    try:
        for lineno, line in enumerate(lines, start=1):
            pair = line.split()
            if len(pair) != 2:
                raise ParseError(f"{path}:{lineno}: expected 're im', got {line!r}")
            try:
                re, im = float(pair[0]), float(pair[1])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            if not (math.isfinite(re) and math.isfinite(im)):
                raise ParseError(f"{path}:{lineno}: non-finite sample {line!r}")
            samples += re, im
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if len(samples) != 2 * grid.L:
        raise ParseError(f"{path}: expected {grid.L} sample lines, found {len(samples) // 2}")
    return _adopt(Signal, grid=grid, samples=np.array(samples).view(complex))


def build_window(spec: WindowSpec, grid: Grid) -> Signal:
    """Sample a window on the grid: ``spec.sample(grid)``.

    See :class:`WindowSpec` for the kinds and which checks each makes when
    it is built and when it samples.
    """
    return spec.sample(grid)


def tf_shift(f: Signal, n: int, m: int) -> Signal:
    """Time-frequency shift: translate by ``n`` samples, then modulate by ``m`` bins.

    ``(M_m T_n f)(j) = exp(2*pi*i*m*j/L) * f(j - n mod L)``.
    """
    L = f.grid.L
    shifted = np.roll(f.samples, n % L)
    if m % L != 0:
        phase = np.exp(2j * np.pi * (m % L) * np.arange(L) / L)
        np.multiply(phase, shifted, out=shifted)
    return _adopt(Signal, grid=f.grid, samples=shifted)


def _same_grid(grid: Grid, *signals: Signal) -> None:
    """Raise ``GridMismatchError`` unless all ``signals`` are on ``grid``."""
    for f in signals:
        if f.grid != grid:
            raise GridMismatchError(f"grids differ: {grid} vs {f.grid}")


def inner_product(f: Signal, h: Signal) -> complex:
    """Riemann-scaled inner product ``(1/s) * sum_j f(j) * conj(h(j))``."""
    _same_grid(f.grid, h)
    return complex(np.vdot(h.samples, f.samples) / f.grid.s)


def norm_l2(f: Signal) -> float:
    """Scaled Euclidean norm ``sqrt((1/s) * sum |f|^2)``."""
    return math.sqrt(float(np.sum(np.abs(f.samples) ** 2)) / f.grid.s)


@dataclass(frozen=True, eq=False)
class Weight:
    """A symmetric weight ``nu`` on signed integer indices: a ``label``
    and a ``rule`` that maps an integer array to the float array of
    ``nu`` on it.

    Built-in kinds, each checked when it is built (all even,
    submultiplicative and of subexponential growth):

    * ``constant()``: ``nu(n) = 1``
    * ``polynomial(t)``: ``nu(n) = (1 + |n|)**t`` with ``t >= 0``
    * ``subexponential(c, gamma)``: ``nu(n) = exp(c * |n|**gamma)`` with
      ``c > 0``, ``0 < gamma < 1``

    ``custom`` wraps an arbitrary integer-to-float rule; no property of it is
    assumed, which is exactly what :func:`check_admissible` is for.
    """

    label: str
    rule: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def constant(cls) -> "Weight":
        return cls("constant", lambda n: np.ones_like(n, dtype=float))

    @classmethod
    def polynomial(cls, t: float = 0.0) -> "Weight":
        _require_finite("polynomial exponent", t)
        if t < 0:
            raise DomainError(f"polynomial exponent must be >= 0, got {t}")
        t = float(t)
        return cls(f"polynomial(t={t:g})", lambda n: (1.0 + np.abs(n)) ** t)

    @classmethod
    def subexponential(cls, c: float = 1.0, gamma: float = 0.5) -> "Weight":
        _require_finite("subexponential rate", c)
        if c <= 0:
            raise DomainError(f"subexponential rate must be > 0, got {c}")
        if not 0 < gamma < 1:
            raise DomainError(f"subexponential power must lie in (0, 1), got {gamma}")
        c, gamma = float(c), float(gamma)
        return cls(f"subexponential(c={c:g}, gamma={gamma:g})",
                   lambda n: np.exp(c * np.abs(n).astype(float) ** gamma))

    @classmethod
    def custom(cls, fn: Callable[[int], float], label: str = "custom") -> "Weight":
        return cls(label or "custom", lambda n: np.array(
            [fn(int(k)) for k in n.ravel()], dtype=float).reshape(n.shape))

    def __call__(self, n):
        """Evaluate ``nu`` at an integer or an integer array.

        A scalar runs through the array rule as well (numpy's scalar loops
        for ``**`` and ``exp`` round differently), so ``w(n)`` equals the
        entry of ``w(idx)`` at ``n`` bit for bit.  A rule that overflows
        raises ``DomainError``.
        """
        try:
            out = self.rule(np.atleast_1d(n))
        except OverflowError as exc:
            raise DomainError(f"weight {self.label} overflows: {exc}") from exc
        return float(out[0]) if np.ndim(n) == 0 else out

    def describe(self) -> str:
        return self.label


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
