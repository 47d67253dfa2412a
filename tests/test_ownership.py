"""Library results own their arrays: handed over without a copy, read-only,
sharing memory with no input and no cache; public constructors still copy.
The four array types keep one rule for both paths (``core._Frozen``)."""

import tracemalloc

import numpy as np
import pytest

from gaborwalnut import (
    Coeffs,
    DimensionError,
    DivisibilityError,
    GaborLattice,
    LatticeError,
    PeriodicVector,
    Signal,
    WalnutCoeffs,
    WindowSpec,
    analysis,
    build_grid,
    build_window,
    frame_operator_walnut,
    inverse_solve,
    read_window_file,
    synthesis,
    tf_shift,
    tight_window,
    walnut_coefficients,
)
from gaborwalnut.core import _adopt
from gaborwalnut.invert import _inverse_walnut
from gaborwalnut.reports import write_window_file


def rand_signal(grid, seed):
    rng = np.random.default_rng(seed)
    return Signal(grid, rng.standard_normal(grid.L) + 1j * rng.standard_normal(grid.L))


def _owned(arr, *others):
    """``arr`` is read-only and shares memory with none of ``others``."""
    assert not arr.flags.writeable
    for other in others:
        assert not np.shares_memory(arr, other)


def _cache(W):
    """Every array that ``W`` holds or caches for ``apply``."""
    if W._split is None:
        return [W.table, W.fibers()]
    diag, rows = W._split
    return [W.table, diag, *(G for _, G in rows)]


@pytest.fixture
def gauss():
    grid = build_grid(256, 16)
    return build_window(WindowSpec.gaussian(1.0), grid), GaborLattice(grid, 8, 8)


class TestHandedOver:
    def test_windows(self, tmp_path):
        grid = build_grid(64, 8)
        for spec in (WindowSpec.gaussian(1.0), WindowSpec.characteristic(1.0),
                     WindowSpec.hat()):
            _owned(build_window(spec, grid).samples)
        path = tmp_path / "w.txt"
        write_window_file(rand_signal(grid, 1), path)
        _owned(read_window_file(str(path), grid).samples)
        _owned(build_window(WindowSpec.from_file(str(path)), grid).samples)
        # non-ASCII whitespace: only the line-by-line reader takes it
        path.write_text("1 0\n" * 63 + "1\u00a00\n", encoding="utf-8")
        _owned(read_window_file(str(path), grid).samples)

    @pytest.mark.parametrize("n,m", [(3, 0), (3, 5), (0, 0)])
    def test_tf_shift(self, n, m):
        f = rand_signal(build_grid(32, 4), 2)
        _owned(tf_shift(f, n, m).samples, f.samples)

    @pytest.mark.parametrize("width,b,k", [(1.0, 8, 7), (0.15, 8, 2), (0.1, 4, 0)])
    def test_table_and_apply(self, width, b, k):
        # the Zak domain, two rows summed directly, and painless
        grid = build_grid(256, 16)
        g = build_window(WindowSpec.gaussian(width), grid)
        W = walnut_coefficients(g, GaborLattice(grid, 8, b))
        _owned(W.table, g.samples)
        assert W.table[1:].any(axis=1).sum() == k
        assert (W._split is not None) == (k < 7)
        for f in (rand_signal(grid, 3), g):
            _owned(frame_operator_walnut(W, f).samples, f.samples, g.samples,
                   *_cache(W))

    def test_analysis_and_synthesis(self, gauss):
        g, lat = gauss
        f = rand_signal(g.grid, 5)
        c = analysis(g, lat, f)
        _owned(c.values, f.samples, g.samples)
        y = synthesis(g, lat, c)
        _owned(y.samples, g.samples, c.values)

    def test_inverse_and_tight(self, gauss):
        g, lat = gauss
        rhs = rand_signal(g.grid, 6)
        for method in ("fiber", "dense", "cg"):
            x, _ = inverse_solve(g, lat, rhs, method=method)
            _owned(x.samples, rhs.samples, g.samples)
        for method in ("fiber", "dense", "contour"):
            _owned(tight_window(g, lat, method=method).samples, g.samples)
        _owned(_inverse_walnut(g, lat).table, g.samples)


_GRID = build_grid(64, 8)
_LAT = GaborLattice(_GRID, 4, 8)  # M = 8, N = 16
# type, its other fields, its array field, the shape they fix, its error
_TYPES = [
    (Signal, {"grid": _GRID}, "samples", (64,), DimensionError),
    (Coeffs, {"lat": _LAT}, "values", (8, 16), DimensionError),
    (WalnutCoeffs, {"lat": _LAT}, "table", (8, 4), LatticeError),
    (PeriodicVector, {"period": 8}, "values", (8,), DivisibilityError),
]


@pytest.mark.parametrize("cls,fields,name,shape,error", _TYPES,
                         ids=[t[0].__name__ for t in _TYPES])
class TestOneRule:
    """Constructor and ``_adopt`` check, copy or share, and freeze alike."""

    @staticmethod
    def _array(shape, seed=0):
        rng = np.random.default_rng(seed)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def test_constructor_copies(self, cls, fields, name, shape, error):
        arr = self._array(shape)
        kept = arr.copy()
        obj = cls(**fields, **{name: arr})
        arr[...] = 0.0
        assert np.array_equal(getattr(obj, name), kept)
        assert not np.shares_memory(getattr(obj, name), arr)
        assert arr.flags.writeable

    def test_adopt_shares(self, cls, fields, name, shape, error):
        arr = self._array(shape)
        obj = _adopt(cls, **fields, **{name: arr})
        assert getattr(obj, name) is arr
        for key, value in fields.items():
            assert getattr(obj, key) == value

    def test_both_read_only(self, cls, fields, name, shape, error):
        for make in (cls, lambda **kw: _adopt(cls, **kw)):
            held = getattr(make(**fields, **{name: self._array(shape)}), name)
            assert not held.flags.writeable
            with pytest.raises(ValueError):
                held[(0,) * len(shape)] = 1.0

    def test_wrong_shape_raises_own_error(self, cls, fields, name, shape, error):
        wrong = (shape[0] + 1,) + shape[1:]
        for bad in (self._array(wrong), self._array(shape[::-1] + (1,))):
            with pytest.raises(error):
                cls(**fields, **{name: bad})
            with pytest.raises(error):
                _adopt(cls, **fields, **{name: bad})

    def test_adopt_refuses_non_complex(self, cls, fields, name, shape, error):
        real = self._array(shape).real.copy()
        with pytest.raises(error):
            _adopt(cls, **fields, **{name: real})
        # the constructor converts while it copies
        held = getattr(cls(**fields, **{name: real}), name)
        assert held.dtype == complex and np.array_equal(held.real, real)


def _peak_mib(fn) -> float:
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - before) / 2**20
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """tracemalloc peaks at L = 65536, where one signal is 1 MiB."""

    grid = build_grid(65536, 16)

    def test_table_costs_the_support(self):
        g = build_window(WindowSpec.gaussian(1.0), self.grid)
        lat = GaborLattice(self.grid, 64, 64)
        assert _peak_mib(lambda: walnut_coefficients(g, lat)) < 0.25

    @pytest.mark.parametrize("a,b,limit", [(64, 64, 1.25), (32, 512, 2.25)])
    def test_apply_costs_its_output(self, a, b, limit):
        # painless at b = 64; four nonzero rows summed directly at b = 512
        g = build_window(WindowSpec.gaussian(1.0), self.grid)
        W = walnut_coefficients(g, GaborLattice(self.grid, a, b))
        f = rand_signal(self.grid, 7)
        assert _peak_mib(lambda: frame_operator_walnut(W, f)) < limit
