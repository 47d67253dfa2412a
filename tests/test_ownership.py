"""Library results own their arrays: handed over without a copy, read-only,
sharing memory with no input and no cache; public constructors still copy."""

import tracemalloc

import numpy as np
import pytest

from gaborwalnut import (
    Coeffs,
    GaborLattice,
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


class TestConstructorsCopy:
    def test_signal(self):
        grid = build_grid(8, 4)
        arr = np.arange(8, dtype=complex)
        sig = Signal(grid, arr)
        arr[:] = -1.0
        assert np.array_equal(sig.samples, np.arange(8))
        assert arr.flags.writeable

    def test_coeffs_and_table(self, gauss):
        _, lat = gauss
        values = np.ones((lat.M, lat.N), dtype=complex)
        c = Coeffs(lat, values)
        table = np.ones((lat.b, lat.a), dtype=complex)
        W = WalnutCoeffs(lat, table, 1.0)
        values[:] = 0.0
        table[:] = 0.0
        assert (c.values == 1.0).all() and (W.table == 1.0).all()


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
