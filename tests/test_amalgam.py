import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaborwalnut import (
    DivisibilityError,
    DomainError,
    Signal,
    Weight,
    WindowSpec,
    amalgam_norm,
    amalgam_profile,
    build_counterexample,
    build_grid,
    build_window,
    embedding_check,
)
from gaborwalnut.amalgam import _profile


@pytest.fixture
def chi():
    grid = build_grid(8, 4)
    return build_window(WindowSpec.characteristic(1.0), grid)


def test_chi_unweighted(chi):
    assert amalgam_norm(chi, 2, Weight.constant()) == pytest.approx(2.0)


def test_zero_signal():
    grid = build_grid(8, 4)
    assert amalgam_norm(Signal(grid, np.zeros(8)), 2, Weight.constant()) == 0.0


def test_chi_polynomial_weight(chi):
    # sup 1 on blocks 0 and 1, weights 1 and 2
    assert amalgam_norm(chi, 2, Weight.polynomial(1.0)) == pytest.approx(3.0)


def test_profile_delta():
    grid = build_grid(8, 4)
    v = np.zeros(8, dtype=complex)
    v[0] = 1.0
    prof = amalgam_profile(Signal(grid, v), 2, Weight.constant())
    assert np.array_equal(prof.indices, [0, 1, -1, 2])
    assert np.allclose(prof.block_sups, [1, 0, 0, 0])
    assert prof.weighted_cumsums[-1] == pytest.approx(1.0)


def test_profile_single_covering_block(chi):
    prof = amalgam_profile(chi, 4, Weight.constant())
    assert np.allclose(prof.block_sups, [1, 0])
    assert prof.norm == pytest.approx(1.0)


def test_profile_cumsums_nondecreasing(chi):
    prof = amalgam_profile(chi, 2, Weight.polynomial(1.0))
    assert np.all(np.diff(prof.weighted_cumsums) >= 0)
    assert prof.norm == prof.weighted_cumsums[-1]


def test_staircase_profile_tracks_harmonic_sums():
    # unit blocks: per-block sup is exactly the per-unit amplitude, so the
    # profile partial sums must track the directly-summed amplitude series
    grid = build_grid(64 * 8, 8)
    h = build_counterexample("harmonic", grid)
    prof = amalgam_profile(h, grid.s, Weight.constant())
    direct = np.cumsum([1.0 / (abs(int(n)) + 1) for n in prof.indices])
    for N in range(1, 2 * 32):
        assert prof.weighted_cumsums[N] == pytest.approx(direct[N], rel=0.05)


def test_embedding_chi(chi):
    am, l2, linf = embedding_check(chi, 2, Weight.constant())
    assert (am, l2, linf) == (pytest.approx(2.0), pytest.approx(1.0),
                              pytest.approx(1.0))


def test_embedding_delta():
    grid = build_grid(8, 4)
    v = np.zeros(8, dtype=complex)
    v[0] = 1.0
    am, l2, linf = embedding_check(Signal(grid, v), 2, Weight.constant())
    assert am == pytest.approx(1.0)
    assert l2 == pytest.approx(0.5)  # sqrt(1/s)
    assert linf == pytest.approx(1.0)


def test_embedding_zero():
    grid = build_grid(8, 4)
    assert embedding_check(Signal(grid, np.zeros(8)), 2, Weight.constant()) == \
        (0.0, 0.0, 0.0)


def test_embedding_inequalities():
    grid = build_grid(64, 8)
    rng = np.random.default_rng(11)
    for block in (2, 4, 8):
        f = Signal(grid, rng.standard_normal(64) + 1j * rng.standard_normal(64))
        am, l2, linf = embedding_check(f, block, Weight.constant())
        assert am >= linf
        assert l2 <= np.sqrt(block / grid.s) * am * (1 + 1e-12)


def test_bad_block_length(chi):
    with pytest.raises(DivisibilityError):
        amalgam_norm(chi, 3, Weight.constant())


@settings(deadline=None, max_examples=30)
@given(c=st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                            allow_infinity=False),
       seed=st.integers(0, 2**16))
def test_scaling(c, seed):
    grid = build_grid(16, 4)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    w = Weight.polynomial(1.0)
    base = amalgam_norm(Signal(grid, v), 4, w)
    scaled = amalgam_norm(Signal(grid, c * v), 4, w)
    assert scaled == pytest.approx(abs(c) * base, rel=1e-9, abs=1e-9)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**16))
def test_triangle(seed):
    grid = build_grid(16, 4)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    g = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    w = Weight.polynomial(1.0)
    lhs = amalgam_norm(Signal(grid, f + g), 4, w)
    rhs = amalgam_norm(Signal(grid, f), 4, w) + amalgam_norm(Signal(grid, g), 4, w)
    assert lhs <= rhs * (1 + 1e-12)


def test_weight_monotonicity():
    grid = build_grid(32, 4)
    rng = np.random.default_rng(5)
    for _ in range(20):
        f = Signal(grid, rng.standard_normal(32) + 1j * rng.standard_normal(32))
        lo = amalgam_norm(f, 4, Weight.constant())
        hi = amalgam_norm(f, 4, Weight.polynomial(2.0))
        assert lo <= hi * (1 + 1e-12)


def test_block_refinement_equivalence():
    # norms at block lengths 2 and 4 agree within a factor of 2 (unweighted)
    grid = build_grid(64, 8)
    rng = np.random.default_rng(13)
    w = Weight.constant()
    for _ in range(50):
        f = Signal(grid, rng.standard_normal(64) + 1j * rng.standard_normal(64))
        n2 = amalgam_norm(f, 2, w)
        n4 = amalgam_norm(f, 4, w)
        factor = max(n2 / n4, n4 / n2)
        assert factor <= 2.0 * (1 + 1e-12)


def test_weight_not_finite_on_the_blocks_refused(chi):
    # (1 + |n|)**1e6 overflows from n = 1 on; a finite weight whose series
    # overflows is refused too, and numpy warns about neither
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows on 4 blocks"):
            amalgam_norm(chi, 2, Weight.polynomial(1e6))
        with pytest.raises(DomainError, match="overflows"):
            amalgam_norm(chi, 2, Weight.custom(lambda n: 1e308))
        assert amalgam_norm(chi, 8, Weight.polynomial(1e6)) == 1.0


def test_rows_not_finite_are_named_not_the_weight():
    # a finite constant weight over rows holding inf or nan: the rows are
    # blamed, and numpy warns about nothing
    rows = np.ones((4, 2), dtype=complex)
    for bad in (np.inf, np.nan, complex(np.inf, np.nan)):
        rows[2, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError,
                               match="rows are not finite on 1 of 4 blocks"):
                _profile(rows, Weight.constant())


def test_custom_rule_that_overflows_refused():
    # math.exp overflows inside the rule from |n| = 237 on (2048 blocks of
    # 4 samples), and an int past the float range fails on conversion:
    # both are DomainError, not OverflowError
    g = build_window(WindowSpec.gaussian(width=1.0), build_grid(4096, 16))
    w = Weight.custom(lambda n: math.exp(3 * abs(n)))
    with pytest.raises(DomainError, match="weight custom overflows"):
        amalgam_norm(g, 4, w)
    with pytest.raises(DomainError, match="overflows"):
        w(300)
    assert w(1) == math.exp(3)
    with pytest.raises(DomainError, match="weight big overflows"):
        Weight.custom(lambda n: 10 ** 400, label="big")(np.arange(3))
