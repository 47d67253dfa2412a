import numpy as np
import pytest

from gaborwalnut import (
    DivisibilityError,
    GaborLattice,
    GridMismatchError,
    Signal,
    WindowSpec,
    bracket_fourier_coeffs,
    bracket_product,
    build_grid,
    build_window,
    correlation_G,
    inner_product,
    tf_shift,
)


@pytest.fixture
def grid84():
    return build_grid(8, 4)


@pytest.fixture
def chi(grid84):
    return build_window(WindowSpec.characteristic(1.0), grid84)


def delta(grid, j=0):
    v = np.zeros(grid.L, dtype=complex)
    v[j] = 1.0
    return Signal(grid, v)


class TestBracketProduct:
    def test_chi_chi(self, chi):
        assert np.array_equal(bracket_product(chi, chi, 2).values,
                              np.array([2, 2], dtype=complex))

    def test_disjoint_translates(self, chi):
        shifted = tf_shift(chi, 4, 0)
        assert np.array_equal(bracket_product(chi, shifted, 2).values,
                              np.zeros(2, dtype=complex))

    def test_delta(self, grid84):
        d = delta(grid84)
        assert np.array_equal(bracket_product(d, d, 4).values,
                              np.array([1, 0, 0, 0], dtype=complex))

    def test_grid_mismatch(self, chi):
        other = delta(build_grid(8, 2))
        with pytest.raises(GridMismatchError):
            bracket_product(chi, other, 2)

    def test_divisibility(self, chi):
        with pytest.raises(DivisibilityError):
            bracket_product(chi, chi, 3)

    def test_self_bracket_real_nonnegative(self):
        grid = build_grid(24, 4)
        rng = np.random.default_rng(2)
        f = Signal(grid, rng.standard_normal(24) + 1j * rng.standard_normal(24))
        for p in (2, 3, 4, 6, 8, 12):
            vals = bracket_product(f, f, p).values
            assert np.allclose(vals.imag, 0.0, atol=1e-12)
            assert np.all(vals.real >= -1e-12)
        # exact zeros off the support
        sparse = np.zeros(24, dtype=complex)
        sparse[1] = 2.0
        vals = bracket_product(Signal(grid, sparse), Signal(grid, sparse), 4).values
        assert vals[0] == 0.0 and vals[2] == 0.0

    def test_conjugate_symmetry(self):
        grid = build_grid(16, 4)
        rng = np.random.default_rng(4)
        f = Signal(grid, rng.standard_normal(16) + 1j * rng.standard_normal(16))
        h = Signal(grid, rng.standard_normal(16) + 1j * rng.standard_normal(16))
        for p in (2, 4, 8):
            assert np.allclose(bracket_product(f, h, p).values,
                               np.conj(bracket_product(h, f, p).values))


class TestBracketFourier:
    def test_chi_coefficients(self, grid84, chi):
        coeffs = bracket_fourier_coeffs(chi, chi, 2)
        assert coeffs[0] == pytest.approx((4 / 2) * inner_product(chi, chi))
        mod = tf_shift(chi, 0, 4)  # modulation by L/p = 4 bins
        assert coeffs[1] == pytest.approx(2 * inner_product(chi, mod), abs=1e-14)
        assert coeffs[0] == pytest.approx(2.0)
        assert abs(coeffs[1]) < 1e-14

    def test_delta_full_period(self, grid84):
        d = delta(grid84)
        coeffs = bracket_fourier_coeffs(d, d, 8)
        assert np.allclose(coeffs, 1 / 8)
        # self-consistency against the scaled inner products
        for n in range(8):
            rhs = (grid84.s / 8) * inner_product(d, tf_shift(d, 0, n))
            assert coeffs[n] == pytest.approx(rhs)

    def test_disjoint_supports_zero(self, grid84, chi):
        shifted = tf_shift(chi, 4, 0)
        assert np.allclose(bracket_fourier_coeffs(chi, shifted, 2), 0.0)

    @pytest.mark.parametrize("L,s", [(16, 4), (24, 4), (48, 8), (64, 8)])
    def test_series_identity_random(self, L, s):
        # coefficient n of [f,h]_p equals (s/p) <f, M_{n*L/p} h> for every
        # divisor p; both sides computed independently
        grid = build_grid(L, s)
        rng = np.random.default_rng(L)
        f = Signal(grid, rng.standard_normal(L) + 1j * rng.standard_normal(L))
        h = Signal(grid, rng.standard_normal(L) + 1j * rng.standard_normal(L))
        for p in (d for d in range(1, L + 1) if L % d == 0):
            coeffs = bracket_fourier_coeffs(f, h, p)
            direct = np.array([
                (s / p) * inner_product(f, tf_shift(h, 0, n * (L // p)))
                for n in range(p)
            ])
            scale = max(np.max(np.abs(direct)), 1e-30)
            assert np.max(np.abs(coeffs - direct)) / scale < 1e-12


class TestCorrelation:
    def test_chi_instance(self, grid84, chi):
        lat = GaborLattice(grid84, 2, 2)
        assert np.array_equal(correlation_G(chi, lat, 0).values,
                              np.array([2, 2], dtype=complex))
        assert np.array_equal(correlation_G(chi, lat, 1).values,
                              np.zeros(2, dtype=complex))

    def test_delta_offdiagonal_vanishes(self, grid84):
        lat = GaborLattice(grid84, 2, 2)
        d = delta(grid84)
        assert np.array_equal(correlation_G(d, lat, 1).values,
                              np.zeros(2, dtype=complex))

    def test_signed_reduction_exact(self, grid84, chi):
        lat = GaborLattice(grid84, 2, 2)
        # r and r +/- b address the same cyclic translation
        assert np.array_equal(correlation_G(chi, lat, 1).values,
                              correlation_G(chi, lat, 1 - lat.b).values)
