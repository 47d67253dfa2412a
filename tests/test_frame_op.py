import numpy as np
import pytest

from gaborwalnut import (
    Coeffs,
    DimensionError,
    GaborLattice,
    GridMismatchError,
    Signal,
    WalnutCoeffs,
    Weight,
    WindowSpec,
    analysis,
    build_grid,
    build_window,
    dense_frame_matrix,
    empirical_multiplier_ratio,
    frame_operator_direct,
    frame_operator_walnut,
    norm_l2,
    signed_range,
    synthesis,
    tf_shift,
    walnut_coefficients,
    walnut_weighted_sum,
)


@pytest.fixture
def chi_lat():
    grid = build_grid(8, 4)
    return build_window(WindowSpec.characteristic(1.0), grid), \
        GaborLattice(grid, 2, 2)


def rand_signal(grid, seed):
    rng = np.random.default_rng(seed)
    return Signal(grid, rng.standard_normal(grid.L) + 1j * rng.standard_normal(grid.L))


class TestAnalysisSynthesis:
    def test_dc_coefficient(self, chi_lat):
        g, lat = chi_lat
        c = analysis(g, lat, g)
        assert c.values[0, 0] == pytest.approx(1.0)

    def test_zero_signal(self, chi_lat):
        g, lat = chi_lat
        zero = Signal(g.grid, np.zeros(8))
        assert np.array_equal(analysis(g, lat, zero).values,
                              np.zeros((lat.M, lat.N)))

    def test_diagonal_pickup(self, chi_lat):
        g, lat = chi_lat
        g11 = tf_shift(g, lat.a, lat.b)
        c = analysis(g, lat, g11)
        assert c.values[1, 1] == pytest.approx(norm_l2(g) ** 2)

    def test_synthesis_of_unit_coefficient(self, chi_lat):
        g, lat = chi_lat
        c = np.zeros((lat.M, lat.N), dtype=complex)
        c[0, 0] = 1.0
        assert np.allclose(synthesis(g, lat, Coeffs(lat, c)).samples, g.samples)
        c[:] = 0
        c[2, 3] = 1.0
        expect = tf_shift(g, 3 * lat.a, 2 * lat.b)
        assert np.allclose(synthesis(g, lat, Coeffs(lat, c)).samples,
                           expect.samples)

    def test_coeff_shape_checked(self, chi_lat):
        _, lat = chi_lat
        with pytest.raises(DimensionError):
            Coeffs(lat, np.zeros((2, 2)))

    def test_grid_mismatch(self, chi_lat):
        g, lat = chi_lat
        other = rand_signal(build_grid(8, 2), 0)
        with pytest.raises(GridMismatchError):
            analysis(g, lat, other)


class TestDirectOperator:
    def test_scalar_instance(self, chi_lat):
        g, lat = chi_lat
        f = rand_signal(g.grid, 1)
        out = frame_operator_direct(g, lat, f)
        assert np.allclose(out.samples, 2 * f.samples, atol=1e-12)

    def test_zero(self, chi_lat):
        g, lat = chi_lat
        zero = Signal(g.grid, np.zeros(8))
        assert np.allclose(frame_operator_direct(g, lat, zero).samples, 0.0)

    def test_full_lattice_delta(self):
        # delta window on the densest lattice gives a scalar operator L/s * I
        grid = build_grid(8, 4)
        lat = GaborLattice(grid, 1, 1)
        d = np.zeros(8, dtype=complex)
        d[0] = 1.0
        g = Signal(grid, d)
        S = dense_frame_matrix(g, lat)
        assert np.allclose(S, (grid.L / grid.s) * np.eye(8), atol=1e-12)
        f = rand_signal(grid, 2)
        out = frame_operator_direct(g, lat, f)
        assert np.allclose(out.samples, 2 * f.samples, atol=1e-12)


class TestWalnut:
    def test_chi_coefficients(self, chi_lat):
        g, lat = chi_lat
        W = walnut_coefficients(g, lat)
        assert W.factor == pytest.approx(1.0)
        assert np.array_equal(W.table[0], np.array([2, 2], dtype=complex))
        assert np.array_equal(W.table[1], np.zeros(2, dtype=complex))

    def test_delta_window_single_entry(self):
        grid = build_grid(8, 4)
        lat = GaborLattice(grid, 2, 2)
        d = np.zeros(8, dtype=complex)
        d[0] = 1.0
        W = walnut_coefficients(Signal(grid, d), lat)
        assert W.sup_norms() == {0: 1.0, 1: 0.0}

    def test_gaussian_sup_decay(self):
        grid = build_grid(256, 16)
        lat = GaborLattice(grid, 8, 8)
        g = build_window(WindowSpec.gaussian(width=1.0), grid)
        W = walnut_coefficients(g, lat)
        sups = [W.sup_norms()[r] for r in range(0, lat.b // 2 + 1)]
        assert all(sups[i] > sups[i + 1] for i in range(len(sups) - 1))

    def test_matches_oracle_chi(self, chi_lat):
        g, lat = chi_lat
        f = rand_signal(g.grid, 3)
        w_out = frame_operator_walnut(walnut_coefficients(g, lat), f)
        d_out = frame_operator_direct(g, lat, f)
        rel = np.linalg.norm(w_out.samples - d_out.samples) / \
            np.linalg.norm(d_out.samples)
        assert rel < 1e-12

    def test_identity_multiplier(self):
        grid = build_grid(8, 4)
        lat = GaborLattice(grid, 2, 1)  # b = 1: a single multiplier index
        W = WalnutCoeffs(lat, np.ones((1, 2)), factor=1.0)
        f = rand_signal(grid, 4)
        assert np.allclose(frame_operator_walnut(W, f).samples, f.samples)

    @pytest.mark.parametrize("L,s", [(24, 4), (36, 6)])
    def test_matches_oracle_all_divisor_pairs(self, L, s):
        grid = build_grid(L, s)
        g = rand_signal(grid, L)
        f = rand_signal(grid, L + 1)
        divisors = [d for d in range(1, L + 1) if L % d == 0]
        for a in divisors:
            for b in divisors:
                lat = GaborLattice(grid, a, b)
                w_out = frame_operator_walnut(walnut_coefficients(g, lat), f)
                d_out = frame_operator_direct(g, lat, f)
                rel = np.linalg.norm(w_out.samples - d_out.samples) / \
                    np.linalg.norm(d_out.samples)
                assert rel < 1e-10, f"a={a} b={b} rel={rel}"

    @pytest.mark.parametrize("L,s,a,b", [(64, 8, 4, 4), (24, 4, 2, 3),
                                         (36, 6, 9, 6), (48, 4, 16, 48)])
    def test_apply_equals_roll_loop_exactly(self, L, s, a, b):
        # same products summed in the same signed order as a loop of tiled
        # multipliers times rolled signals, so the results agree bit for bit
        grid = build_grid(L, s)
        lat = GaborLattice(grid, a, b)
        W = walnut_coefficients(rand_signal(grid, L), lat)
        f = rand_signal(grid, L + 1)
        ref = np.zeros(L, dtype=complex)
        for r in signed_range(b):
            ref += np.tile(W.table[r], L // a) * np.roll(f.samples, r * lat.M)
        assert np.array_equal(W.apply(f.samples), W.factor * ref)

    def test_entry_count_enforced(self, chi_lat):
        from gaborwalnut.errors import LatticeError
        _, lat = chi_lat
        with pytest.raises(LatticeError):
            WalnutCoeffs(lat, np.ones((1, 2)), factor=1.0)


class TestWeightedSum:
    def test_chi(self, chi_lat):
        g, lat = chi_lat
        W = walnut_coefficients(g, lat)
        assert walnut_weighted_sum(W, Weight.constant()) == pytest.approx(2.0)

    def test_zero_window(self, chi_lat):
        _, lat = chi_lat
        W = walnut_coefficients(Signal(lat.grid, np.zeros(8)), lat)
        assert walnut_weighted_sum(W, Weight.constant()) == 0.0

    def test_gaussian_ratio_finite(self):
        grid = build_grid(256, 16)
        lat = GaborLattice(grid, 8, 8)
        g = build_window(WindowSpec.gaussian(width=1.0), grid)
        w = Weight.polynomial(2.0)
        total = walnut_weighted_sum(walnut_coefficients(g, lat), w)
        ratio = empirical_multiplier_ratio(g, lat, w)
        assert 0 < total < np.inf
        assert 0 < ratio < np.inf


class TestOperatorStructure:
    def test_hermitian_positive(self, corpus):
        for name, g, lat, _ in corpus:
            if lat.grid.L > 128:
                continue
            S = dense_frame_matrix(g, lat)
            assert np.allclose(S, S.conj().T, atol=1e-12), name
            ev = np.linalg.eigvalsh(S)
            assert ev[0] > -1e-12, name

    def test_strided_sparsity_exact(self, corpus):
        for name, g, lat, _ in corpus:
            if lat.grid.L > 128:
                continue
            S = dense_frame_matrix(g, lat)
            mask = np.zeros(S.shape, dtype=bool)
            rows = np.arange(lat.grid.L)
            for r in signed_range(lat.b):
                mask[rows, (rows - r * lat.M) % lat.grid.L] = True
            assert np.all(S[~mask] == 0.0), name

    def test_direct_path_has_same_structure(self):
        # the double-sum operator concentrates on the strided diagonals up to
        # rounding noise, relative to its own scale
        grid = build_grid(64, 8)
        lat = GaborLattice(grid, 4, 4)
        g = build_window(WindowSpec.gaussian(width=1.0), grid)
        cols = []
        basis = np.zeros(64, dtype=complex)
        for j in range(64):
            basis[j] = 1.0
            cols.append(frame_operator_direct(g, lat, Signal(grid, basis)).samples)
            basis[j] = 0.0
        S = np.stack(cols, axis=1)
        mask = np.zeros(S.shape, dtype=bool)
        rows = np.arange(64)
        for r in signed_range(lat.b):
            mask[rows, (rows - r * lat.M) % 64] = True
        off = np.abs(S[~mask]).sum()
        assert off < 1e-10 * np.abs(S).sum()
