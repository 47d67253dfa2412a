import numpy as np
import pytest

from gaborwalnut import (
    DomainError,
    GaborLattice,
    LatticeError,
    Signal,
    SizeError,
    Weight,
    WindowSpec,
    amalgam_norm,
    analysis,
    build_counterexample,
    build_grid,
    build_window,
    conjecture_probe,
    convo_identity_residual,
    counterexample_report,
    dense_frame_matrix,
    dense_matrix,
    dual_summability_report,
    dual_window,
    estimate_convest,
    extract_walnut_from_matrix,
    forbound_check,
    forbound_slack,
    frame_operator_walnut,
    mixed_bracket,
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


class TestDenseMatrix:
    def test_identity(self):
        grid = build_grid(8, 4)
        assert np.array_equal(dense_matrix(lambda f: f, grid), np.eye(8))

    def test_translation_permutation(self):
        grid = build_grid(8, 4)
        T2 = dense_matrix(lambda f: tf_shift(f, 2, 0), grid)
        assert np.array_equal(T2, np.roll(np.eye(8), 2, axis=0))

    def test_scalar_frame_operator(self, chi_lat):
        g, lat = chi_lat
        W = walnut_coefficients(g, lat)
        S = dense_matrix(lambda f: frame_operator_walnut(W, f), lat.grid)
        assert np.allclose(S, 2 * np.eye(8), atol=1e-12)

    def test_size_limit(self):
        grid = build_grid(2048, 16)
        with pytest.raises(SizeError):
            dense_matrix(lambda f: f, grid)


class TestExtraction:
    def test_chi_instance(self, chi_lat):
        g, lat = chi_lat
        S = dense_frame_matrix(g, lat)
        W, off = extract_walnut_from_matrix(S, lat)
        assert off < 1e-14
        assert np.allclose(W.table[0], [2, 2])
        assert np.allclose(W.table[1], [0, 0])

    def test_identity_matrix(self, chi_lat):
        _, lat = chi_lat
        W, off = extract_walnut_from_matrix(np.eye(8, dtype=complex), lat)
        assert off == 0.0
        assert np.allclose(W.table[0], 1.0 / W.factor)
        assert np.allclose(W.table[1], 0.0)

    def test_random_matrix_off_structure(self, chi_lat):
        _, lat = chi_lat
        rng = np.random.default_rng(0)
        M = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        _, off = extract_walnut_from_matrix(M, lat)
        assert off > 1.0

    @pytest.mark.parametrize("L,s,a,b", [
        (64, 8, 4, 4),
        (24, 4, 2, 3),   # odd multiplier count
        (36, 6, 9, 6),
        (24, 4, 24, 2),  # single time shift
    ])
    def test_round_trip(self, L, s, a, b):
        grid = build_grid(L, s)
        lat = GaborLattice(grid, a, b)
        g = rand_signal(grid, L + a)
        W = walnut_coefficients(g, lat)
        S = dense_matrix(lambda f: frame_operator_walnut(W, f), grid)
        W2, off = extract_walnut_from_matrix(S, lat)
        assert off < 1e-12
        assert W2.factor == pytest.approx(W.factor)
        assert np.max(np.abs(W2.table - W.table)) < 1e-12


class TestDualSummability:
    def test_chi_instance(self, chi_lat):
        g, lat = chi_lat
        rep = dual_summability_report(g, lat, Weight.constant())
        assert rep.weighted_sum == pytest.approx(0.5, abs=1e-12)
        sups = {r: s for (r, s, _, _) in rep.per_r}
        assert sups[0] == pytest.approx(0.5, abs=1e-12)
        assert sups[1] == pytest.approx(0.0, abs=1e-12)
        assert rep.cross_check_error < 1e-12

    def test_gaussian_tail_and_cross_check(self):
        grid = build_grid(256, 16)
        lat = GaborLattice(grid, 8, 8)
        g = build_window(WindowSpec.gaussian(width=1.0), grid)
        rep = dual_summability_report(g, lat, Weight.polynomial(1.0))
        assert np.isfinite(rep.weighted_sum)
        assert rep.cross_check_error < 1e-8
        assert rep.tail_fraction(lat.b // 4) < 0.01
        assert rep.tail_profile[-1] == pytest.approx(rep.weighted_sum)

    def test_dual_multipliers_not_assumed_proportional(self, gauss64):
        # compare only against the dense-inverse extraction, which is exact
        g, lat = gauss64
        rep = dual_summability_report(g, lat, Weight.constant())
        assert rep.cross_check_error < 1e-10

    def test_whole_corpus_summable(self, corpus):
        for name, g, lat, w in corpus:
            rep = dual_summability_report(g, lat, w)
            assert np.isfinite(rep.weighted_sum), name
            assert rep.cross_check_error < 1e-8, name
            gd = dual_window(g, lat, method="cg", tol=1e-12)
            assert np.isfinite(amalgam_norm(gd, lat.a, w)), name


class TestMixedBracket:
    def test_chi_k0(self, chi_lat):
        g, lat = chi_lat
        gd = Signal(g.grid, g.samples / 2)
        m0 = mixed_bracket(g, gd, lat, 0)
        assert np.allclose(m0.values, 0.5)

    def test_zero_dual(self, chi_lat):
        g, lat = chi_lat
        zero = Signal(g.grid, np.zeros(8))
        assert np.allclose(mixed_bracket(g, zero, lat, 1).values, 0.0)

    def test_fourier_coefficients_are_gabor_coefficients(self):
        grid = build_grid(64, 8)
        lat = GaborLattice(grid, 4, 4)
        g = rand_signal(grid, 7)
        gd = dual_window(g, lat, method="cg", tol=1e-12)
        coeffs = analysis(g, lat, gd).values
        for k in range(lat.N):
            mk = mixed_bracket(g, gd, lat, k)
            mk_hat = np.fft.fft(mk.values) / lat.M
            assert np.max(np.abs(mk_hat - coeffs[:, k])) < 1e-12


class TestConvoIdentity:
    def test_chi_exact(self, chi_lat):
        g, lat = chi_lat
        gd = Signal(g.grid, g.samples / 2)
        res = convo_identity_residual(g, gd, lat)
        assert res.max_abs_error < 1e-12

    def test_gaussian_with_computed_dual(self):
        grid = build_grid(256, 16)
        lat = GaborLattice(grid, 8, 8)
        g = build_window(WindowSpec.gaussian(width=1.0), grid)
        gd = dual_window(g, lat, method="cg", tol=1e-12)
        res = convo_identity_residual(g, gd, lat)
        assert res.max_abs_error < 1e-8

    def test_negative_control(self, chi_lat):
        g, lat = chi_lat
        res = convo_identity_residual(g, g, lat)
        assert res.max_abs_error > 1e-2

    def test_random_geometry_sweep(self):
        # exact identity on every random frame, including lattices where the
        # time step does not divide the multiplier period
        rng = np.random.default_rng(21)
        for L, s in ((24, 4), (36, 6), (32, 8)):
            grid = build_grid(L, s)
            divisors = [d for d in range(1, L + 1) if L % d == 0]
            for a in divisors:
                for b in divisors:
                    if L // (a * b) < 1:
                        continue  # keep to oversampled systems: duals exist
                    g = Signal(grid, rng.standard_normal(L)
                               + 1j * rng.standard_normal(L))
                    lat = GaborLattice(grid, a, b)
                    gd = dual_window(g, lat, method="dense")
                    res = convo_identity_residual(g, gd, lat)
                    assert res.max_abs_error < 1e-9, (L, s, a, b)


class TestConvest:
    def test_chi_values(self, chi_lat):
        # mixed series: sups 0.5 at k in {0, 1, -1}, 0 at k=2 -> 1.5
        # pure series: 3 for the window, 0.75 for its dual; factor 1
        g, lat = chi_lat
        gd = Signal(g.grid, g.samples / 2)
        lhs, rhs = estimate_convest(g, gd, lat, Weight.constant())
        assert lhs == pytest.approx(1.5, abs=1e-12)
        assert rhs == pytest.approx(2.25, abs=1e-12)
        assert lhs <= rhs

    def test_zero_dual(self, chi_lat):
        g, lat = chi_lat
        zero = Signal(g.grid, np.zeros(8))
        lhs, rhs = estimate_convest(g, zero, lat, Weight.constant())
        assert lhs == 0.0 and rhs == 0.0

    def test_gaussian_strict(self):
        grid = build_grid(256, 16)
        lat = GaborLattice(grid, 8, 8)
        g = build_window(WindowSpec.gaussian(width=1.0), grid)
        gd = dual_window(g, lat, method="cg", tol=1e-12)
        lhs, rhs = estimate_convest(g, gd, lat, Weight.polynomial(1.0))
        assert lhs < rhs


class TestConjectureProbe:
    def test_chi_dual(self, chi_lat):
        g, lat = chi_lat
        gd = Signal(g.grid, g.samples / 2)
        sum_alpha, sum_invbeta = conjecture_probe(gd, lat, Weight.constant())
        assert sum_alpha == pytest.approx(0.5, abs=1e-12)
        assert sum_invbeta == pytest.approx(0.75, abs=1e-12)

    def test_zero(self, chi_lat):
        _, lat = chi_lat
        zero = Signal(lat.grid, np.zeros(8))
        assert conjecture_probe(zero, lat, Weight.constant()) == (0.0, 0.0)

    def test_gaussian_finite(self):
        grid = build_grid(256, 16)
        lat = GaborLattice(grid, 8, 8)
        g = build_window(WindowSpec.gaussian(width=1.0), grid)
        gd = dual_window(g, lat, method="cg", tol=1e-12)
        sum_alpha, sum_invbeta = conjecture_probe(gd, lat, Weight.polynomial(1.0))
        assert np.isfinite(sum_alpha) and np.isfinite(sum_invbeta)
        assert sum_alpha > 0 and sum_invbeta > 0


class TestCounterexample:
    def test_minimal_pattern(self):
        grid = build_grid(16, 4)  # K = 4 units
        h = build_counterexample("harmonic", grid)
        per_unit = np.abs(h.samples).reshape(4, 4)
        assert np.allclose(per_unit, per_unit[:, :1])  # constant per unit
        # amplitudes by signed unit index 0, 1, -1, 2
        by_unit = {u: per_unit[u % 4, 0] for u in (0, 1, -1, 2)}
        assert by_unit[0] == pytest.approx(1.0)
        assert by_unit[1] == pytest.approx(0.5)
        assert by_unit[-1] == pytest.approx(0.5)
        assert by_unit[2] == pytest.approx(1 / 3)

    def test_zero_rule(self):
        grid = build_grid(16, 4)
        h = build_counterexample(lambda k: 0.0, grid)
        assert np.allclose(h.samples, 0.0)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            build_counterexample("harmonic", build_grid(12, 4))  # K = 3
        with pytest.raises(DomainError):
            build_counterexample("harmonic", build_grid(8, 2))  # s = 2

    def test_orthogonality(self):
        grid = build_grid(128, 8)  # K = 16
        h = build_counterexample("harmonic", grid)
        g = build_window(WindowSpec.characteristic(1.0), grid)
        lat = GaborLattice(grid, grid.s // 2, grid.units)
        max_inner, profile = counterexample_report(h, g, lat, Weight.constant())
        assert max_inner < 1e-12
        assert profile.block_len == grid.s // 2

    def test_negative_control(self):
        grid = build_grid(128, 8)
        g = build_window(WindowSpec.characteristic(1.0), grid)
        lat = GaborLattice(grid, grid.s // 2, grid.units)
        max_inner, _ = counterexample_report(g, g, lat, Weight.constant())
        assert max_inner == pytest.approx(1.0)  # picks up <g, g> = ||g||^2

    def test_odd_s_rejected(self):
        grid = build_grid(25, 5)
        h = build_counterexample("harmonic", grid)
        g = build_window(WindowSpec.characteristic(1.0), grid)
        lat = GaborLattice(grid, 5, 5)
        with pytest.raises(LatticeError):
            counterexample_report(h, g, lat, Weight.constant())

    def test_wrong_lattice_rejected(self):
        grid = build_grid(128, 8)
        h = build_counterexample("harmonic", grid)
        g = build_window(WindowSpec.characteristic(1.0), grid)
        lat = GaborLattice(grid, 8, 16)  # full-unit steps, not half-unit
        with pytest.raises(LatticeError):
            counterexample_report(h, g, lat, Weight.constant())

    def test_growth_with_grid_size(self):
        totals = []
        for K in (8, 16):
            grid = build_grid(K * 8, 8)
            h = build_counterexample("harmonic", grid)
            g = build_window(WindowSpec.characteristic(1.0), grid)
            lat = GaborLattice(grid, 4, K)
            _, profile = counterexample_report(h, g, lat, Weight.constant())
            totals.append(profile.norm)
        assert totals[1] > totals[0]


class TestForbound:
    def test_chi_ratio_at_most_one(self, chi_lat):
        g, lat = chi_lat
        ratio = forbound_check(g, lat, Weight.constant(), trials=20, seed=0)
        assert ratio <= 1.0 + 1e-12
        assert forbound_slack(walnut_coefficients(g, lat), Weight.constant()) \
            == pytest.approx(0.0)

    def test_spike_signal_finite(self, chi_lat):
        g, lat = chi_lat
        W = walnut_coefficients(g, lat)
        spike = Signal(g.grid, np.eye(8, dtype=complex)[0])
        num = amalgam_norm(frame_operator_walnut(W, spike), lat.a,
                           Weight.constant())
        den = walnut_weighted_sum(W, Weight.constant()) * W.factor * \
            amalgam_norm(spike, lat.a, Weight.constant())
        assert np.isfinite(num / den)

    def test_random_instance_bounded_by_slack(self):
        grid = build_grid(64, 8)
        lat = GaborLattice(grid, 4, 4)
        g = rand_signal(grid, 7)
        w = Weight.polynomial(1.0)
        ratio = forbound_check(g, lat, w, trials=100, seed=1)
        slack = forbound_slack(walnut_coefficients(g, lat), w)
        assert ratio <= 1.0 + slack

    def test_slack_bound_random_sweep(self):
        # every weight kind, misaligned strides included
        rng = np.random.default_rng(31)
        weights = [Weight.constant(), Weight.polynomial(1.0),
                   Weight.polynomial(2.0), Weight.subexponential(0.5, 0.5)]
        grid = build_grid(48, 4)
        divisors = [d for d in range(1, 49) if 48 % d == 0]
        for trial in range(30):
            a = divisors[rng.integers(len(divisors))]
            b = divisors[rng.integers(len(divisors))]
            g = Signal(grid, rng.standard_normal(48)
                       + 1j * rng.standard_normal(48))
            lat = GaborLattice(grid, a, b)
            w = weights[rng.integers(len(weights))]
            ratio = forbound_check(g, lat, w, trials=10, seed=trial)
            slack = forbound_slack(walnut_coefficients(g, lat), w)
            assert ratio <= 1.0 + slack, (a, b, w.describe())

    def test_zero_window(self, chi_lat):
        _, lat = chi_lat
        zero = Signal(lat.grid, np.zeros(8))
        assert forbound_check(zero, lat, Weight.constant(), trials=3) == 0.0
