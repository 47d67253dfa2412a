import numpy as np
import pytest

from gaborwalnut import (
    ConvergenceError,
    DomainError,
    GaborLattice,
    NotAFrameError,
    NotAFrameWarning,
    Signal,
    SizeError,
    WindowSpec,
    build_grid,
    build_window,
    dense_frame_matrix,
    dual_window,
    frame_bounds,
    frame_operator_walnut,
    inverse_solve,
    inverse_sqrt_matrix_contour,
    tight_window,
    verify_reconstruction,
    walnut_coefficients,
)


@pytest.fixture
def chi_lat():
    grid = build_grid(8, 4)
    return build_window(WindowSpec.characteristic(1.0), grid), \
        GaborLattice(grid, 2, 2)


def rand_signal(grid, seed):
    rng = np.random.default_rng(seed)
    return Signal(grid, rng.standard_normal(grid.L) + 1j * rng.standard_normal(grid.L))


class TestFrameBounds:
    def test_scalar_instance_dense(self, chi_lat):
        g, lat = chi_lat
        fb = frame_bounds(g, lat, method="dense")
        assert fb.A == pytest.approx(2.0, abs=1e-12)
        assert fb.B == pytest.approx(2.0, abs=1e-12)
        assert fb.is_frame

    def test_scalar_instance_power(self, chi_lat):
        g, lat = chi_lat
        fb = frame_bounds(g, lat, method="power_iteration")
        assert fb.A == pytest.approx(2.0, abs=1e-10)
        assert fb.B == pytest.approx(2.0, abs=1e-10)

    def test_undersampled_flags_not_a_frame(self):
        grid = build_grid(8, 4)
        g = build_window(WindowSpec.characteristic(1.0), grid)
        lat = GaborLattice(grid, 4, 4)  # redundancy 1/2
        with pytest.warns(NotAFrameWarning):
            fb = frame_bounds(g, lat, method="dense")
        assert fb.not_a_frame
        assert fb.A <= 1e-12 * fb.B

    def test_gaussian_dense_vs_power(self):
        grid = build_grid(256, 16)
        lat = GaborLattice(grid, 8, 8)
        g = build_window(WindowSpec.gaussian(width=1.0), grid)
        fd = frame_bounds(g, lat, method="dense")
        fp = frame_bounds(g, lat, method="power_iteration", tol=1e-10)
        assert fd.A > 0 and fd.B / fd.A < np.inf
        assert fp.A == pytest.approx(fd.A, rel=1e-8)
        assert fp.B == pytest.approx(fd.B, rel=1e-8)

    def test_dense_size_limit(self):
        grid = build_grid(2048, 16)
        lat = GaborLattice(grid, 32, 32)
        g = build_window(WindowSpec.gaussian(width=1.0), grid)
        with pytest.raises(SizeError):
            frame_bounds(g, lat, method="dense")

    def test_coefficient_energy_between_bounds(self, corpus):
        # two-sided energy inequality: the coefficient energy of any signal
        # sits between A and B times its squared norm, and equals the
        # quadratic form of the frame operator
        from gaborwalnut import analysis, inner_product
        for name, g, lat, _ in corpus:
            fb = frame_bounds(g, lat,
                              method="dense" if lat.grid.L <= 256
                              else "power_iteration")
            rng = np.random.default_rng(17)
            for _ in range(5):
                f = Signal(lat.grid, rng.standard_normal(lat.grid.L)
                           + 1j * rng.standard_normal(lat.grid.L))
                energy = float(np.sum(np.abs(analysis(g, lat, f).values) ** 2))
                nf2 = inner_product(f, f).real
                quad = inner_product(
                    frame_operator_walnut(walnut_coefficients(g, lat), f),
                    f).real
                assert energy == pytest.approx(quad, rel=1e-10), name
                assert fb.A * nf2 * (1 - 1e-9) <= energy <= \
                    fb.B * nf2 * (1 + 1e-9), name


class TestDualWindow:
    def test_scalar_instance(self, chi_lat):
        g, lat = chi_lat
        gd = dual_window(g, lat, method="cg", tol=1e-12)
        assert np.max(np.abs(gd.samples - g.samples / 2)) < 1e-12

    def test_tight_system_scales(self):
        # delta on the full lattice: operator is (L/s) I, dual is g * s/L
        grid = build_grid(8, 4)
        lat = GaborLattice(grid, 1, 1)
        d = np.zeros(8, dtype=complex)
        d[0] = 1.0
        g = Signal(grid, d)
        gd = dual_window(g, lat, method="dense")
        assert np.max(np.abs(gd.samples - g.samples / 2)) < 1e-12

    def test_methods_agree(self):
        grid = build_grid(256, 16)
        lat = GaborLattice(grid, 8, 8)
        g = build_window(WindowSpec.gaussian(width=1.0), grid)
        sols = [dual_window(g, lat, method=m, tol=1e-10)
                for m in ("cg", "dense")]
        diff = np.linalg.norm(sols[0].samples - sols[1].samples)
        assert diff / np.linalg.norm(sols[0].samples) < 1e-8

    def test_not_a_frame_raises(self):
        grid = build_grid(8, 4)
        g = build_window(WindowSpec.characteristic(1.0), grid)
        lat = GaborLattice(grid, 4, 4)
        with pytest.raises(NotAFrameError):
            dual_window(g, lat)

    def test_convergence_error(self):
        grid = build_grid(64, 8)
        lat = GaborLattice(grid, 4, 4)
        g = rand_signal(grid, 7)
        with pytest.raises(ConvergenceError):
            inverse_solve(g, lat, g, method="cg", tol=1e-12, max_iter=2)

    def test_duality_is_involutive(self):
        grid = build_grid(64, 8)
        lat = GaborLattice(grid, 4, 4)
        g = rand_signal(grid, 7)
        gd = dual_window(g, lat, method="cg", tol=1e-12)
        gdd = dual_window(gd, lat, method="cg", tol=1e-12)
        assert np.linalg.norm(gdd.samples - g.samples) / \
            np.linalg.norm(g.samples) < 1e-8

    def test_dual_frame_operator_is_inverse(self, corpus):
        for name, g, lat, _ in corpus:
            if lat.grid.L > 64:
                continue
            gd = dual_window(g, lat, method="cg", tol=1e-12)
            S = dense_frame_matrix(g, lat)
            S_dual = dense_frame_matrix(gd, lat)
            assert np.max(np.abs(S_dual - np.linalg.inv(S))) < 1e-8, name


class TestApplyInverse:
    def test_scalar(self, chi_lat):
        g, lat = chi_lat
        f = rand_signal(g.grid, 5)
        out = inverse_solve(g, lat, f, method="cg", tol=1e-12)[0]
        assert np.allclose(out.samples, f.samples / 2, atol=1e-12)

    def test_round_trip(self):
        grid = build_grid(64, 8)
        lat = GaborLattice(grid, 4, 4)
        g = rand_signal(grid, 7)
        h = rand_signal(grid, 8)
        f = frame_operator_walnut(walnut_coefficients(g, lat), h)
        out = inverse_solve(g, lat, f, method="cg", tol=1e-12)[0]
        assert np.linalg.norm(out.samples - h.samples) / \
            np.linalg.norm(h.samples) < 1e-10

    def test_zero(self, chi_lat):
        g, lat = chi_lat
        zero = Signal(g.grid, np.zeros(8))
        assert np.allclose(inverse_solve(g, lat, zero)[0].samples, 0.0)

    @pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
    def test_bad_tolerance_rejected(self, chi_lat, tol):
        g, lat = chi_lat
        with pytest.raises(DomainError):
            inverse_solve(g, lat, g, tol=tol)
        with pytest.raises(DomainError):
            tight_window(g, lat, tol=tol)


class TestTightWindow:
    def test_scalar_instance(self, chi_lat):
        g, lat = chi_lat
        gt = tight_window(g, lat, method="contour", tol=1e-10)
        assert np.max(np.abs(gt.samples - g.samples / np.sqrt(2))) < 1e-10
        gt_dense = tight_window(g, lat, method="dense")
        assert np.max(np.abs(gt_dense.samples - g.samples / np.sqrt(2))) < 1e-12

    def test_contour_matches_dense(self, gauss64):
        g, lat = gauss64
        gt_c = tight_window(g, lat, method="contour", tol=1e-10)
        gt_d = tight_window(g, lat, method="dense")
        assert np.linalg.norm(gt_c.samples - gt_d.samples) / \
            np.linalg.norm(gt_d.samples) < 1e-8

    def test_tight_window_has_unit_bounds(self, gauss64):
        g, lat = gauss64
        gt = tight_window(g, lat, method="contour", tol=1e-10)
        fb = frame_bounds(gt, lat, method="dense")
        assert abs(fb.A - 1) < 1e-8 and abs(fb.B - 1) < 1e-8

    def test_not_a_frame(self):
        grid = build_grid(8, 4)
        g = build_window(WindowSpec.characteristic(1.0), grid)
        with pytest.raises(NotAFrameError):
            tight_window(g, GaborLattice(grid, 4, 4))

    def test_spectral_mapping(self):
        # matrix-level quadrature: eigenvalues map through the inverse root
        grid = build_grid(64, 8)
        lat = GaborLattice(grid, 4, 4)
        g = rand_signal(grid, 7)
        S = dense_frame_matrix(g, lat)
        ev = np.linalg.eigvalsh(S)
        Q = inverse_sqrt_matrix_contour(S, float(ev[0]), float(ev[-1]),
                                        tol=1e-10)
        ev_q = np.sort(np.linalg.eigvals(Q).real)
        assert np.max(np.abs(ev_q - np.sort(ev ** -0.5))) < 1e-8


class TestReconstruction:
    def test_dual_pair(self, chi_lat):
        g, lat = chi_lat
        gd = dual_window(g, lat, method="cg", tol=1e-12)
        assert verify_reconstruction(g, gd, lat, trials=8, seed=1) < 1e-12

    def test_negative_control_non_tight(self):
        grid = build_grid(48, 4)
        lat = GaborLattice(grid, 2, 4)
        g = build_window(WindowSpec.hat(), grid)
        residual = verify_reconstruction(g, g, lat, trials=4, seed=2)
        assert residual > 1e-2

    def test_tight_window_self_dual(self, gauss64):
        g, lat = gauss64
        gt = tight_window(g, lat, method="contour", tol=1e-10)
        assert verify_reconstruction(gt, gt, lat, trials=6, seed=3) < 1e-8


class TestAboveDenseLimit:
    def test_power_bounds_cg_dual_and_reconstruction(self):
        # L = 2048 > DENSE_LIMIT: the default bounds method is power
        # iteration and no dense matrix is ever formed
        grid = build_grid(2048, 16)
        lat = GaborLattice(grid, 16, 16)
        g = build_window(WindowSpec.gaussian(width=1.0), grid)
        fb = frame_bounds(g, lat)
        assert fb.method == "power_iteration"
        assert 0 < fb.A <= fb.B
        gd, report = inverse_solve(g, lat, g, method="cg", bounds=fb)
        Sgd = frame_operator_walnut(walnut_coefficients(g, lat), gd)
        assert np.linalg.norm(Sgd.samples - g.samples) / \
            np.linalg.norm(g.samples) <= 1e-9
        assert verify_reconstruction(g, gd, lat, trials=1) <= 1e-8
