import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaborwalnut import frame_op, invert
from gaborwalnut.frame_op import _from_zak, _pair_rows, _to_zak
from gaborwalnut import (
    ConvergenceError,
    DomainError,
    GaborLattice,
    GridMismatchError,
    NotAFrameError,
    NotAFrameWarning,
    Signal,
    SizeError,
    WindowSpec,
    analysis,
    build_grid,
    build_window,
    dense_frame_matrix,
    dual_window,
    duality_defect,
    frame_bounds,
    frame_operator_walnut,
    inverse_solve,
    synthesis,
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
        assert not fb.not_a_frame

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

    def test_power_iteration_flushes_subnormals(self, monkeypatch):
        # a c268-type lattice (a = 32, M = 128, B/A about 268): on the
        # shifted operator most parts of the iterate decay below the normal
        # range; none may reach the block product, and the bounds stay
        # those of fiber
        grid = build_grid(256, 16)
        lat = GaborLattice(grid, 32, 2)
        g = build_window(WindowSpec.gaussian(width=1.0), grid)
        ff = frame_bounds(g, lat)
        assert ff.B / ff.A > 200
        tiny = np.finfo(float).tiny
        real = invert._zak_product
        subnormal = []

        def spy(blocks, z, out):
            parts = np.abs(z.view(float))
            subnormal.append(bool(np.any((parts > 0) & (parts < tiny))))
            return real(blocks, z, out)

        monkeypatch.setattr(invert, "_zak_product", spy)
        fp = frame_bounds(g, lat, method="power_iteration")
        assert subnormal and not any(subnormal)
        assert fp.A == pytest.approx(ff.A, rel=1e-9)
        assert fp.B == pytest.approx(ff.B, rel=1e-9)

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


def _time_domain_extreme(apply_op, L, tol, seed):
    """Power iteration on samples through ``apply_op``, with the library's
    seeds, flush and stopping rule: the reference for the Zak-coordinate
    loop, which must give the same eigenvalue up to rounding."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(L) + 1j * rng.standard_normal(L)
    v /= np.linalg.norm(v)
    lam_old = None
    for _ in range(invert.POWER_MAX_ITER):
        w = apply_op(v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        lam = float(np.real(np.vdot(v, w)))
        resid = float(np.linalg.norm(w - lam * v))
        v = w / nw
        parts = v.view(float)
        parts[np.abs(parts) < np.finfo(float).tiny] = 0.0
        scale = max(abs(lam), 1e-300)
        if (lam_old is not None and abs(lam - lam_old) <= tol * scale
                and resid <= 10.0 * tol * scale):
            return lam
        lam_old = lam
    raise AssertionError("reference power iteration did not converge")


def _time_domain_bounds(g, lat, tol=1e-10):
    """``(A, B)`` by :func:`_time_domain_extreme` on ``W.apply`` and on its
    reflection below the row-sum bound, summed row by row."""
    W = walnut_coefficients(g, lat)
    L = lat.grid.L
    B = _time_domain_extreme(W.apply, L, tol, invert.POWER_SEEDS[0])
    mu = float(W.factor * sum(np.abs(W.table[r]) for r in range(lat.b)).max())
    A = mu - _time_domain_extreme(lambda v: mu * v - W.apply(v), L, tol,
                                  invert.POWER_SEEDS[1])
    return A, B


class TestPowerIteration:
    """Power iteration runs in Zak coordinates on the operator's blocks."""

    @pytest.mark.parametrize("s, a, b, p", [(16, 12, 10, 1), (8, 12, 8, 2),
                                            (8, 12, 12, 3)])
    def test_blocks_agree_with_fiber_and_time_domain(self, s, a, b, p):
        grid = build_grid(240, s)
        lat = GaborLattice(grid, a, b)
        g = build_window(WindowSpec.gaussian(width=1.0), grid)
        assert invert._block_size(lat) == p
        fp = frame_bounds(g, lat, method="power_iteration")
        ff = frame_bounds(g, lat)
        A, B = _time_domain_bounds(g, lat)
        for ref_A, ref_B in ((ff.A, ff.B), (A, B)):
            assert fp.A == pytest.approx(ref_A, rel=1e-9)
            assert fp.B == pytest.approx(ref_B, rel=1e-9)

    def test_only_the_start_vectors_are_mapped(self, monkeypatch):
        # c268-type lattice: thousands of steps, one _to_zak per seed and
        # no _from_zak at all
        grid = build_grid(256, 16)
        lat = GaborLattice(grid, 32, 2)
        g = build_window(WindowSpec.gaussian(width=1.0), grid)
        calls = {"to": 0, "from": 0, "steps": 0}

        def counted(key, real):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return real(*args, **kwargs)
            return wrapper

        to_zak = counted("to", frame_op._to_zak)
        from_zak = counted("from", frame_op._from_zak)
        for module in (frame_op, invert):
            monkeypatch.setattr(module, "_to_zak", to_zak)
            monkeypatch.setattr(module, "_from_zak", from_zak)
        monkeypatch.setattr(invert, "_zak_product",
                            counted("steps", frame_op._zak_product))
        frame_bounds(g, lat, method="power_iteration")
        assert calls["steps"] > 1000
        assert calls["to"] <= len(invert.POWER_SEEDS)
        assert calls["from"] == 0

    def test_exhausted_budget_names_its_state(self, monkeypatch, gauss64):
        g, lat = gauss64
        monkeypatch.setattr(invert, "POWER_MAX_ITER", 3)
        with pytest.raises(ConvergenceError) as info:
            frame_bounds(g, lat, method="power_iteration")
        msg = str(info.value)
        num = r"(\S+)"
        m = re.fullmatch(
            rf"power iteration did not converge in 3 steps: Rayleigh "
            rf"quotient {num}, relative change {num}, relative "
            rf"eigen-residual {num} \(tol 1\.0e-10\)", msg)
        assert m, msg
        lam, change, resid = (float(x) for x in m.groups())
        B = frame_bounds(g, lat).B
        assert 0 < lam <= B * (1 + 1e-12)
        assert 0 < change < 1 and 1e-10 < resid < 10

    def test_gershgorin_row_sum(self, corpus):
        # one column sum over the table: the row-by-row sum reordered, and
        # an upper bound on the spectrum
        for name, g, lat, _ in corpus:
            W = walnut_coefficients(g, lat)
            rows = sum(np.abs(W.table[r]) for r in range(lat.b))
            mu = invert._gershgorin_upper(W)
            assert mu == pytest.approx(W.factor * rows.max(), rel=1e-15), name
            assert mu >= frame_bounds(g, lat).B * (1 - 1e-12), name


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
        for method in (None, "fiber", "dense", "power_iteration"):
            with pytest.raises(DomainError):
                frame_bounds(g, lat, method=method, tol=tol)


class TestTightWindow:
    def test_scalar_instance(self, chi_lat):
        g, lat = chi_lat
        gt = tight_window(g, lat, method="contour", tol=1e-10)
        assert np.max(np.abs(gt.samples - g.samples / np.sqrt(2))) < 1e-10
        gt_fiber = tight_window(g, lat)
        assert np.max(np.abs(gt_fiber.samples - g.samples / np.sqrt(2))) < 1e-12
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

    def test_not_a_frame(self, monkeypatch):
        # every method refuses from the spectrum, before any quadrature node
        def no_nodes(*args):
            raise AssertionError("quadrature ran on a non-frame")

        monkeypatch.setattr(invert, "_contour_nodes", no_nodes)
        grid = build_grid(8, 4)
        g = build_window(WindowSpec.characteristic(1.0), grid)
        for method in ("fiber", "contour", "dense"):
            with pytest.raises(NotAFrameError):
                tight_window(g, GaborLattice(grid, 4, 4), method=method)

    def test_contour_error_names_conditioning_and_nodes(self, gauss64,
                                                        monkeypatch):
        g, lat = gauss64
        monkeypatch.setattr(invert, "CONTOUR_NODES_MAX",
                            invert.CONTOUR_NODES_START)
        with pytest.raises(ConvergenceError, match=r"within 16 nodes \(B/A = "):
            tight_window(g, lat, method="contour")

    @pytest.mark.parametrize("L,s,a,b,p", [(240, 16, 12, 8, 2),
                                           (144, 8, 9, 12, 3)])
    def test_contour_matches_fiber_on_blocks(self, L, s, a, b, p):
        # p > 1: every node solves a stack of p x p blocks
        grid = build_grid(L, s)
        lat = GaborLattice(grid, a, b)
        g = build_window(WindowSpec.gaussian(width=1.0), grid)
        assert invert._block_size(lat) == p
        gt_c = tight_window(g, lat, method="contour", tol=1e-10)
        gt_f = tight_window(g, lat)
        assert np.linalg.norm(gt_c.samples - gt_f.samples) / \
            np.linalg.norm(gt_f.samples) <= 1e-10


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

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_refused(self, trials):
        # with g as its own dual the true residual is about 1.8; no trial
        # must not read as a perfect 0
        grid = build_grid(256, 16)
        lat = GaborLattice(grid, 8, 8)
        g = build_window(WindowSpec.gaussian(width=1.0), grid)
        assert verify_reconstruction(g, g, lat, trials=1) > 1.0
        with pytest.raises(DomainError):
            verify_reconstruction(g, g, lat, trials=trials)

    def test_tight_window_self_dual(self, gauss64):
        g, lat = gauss64
        gt = tight_window(g, lat, method="contour", tol=1e-10)
        assert verify_reconstruction(gt, gt, lat, trials=6, seed=3) < 1e-8


def gauss_lattice(L, a, b):
    grid = build_grid(L, 16)
    return (build_window(WindowSpec.gaussian(width=1.0), grid),
            GaborLattice(grid, a, b))


# (L, a, b): a | M on the first three, a does not divide M = L/b (p = 2) on
# the last two
DEFECT_LATTICES = [(256, 8, 8), (240, 8, 6), (240, 12, 10), (240, 12, 8),
                   (240, 16, 6)]


class TestDualityDefect:
    # D = sum_r sup_x |(M/s)[gd, T_{rM} g]_a - delta_{r0}| bounds
    # ||S_{g,gd} - I||, so it bounds every random-trial residual of both
    # pairings; SLACK covers the rounding of the two computations
    SLACK = 1e-14

    @pytest.mark.parametrize("L,a,b", DEFECT_LATTICES)
    @pytest.mark.parametrize("eps", [0.0, 1e-6, 1e-2])
    def test_bounds_the_trial_residual(self, L, a, b, eps):
        g, lat = gauss_lattice(L, a, b)
        gd = dual_window(g, lat).samples
        noise = rand_signal(lat.grid, 5).samples
        pert = Signal(lat.grid, gd + eps * np.abs(gd).max() * noise)
        D = duality_defect(g, pert, lat)
        assert D >= verify_reconstruction(g, pert, lat, trials=20, seed=1) \
            - self.SLACK
        if eps == 0.0:
            assert D <= 1e-13

    @pytest.mark.parametrize("L,s,a,b", [(48, 4, 2, 4), (48, 4, 4, 3),
                                         (48, 4, 8, 4), (60, 4, 6, 4)])
    def test_is_the_band_sum_of_the_dense_mixed_operator(self, L, s, a, b):
        # S_{g,gd} - I from the analysis and synthesis maps on unit vectors;
        # its entries (j, j - r*M) are the r-th multiplier minus delta_{r0}.
        # Any pair of windows, dual or not, and both argument orders
        grid = build_grid(L, s)
        lat = GaborLattice(grid, a, b)
        g, gd = rand_signal(grid, 1), rand_signal(grid, 2)
        cols = [synthesis(g, lat, analysis(gd, lat, Signal(grid, e))).samples
                for e in np.eye(L)]
        S = np.stack(cols, axis=1) - np.eye(L)
        j = np.arange(L)
        ref = sum(np.abs(S[j, (j - r * lat.M) % L]).max() for r in range(b))
        assert duality_defect(g, gd, lat) == pytest.approx(ref, rel=1e-13)
        assert duality_defect(gd, g, lat) == pytest.approx(ref, rel=1e-13)

    def test_exact_zero_on_painless_instance(self, chi_lat):
        g, lat = chi_lat
        assert duality_defect(g, dual_window(g, lat), lat) == 0.0
        # S = 2I, so with g as its own dual S - I = I
        assert duality_defect(g, g, lat) == 1.0

    @pytest.mark.parametrize("L,a,b", DEFECT_LATTICES)
    def test_generator_as_its_own_dual(self, L, a, b):
        g, lat = gauss_lattice(L, a, b)
        D = duality_defect(g, g, lat)
        assert D >= verify_reconstruction(g, g, lat, trials=20, seed=1) \
            - self.SLACK
        assert D > 0.5

    @pytest.mark.parametrize("L,a,b", DEFECT_LATTICES + [(240, 8, 15)])
    def test_pair_rows_are_the_walnut_half_table(self, L, a, b):
        for g in (gauss_lattice(L, a, b)[0], rand_signal(build_grid(L, 16), 3)):
            lat = GaborLattice(g.grid, a, b)
            rows = _pair_rows(g.samples, g.samples, lat, b // 2 + 1)
            assert np.array_equal(rows,
                                  walnut_coefficients(g, lat).table[:b // 2 + 1])

    @pytest.mark.parametrize("L,a,b", [(256, 8, 8), (240, 16, 6)])
    def test_self_pair_reads_the_half_table(self, L, a, b, monkeypatch):
        # (g, g) takes its rows from walnut_coefficients: b/2 + 1 summed,
        # the rest mirrored, against all b summed rows (p = 1 and p = 2).
        # A full-support window's defect is O(1); its tight window's is
        # rounding, so there the difference is held to the rows' scale
        grid = build_grid(L, 16)
        lat = GaborLattice(grid, a, b)
        factor = lat.M / lat.grid.s

        def full_rows(v):
            rows = factor * _pair_rows(v.samples, v.samples, lat, b)
            scale = np.abs(rows).max(axis=1).sum()
            rows[0] -= 1.0
            return float(np.abs(rows).max(axis=1).sum()), scale

        g = rand_signal(grid, 9)
        for v in (g, tight_window(g, lat)):
            ref, scale = full_rows(v)
            assert abs(duality_defect(v, v, lat) - ref) <= 1e-15 * scale
        ref, _ = full_rows(g)
        assert duality_defect(g, g, lat) == pytest.approx(ref, rel=1e-15)
        # the only rows summed are the half table's
        seen = []

        def counting(*args):
            seen.append(args[-1])
            return _pair_rows(*args)

        monkeypatch.setattr(invert, "_pair_rows", counting)
        monkeypatch.setattr(frame_op, "_pair_rows", counting)
        duality_defect(g, g, lat)
        assert seen == [b // 2 + 1]

    def test_grid_mismatch(self, chi_lat):
        g, lat = chi_lat
        other = build_window(WindowSpec.characteristic(1.0), build_grid(16, 4))
        with pytest.raises(GridMismatchError):
            duality_defect(g, other, lat)


class TestInverseWalnut:
    # S^-1 read off the inverted fiber blocks is S_{gd,gd}
    @pytest.mark.parametrize("L,a,b", [(4096, 32, 32), (240, 16, 6)])
    def test_matches_the_dual_windows_table(self, L, a, b):
        g, lat = gauss_lattice(L, a, b)
        ref = walnut_coefficients(dual_window(g, lat), lat)
        W = invert._inverse_walnut(g, lat)
        assert W.factor == ref.factor
        assert np.abs(W.table - ref.table).max() <= \
            1e-13 * np.abs(ref.table).max()

    def test_is_the_inverse_of_the_operator(self):
        # a random window with p = 2: S^-1 applied after S is the identity
        grid = build_grid(240, 16)
        lat = GaborLattice(grid, 16, 10)
        g = rand_signal(grid, 4)
        f = rand_signal(grid, 5).samples
        Sf = walnut_coefficients(g, lat).apply(f)
        back = invert._inverse_walnut(g, lat).apply(Sf)
        assert np.linalg.norm(back - f) <= 1e-12 * np.linalg.norm(f)

    def test_refuses_non_frames_and_sizes_above_the_cap(self, gauss64,
                                                        monkeypatch):
        grid = build_grid(2048, 16)
        g = build_window(WindowSpec.gaussian(width=1.0), grid)
        with pytest.raises(NotAFrameError):
            invert._inverse_walnut(g, GaborLattice(grid, 64, 64))
        monkeypatch.setattr(invert, "FIBER_LIMIT", 32)
        with pytest.raises(SizeError, match="got 64$"):
            invert._inverse_walnut(*gauss64)


class TestAboveDenseLimit:
    def test_default_bounds_cg_dual_and_reconstruction(self):
        # L = 2048 > DENSE_LIMIT: the default bounds method is fiber and no
        # dense matrix is ever formed
        grid = build_grid(2048, 16)
        lat = GaborLattice(grid, 16, 16)
        g = build_window(WindowSpec.gaussian(width=1.0), grid)
        fb = frame_bounds(g, lat)
        assert fb.method == "fiber"
        assert 0 < fb.A <= fb.B
        gd, report = inverse_solve(g, lat, g, method="cg", bounds=fb)
        Sgd = frame_operator_walnut(walnut_coefficients(g, lat), gd)
        assert np.linalg.norm(Sgd.samples - g.samples) / \
            np.linalg.norm(g.samples) <= 1e-9
        assert verify_reconstruction(g, gd, lat, trials=1) <= 1e-8

    def test_fiber_against_matrix_free_paths(self):
        # L = 2048, alpha = 2, beta = 1/8: B/A is about 268
        grid = build_grid(2048, 16)
        lat = GaborLattice(grid, 32, 16)
        g = build_window(WindowSpec.gaussian(width=1.0), grid)
        fb = frame_bounds(g, lat)
        fp = frame_bounds(g, lat, method="power_iteration")
        assert fb.method == "fiber" and fb.B / fb.A > 200
        assert fb.A == pytest.approx(fp.A, rel=1e-8)
        assert fb.B == pytest.approx(fp.B, rel=1e-8)
        gd, report = inverse_solve(g, lat, g, bounds=fb)
        assert report.method == "fiber" and report.residuals[-1] <= 1e-12
        gc = inverse_solve(g, lat, g, method="cg", bounds=fb)[0]
        assert np.linalg.norm(gd.samples - gc.samples) / \
            np.linalg.norm(gc.samples) <= 1e-9
        gt = tight_window(g, lat)
        assert verify_reconstruction(gt, gt, lat, trials=1) <= 1e-8
        ft = frame_bounds(gt, lat)
        assert abs(ft.A - 1) <= 1e-12 and abs(ft.B - 1) <= 1e-12

    def test_north_star_size_invariants(self):
        # L = 16384, b = 64: S gd = g through the Walnut apply, and the
        # tight window has bounds 1
        grid = build_grid(16384, 16)
        lat = GaborLattice(grid, 32, 64)
        g = build_window(WindowSpec.gaussian(width=1.0), grid)
        gd = inverse_solve(g, lat, g)[0]
        Sgd = walnut_coefficients(g, lat).apply(gd.samples)
        assert np.linalg.norm(Sgd - g.samples) / np.linalg.norm(g.samples) <= 1e-12
        ft = frame_bounds(tight_window(g, lat), lat)
        assert ft.method == "fiber"
        assert abs(ft.A - 1) <= 1e-12 and abs(ft.B - 1) <= 1e-12

    def test_c268_beyond_the_old_fiber_cap(self):
        # alpha = 2, beta = 1/8 (B/A about 268) at L = 65536, b = 512:
        # L*b = 2**25 is above the cap, L*p = L is not (p = 1)
        def c268(L):
            grid = build_grid(L, 16)
            return (build_window(WindowSpec.gaussian(width=1.0), grid),
                    GaborLattice(grid, 32, L // 128))

        g, lat = c268(65536)
        assert lat.grid.L * lat.b > invert.FIBER_LIMIT
        fb, ref = frame_bounds(g, lat), frame_bounds(*c268(4096))
        assert fb.method == "fiber" and fb.B / fb.A > 200
        assert fb.A == pytest.approx(ref.A, rel=1e-10)
        assert fb.B == pytest.approx(ref.B, rel=1e-10)
        gd = dual_window(g, lat)
        Sgd = walnut_coefficients(g, lat).apply(gd.samples)
        assert np.linalg.norm(Sgd - g.samples) / np.linalg.norm(g.samples) <= 1e-10
        ft = frame_bounds(tight_window(g, lat), lat)
        assert abs(ft.A - 1) <= 1e-10 and abs(ft.B - 1) <= 1e-10

    def test_undersampled_is_not_a_frame(self):
        # redundancy 1/2: S has rank L/2, so every solve is refused
        grid = build_grid(2048, 16)
        lat = GaborLattice(grid, 64, 64)
        g = build_window(WindowSpec.gaussian(width=1.0), grid)
        with pytest.raises(NotAFrameError):
            tight_window(g, lat)
        with pytest.raises(NotAFrameError):
            inverse_solve(g, lat, g)


class TestFiberLimit:
    def test_defaults_and_contour_refused_above_cap(self, gauss64,
                                                    monkeypatch):
        g, lat = gauss64  # p = 1, L*p = 64
        fb = frame_bounds(g, lat)
        gd = inverse_solve(g, lat, g)[0]
        monkeypatch.setattr(invert, "FIBER_LIMIT", 32)
        for method in (None, "fiber"):
            with pytest.raises(SizeError, match="'power_iteration'"):
                frame_bounds(g, lat, method=method)
            with pytest.raises(SizeError, match="'cg' with bounds="):
                inverse_solve(g, lat, g, method=method)
            with pytest.raises(SizeError, match="got 64$"):
                tight_window(g, lat, method=method)
        with pytest.raises(SizeError):
            dual_window(g, lat)
        with pytest.raises(SizeError, match="got 64$"):
            tight_window(g, lat, method="contour")
        with pytest.raises(SizeError):  # cg needs bounds from elsewhere
            inverse_solve(g, lat, g, method="cg")
        # the explicit cross-checks are not refused there
        fp = frame_bounds(g, lat, method="power_iteration")
        assert fp.method == "power_iteration"
        assert fp.A == pytest.approx(fb.A, rel=1e-8)
        assert fp.B == pytest.approx(fb.B, rel=1e-8)
        gc, report = inverse_solve(g, lat, g, method="cg", bounds=fp)
        assert report.method == "cg"
        assert np.linalg.norm(gc.samples - gd.samples) / \
            np.linalg.norm(gd.samples) <= 1e-9

    def test_cap_counts_block_entries(self, monkeypatch):
        # a cap of exactly L*p admits the blocks though L*b is above it
        for L, s, a, b, p in ((48, 4, 4, 8, 2), (160, 16, 16, 8, 4),
                              (144, 8, 9, 12, 3)):
            grid = build_grid(L, s)
            lat = GaborLattice(grid, a, b)
            g = build_window(WindowSpec.gaussian(width=1.0), grid)
            assert invert._block_size(lat) == p and b > p
            monkeypatch.setattr(invert, "FIBER_LIMIT", L * p)
            assert frame_bounds(g, lat).method == "fiber"
            assert inverse_solve(g, lat, g)[1].method == "fiber"
            monkeypatch.setattr(invert, "FIBER_LIMIT", L * p - 1)
            with pytest.raises(SizeError):
                tight_window(g, lat, method="fiber")


def _oracle_windows(grid, seed):
    rng = np.random.default_rng(seed)
    return {
        "chi": build_window(WindowSpec.characteristic(1.0), grid),
        "gaussian": build_window(WindowSpec.gaussian(width=1.0), grid),
        "hat": build_window(WindowSpec.hat(), grid),
        "random": Signal(grid, rng.standard_normal(grid.L)
                         + 1j * rng.standard_normal(grid.L)),
    }


def _fiber_vs_dense(g, lat):
    """Worst disagreement of fiber with the dense oracle, as a multiple of
    its tolerance (so at most 1 passes).

    Bounds count against ``B``.  Dual and tight windows count relative to
    the dense ones and against ``max(1e-12, eps * B/A)``: on a frame with
    condition number ``B/A`` both computations carry a forward error of
    order ``eps * B/A``, so neither is closer to the truth than that.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotAFrameWarning)
        fd = frame_bounds(g, lat, method="dense")
        ff = frame_bounds(g, lat, method="fiber")
    assert ff.not_a_frame == fd.not_a_frame
    worst = max(abs(ff.A - fd.A), abs(ff.B - fd.B)) / max(fd.B, 1e-300) / 1e-12
    if fd.not_a_frame:
        return worst
    scale = max(1e-12, np.finfo(float).eps * fd.B / fd.A)
    for solve in (lambda m: inverse_solve(g, lat, g, method=m)[0],
                  lambda m: tight_window(g, lat, method=m)):
        x, ref = solve("fiber").samples, solve("dense").samples
        worst = max(worst,
                    np.linalg.norm(x - ref) / np.linalg.norm(ref) / scale)
    return worst


class TestFiberOnce:
    """The fiber paths build the block stack once, residual included, and
    take the bounds from it."""

    @pytest.fixture
    def fiber_calls(self, monkeypatch):
        # every stack is built by _zak_blocks, whoever asks for it
        calls = []
        zak_blocks = frame_op._zak_blocks

        def counted(*args):
            calls.append(1)
            return zak_blocks(*args)

        monkeypatch.setattr(frame_op, "_zak_blocks", counted)
        return calls

    def test_inverse_solve_builds_one_stack(self, gauss64, fiber_calls):
        g, _ = gauss64
        # a = 4, b = 8: p = 1 with seven nonzero rows r != 0, more than the
        # direct sum takes, so the residual's apply reads the same stack
        lat = GaborLattice(g.grid, 4, 8)
        f = rand_signal(lat.grid, 3)
        assert walnut_coefficients(g, lat)._split is None
        x, rep = inverse_solve(g, lat, f)
        assert len(fiber_calls) == 1 and rep.method == "fiber"
        # the bounds come from the same blocks that are solved
        blocks = walnut_coefficients(g, lat).fibers()
        assert blocks.shape == (64, 1, 1)  # a | M: p = 1
        z = np.linalg.solve(blocks, _to_zak(f.samples, lat)[..., None])
        assert np.array_equal(x.samples, _from_zak(z[..., 0], lat))
        fiber_calls.clear()
        dual_window(g, lat)
        assert len(fiber_calls) == 1

    def test_tight_window_builds_one_stack(self, gauss64, fiber_calls):
        g, lat = gauss64
        gt = tight_window(g, lat)
        assert len(fiber_calls) == 1
        ev, V = np.linalg.eigh(walnut_coefficients(g, lat).fibers())
        c = V.conj().swapaxes(1, 2) @ _to_zak(g.samples, lat)[..., None]
        y = V @ (c / np.sqrt(ev)[..., None])
        assert np.array_equal(gt.samples, _from_zak(y[..., 0], lat))

    def test_one_stack_of_two_by_two_blocks(self, fiber_calls):
        # L = 240, a = 16, b = 10: M = 24, so p = 2 and 120 blocks; nine
        # nonzero rows r != 0 send the residual through the Zak domain,
        # which once built a second stack
        grid = build_grid(240, 16)
        lat = GaborLattice(grid, 16, 10)
        g = build_window(WindowSpec.gaussian(width=1.0), grid)
        W = walnut_coefficients(g, lat)
        assert W._split is None
        blocks = W.fibers()
        assert blocks.shape == (120, 2, 2)
        assert np.allclose(blocks, blocks.conj().swapaxes(1, 2), atol=1e-15)
        fiber_calls.clear()
        _, rep = inverse_solve(g, lat, g)
        assert len(fiber_calls) == 1 and rep.residuals[-1] <= 1e-14
        fiber_calls.clear()
        dual_window(g, lat)
        assert len(fiber_calls) == 1
        fiber_calls.clear()
        tight_window(g, lat)
        assert len(fiber_calls) == 1

    def test_supplied_bounds_skip_the_eigenvalues(self, gauss64, fiber_calls):
        g, lat = gauss64
        fb = frame_bounds(g, lat)
        fiber_calls.clear()
        x = inverse_solve(g, lat, g, bounds=fb)[0]
        assert len(fiber_calls) == 1
        assert np.array_equal(x.samples, inverse_solve(g, lat, g)[0].samples)

    def test_non_frames_and_bad_tol_still_refused(self, fiber_calls):
        grid = build_grid(8, 4)
        g = build_window(WindowSpec.characteristic(1.0), grid)
        lat = GaborLattice(grid, 4, 4)
        with pytest.raises(NotAFrameError):
            inverse_solve(g, lat, g, method="fiber")
        with pytest.raises(NotAFrameError):
            tight_window(g, lat, method="fiber")
        fiber_calls.clear()
        with pytest.raises(DomainError):
            inverse_solve(g, lat, g, method="fiber", tol=float("nan"))
        with pytest.raises(DomainError):
            tight_window(g, lat, method="fiber", tol=-1.0)
        assert fiber_calls == []


class TestRhsGrid:
    """``inverse_solve`` refuses a right-hand side from another grid."""

    @pytest.mark.parametrize("method", ["fiber", "dense", "cg"])
    @pytest.mark.parametrize("L,s", [(64, 4), (128, 8)],
                             ids=["same-L-other-s", "other-L"])
    def test_grid_mismatch(self, gauss64, method, L, s):
        g, lat = gauss64  # L = 64, s = 8
        with pytest.raises(GridMismatchError):
            inverse_solve(g, lat, rand_signal(build_grid(L, s), 1),
                          method=method)


class TestDenseOracleIndependent:
    """``dense`` takes its spectrum, verdict and solutions from the full
    matrix and never builds the fiber blocks it is meant to check."""

    @pytest.fixture(autouse=True)
    def no_fibers(self, monkeypatch):
        def refuse(self):
            raise AssertionError("dense path built the fiber blocks")

        monkeypatch.setattr(invert.WalnutCoeffs, "fibers", refuse)

    def test_runs_without_fibers(self, gauss64):
        g, lat = gauss64
        fb = frame_bounds(g, lat, method="dense")
        assert fb.method == "dense" and not fb.not_a_frame
        gd, rep = inverse_solve(g, lat, g, method="dense")
        assert rep.method == "dense" and rep.converged
        gt = tight_window(g, lat, method="dense")
        tb = frame_bounds(gt, lat, method="dense")
        assert abs(tb.A - 1.0) <= 1e-12 and abs(tb.B - 1.0) <= 1e-12
        assert verify_reconstruction(g, gd, lat, trials=2) <= 1e-12

    def test_not_a_frame_from_its_own_spectrum(self):
        grid = build_grid(8, 4)
        g = build_window(WindowSpec.characteristic(1.0), grid)
        lat = GaborLattice(grid, 4, 4)
        with pytest.raises(NotAFrameError):
            inverse_solve(g, lat, g, method="dense")
        with pytest.raises(NotAFrameError):
            tight_window(g, lat, method="dense")


class TestSharedStack:
    """``W.fibers()`` is one read-only array that no solver writes to."""

    def test_one_read_only_stack(self, gauss64):
        g, lat = gauss64
        W = walnut_coefficients(g, lat)
        blocks = W.fibers()
        assert W.fibers() is blocks
        assert not blocks.flags.writeable
        with pytest.raises(ValueError):
            blocks *= -1.0

    def test_power_iteration_leaves_the_stack(self, monkeypatch, gauss64):
        g, lat = gauss64
        tables = []

        def recorded(*args):
            tables.append(walnut_coefficients(*args))
            return tables[-1]

        monkeypatch.setattr(invert, "walnut_coefficients", recorded)
        fb = frame_bounds(g, lat, method="power_iteration")
        (W,) = tables
        ref = frame_op._zak_blocks(W.table, lat)
        assert np.array_equal(W.fibers(), ref)
        assert fb.B == pytest.approx(float(np.linalg.eigvalsh(ref).max()),
                                     rel=1e-9)


class TestDenseResidual:
    """``dense`` checks its solve on its own matrix, not on ``W.apply``."""

    def test_residual_from_the_matrix(self, monkeypatch, gauss64):
        g, lat = gauss64

        def refuse(self, v):
            raise AssertionError("dense residual read the Walnut apply")

        monkeypatch.setattr(invert.WalnutCoeffs, "apply", refuse)
        rhs = rand_signal(lat.grid, 9)
        x, rep = inverse_solve(g, lat, rhs, method="dense")
        S = dense_frame_matrix(g, lat)
        rel = np.linalg.norm(S @ x.samples - rhs.samples) / \
            np.linalg.norm(rhs.samples)
        assert rep.residuals.tolist() == [rel]
        assert rel <= 1e-12 and rep.converged


class TestDirectSolveConverged:
    """``converged`` of a fiber or dense solve is ``residual <= tol``."""

    @pytest.mark.parametrize("method", ["fiber", "dense"])
    def test_flag_follows_the_residual(self, method):
        # the Gaussian at L = 48, a = 16, b = 2 of TestFiberOracle, B/A ~ 4e10
        grid = build_grid(48, 4)
        lat = GaborLattice(grid, 16, 2)
        g = build_window(WindowSpec.gaussian(width=1.0), grid)
        fb = frame_bounds(g, lat)
        assert fb.B / fb.A > 1e10
        _, rep = inverse_solve(g, lat, g, method=method, tol=1e-12)
        rel = rep.residuals[-1]
        assert rep.converged is bool(rel <= 1e-12)
        # a tolerance below the residual reached is reported as missed
        _, rep = inverse_solve(g, lat, g, method=method, tol=rel / 2)
        assert rep.residuals[-1] == rel and rep.converged is False


class TestFiberOracle:
    @pytest.mark.parametrize("L,s", [(48, 4), (64, 8)])
    def test_every_divisor_lattice(self, L, s):
        grid = build_grid(L, s)
        divisors = [d for d in range(1, L + 1) if L % d == 0]
        worst = 0.0
        for g in _oracle_windows(grid, seed=L).values():
            for a in divisors:
                for b in divisors:
                    worst = max(worst, _fiber_vs_dense(g, GaborLattice(grid, a, b)))
        assert worst <= 1.0

    @settings(max_examples=20, deadline=None)
    @given(L=st.sampled_from([96, 128, 240, 256, 512, 1024]),
           data=st.data(), seed=st.integers(0, 2**16))
    def test_divisor_lattice_sweep(self, L, data, seed):
        divisors = [d for d in range(1, L + 1) if L % d == 0]
        a = data.draw(st.sampled_from(divisors))
        b = data.draw(st.sampled_from(divisors))
        grid = build_grid(L, 16)
        rng = np.random.default_rng(seed)
        g = Signal(grid, rng.standard_normal(L) + 1j * rng.standard_normal(L))
        assert _fiber_vs_dense(g, GaborLattice(grid, a, b)) <= 1.0
