import numpy as np
import pytest

from gaborwalnut import (
    DomainError,
    GaborLattice,
    LatticeError,
    Signal,
    SizeError,
    WalnutCoeffs,
    Weight,
    WindowSpec,
    amalgam_norm,
    analysis,
    bracket_series,
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
    inner_product,
    mixed_bracket,
    signed_range,
    signed_rep,
    tf_shift,
    walnut_coefficients,
    walnut_weighted_sum,
)
from gaborwalnut import diagnostics, invert
from gaborwalnut.bracket import _bracket_table, bracket_product
from gaborwalnut.diagnostics import IdentityResidual, _identity_residual


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

    @staticmethod
    def _cross_check_cases(corpus):
        cases = [(name, g, lat) for name, g, lat, _ in corpus]
        grid = build_grid(240, 12)  # p = 2
        cases.append(("rand240", rand_signal(grid, 240), GaborLattice(grid, 12, 8)))
        grid = build_grid(1024, 16)  # the dense limit, B/A about 268
        cases.append(("gauss1024", build_window(WindowSpec.gaussian(width=1.0), grid),
                      GaborLattice(grid, 32, 16)))
        return cases

    def test_a_columns_match_the_full_inverse(self, corpus):
        # the extraction from the whole inverse is the reference: reading
        # each multiplier once off the solved columns lands within rounding
        for name, g, lat in self._cross_check_cases(corpus):
            S = dense_frame_matrix(g, lat)
            ref = extract_walnut_from_matrix(np.linalg.inv(S), lat)[0].table
            got = diagnostics._dense_inverse_table(g, lat)
            assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref)), name

    def test_cross_check_sees_a_changed_row(self, corpus, monkeypatch):
        inverse_walnut = diagnostics._inverse_walnut

        def one_row_off(g, lat):
            W = inverse_walnut(g, lat)
            table = W.table.copy()
            table[-1] += 1e-6
            return WalnutCoeffs(lat=lat, table=table)

        monkeypatch.setattr(diagnostics, "_inverse_walnut", one_row_off)
        for name, g, lat in self._cross_check_cases(corpus):
            rep = dual_summability_report(g, lat, Weight.constant())
            assert rep.cross_check_error > 1e-8, name

    def test_never_inverts_the_dense_matrix(self, corpus, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the cross-check inverted the dense matrix")

        monkeypatch.setattr(np.linalg, "inv", refuse)
        for name, g, lat in self._cross_check_cases(corpus):
            rep = dual_summability_report(g, lat, Weight.constant())
            assert rep.cross_check_error < 1e-12, name

    def test_solves_nothing(self, chi_lat, gauss64, corpus, monkeypatch):
        # the table is read off the inverted blocks: with every solver
        # refusing, the report and its dense cross-check still come out
        def refuse(*args, **kwargs):
            raise AssertionError("the summability report solved a system")

        monkeypatch.setattr(invert, "dual_window", refuse)
        monkeypatch.setattr(invert, "inverse_solve", refuse)
        g, lat = chi_lat
        assert dual_summability_report(g, lat, Weight.constant()) \
            .cross_check_error < 1e-12
        g, lat = gauss64
        assert dual_summability_report(g, lat, Weight.constant()) \
            .cross_check_error < 1e-10
        for name, g, lat, w in corpus:
            rep = dual_summability_report(g, lat, w, tol=1e-12)
            assert rep.cross_check_error < 1e-8, name
        with pytest.raises(DomainError):
            dual_summability_report(g, lat, w, tol=0.0)


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

    def test_tie_rule(self):
        # with [g, T g] = 0 the right side is exactly 0, so the residual is
        # |mixed|: ties go to the first signed k in sorted order, then first x
        lat = GaborLattice(build_grid(24, 4), 2, 3)  # N = 12, M = 8, P = 4
        rng = np.random.default_rng(3)
        Bgd = rng.standard_normal((12, 8)) + 1j * rng.standard_normal((12, 8))
        mixed = np.zeros((12, 8), dtype=complex)
        for k, x in ((3, 1), (-2, 5), (-2, 2), (6, 0)):
            mixed[k % 12, x] = 1.0
        res = _identity_residual(lat, mixed, np.zeros((12, 8), dtype=complex), Bgd)
        assert res == IdentityResidual(max_abs_error=1.0, worst_k=-2, worst_x=2)

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


# Per-index loop versions of the bracket diagnostics, kept as references for
# the sliced array code in the package.

def _loop_bracket_table(f, h, lat):
    return np.stack([
        bracket_product(f, tf_shift(h, n * lat.a, 0), lat.M).values
        for n in range(lat.N)
    ])


def _table_error(table, f, h, lat):
    # largest entry of |table - loop| in units of ||f||_2 * ||h||_2, the
    # scale of every entry (Cauchy-Schwarz) and of the FFT rounding
    ref = _loop_bracket_table(f, h, lat)
    scale = np.linalg.norm(f.samples) * np.linalg.norm(h.samples)
    return float(np.abs(table - ref).max()) / scale


def _loop_convo_identity_residual(g, gd, lat):
    M, N = lat.M, lat.N
    Bg = _loop_bracket_table(g, g, lat)
    Bgd = _loop_bracket_table(gd, gd, lat)
    worst = -1.0
    worst_k = worst_x = 0
    for k in sorted(signed_range(N)):
        lhs = bracket_product(gd, tf_shift(g, k * lat.a, 0), M).values
        shift = (k * lat.a) % M
        rows = np.stack([Bgd[(k + n) % N] for n in range(N)])
        rhs = (lat.M / lat.grid.s) * np.sum(
            np.roll(np.conj(Bg), shift, axis=1) * rows, axis=0
        )
        err = np.abs(lhs - rhs)
        x = int(np.argmax(err))
        if float(err[x]) > worst:
            worst = float(err[x])
            worst_k, worst_x = k, x
    return IdentityResidual(max_abs_error=worst, worst_k=worst_k, worst_x=worst_x)


def _loop_counterexample_inner(h, g, lat):
    grid = lat.grid
    K, s = grid.units, grid.s
    j = np.arange(grid.L)
    max_inner = 0.0
    for m in range(s // 2):
        mod = np.exp(2j * np.pi * (2 * m * K % grid.L) * j / grid.L)
        for n in range(K):
            shifted = Signal(grid, mod * np.roll(g.samples, n * s))
            max_inner = max(max_inner, abs(inner_product(h, shifted)))
    return max_inner


def _loop_series(table, w):
    sups = np.abs(table).max(axis=1)
    return np.cumsum([float(sups[n]) * w(n) for n in signed_range(len(table))])


def _loop_forbound_slack(W, w):
    lat = W.lat
    nblocks = lat.grid.L // lat.a
    plain = aligned = 0.0
    sups = np.abs(W.table).max(axis=1)
    for r in signed_range(lat.b):
        sup = float(sups[r])
        q, rem = divmod(r * lat.M, lat.a)
        c_r = w(signed_rep(q, nblocks))
        if rem != 0:
            c_r += w(signed_rep(q + 1, nblocks))
        plain += sup * w(r)
        aligned += sup * c_r
    return 0.0 if plain == 0.0 else max(0.0, aligned / plain - 1.0)


class TestLoopEquivalence:
    @pytest.mark.parametrize("w", [
        Weight.constant(), Weight.polynomial(1.5),
        Weight.subexponential(1.0, 0.5),
        Weight.custom(lambda n: 1.0 + abs(n) ** 0.3),
    ], ids=lambda w: w.describe())
    def test_weighted_series_bit_for_bit(self, w):
        # every weighted sup series against its per-index loop, summed in
        # the same signed order with the weight evaluated one index at a time
        for L, s, a, b in ((48, 4, 4, 8), (64, 8, 4, 4), (72, 8, 6, 8)):
            grid = build_grid(L, s)
            lat = GaborLattice(grid, a, b)
            g = rand_signal(grid, L)
            gd = dual_window(g, lat)
            W = walnut_coefficients(g, lat)
            Wd = invert._inverse_walnut(g, lat)  # the report's S^-1 table
            assert amalgam_norm(g, a, w) == \
                _loop_series(g.samples.reshape(-1, a), w)[-1]
            assert walnut_weighted_sum(W, w) == _loop_series(W.table, w)[-1]
            assert forbound_slack(W, w) == _loop_forbound_slack(W, w)
            # the table comes from FFTs: the series over it is exact, the
            # table itself is held to the loop by the bound of _table_error
            table = _bracket_table(gd, g, lat)
            assert _table_error(table, gd, g, lat) <= 1e-13
            assert np.array_equal(bracket_series(gd, g, lat, w),
                                  _loop_series(table, w))
            lhs, _ = estimate_convest(g, gd, lat, w)
            assert lhs == _loop_series(table, w)[-1]
            rep = dual_summability_report(g, lat, w, cross_check=False)
            sups = np.abs(Wd.table).max(axis=1).tolist()
            assert rep.per_r == tuple((r, sups[r], w(r), sups[r] * w(r))
                                      for r in signed_range(b))
            assert np.array_equal(rep.tail_profile, _loop_series(Wd.table, w))

    def test_tables_and_residual_against_loop(self):
        # the divisor-lattice sweep of TestConvoIdentity, a not dividing M
        # included, with the canonical dual and an unrelated second window
        rng = np.random.default_rng(21)
        checked = 0
        for L, s in ((24, 4), (36, 6), (32, 8)):
            grid = build_grid(L, s)
            divisors = [d for d in range(1, L + 1) if L % d == 0]
            for a in divisors:
                for b in divisors:
                    if L // (a * b) < 1:
                        continue
                    g = rand_signal(grid, int(rng.integers(2**31)))
                    lat = GaborLattice(grid, a, b)
                    gd = dual_window(g, lat, method="dense")
                    h = rand_signal(grid, int(rng.integers(2**31)))
                    for f, k in ((g, g), (gd, gd), (gd, g), (h, g)):
                        assert _table_error(_bracket_table(f, k, lat),
                                            f, k, lat) <= 1e-13, (L, s, a, b)
                    # the residual sums by FFT correlation, so it matches the
                    # loop to rounding of the terms' scale, not bit for bit
                    for other in (gd, h):
                        new = convo_identity_residual(g, other, lat)
                        ref = _loop_convo_identity_residual(g, other, lat)
                        Bg = _loop_bracket_table(g, g, lat)
                        Bo = _loop_bracket_table(other, other, lat)
                        mixed = _loop_bracket_table(other, g, lat)
                        scale = (lat.M / s) * lat.N * np.abs(Bg).max() \
                            * np.abs(Bo).max() + np.abs(mixed).max()
                        assert abs(new.max_abs_error - ref.max_abs_error) \
                            <= 1e-13 * scale, (L, s, a, b)
                        if other is h:
                            # an O(1) residual, far above rounding: the tie
                            # rule must pick the loop's point
                            assert (new.worst_k, new.worst_x) == \
                                (ref.worst_k, ref.worst_x), (L, s, a, b)
                    checked += 1
        assert checked > 40

    @pytest.mark.parametrize("L,a,b", [(4096, 16, 32), (6000, 16, 24)])
    def test_table_within_bound_at_size(self, L, a, b):
        # P = 8 residue classes of 32 rows at L = 4096; at L = 6000 a does
        # not divide M = 250: P = 125 classes of 3 rows
        grid = build_grid(L, 16)
        lat = GaborLattice(grid, a, b)
        g = build_window(WindowSpec.gaussian(width=1.0), grid)
        h = rand_signal(grid, 5)
        assert _table_error(_bracket_table(h, g, lat), h, g, lat) <= 1e-13

    @pytest.mark.parametrize("L,s", [(16, 4), (64, 8), (128, 8), (256, 16)])
    def test_counterexample_inner_products(self, L, s):
        grid = build_grid(L, s)
        lat = GaborLattice(grid, s // 2, grid.units)
        g = build_window(WindowSpec.characteristic(1.0), grid)
        for h in (build_counterexample("harmonic", grid), g,
                  rand_signal(grid, L)):
            new, _ = counterexample_report(h, g, lat, Weight.constant())
            assert abs(new - _loop_counterexample_inner(h, g, lat)) <= 1e-14


    @pytest.mark.parametrize("L,s", [(64, 8), (256, 16)])
    def test_counterexample_inner_products_over_any_run(self, L, s):
        # the sums run over g's support run only: one wrapping across the
        # grid end, a single sample, the whole grid and none.  The first two
        # runs start at odd multiples of a = s/2, which no whole-unit
        # translate maps to sample 0.
        grid = build_grid(L, s)
        lat = GaborLattice(grid, s // 2, grid.units)
        h = build_counterexample("harmonic", grid)
        box = build_window(WindowSpec.characteristic(1.0), grid).samples
        single = np.zeros(L, dtype=complex)
        single[s // 2 + 1] = 1.0
        for v in (np.roll(box, -1), single,
                  rand_signal(grid, 3).samples, np.zeros(L, dtype=complex)):
            g = Signal(grid, v)
            new, _ = counterexample_report(h, g, lat, Weight.constant())
            assert abs(new - _loop_counterexample_inner(h, g, lat)) <= 1e-14

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

    @pytest.mark.parametrize("rule", [
        "harmonic",
        lambda k: (k % 3) - 0.25j * k,
        {0: 1.0, 1: 0.5, -1: 2.5j, 5: -3.0, 40: 7.0},
    ], ids=["harmonic", "callable", "mapping"])
    @pytest.mark.parametrize("L,s", [(16, 4), (96, 8), (4096, 16)])
    def test_one_rule_call_per_unit(self, rule, L, s):
        # bit for bit the per-sample evaluation of the rule
        grid = build_grid(L, s)
        if rule == "harmonic":
            coeff = lambda k: 1.0 / (abs(k) + 1.0)
        elif isinstance(rule, dict):
            coeff = lambda k: rule.get(k, 0.0)
        else:
            coeff = rule
        j = np.arange(L)
        amps = np.array([coeff(signed_rep(int(u), grid.units)) for u in j // s],
                        dtype=complex)
        ref = amps * np.exp(2j * np.pi * j / s)
        h = build_counterexample(rule, grid).samples
        assert np.array_equal(h.view(np.int64), ref.view(np.int64))

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
