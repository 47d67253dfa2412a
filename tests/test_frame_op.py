import math

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
    correlation_G,
    dense_frame_matrix,
    dual_window,
    frame_operator_direct,
    frame_operator_walnut,
    norm_l2,
    signed_range,
    synthesis,
    tf_shift,
    verify_reconstruction,
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


def _dense_analysis(g, lat, f):
    # <f, M_{m*b} T_{n*a} g> term by term from the M x L phase matrix
    L = lat.grid.L
    j = np.arange(L)
    E = np.exp(-2j * np.pi * np.outer(np.arange(lat.M) * lat.b, j) / L)
    W = np.stack([np.roll(g.samples, n * lat.a) for n in range(lat.N)])
    return (E * f.samples) @ np.conj(W).T / lat.grid.s


def _dense_synthesis(g, lat, c):
    L = lat.grid.L
    j = np.arange(L)
    E = np.exp(2j * np.pi * np.outer(np.arange(lat.M) * lat.b, j) / L)
    W = np.stack([np.roll(g.samples, n * lat.a) for n in range(lat.N)])
    return np.einsum("mj,mn,nj->j", E, c, W)


def _oversampled_lattices(grid):
    divisors = [d for d in range(1, grid.L + 1) if grid.L % d == 0]
    return [GaborLattice(grid, a, b) for a in divisors for b in divisors
            if a * b <= grid.L]


class TestFFTMaps:
    @pytest.mark.parametrize("L,s", [(48, 4), (64, 8)])
    def test_match_dense_phase_matrix(self, L, s):
        # at L = 48 the sweep includes lattices with a not dividing M
        grid = build_grid(L, s)
        g, f = rand_signal(grid, L), rand_signal(grid, L + 1)
        lats = _oversampled_lattices(grid)
        assert L == 64 or any(lat.M % lat.a for lat in lats)
        for lat in lats:
            c = analysis(g, lat, f).values
            ref = _dense_analysis(g, lat, f)
            assert np.linalg.norm(c - ref) <= 1e-12 * np.linalg.norm(ref), \
                (lat.a, lat.b)
            y = synthesis(g, lat, Coeffs(lat, ref)).samples
            ref_y = _dense_synthesis(g, lat, ref)
            assert np.linalg.norm(y - ref_y) <= 1e-12 * np.linalg.norm(ref_y), \
                (lat.a, lat.b)

    @pytest.mark.parametrize("L,a,b", [(960, 3, 12), (1040, 8, 8)])
    def test_match_dense_maps_on_many_residue_classes(self, L, a, b):
        # a does not divide M (p = 3 and 4): P = 80 and 65 residue classes
        # of n*a mod M, of 4 and 2 translates each
        grid = build_grid(L, 16)
        lat = GaborLattice(grid, a, b)
        g, f = rand_signal(grid, L), rand_signal(grid, L + 1)
        c = analysis(g, lat, f).values
        ref = _dense_analysis(g, lat, f)
        assert np.linalg.norm(c - ref) <= 1e-12 * np.linalg.norm(ref)
        y = synthesis(g, lat, Coeffs(lat, ref)).samples
        ref_y = _dense_synthesis(g, lat, ref)
        assert np.linalg.norm(y - ref_y) <= 1e-12 * np.linalg.norm(ref_y)

    @pytest.mark.parametrize("L,s,a,b", [(48, 4, 16, 2), (64, 8, 4, 4),
                                         (240, 16, 12, 10)])
    def test_adjoint(self, L, s, a, b):
        # sum_{m,n} analysis(f)[m,n] conj(c[m,n]) = (1/s) sum_j f conj(synthesis(c))
        grid = build_grid(L, s)
        lat = GaborLattice(grid, a, b)
        g, f = rand_signal(grid, 1), rand_signal(grid, 2)
        rng = np.random.default_rng(3)
        c = Coeffs(lat, rng.standard_normal((lat.M, lat.N))
                   + 1j * rng.standard_normal((lat.M, lat.N)))
        lhs = np.vdot(c.values, analysis(g, lat, f).values)
        rhs = np.vdot(synthesis(g, lat, c).samples, f.samples) / s
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_direct_operator_uses_neither_map(self, monkeypatch):
        import gaborwalnut.frame_op as frame_op

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle must not call the FFT maps")

        grid = build_grid(64, 8)
        lat = GaborLattice(grid, 4, 4)
        g, f = rand_signal(grid, 5), rand_signal(grid, 6)
        expect = _dense_synthesis(g, lat, _dense_analysis(g, lat, f))
        monkeypatch.setattr(frame_op, "analysis", refuse)
        monkeypatch.setattr(frame_op, "synthesis", refuse)
        out = frame_operator_direct(g, lat, f).samples
        assert np.linalg.norm(out - expect) <= 1e-12 * np.linalg.norm(expect)

    def test_reconstruction_above_dense_reach(self):
        # L = 16384, M = 256: a dense phase matrix would take 64 MiB
        grid = build_grid(16384, 16)
        lat = GaborLattice(grid, 32, 64)
        g = build_window(WindowSpec.gaussian(width=1.0), grid)
        gd = dual_window(g, lat, method="fiber")
        assert verify_reconstruction(g, gd, lat, trials=1) <= 1e-10


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

    def test_matches_walnut_to_rounding(self):
        # the phases are roots of unity read at (m*b*j) mod L, so the double
        # sum keeps to rounding at L = 4096 (it drifted to 2e-13 when each
        # phase was taken at m*b*j itself)
        grid = build_grid(4096, 16)
        lat = GaborLattice(grid, 16, 32)
        g = build_window(WindowSpec.gaussian(1.0), grid)
        f = rand_signal(grid, 11)
        d = frame_operator_direct(g, lat, f).samples
        w = frame_operator_walnut(walnut_coefficients(g, lat), f).samples
        assert np.linalg.norm(d - w) <= 1e-15 * np.linalg.norm(w)


def _roll_loop(W, f):
    """``sum_r G_r * T_{r*M} f`` by tiled multipliers and rolled signals in
    signed order, skipping the rows that are zero, and the sum of the
    absolute terms; both without ``factor``."""
    L, a, M = W.lat.grid.L, W.lat.a, W.lat.M
    ref = np.zeros(L, dtype=complex)
    scale = np.zeros(L)
    for r in signed_range(W.lat.b):
        if W.table[r].any():
            term = np.tile(W.table[r], L // a) * np.roll(f, r * M)
            ref += term
            scale += np.abs(term)
    return ref, scale


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
        assert np.array_equal(np.abs(W.table).max(axis=1), [1.0, 0.0])

    def test_gaussian_sup_decay(self):
        grid = build_grid(256, 16)
        lat = GaborLattice(grid, 8, 8)
        g = build_window(WindowSpec.gaussian(width=1.0), grid)
        W = walnut_coefficients(g, lat)
        sups = np.abs(W.table).max(axis=1)[:lat.b // 2 + 1]
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
        W = WalnutCoeffs(lat, np.ones((1, 2)))
        assert W.factor == 2.0  # M/s of the lattice
        f = rand_signal(grid, 4)
        assert np.allclose(frame_operator_walnut(W, f).samples, 2.0 * f.samples)

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

    @pytest.mark.parametrize("L,s,a,b,p", [(60, 6, 12, 20, 4),
                                           (240, 16, 16, 10, 2)])
    def test_table_and_apply_on_divisor_lattices(self, L, s, a, b, p):
        # every divisor lattice, odd b and a not dividing M included: the
        # half-table rows equal the rolled correlations to rounding and keep
        # their exact zeros, and apply agrees with the double sum
        from gaborwalnut.frame_op import _block_size
        grid = build_grid(L, s)
        assert _block_size(GaborLattice(grid, a, b)) == p
        divisors = [d for d in range(1, L + 1) if L % d == 0]
        lats = [GaborLattice(grid, a, b) for a in divisors for b in divisors]
        assert any(lat.b % 2 for lat in lats)
        f = rand_signal(grid, L + 1)
        for g in (rand_signal(grid, L), build_window(WindowSpec.hat(), grid)):
            for lat in lats:
                W = walnut_coefficients(g, lat)
                ref = np.array([correlation_G(g, lat, r).values
                                for r in range(lat.b)])
                assert np.all(W.table[ref == 0] == 0), (lat.a, lat.b)
                assert np.abs(W.table - ref).max() <= \
                    1e-14 * np.abs(ref).max(), (lat.a, lat.b)
                d = frame_operator_direct(g, lat, f).samples
                assert np.linalg.norm(W.apply(f.samples) - d) <= \
                    1e-12 * np.linalg.norm(d), (lat.a, lat.b)

    @pytest.mark.parametrize("L,s,a,b", [(64, 8, 4, 4), (24, 4, 2, 3),
                                         (36, 6, 9, 6), (48, 4, 16, 48)])
    def test_apply_equals_roll_loop_exactly(self, L, s, a, b):
        # the FFT apply sums in another order than a loop of tiled
        # multipliers times rolled signals; they agree to rounding relative
        # to the sum of the absolute terms (p = 1, 1, 3 and 16 here)
        grid = build_grid(L, s)
        lat = GaborLattice(grid, a, b)
        W = walnut_coefficients(rand_signal(grid, L), lat)
        f = rand_signal(grid, L + 1)
        ref, scale = _roll_loop(W, f.samples)
        err = np.linalg.norm(W.apply(f.samples) - W.factor * ref)
        assert err <= 1e-13 * W.factor * np.linalg.norm(scale)

    @pytest.mark.parametrize("L,s,a,b,kind", [(8, 4, 2, 2, "box"),
                                              (1024, 16, 8, 64, "box"),
                                              (240, 24, 16, 10, "random")])
    def test_painless_apply_is_exact(self, L, s, a, b, kind):
        # support on M samples: G_r = 0 for every r != 0, so apply is the
        # r = 0 product bit for bit.  The boxes are chi8 and an S = 2I
        # instance at b = 64; the random window has p = 2.
        grid = build_grid(L, s)
        lat = GaborLattice(grid, a, b)
        g = rand_signal(grid, L).samples.copy() if kind == "random" \
            else np.ones(L, dtype=complex)
        g[lat.M:] = 0.0
        W = walnut_coefficients(Signal(grid, g), lat)
        assert not np.any(W.table[1:])
        f = rand_signal(grid, L + 1).samples
        out = W.apply(f)
        assert np.array_equal(out, W.factor * np.tile(W.table[0], L // a) * f)
        if kind == "box":
            assert np.array_equal(out, 2 * f)

    def test_zak_table_inverts_zak_blocks(self):
        # table -> blocks -> table on every divisor lattice, p = 2, 3 and 8
        # among them; a random table uses every entry of the block stack
        from gaborwalnut.frame_op import (_block_size, _table_cosets,
                                          _zak_blocks, _zak_table)
        rng = np.random.default_rng(7)
        seen = set()
        for L, s in ((24, 4), (36, 6), (32, 8)):
            grid = build_grid(L, s)
            divisors = [d for d in range(1, L + 1) if L % d == 0]
            for a in divisors:
                for b in divisors:
                    lat = GaborLattice(grid, a, b)
                    T = rng.standard_normal((b, a)) \
                        + 1j * rng.standard_normal((b, a))
                    blocks = _table_cosets(_zak_blocks(T, lat), lat)
                    back = _zak_table(blocks, lat)
                    assert np.abs(back - T).max() <= 1e-15 * np.abs(T).max(), \
                        (L, a, b)
                    seen.add(_block_size(lat))
        assert {2, 3, 8} <= seen

    def test_entry_count_enforced(self, chi_lat):
        from gaborwalnut.errors import LatticeError
        _, lat = chi_lat
        with pytest.raises(LatticeError):
            WalnutCoeffs(lat, np.ones((1, 2)))


def _run_of_blocks(blocks, a):
    """The support run of a window from its nonzero length-``a`` blocks,
    as ``_support_run`` derives it (the reference for the scan)."""
    L = blocks.size * a
    if blocks.all():
        return 0, L
    nz = np.flatnonzero(blocks)
    if nz.size == 0:
        return 0, 0
    gaps = np.diff(nz, append=nz[0] + L // a)
    i = int(np.argmax(gaps))
    return int(nz[(i + 1) % nz.size]) * a, L - (int(gaps[i]) - 1) * a


def _masked(grid, seed, keep):
    """A random signal that is exactly 0.0 outside the samples ``keep``."""
    v = np.zeros(grid.L, dtype=complex)
    v[keep] = rand_signal(grid, seed).samples[keep]
    return v


# windows on build_grid(240, 16) by the support they have: a run wrapping
# across the grid end, one sample, none, 3 samples inside one block of 8,
# three blocks' worth, and all
RUN_WINDOWS = {
    "wrap": lambda grid: _masked(grid, 1, np.r_[230:240, 0:7]),
    "single": lambda grid: _masked(grid, 2, [101]),
    "zero": lambda grid: np.zeros(grid.L, dtype=complex),
    "short": lambda grid: _masked(grid, 3, [41, 42, 45]),
    "middle": lambda grid: _masked(grid, 4, np.r_[60:85]),
    "full": lambda grid: rand_signal(grid, 5).samples,
}


class TestSupportRuns:
    @pytest.mark.parametrize("keep,a,run", [
        ([62, 1], 4, (60, 8)),          # wraps across the grid end
        ([37], 4, (36, 4)),             # a single nonzero sample
        ([], 4, (0, 0)),                # zero window
        ([5, 6], 8, (0, 8)),            # shorter than a
        (np.arange(64), 4, (0, 64)),    # full support
        (np.r_[0:4, 8:12, 40:44], 4, (40, 36)),  # the longest gap is left out
    ])
    def test_run(self, keep, a, run):
        from gaborwalnut.frame_op import _support_run
        v = np.zeros(64, dtype=complex)
        v[keep] = 1.0 - 2.0j
        assert _support_run(v, a) == run

    def test_run_equals_complex_scan(self):
        # the scan of the real and imaginary parts as floats finds the runs
        # of the complex any() it replaced: -0.0 is zero, NaN and inf are
        # not, on sparse, wrapping and full windows
        from gaborwalnut.frame_op import _support_run
        rng = np.random.default_rng(17)
        specials = [0.0, -0.0, complex(-0.0, -0.0), complex(0.0, -0.0),
                    np.nan, complex(0.0, np.nan), np.inf, complex(-np.inf, 0.0),
                    5e-324, complex(0.0, -5e-324), 1.0 - 2.0j]
        for L, a in ((64, 4), (240, 8), (96, 32), (7, 7), (4096, 64)):
            for trial in range(60):
                v = np.zeros(L, dtype=complex)
                kind = trial % 4
                if kind == 0:    # a few samples anywhere
                    keep = rng.choice(L, size=rng.integers(0, 4), replace=False)
                elif kind == 1:  # a run across the grid end
                    keep = (L - rng.integers(1, L) + np.arange(rng.integers(1, L))) % L
                elif kind == 2:  # everywhere
                    keep = np.arange(L)
                else:            # many samples
                    keep = rng.choice(L, size=rng.integers(1, L), replace=False)
                v[keep] = rng.choice(specials, size=len(keep))
                ref_blocks = v.reshape(L // a, a).any(axis=1)
                assert _support_run(v, a) == _run_of_blocks(ref_blocks, a), (L, a)

    @pytest.mark.parametrize("a,b,p", [(8, 10, 1), (16, 10, 2), (24, 15, 3),
                                       (8, 16, 8)])
    @pytest.mark.parametrize("fk,hk", [(k, k) for k in RUN_WINDOWS]
                             + [("full", "middle"), ("middle", "full"),
                                ("full", "single"), ("wrap", "full"),
                                ("wrap", "short"), ("middle", "wrap")])
    def test_rows_equal_direct_sums(self, a, b, p, fk, hk):
        # every row of [f, T_{r*M} h]_a over the shorter run equals the sum
        # over all L samples, and is exactly zero wherever that sum is
        from gaborwalnut.frame_op import _block_size, _pair_rows
        grid = build_grid(240, 16)
        lat = GaborLattice(grid, a, b)
        assert _block_size(lat) == p
        f, h = RUN_WINDOWS[fk](grid), RUN_WINDOWS[hk](grid)
        rows = _pair_rows(Signal(grid, f), Signal(grid, h), lat, b)
        ref = np.array([(f * np.conj(np.roll(h, r * lat.M))).reshape(-1, a)
                        .sum(axis=0) for r in range(b)])
        if fk == hk:
            g = Signal(grid, f)
            assert np.array_equal(ref, np.array(
                [correlation_G(g, lat, r).values for r in range(b)]))
            half = walnut_coefficients(g, lat).table[:b // 2 + 1]
            assert np.array_equal(half, rows[:b // 2 + 1])
        assert np.all(rows[ref == 0] == 0)
        assert np.abs(rows - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_cyclic_reads(self):
        # reads that stay inside, wrap once and wrap more than once
        from gaborwalnut.frame_op import _cyclic
        rng = np.random.default_rng(5)
        for L in (1, 5, 16):
            v = rng.standard_normal(L) + 1j * rng.standard_normal(L)
            for start in range(-2 * L, 3 * L):
                for n in range(3 * L + 1):
                    assert np.array_equal(_cyclic(v, start, n),
                                          v[(start + np.arange(n)) % L])

    def test_painless_by_underflow(self, monkeypatch):
        # the Gaussian's 493 nonzero samples fit in M = 1024: every G_r with
        # r != 0 is exactly 0.0, and apply is the r = 0 product without any
        # Zak-domain FFT
        from gaborwalnut import frame_op
        grid = build_grid(65536, 16)
        lat = GaborLattice(grid, 64, 64)
        g = build_window(WindowSpec.gaussian(1.0), grid)
        W = walnut_coefficients(g, lat)
        assert not W.table[1:].any()

        def no_zak(*args):
            raise AssertionError("painless apply went through the Zak domain")

        monkeypatch.setattr(frame_op, "_to_zak", no_zak)
        f = rand_signal(grid, 7).samples
        assert np.array_equal(W.apply(f),
                              W.factor * np.tile(W.table[0], grid.L // 64) * f)


def _recorded_windows(grid, rng):
    """Windows from ``build_window`` of every formula kind on ``grid``:
    Gaussians of widths 0.05 to 10 at centres mid-grid, at the edges (cut
    by the grid), with subnormal or underflowed tails, entirely off the
    grid and at random; characteristic functions up to the whole grid; the
    hat."""
    u = grid.units
    reach = math.sqrt(746 / math.pi)  # of a width-1 Gaussian
    specs = [WindowSpec.gaussian(w, c) for w in (0.05, 0.3, 1.0, 4.0, 10.0)
             for c in (None, 0.0, u, 0.5 / grid.s, u - 1 / grid.s)]
    specs += [WindowSpec.gaussian(1.0, c)
              for c in (-15.0, -15.3, -reach + 0.5 / grid.s, -reach, -40.0,
                        u + 15.3, u + reach, u + 40.0)]
    specs += [WindowSpec.gaussian(10 ** rng.uniform(math.log10(0.05), 1.0),
                                  rng.uniform(-20.0, u + 20.0))
              for _ in range(30)]
    specs += [WindowSpec.characteristic(n) for n in (1 / grid.s, 0.5, 1.0, 2.0, u)
              if n <= u]
    specs.append(WindowSpec.hat())
    return [build_window(spec, grid) for spec in specs]


class TestRecordedRuns:
    """A window from ``build_window`` records the interval of its nonzero
    samples, and its support run is read off that, not scanned."""

    @pytest.mark.parametrize("L", [48, 240, 256, 960, 4096, 65536])
    def test_run_equals_the_scan(self, L):
        from gaborwalnut.frame_op import _support_run, _window_run
        grid = build_grid(L, 16)
        divisors = [a for a in range(1, 257) if L % a == 0]
        for g in _recorded_windows(grid, np.random.default_rng(L)):
            lo, hi = g.__dict__["_nonzero"]
            v = g.samples
            assert 0 <= lo <= hi <= L
            assert np.count_nonzero(v[lo:hi]) == hi - lo
            assert not v[:lo].any() and not v[hi:].any()
            for a in divisors:
                assert _window_run(g, a) == _support_run(v, a), (lo, hi, a)

    def test_other_signals_record_none(self, tmp_path):
        from gaborwalnut import read_window_file, tight_window
        from gaborwalnut.reports import write_window_file
        grid = build_grid(240, 16)
        lat = GaborLattice(grid, 16, 10)
        g = build_window(WindowSpec.gaussian(1.0), grid)
        path = tmp_path / "g.txt"
        write_window_file(g, path)
        for x in (Signal(grid, g.samples), read_window_file(str(path), grid),
                  build_window(WindowSpec.from_file(str(path)), grid),
                  tf_shift(g, 3, 0), tf_shift(g, 0, 2), dual_window(g, lat),
                  tight_window(g, lat)):
            assert "_nonzero" not in x.__dict__

    def test_table_of_a_recorded_window_scans_nothing(self, monkeypatch):
        from gaborwalnut import duality_defect, frame_op

        def refuse(*args):
            raise AssertionError("scanned the window for its support")

        monkeypatch.setattr(frame_op, "_support_run", refuse)
        grid = build_grid(4096, 16)
        lat = GaborLattice(grid, 32, 64)
        g = build_window(WindowSpec.gaussian(1.0), grid)
        h = build_window(WindowSpec.hat(), grid)
        assert walnut_coefficients(g, lat).table[0].any()
        assert duality_defect(g, h, lat) > 0
        with pytest.raises(AssertionError, match="scanned"):
            walnut_coefficients(Signal(grid, g.samples), lat)

    @pytest.mark.parametrize("L,s,a,b", [(48, 16, 16, 2), (240, 16, 16, 10),
                                         (256, 16, 8, 8), (960, 16, 12, 60),
                                         (4096, 16, 16, 32),
                                         (65536, 16, 32, 512)])
    def test_tables_and_defects_equal_a_copy(self, L, s, a, b):
        # the recorded run is the scanned one, so every sum is the same
        from gaborwalnut import duality_defect
        grid = build_grid(L, s)
        lat = GaborLattice(grid, a, b)
        u = grid.units
        windows = [build_window(spec, grid) for spec in (
            WindowSpec.gaussian(1.0), WindowSpec.gaussian(0.3, 0.0),
            WindowSpec.gaussian(2.0, u - 0.5), WindowSpec.characteristic(1.0),
            WindowSpec.hat())]
        copies = [Signal(grid, g.samples) for g in windows]
        for g, c in zip(windows, copies):
            assert walnut_coefficients(g, lat).table.tobytes() == \
                walnut_coefficients(c, lat).table.tobytes()
        for (g, cg), (h, ch) in zip(zip(windows, copies),
                                    zip(windows[1:], copies[1:])):
            assert duality_defect(g, h, lat) == duality_defect(cg, ch, lat)
            assert duality_defect(h, g, lat) == duality_defect(ch, cg, lat)


class TestRowSum:
    @pytest.mark.parametrize("L,a,b", [(16384, 32, 64), (65536, 32, 512)])
    def test_gaussians_never_enter_the_zak_domain(self, monkeypatch, L, a, b):
        # the width-1 Gaussian has 2 and 4 nonzero rows r != 0 here: apply
        # sums them directly and agrees with the roll loop
        from gaborwalnut import frame_op
        grid = build_grid(L, 16)
        lat = GaborLattice(grid, a, b)
        W = walnut_coefficients(build_window(WindowSpec.gaussian(1.0), grid), lat)
        k = int(W.table[1:].any(axis=1).sum())
        assert 0 < k <= frame_op._row_sum_max(1)

        def no_zak(*args):
            raise AssertionError("apply went through the Zak domain")

        monkeypatch.setattr(frame_op, "_to_zak", no_zak)
        f = rand_signal(grid, 11).samples
        ref, scale = _roll_loop(W, f)
        err = np.linalg.norm(W.apply(f) - W.factor * ref)
        assert err <= 1e-13 * W.factor * np.linalg.norm(scale)

    def test_full_support_goes_through_the_zak_domain(self, monkeypatch):
        from gaborwalnut import frame_op
        calls = []
        to_zak = frame_op._to_zak

        def spy(*args):
            calls.append(args)
            return to_zak(*args)

        monkeypatch.setattr(frame_op, "_to_zak", spy)
        grid = build_grid(240, 16)
        lat = GaborLattice(grid, 16, 10)
        g, f = rand_signal(grid, 12), rand_signal(grid, 13)
        W = walnut_coefficients(g, lat)
        assert W.table[1:].all(axis=1).all()
        d = frame_operator_direct(g, lat, f).samples
        assert np.linalg.norm(W.apply(f.samples) - d) <= 1e-12 * np.linalg.norm(d)
        assert len(calls) == 1

    @pytest.mark.parametrize("periods", [0, 1, 3])
    @pytest.mark.parametrize("L,s,a,b,p", [(64, 8, 4, 8, 1), (240, 16, 16, 10, 2),
                                           (36, 6, 9, 6, 3), (480, 16, 16, 20, 2)])
    def test_few_rows_agree_with_roll_loop_and_blocks(self, monkeypatch, periods,
                                                      L, s, a, b, p):
        # random tables with as many nonzero rows r != 0 as the direct sum
        # takes; chunks of a and 3a samples put chunk edges and wrapped
        # reads everywhere
        from gaborwalnut import frame_op
        from gaborwalnut.frame_op import _block_size, _from_zak, _to_zak
        if periods:
            monkeypatch.setattr(frame_op, "_CHUNK", periods * a)
        grid = build_grid(L, s)
        lat = GaborLattice(grid, a, b)
        assert _block_size(lat) == p
        rng = np.random.default_rng(L + b)
        k = min(frame_op._row_sum_max(p), b - 1)
        T = np.zeros((b, a), dtype=complex)
        rows = [0] + rng.choice(np.arange(1, b), size=k, replace=False).tolist()
        T[rows] = rng.standard_normal((k + 1, a)) + 1j * rng.standard_normal((k + 1, a))
        W = WalnutCoeffs(lat, T)
        assert W._split is not None
        f = rand_signal(grid, 14).samples
        out = W.apply(f)
        ref, scale = _roll_loop(W, f)
        assert np.linalg.norm(out - W.factor * ref) <= \
            1e-13 * W.factor * np.linalg.norm(scale)
        blocks = np.einsum("nij,nj->ni", W.fibers(), _to_zak(f, lat))
        zak = _from_zak(blocks, lat)
        assert np.linalg.norm(out - zak) <= 1e-13 * np.linalg.norm(zak)


def _broadcast_apply(W, v):
    """The row sum of ``WalnutCoeffs.apply`` as it was once written: each
    product broadcasts a length-``a`` multiplier over an ``(n/a, a)`` view of
    a chunk, in the same order.  The reference the flat kernel must equal
    byte for byte."""
    from gaborwalnut.frame_op import _CHUNK, _cyclic
    lat = W.lat
    L, a, M = lat.grid.L, lat.a, lat.M
    nz = [r for r in range(1, lat.b) if W.table[r].any()]
    diag = W.factor * W.table[0]
    rows = [(r * M % L, W.factor * W.table[r]) for r in nz]
    vb = v.reshape(-1, a)
    if not rows:
        return np.multiply(diag, vb).reshape(L)
    C = a * max(1, _CHUNK // a)
    out = np.empty(L, dtype=complex)
    buf = np.empty((C // a, a), dtype=complex)
    for j in range(0, L, C):
        n = min(C, L - j)
        o = out[j:j + n].reshape(-1, a)
        np.multiply(diag, vb[j // a:(j + n) // a], out=o)
        for shift, G in rows:
            np.multiply(G, _cyclic(v, j - shift, n).reshape(-1, a),
                        out=buf[:n // a])
            o += buf[:n // a]
    return out


def _table_with_rows(lat, rows, rng):
    """A random ``(b, a)`` table that is nonzero on ``rows`` only."""
    T = np.zeros((lat.b, lat.a), dtype=complex)
    T[rows] = rng.standard_normal((len(rows), lat.a)) \
        + 1j * rng.standard_normal((len(rows), lat.a))
    return WalnutCoeffs(lat, T)


class TestFlatKernel:
    @pytest.mark.parametrize("periods", [0, 1, 3])
    @pytest.mark.parametrize("L,s,a,b,p", [(64, 8, 4, 8, 1), (240, 16, 16, 10, 2),
                                           (36, 6, 9, 6, 3), (480, 16, 16, 20, 2),
                                           (12288, 16, 12, 768, 3),
                                           (10240, 16, 32, 40, 1)])
    def test_equals_broadcast_form(self, monkeypatch, periods, L, s, a, b, p):
        # every k = 0 .. _row_sum_max(p) at p = 1, 2 and 3, with chunks of
        # a and 3a samples, one chunk longer than L (the first four grids)
        # and L not a multiple of the chunk (the last two).  Row r reads v
        # from r*M samples before each chunk, across the grid end at the
        # first one
        from gaborwalnut import frame_op
        if periods:
            monkeypatch.setattr(frame_op, "_CHUNK", periods * a)
        grid = build_grid(L, s)
        lat = GaborLattice(grid, a, b)
        assert frame_op._block_size(lat) == p
        rng = np.random.default_rng(L + b + periods)
        f = rand_signal(grid, 15).samples
        for k in range(min(frame_op._row_sum_max(p), b - 1) + 1):
            rows = [0] + rng.choice(np.arange(1, b), size=k, replace=False).tolist()
            W = _table_with_rows(lat, rows, rng)
            assert W._split is not None and len(W._split[1]) == k
            assert W.apply(f).tobytes() == _broadcast_apply(W, f).tobytes(), k

    @pytest.mark.parametrize("L,a,b,k", [(65536, 32, 512, 5), (16384, 32, 64, 2),
                                         (65536, 64, 64, 0), (480, 16, 20, 7)])
    def test_tiles_hold_one_chunk_per_row(self, L, a, b, k):
        # the cache of the direct row sum: k + 1 tiles of C entries each,
        # C = a * max(1, _CHUNK // a) but at most L, and nothing else; a
        # painless table keeps its one row of a entries
        import tracemalloc
        from gaborwalnut import frame_op
        lat = GaborLattice(build_grid(L, 16), a, b)
        rows = [0] + list(range(2, 2 + k))
        W = _table_with_rows(lat, rows, np.random.default_rng(k))
        C = min(a * max(1, frame_op._CHUNK // a), L) if k else a
        tracemalloc.start()
        try:
            G0, pairs = W._split
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tiles = [G0, *(G for _, G in pairs)]
        assert len(tiles) == k + 1
        assert all(G.shape == (C,) and G.dtype == complex for G in tiles)
        assert peak <= 16 * ((k + 1) * C + 2 * a) + 4096

    def test_painless_apply_allocates_its_output_and_one_tile(self):
        # k = 0 takes no chunk buffer and keeps no tile: the allocations of
        # a call are its output and the tile of G_0, one chunk long
        import tracemalloc
        from gaborwalnut import frame_op
        L = 65536
        lat = GaborLattice(build_grid(L, 16), 64, 64)
        W = _table_with_rows(lat, [0], np.random.default_rng(4))
        f = rand_signal(lat.grid, 18).samples
        W.apply(f)
        tracemalloc.start()
        try:
            W.apply(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * (L + frame_op._CHUNK) + 4096


class TestWeightedSum:
    def test_chi(self, chi_lat):
        g, lat = chi_lat
        W = walnut_coefficients(g, lat)
        assert walnut_weighted_sum(W, Weight.constant()) == pytest.approx(2.0)

    def test_zero_window(self, chi_lat):
        _, lat = chi_lat
        W = walnut_coefficients(Signal(lat.grid, np.zeros(8)), lat)
        assert walnut_weighted_sum(W, Weight.constant()) == 0.0


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
