import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaborwalnut import (
    DimensionError,
    DivisibilityError,
    DomainError,
    GaborLattice,
    GridMismatchError,
    Signal,
    Weight,
    WindowSpec,
    build_grid,
    build_window,
    check_admissible,
    inner_product,
    norm_l2,
    signed_range,
    signed_rep,
    tf_shift,
)


def delta(grid, j):
    v = np.zeros(grid.L, dtype=complex)
    v[j] = 1.0
    return Signal(grid, v)


class TestGrid:
    def test_basic_construction(self):
        g = build_grid(8, 4)
        assert (g.L, g.s, g.units) == (8, 4, 2)
        assert build_grid(256, 16).units == 16

    def test_divisibility(self):
        with pytest.raises(DivisibilityError):
            build_grid(8, 3)

    def test_domain(self):
        with pytest.raises(DomainError):
            build_grid(1, 1)
        with pytest.raises(DomainError):
            build_grid(8, 0)


class TestLattice:
    def test_derived_quantities(self):
        lat = GaborLattice(build_grid(8, 4), 2, 2)
        assert (lat.M, lat.N) == (4, 4)
        assert lat.alpha == 0.5 and lat.beta == 1.0
        assert lat.redundancy == 2.0

    def test_divisibility(self):
        grid = build_grid(8, 4)
        with pytest.raises(DivisibilityError):
            GaborLattice(grid, 3, 2)
        with pytest.raises(DivisibilityError):
            GaborLattice(grid, 2, 3)

    def test_undersampled_is_constructible(self):
        lat = GaborLattice(build_grid(8, 4), 4, 4)
        assert lat.redundancy == 0.5


class TestSignedIndexing:
    def test_rep_even_period(self):
        assert [signed_rep(k, 4) for k in range(4)] == [0, 1, 2, -1]
        assert signed_rep(-2, 4) == 2

    def test_rep_odd_period(self):
        assert [signed_rep(k, 5) for k in range(5)] == [0, 1, 2, -2, -1]

    def test_range_order(self):
        assert signed_range(4) == [0, 1, -1, 2]
        assert signed_range(5) == [0, 1, -1, 2, -2]
        assert signed_range(1) == [0]


class TestWindows:
    def test_characteristic(self):
        g = build_window(WindowSpec.characteristic(1.0), build_grid(8, 4))
        assert np.array_equal(g.samples, np.array([1, 1, 1, 1, 0, 0, 0, 0],
                                                  dtype=complex))

    def test_characteristic_too_wide(self):
        with pytest.raises(DomainError):
            build_window(WindowSpec.characteristic(3.0), build_grid(8, 4))

    def test_gaussian_positive_symmetric(self):
        grid = build_grid(256, 16)
        g = build_window(WindowSpec.gaussian(width=1.0, center=grid.units / 2),
                         grid)
        assert np.all(g.samples.real > 0)
        mid = grid.L // 2
        for t in range(1, mid):
            assert g.samples[mid + t] == pytest.approx(g.samples[mid - t])

    @pytest.mark.parametrize("L,s", [(65536, 16), (6000, 24), (64, 16)])
    @pytest.mark.parametrize("width", [0.1, 1.0, 4.0])
    @pytest.mark.parametrize("where", ["zero", "mid", "last"])
    def test_gaussian_equals_full_formula(self, L, s, width, where):
        # only the run of j with pi*u**2 < 746 is evaluated; outside it the
        # formula underflows to exactly 0.0.  L = 64 is covered completely.
        grid = build_grid(L, s)
        c = {"zero": 0.0, "mid": grid.units / 2,
             "last": grid.units - 1 / s}[where]
        g = build_window(WindowSpec.gaussian(width=width, center=c), grid)
        x = np.arange(L) / s
        ref = np.exp(-np.pi * ((x - c) / width) ** 2).astype(complex)
        assert np.array_equal(g.samples, ref)

    def test_hat(self):
        g = build_window(WindowSpec.hat(), build_grid(8, 4))
        assert np.allclose(g.samples.real, [0.0, 0.5, 1.0, 0.5, 0.0, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    @pytest.mark.parametrize("spec", [
        lambda v: WindowSpec.characteristic(v),
        lambda v: WindowSpec.gaussian(width=v),
        lambda v: WindowSpec.gaussian(width=1.0, center=v),
    ], ids=["units", "width", "center"])
    def test_non_finite_parameter_rejected(self, spec, value):
        with pytest.raises(DomainError, match="must be finite"):
            build_window(spec(value), build_grid(8, 4))

    @pytest.mark.parametrize("build,match", [
        (lambda: WindowSpec.characteristic(float("nan")), "must be finite"),
        (lambda: WindowSpec.gaussian(width=float("inf")), "must be finite"),
        (lambda: WindowSpec.gaussian(center=float("nan")), "must be finite"),
        (lambda: WindowSpec.gaussian(width=0.0), "must be positive"),
        (lambda: WindowSpec.gaussian(width=-1.0), "must be positive"),
    ], ids=["units-nan", "width-inf", "center-nan", "width-0", "width-neg"])
    def test_grid_independent_checks_run_when_built(self, build, match):
        with pytest.raises(DomainError, match=match):
            build()

    def test_grid_dependent_checks_run_when_sampled(self):
        spec = WindowSpec.characteristic(0.3)  # not whole samples at s = 4
        assert build_window(spec, build_grid(80, 10)).samples[:3].sum() == 3
        with pytest.raises(DomainError, match="integer number of samples"):
            build_window(spec, build_grid(8, 4))

    def test_signal_length_checked(self):
        with pytest.raises(DimensionError):
            Signal(build_grid(8, 4), np.zeros(7))

    def test_signal_immutable(self):
        g = build_window(WindowSpec.hat(), build_grid(8, 4))
        with pytest.raises(ValueError):
            g.samples[0] = 5.0


class TestTfShift:
    def test_delta_translation(self):
        grid = build_grid(8, 4)
        assert np.array_equal(tf_shift(delta(grid, 0), 2, 0).samples,
                              delta(grid, 2).samples)

    def test_modulation_fixes_delta_at_origin(self):
        grid = build_grid(8, 4)
        out = tf_shift(delta(grid, 0), 0, 3)
        assert np.allclose(out.samples, delta(grid, 0).samples)

    def test_cyclic_window_shift(self):
        grid = build_grid(8, 4)
        g = build_window(WindowSpec.characteristic(1.0), grid)
        assert np.array_equal(tf_shift(g, 4, 0).samples,
                              np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=complex))

    @settings(deadline=None, max_examples=40)
    @given(
        n1=st.integers(-20, 20), n2=st.integers(-20, 20),
        m1=st.integers(-20, 20), m2=st.integers(-20, 20),
        seed=st.integers(0, 2**16),
    )
    def test_composition(self, n1, n2, m1, m2, seed):
        grid = build_grid(16, 4)
        rng = np.random.default_rng(seed)
        f = Signal(grid, rng.standard_normal(16) + 1j * rng.standard_normal(16))
        lhs = tf_shift(tf_shift(f, n1, 0), n2, 0)
        rhs = tf_shift(f, (n1 + n2) % 16, 0)
        assert np.allclose(lhs.samples, rhs.samples, atol=1e-12)
        lhs_m = tf_shift(tf_shift(f, 0, m1), 0, m2)
        rhs_m = tf_shift(f, 0, (m1 + m2) % 16)
        assert np.allclose(lhs_m.samples, rhs_m.samples, atol=1e-12)

    @settings(deadline=None, max_examples=40)
    @given(n=st.integers(-16, 16), m=st.integers(-16, 16), seed=st.integers(0, 2**16))
    def test_commutation_phase(self, n, m, seed):
        grid = build_grid(16, 4)
        rng = np.random.default_rng(seed)
        f = Signal(grid, rng.standard_normal(16) + 1j * rng.standard_normal(16))
        lhs = tf_shift(f, n, m)  # modulate after translate
        rhs = tf_shift(tf_shift(f, 0, m), n, 0)  # translate after modulate
        phase = np.exp(2j * np.pi * m * n / 16)
        assert np.allclose(lhs.samples, phase * rhs.samples, atol=1e-12)


    @pytest.mark.parametrize("m", [65535, 12345])
    def test_phase_taken_at_m_times_j_mod_L(self, m):
        # at L = 65536 a phase taken at m*j itself drifts 1e-11 off
        L = 65536
        grid = build_grid(L, 16)
        j = np.arange(L)
        ref = np.exp(2j * np.pi * ((m * j) % L) / L)
        out = tf_shift(Signal(grid, np.ones(L)), 0, m).samples
        assert np.abs(out - ref).max() <= 4 * np.finfo(float).eps


class TestInnerProduct:
    def test_unit_window(self):
        g = build_window(WindowSpec.characteristic(1.0), build_grid(8, 4))
        assert inner_product(g, g) == pytest.approx(1.0)
        assert norm_l2(g) == pytest.approx(1.0)

    def test_disjoint_deltas(self):
        grid = build_grid(8, 4)
        assert inner_product(delta(grid, 0), delta(grid, 1)) == 0

    def test_conjugate_symmetry_and_positivity(self):
        grid = build_grid(16, 4)
        rng = np.random.default_rng(3)
        f = Signal(grid, rng.standard_normal(16) + 1j * rng.standard_normal(16))
        h = Signal(grid, rng.standard_normal(16) + 1j * rng.standard_normal(16))
        assert inner_product(f, h) == pytest.approx(np.conj(inner_product(h, f)))
        assert inner_product(f, f).real > 0
        assert abs(inner_product(f, f).imag) < 1e-12
        zero = Signal(grid, np.zeros(16))
        assert inner_product(zero, zero) == 0

    def test_grid_mismatch(self):
        f = delta(build_grid(8, 4), 0)
        h = delta(build_grid(8, 2), 0)
        with pytest.raises(GridMismatchError):
            inner_product(f, h)


class TestWeights:
    def test_builtin_values(self):
        assert Weight.constant()(5) == 1.0
        assert Weight.polynomial(2.0)(3) == 16.0
        w = Weight.subexponential(0.5, 0.5)
        assert w(4) == pytest.approx(math.exp(0.5 * 2.0))

    def test_validation(self):
        with pytest.raises(DomainError):
            Weight.polynomial(-1.0)
        with pytest.raises(DomainError):
            Weight.subexponential(0.0, 0.5)
        with pytest.raises(DomainError):
            Weight.subexponential(1.0, 1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_parameter_rejected(self, value):
        with pytest.raises(DomainError, match="must be finite"):
            Weight.polynomial(value)
        with pytest.raises(DomainError, match="must be finite"):
            Weight.subexponential(value, 0.5)
        with pytest.raises(DomainError):
            Weight.subexponential(1.0, value)

    @pytest.mark.parametrize("w", [
        Weight.constant(),
        Weight.polynomial(2.0),
        Weight.subexponential(0.5, 0.5),
    ], ids=lambda w: w.describe())
    def test_submultiplicative_on_box(self, w):
        n = np.arange(-64, 65)
        vals = w(n)
        kk, nn = np.meshgrid(n, n, indexing="ij")
        lhs = w((kk + nn).ravel()).reshape(kk.shape)
        assert np.all(lhs <= np.outer(vals, vals) * (1 + 1e-12))
        assert np.all(vals >= 1.0)
        assert np.array_equal(vals, vals[::-1])

    @pytest.mark.parametrize("w", [
        Weight.constant(),
        Weight.polynomial(2.0),
        Weight.polynomial(1.5),
        Weight.subexponential(1.0, 0.5),
    ], ids=lambda w: w.describe())
    def test_scalar_call_equals_array_entry(self, w):
        # numpy's scalar and array loops for ** and exp may round apart;
        # a series summed with either must not depend on which one ran
        idx = np.array(signed_range(20001))
        vals = w(idx)
        scalars = [w(n) for n in idx.tolist()]
        assert all(type(v) is float for v in scalars[:3])
        assert np.array_equal(np.array(scalars), vals)
        assert w(np.int64(7)) == vals[13]

    # the formulas of the kind-dispatching Weight.__call__ that each kind's
    # constructor replaced, kept here as the reference
    REFERENCE = [
        (Weight.constant, (), lambda n: np.ones_like(n, dtype=float),
         "constant"),
        *((Weight.polynomial, (t,),
           lambda n, t=t: (1.0 + np.abs(n)) ** float(t), f"polynomial(t={t:g})")
          for t in (0.0, 1, 1.5, 2.0, 3.7)),
        *((Weight.subexponential, (c, g),
           lambda n, c=c, g=g: np.exp(float(c) * np.abs(n).astype(float)
                                      ** float(g)),
           f"subexponential(c={c:g}, gamma={g:g})")
          for c, g in ((1.0, 0.5), (0.5, 0.5), (0.7, 0.3), (2, 0.9))),
    ]

    @pytest.mark.parametrize("make,args,ref,label", REFERENCE,
                             ids=lambda v: v if isinstance(v, str) else None)
    def test_values_and_labels_match_the_reference(self, make, args, ref, label):
        w = make(*args)
        idx = np.array(signed_range(4096))
        with np.errstate(over="ignore"):  # exp(2 * 2048**0.9) is inf
            expect, got = ref(idx), w(idx)
            scalars = [(w(k), ref(np.atleast_1d(k))[0])
                       for k in (0, 1, -1, 7, -2048, 2047)]
        assert got.dtype == float and np.array_equal(got, expect)
        assert all(type(v) is float and v == r for v, r in scalars)
        assert w.describe() == label

    def test_constructor_defaults(self):
        # the defaults a config section that leaves its keys out gets
        assert Weight.polynomial().describe() == "polynomial(t=0)"
        assert Weight.subexponential().describe() == "subexponential(c=1, gamma=0.5)"

    @pytest.mark.parametrize("label,described", [
        ("exp", "exp"), (None, "custom"), ("", "custom")])
    def test_custom_label(self, label, described):
        w = Weight.custom(lambda n: 2.0, label=label)
        assert w.describe() == described
        assert Weight.custom(lambda n: 2.0).describe() == "custom"

    def test_no_field_bypasses_the_checks(self):
        # a kind is its constructor: no settable kind or parameter fields
        with pytest.raises(TypeError):
            Weight(kind="polynomial", t=-3.0)
        with pytest.raises(TypeError):
            Weight(kind="subexponential", c=-1.0, gamma=2.0)
        with pytest.raises(TypeError):
            WindowSpec(kind="gaussian", units=7, path="x")


class TestAdmissibility:
    def test_constant(self):
        rep = check_admissible(Weight.constant(), N_check=20, K_grs=10)
        assert rep.is_even and rep.submultiplicative_ok
        for seq in rep.grs_ratios.values():
            assert np.allclose(seq, 0.0)

    def test_polynomial(self):
        rep = check_admissible(Weight.polynomial(2.0), N_check=50, K_grs=30)
        assert rep.is_even and rep.submultiplicative_ok
        # growth trend decays toward zero
        for seq in rep.grs_ratios.values():
            assert seq[-1] < seq[0]

    def test_exponential_flagged_by_trend(self):
        w = Weight.custom(lambda n: math.exp(abs(n)), label="exp")
        rep = check_admissible(w, N_check=10, K_grs=12)
        for n, seq in rep.grs_ratios.items():
            assert np.allclose(seq, abs(n))

    def test_uneven_custom_weight_flagged(self):
        w = Weight.custom(lambda n: 1.0 + max(n, 0), label="one-sided")
        rep = check_admissible(w, N_check=10, K_grs=5)
        assert not rep.is_even

    def test_non_submultiplicative_flagged(self):
        # 1 + n^2 fails at k = n = 1: nu(2) = 5 > nu(1)^2 = 4
        w = Weight.custom(lambda n: 1.0 + n * n, label="quadratic")
        rep = check_admissible(w, N_check=5, K_grs=5)
        assert not rep.submultiplicative_ok

    def test_preconditions(self):
        with pytest.raises(DomainError):
            check_admissible(Weight.constant(), N_check=0, K_grs=5)
        with pytest.raises(DomainError):
            check_admissible(Weight.constant(), N_check=5, K_grs=1)
