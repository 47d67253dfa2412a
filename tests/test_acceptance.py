"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output) and then asserts, so the suite doubles as a checklist.
Expected values are either exact scalars or come from the independent oracles
(double-sum operator, dense eigendecomposition, dense inverse extraction,
direct summation); fast paths are never checked against themselves.
"""

import time

import numpy as np
import pytest

from gaborwalnut import (
    GaborLattice,
    Signal,
    Weight,
    WindowSpec,
    amalgam_norm,
    build_counterexample,
    build_grid,
    build_window,
    convo_identity_residual,
    counterexample_report,
    dense_matrix,
    dual_summability_report,
    dual_window,
    estimate_convest,
    extract_walnut_from_matrix,
    forbound_check,
    forbound_slack,
    frame_bounds,
    frame_operator_direct,
    frame_operator_walnut,
    signed_range,
    signed_rep,
    tight_window,
    walnut_coefficients,
)


def _verdict(num, name, ok):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def _windows_for(grid, seed):
    rng = np.random.default_rng(seed)
    return {
        "chi": build_window(WindowSpec.characteristic(1.0), grid),
        "gaussian": build_window(WindowSpec.gaussian(width=1.0), grid),
        "hat": build_window(WindowSpec.hat(), grid),
        "random": Signal(grid, rng.standard_normal(grid.L)
                         + 1j * rng.standard_normal(grid.L)),
    }


def test_criterion_01_walnut_matches_direct_oracle():
    worst = 0.0
    for L, s in ((48, 4), (64, 8)):
        grid = build_grid(L, s)
        windows = _windows_for(grid, seed=L)
        rng = np.random.default_rng(1000 + L)
        f = Signal(grid, rng.standard_normal(L) + 1j * rng.standard_normal(L))
        divisors = [d for d in range(1, L + 1) if L % d == 0]
        for name, g in windows.items():
            for a in divisors:
                for b in divisors:
                    lat = GaborLattice(grid, a, b)
                    direct = frame_operator_direct(g, lat, f).samples
                    walnut = frame_operator_walnut(
                        walnut_coefficients(g, lat), f).samples
                    rel = np.linalg.norm(walnut - direct) / \
                        max(np.linalg.norm(direct), 1e-300)
                    worst = max(worst, rel)
    _verdict(1, f"walnut vs direct oracle (worst rel {worst:.2e})",
             worst < 1e-10)


def test_criterion_02_scalar_instance():
    grid = build_grid(8, 4)
    g = build_window(WindowSpec.characteristic(1.0), grid)
    lat = GaborLattice(grid, 2, 2)
    fb = frame_bounds(g, lat, method="dense")
    gd = dual_window(g, lat, method="cg", tol=1e-12)
    gt_dense = tight_window(g, lat, method="dense")
    gt_contour = tight_window(g, lat, method="contour", tol=1e-10)
    ok = (
        abs(fb.A - 2.0) <= 1e-12
        and abs(fb.B - 2.0) <= 1e-12
        and np.max(np.abs(gd.samples - g.samples / 2)) <= 1e-12
        and np.max(np.abs(gt_dense.samples - g.samples / np.sqrt(2))) <= 1e-12
        and np.max(np.abs(gt_contour.samples - g.samples / np.sqrt(2))) <= 1e-10
    )
    _verdict(2, "scalar instance S=2I, dual g/2, tight g/sqrt(2)", ok)


def test_criterion_03_inverse_summability():
    grid = build_grid(256, 16)
    lat = GaborLattice(grid, 8, 8)
    g = build_window(WindowSpec.gaussian(width=1.0), grid)
    w = Weight.polynomial(2.0)
    rep = dual_summability_report(g, lat, w, tol=1e-12)
    gd = dual_window(g, lat, method="cg", tol=1e-12)
    dual_norm = amalgam_norm(gd, lat.a, w)
    tail = rep.tail_fraction(lat.b // 4)
    ok = (
        np.isfinite(rep.weighted_sum)
        and rep.cross_check_error is not None
        and rep.cross_check_error < 1e-8
        and np.isfinite(dual_norm)
        and tail < 0.05
    )
    _verdict(3, f"dual multiplier summability (tail {tail:.2e})", ok)


def test_criterion_04_mixed_bracket_identity(corpus_with_duals):
    worst = 0.0
    worst_neg = np.inf
    for name, g, lat, w, gd in corpus_with_duals:
        res = convo_identity_residual(g, gd, lat)
        worst = max(worst, res.max_abs_error)
        neg = convo_identity_residual(g, g, lat)
        worst_neg = min(worst_neg, neg.max_abs_error)
    ok = worst < 1e-8 and worst_neg > 1e-2
    _verdict(4, f"bracket identity (max {worst:.2e}, negative control "
                f"{worst_neg:.2e})", ok)


def test_criterion_05_norm_estimate(corpus_with_duals):
    ok = True
    for name, g, lat, w, gd in corpus_with_duals:
        lhs, rhs = estimate_convest(g, gd, lat, w)
        if not (np.isfinite(rhs) and lhs <= rhs):
            ok = False
    _verdict(5, "mixed-bracket norm estimate lhs <= rhs", ok)


def test_criterion_06_counterexample():
    s = 8
    grid16 = build_grid(16 * s, s)
    h16 = build_counterexample("harmonic", grid16)
    chi16 = build_window(WindowSpec.characteristic(1.0), grid16)
    lat16 = GaborLattice(grid16, s // 2, 16)
    max_inner, _ = counterexample_report(h16, chi16, lat16, Weight.constant())

    totals = []
    oracle_totals = []
    for K in (8, 16, 32, 64):
        grid = build_grid(K * s, s)
        h = build_counterexample("harmonic", grid)
        chi = build_window(WindowSpec.characteristic(1.0), grid)
        lat = GaborLattice(grid, s // 2, K)
        _, profile = counterexample_report(h, chi, lat, Weight.constant())
        totals.append(profile.norm)
        # independent oracle: two half-unit blocks per unit, amplitudes
        # summed directly over the signed unit range
        oracle_totals.append(
            2.0 * sum(1.0 / (abs(signed_rep(k, K)) + 1) for k in range(K))
        )
    increasing = all(t2 > t1 for t1, t2 in zip(totals, totals[1:]))
    within = all(abs(t - o) / o < 0.05 for t, o in zip(totals, oracle_totals))
    ok = max_inner < 1e-12 and increasing and within
    _verdict(6, f"counterexample (max inner {max_inner:.2e}, totals "
                f"{[round(t, 3) for t in totals]})", ok)


def test_criterion_07_functional_calculus(gauss64):
    g, lat = gauss64
    gt_c = tight_window(g, lat, method="contour", tol=1e-10)
    gt_d = tight_window(g, lat, method="dense")
    rel = np.linalg.norm(gt_c.samples - gt_d.samples) / \
        np.linalg.norm(gt_d.samples)
    fb = frame_bounds(gt_c, lat, method="dense")
    ok = rel <= 1e-8 and abs(fb.A - 1.0) <= 1e-8 and abs(fb.B - 1.0) <= 1e-8
    _verdict(7, f"contour inverse sqrt (rel {rel:.2e}, tight bounds "
                f"[{fb.A:.10f}, {fb.B:.10f}])", ok)


def test_criterion_08_amalgam_boundedness(corpus):
    ok = True
    detail = []
    for name, g, lat, w in corpus:
        ratio = forbound_check(g, lat, w, trials=100, seed=97)
        slack = forbound_slack(walnut_coefficients(g, lat), w)
        detail.append(f"{name}:{ratio:.3f}<=1+{slack:.3f}")
        if ratio > 1.0 + slack:
            ok = False
    _verdict(8, "operator block-norm bound (" + ", ".join(detail) + ")", ok)


def test_criterion_09_operator_structure(corpus):
    ok = True
    for name, g, lat, w in corpus:
        if lat.grid.L > 64:
            continue
        W = walnut_coefficients(g, lat)
        S = dense_matrix(lambda f: frame_operator_walnut(W, f), lat.grid)
        mask = np.zeros(S.shape, dtype=bool)
        rows = np.arange(lat.grid.L)
        for r in signed_range(lat.b):
            mask[rows, (rows - r * lat.M) % lat.grid.L] = True
        off_mass = float(np.abs(S[~mask]).sum())
        W2, off_extract = extract_walnut_from_matrix(S, lat)
        round_trip = np.max(np.abs(W2.table - W.table))
        if off_mass >= 1e-14 or off_extract >= 1e-12 or round_trip >= 1e-12:
            ok = False
    _verdict(9, "strided operator structure and extraction round-trip", ok)


def test_criterion_10_performance_gate():
    L, s, a, b = 4096, 16, 32, 32
    grid = build_grid(L, s)
    lat = GaborLattice(grid, a, b)
    g = build_window(WindowSpec.gaussian(width=1.0), grid)
    W = walnut_coefficients(g, lat)
    rng = np.random.default_rng(5)
    f = Signal(grid, rng.standard_normal(L) + 1j * rng.standard_normal(L))
    t_direct, t_walnut, rels = [], [], []
    for _ in range(3):
        t0 = time.perf_counter()
        y_direct = frame_operator_direct(g, lat, f)
        t_direct.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        y_walnut = frame_operator_walnut(W, f)
        t_walnut.append(time.perf_counter() - t0)
        rels.append(np.linalg.norm(y_walnut.samples - y_direct.samples)
                    / np.linalg.norm(y_direct.samples))
    speedup = sorted(t_direct)[1] / sorted(t_walnut)[1]
    ok = speedup >= 5.0 and max(rels) < 1e-10
    _verdict(10, f"performance gate (speedup {speedup:.0f}x, rel "
                 f"{max(rels):.2e})", ok)
