import csv
import inspect
import json
import re
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from gaborwalnut import build_grid, read_window_file
from gaborwalnut.cli import (
    _SECTIONS,
    _WEIGHT_KINDS,
    _WINDOW_KINDS,
    COMMANDS,
    main,
)


def write_config(path, *, L=8, s=4, a=2, b=2, window="characteristic",
                 window_extra="units = 1", weight="constant", weight_extra="",
                 extra="", out=None, tol=None, seed=1234, grid_extra="",
                 options_extra=""):
    opts = [f"seed = {seed}"]
    if out is not None:
        opts.append(f"out = {out}")
    if tol is not None:
        opts.append(f"tol = {tol}")
    opts.append(options_extra)
    text = f"""
[grid]
L = {L}
s = {s}
{grid_extra}

[window]
kind = {window}
{window_extra}

[lattice]
a = {a}
b = {b}

[weight]
kind = {weight}
{weight_extra}

[options]
{chr(10).join(opts)}

{extra}
"""
    path.write_text(text)
    return str(path)


def test_analyze_scalar_instance(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", out=tmp_path / "out")
    assert main(["analyze", "--config", cfg]) == 0
    rows = list(csv.DictReader((tmp_path / "out" / "bounds.csv").open()))
    assert float(rows[0]["A"]) == pytest.approx(2.0, abs=1e-12)
    assert float(rows[0]["B"]) == pytest.approx(2.0, abs=1e-12)
    walnut_rows = list(csv.DictReader((tmp_path / "out" / "walnut.csv").open()))
    assert len(walnut_rows) == 2  # one row per signed multiplier index
    payload = json.loads((tmp_path / "out" / "analyze.json").read_text())
    assert payload["seed"] == 1234
    assert payload["bounds_method"] == "fiber"
    assert payload["block_size"] == 1
    assert payload["cond"] == pytest.approx(1.0, abs=1e-12)


def test_analyze_gaussian_decaying_sups(tmp_path):
    cfg = write_config(tmp_path / "run.cfg", L=256, s=16, a=8, b=8,
                       window="gaussian", window_extra="width = 1.0",
                       out=tmp_path / "out")
    assert main(["analyze", "--config", cfg]) == 0
    rows = list(csv.DictReader((tmp_path / "out" / "walnut.csv").open()))
    assert len(rows) == 8
    sups = {int(r["r"]): float(r["sup"]) for r in rows}
    assert sups[0] > sups[1] > sups[2]


def test_analyze_gaussian_ratio_finite(tmp_path):
    # the empirical constant is the multiplier sum over the squared window
    # norm, both read off the sums analyze.json reports
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.cfg", L=256, s=16, a=8, b=8,
                       window="gaussian", window_extra="width = 1.0",
                       weight="polynomial", weight_extra="t = 2", out=out)
    assert main(["analyze", "--config", cfg]) == 0
    payload = json.loads((out / "analyze.json").read_text())
    total, ratio = payload["weighted_multiplier_sum"], payload["empirical_ratio"]
    assert 0 < total < np.inf
    assert 0 < ratio < np.inf
    assert ratio == total / payload["window_amalgam_norm"] ** 2


def test_analyze_zero_window_ratio(tmp_path):
    # a zero window has a zero multiplier sum: the ratio reads 0.0, not NaN
    (tmp_path / "zero.txt").write_text("0 0\n" * 8)
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.cfg", window="file",
                       window_extra=f"path = {tmp_path / 'zero.txt'}", out=out)
    assert main(["analyze", "--config", cfg]) == 0
    payload = json.loads((out / "analyze.json").read_text())
    assert payload["weighted_multiplier_sum"] == 0.0
    assert payload["empirical_ratio"] == 0.0


def test_analyze_reports_non_frame_without_failing(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.cfg", a=4, b=4, out=out)
    assert main(["analyze", "--config", cfg]) == 0
    rows = list(csv.DictReader((out / "bounds.csv").open()))
    assert rows[0]["not_a_frame"] == "1"
    text = (out / "analyze.json").read_text()
    assert "Infinity" not in text and json.loads(text)["cond"] is None


def test_analyze_non_frame_writes_nothing_to_stderr(tmp_path, capsys):
    # analyze reads the public frame_bounds, which warns on a non-frame;
    # the command records the verdict and lets no warning through
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.cfg", a=4, b=4, out=out)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["analyze", "--config", cfg]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads((out / "analyze.json").read_text())["not_a_frame"]


def test_invalid_lattice_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", a=3, out=tmp_path / "out")
    assert main(["analyze", "--config", cfg]) == 2
    assert "DivisibilityError" in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["analyze", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "ParseError" in capsys.readouterr().err


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("case", ["no_window_section", "not_utf8"])
def test_malformed_config_exits_2(tmp_path, capsys, command, case):
    cfg = tmp_path / "run.cfg"
    write_config(cfg, out=tmp_path / "out")
    text = cfg.read_bytes()
    if case == "no_window_section":
        text = text.replace(b"[window]\nkind = characteristic\nunits = 1\n", b"")
    else:
        text = b"# caf\xe9\n" + text
    cfg.write_bytes(text)
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "ParseError" in err and "Traceback" not in err
    assert ("'window'" if case == "no_window_section" else "utf-8") in err


def test_dual_scalar_instance(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.cfg", out=out)
    assert main(["dual", "--config", cfg]) == 0
    gd = read_window_file(str(out / "dual_window.txt"), build_grid(8, 4))
    expect = np.zeros(8, dtype=complex)
    expect[:4] = 0.5
    assert np.max(np.abs(gd.samples - expect)) < 1e-12
    payload = json.loads((out / "dual.json").read_text())
    assert payload["reconstruction_residual"] < 1e-10
    assert payload["solver_converged"] is True
    assert (out / "summability.json").exists()
    assert (out / "solver.csv").exists()


def _count_solves(monkeypatch):
    """Record the method of every solve the CLI makes: each goes through
    ``invert.inverse_solve``, on the table the window keeps."""
    from gaborwalnut import cli, invert
    real = invert.inverse_solve
    signature = inspect.signature(real)
    solves = []

    def counting(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        solves.append(bound.arguments["method"])
        return real(*args, **kwargs)

    monkeypatch.setattr(invert, "inverse_solve", counting)
    monkeypatch.setattr(cli, "inverse_solve", counting)
    return solves


def _gauss256_config(tmp_path, name, extra=""):
    out = tmp_path / name
    cfg = write_config(tmp_path / f"{name}.cfg", L=256, s=16, a=8, b=8,
                       window="gaussian", window_extra="width = 1.0",
                       weight="polynomial", weight_extra="t = 2", out=out,
                       extra=extra)
    return cfg, out


def summability_payload(report):
    """The ``summability.json`` payload of a ``SummabilityReport``."""
    lat = report.lattice
    return {
        "lattice": {"L": lat.grid.L, "s": lat.grid.s, "a": lat.a, "b": lat.b},
        "weight": report.weight,
        "per_r": [{"r": r, "sup": sup, "nu": nu, "product": prod}
                  for (r, sup, nu, prod) in report.per_r],
        "weighted_sum": report.weighted_sum,
        "cross_check_error": report.cross_check_error,
    }


@pytest.mark.parametrize("method", [None, "cg", "dense"])
def test_dual_solves_once(tmp_path, monkeypatch, method):
    # one solve, for dual_window.txt; the summability report is S^-1's
    # table read off the inverted blocks, whatever method solved the dual
    from gaborwalnut import (GaborLattice, Weight, WindowSpec, build_window,
                             dual_summability_report, reports)
    solves = _count_solves(monkeypatch)
    extra = "" if method is None else f"[dual]\nmethod = {method}"
    cfg, out = _gauss256_config(tmp_path, "out", extra)
    assert main(["dual", "--config", cfg]) == 0
    assert solves == [method]
    grid = build_grid(256, 16)
    g = build_window(WindowSpec.gaussian(width=1.0), grid)
    expect = dual_summability_report(g, GaborLattice(grid, 8, 8),
                                     Weight.polynomial(2.0))
    reports.write_json(summability_payload(expect), tmp_path / "expect.json")
    assert (out / "summability.json").read_bytes() == \
        (tmp_path / "expect.json").read_bytes()


def test_summability_json_same_for_every_method_and_command(tmp_path,
                                                            monkeypatch):
    # dual under fiber, cg and dense and tight under fiber, contour and
    # dense write one summability.json; tight solves nothing
    solves = _count_solves(monkeypatch)
    written = []
    for which, methods in (("dual", ("fiber", "cg", "dense")),
                           ("tight", ("fiber", "contour", "dense"))):
        for method in methods:
            cfg, out = _gauss256_config(tmp_path, f"{which}-{method}",
                                        f"[{which}]\nmethod = {method}")
            del solves[:]
            assert main([which, "--config", cfg]) == 0
            assert solves == ([method] if which == "dual" else []), method
            written.append((out / "summability.json").read_bytes())
    assert len(set(written)) == 1


# (tables, stacks, eigh, eigvalsh) built by each command on an L = 1536
# Gaussian with a = b = 32: M = 48, so p = 2, above DENSE_LIMIT.  Each
# builds one operator value per window, however many layers ask for it;
# tight builds a second table for gt's self-pair defect.  The S^-1 report
# decomposes W first, so the cg dual's not-a-frame verdict reads the
# eigenvalues W holds: no eigvalsh.
@pytest.mark.parametrize("command,counts", [
    ("analyze", (1, 1, 0, 1)),
    ("dual", (1, 1, 1, 0)),
    ("conjecture", (1, 1, 1, 0)),
    ("tight", (2, 1, 1, 0)),
    ("verify", (1, 1, 0, 1)),
    ("dual cg", (1, 1, 1, 0)),
])
def test_each_command_builds_one_operator_value(tmp_path, monkeypatch,
                                                command, counts):
    from gaborwalnut import cli, diagnostics, frame_op, invert
    command, _, method = command.partition(" ")  # "dual cg": that method
    calls = dict.fromkeys(("tables", "stacks", "eigh", "eigvalsh"), 0)

    def counted(key, real):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)
        return wrapper

    real_tables, built = frame_op.walnut_coefficients, []

    def tables(*args):
        # a table is counted when it is new: a held one comes back as is
        W = real_tables(*args)
        if not any(W is seen for seen in built):
            built.append(W)
            calls["tables"] += 1
        return W

    for module in (cli, diagnostics, frame_op, invert):
        monkeypatch.setattr(module, "walnut_coefficients", tables)
    monkeypatch.setattr(frame_op, "_zak_blocks",
                        counted("stacks", frame_op._zak_blocks))
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name,
                            counted(name, getattr(np.linalg, name)))
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.cfg", L=1536, s=16, a=32, b=32,
                       window="gaussian", window_extra="width = 1.0",
                       weight="polynomial", weight_extra="t = 2", out=out,
                       extra=f"[{command}]\nmethod = {method}" if method
                       else "")
    assert main([command, "--config", cfg]) == 0
    assert tuple(calls.values()) == counts


@pytest.mark.parametrize("command,method", [("dual", "dense"),
                                            ("tight", "dense"),
                                            ("dual", None)])
def test_dense_matrix_assembled_once(tmp_path, monkeypatch, command, method):
    # the dense value, W._dense, is built once, by the dense method or by
    # the default dual's S^-1 cross-check, and holds the (M, b, b) coset
    # blocks; no command assembles the L x L matrix of dense_frame_matrix
    import gaborwalnut
    from gaborwalnut import frame_op
    built = []
    init = frame_op._Dense.__init__

    def counted(self, W):
        init(self, W)
        built.append(self)

    def refuse(g, lat):
        raise AssertionError("a command assembled the L x L matrix")

    monkeypatch.setattr(frame_op._Dense, "__init__", counted)
    for module in (gaborwalnut, frame_op):
        monkeypatch.setattr(module, "dense_frame_matrix", refuse)
    cfg, _ = _gauss256_config(
        tmp_path, "out", f"[{command}]\nmethod = {method}" if method else "")
    assert main([command, "--config", cfg]) == 0
    assert [D.fibers().shape for D in built] == [(32, 8, 8)]  # M = 32, b = 8


def test_conjecture_reads_the_summability_series(tmp_path):
    # the stride-M series of conjecture and the summability report of dual
    # read one S^-1 table
    cfg, out = _gauss256_config(tmp_path, "out")
    assert main(["dual", "--config", cfg]) == 0
    assert main(["conjecture", "--config", cfg]) == 0
    summ = json.loads((out / "summability.json").read_text())
    conj = json.loads((out / "conjecture.json").read_text())
    assert conj["sum_alpha_blocks"] == summ["weighted_sum"]


def test_dual_not_a_frame_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", a=4, b=4, out=tmp_path / "out")
    assert main(["dual", "--config", cfg]) == 3
    assert "NotAFrameError" in capsys.readouterr().err


def test_dual_method_override_and_convergence_exit_5(tmp_path, capsys,
                                                     monkeypatch):
    from gaborwalnut import invert
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.cfg", L=64, s=8, a=4, b=4,
                       window="gaussian", window_extra="width = 1.0", out=out,
                       extra="[dual]\nmethod = dense\n\n[tight]\nmethod = contour")
    assert main(["dual", "--config", cfg]) == 0
    rows = list(csv.DictReader((out / "solver.csv").open()))
    assert len(rows) == 1  # the dense solve reports a single residual
    # one quadrature level can never agree with a previous one
    monkeypatch.setattr(invert, "CONTOUR_NODES_MAX", invert.CONTOUR_NODES_START)
    assert main(["tight", "--config", cfg]) == 5
    err = capsys.readouterr().err
    assert "ConvergenceError" in err and "B/A" in err


def test_tight_scalar_instance(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.cfg", out=out)
    assert main(["tight", "--config", cfg]) == 0
    gt = read_window_file(str(out / "tight_window.txt"), build_grid(8, 4))
    expect = np.zeros(8, dtype=complex)
    expect[:4] = 1 / np.sqrt(2)
    assert np.max(np.abs(gt.samples - expect)) < 1e-10
    payload = json.loads((out / "tight.json").read_text())
    assert payload["reconstruction_residual"] < 1e-8


def test_verify_scalar_instance(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.cfg", out=out, tol=1e-10)
    assert main(["verify", "--config", cfg]) == 0
    payload = json.loads((out / "verify.json").read_text())
    assert payload["max_abs_error"] < 1e-12
    assert payload["norm_estimate_lhs"] <= payload["norm_estimate_rhs"]


def test_verify_dual_from_file(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.cfg", out=out)
    assert main(["dual", "--config", cfg]) == 0
    dual_path = out / "dual_window.txt"
    cfg2 = write_config(tmp_path / "run2.cfg", out=tmp_path / "out2",
                        tol=1e-10,
                        extra=f"[verify]\ndual = file\npath = {dual_path}")
    assert main(["verify", "--config", cfg2]) == 0
    payload = json.loads((tmp_path / "out2" / "verify.json").read_text())
    assert payload["dual_mode"] == "file"
    assert payload["max_abs_error"] < 1e-10


def test_verify_file_dual_without_path_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", L=64, s=8, a=4, b=4,
                       window="gaussian", window_extra="width = 1.0",
                       out=tmp_path / "out", extra="[verify]\ndual = file")
    assert main(["verify", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "ParseError" in err and "'path'" in err


def test_verify_file_dual_not_utf8_exits_2(tmp_path, capsys):
    dual_path = tmp_path / "latin1.txt"
    dual_path.write_bytes(b"1 0\n" * 7 + b"0 \xe9\n")
    cfg = write_config(tmp_path / "run.cfg", out=tmp_path / "out",
                       extra=f"[verify]\ndual = file\npath = {dual_path}")
    assert main(["verify", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "ParseError" in err and "not UTF-8 text" in err
    assert "Traceback" not in err


# (window kind, window keys, weight kind, weight keys), with {v} the value
NON_FINITE_KEYS = {
    "units": ("characteristic", "units = {v}", "constant", ""),
    "width": ("gaussian", "width = {v}", "constant", ""),
    "center": ("gaussian", "width = 1.0\ncenter = {v}", "constant", ""),
    "t": ("characteristic", "units = 1", "polynomial", "t = {v}"),
    "c": ("characteristic", "units = 1", "subexponential", "c = {v}"),
}


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", sorted(NON_FINITE_KEYS))
@pytest.mark.parametrize("command", ["analyze", "dual", "tight", "conjecture"])
def test_non_finite_parameter_exits_2(tmp_path, capsys, command, key, value):
    window, window_extra, weight, weight_extra = NON_FINITE_KEYS[key]
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.cfg", L=64, s=8, a=4, b=4,
                       window=window, window_extra=window_extra.format(v=value),
                       weight=weight, weight_extra=weight_extra.format(v=value),
                       out=out)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "DomainError" in err and "must be finite" in err
    assert not out.exists()


def test_verify_corrupted_dual_exits_4(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.cfg", out=out, tol=1e-10,
                       extra="[verify]\ndual = generator")
    assert main(["verify", "--config", cfg]) == 4
    assert "ContractViolationError" in capsys.readouterr().err
    payload = json.loads((out / "verify.json").read_text())
    assert payload["passed"] is False


@pytest.mark.parametrize("mode,code", [("canonical", 0), ("generator", 4)])
def test_verify_above_dense_limit(tmp_path, mode, code):
    # L = 4096 (a = 16, b = 32): the identity over N = 256 time shifts
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.cfg", L=4096, s=16, a=16, b=32,
                       window="gaussian", window_extra="width = 1.0",
                       weight="polynomial", weight_extra="t = 2", out=out,
                       tol=1e-10, extra=f"[verify]\ndual = {mode}")
    assert main(["verify", "--config", cfg]) == code
    payload = json.loads((out / "verify.json").read_text())
    assert payload["passed"] is (code == 0)
    assert payload["norm_estimate_lhs"] <= payload["norm_estimate_rhs"]
    if code == 0:
        assert payload["max_abs_error"] < 1e-12
    else:
        assert payload["max_abs_error"] > 1e-2


def _forbid_whole_tables(monkeypatch, command):
    """Make the whole-table builder of ``bracket`` raise, in every module of
    the package that holds it."""
    from gaborwalnut import bracket

    def whole_table(f, h, lat):
        raise AssertionError(f"{command} built a whole bracket table")

    builder = bracket._bracket_table
    for name, mod in list(sys.modules.items()):
        if name.startswith("gaborwalnut") \
                and getattr(mod, "_bracket_table", None) is builder:
            monkeypatch.setattr(mod, "_bracket_table", whole_table)


def test_verify_builds_no_whole_bracket_table(tmp_path, monkeypatch):
    # verify streams the three tables by column cosets; the written numbers
    # are those of the two public functions
    import argparse

    from gaborwalnut import convo_identity_residual, estimate_convest
    from gaborwalnut.cli import load_config

    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.cfg", L=256, s=16, a=8, b=8,
                       window="gaussian", window_extra="width = 1.0",
                       weight="polynomial", weight_extra="t = 2", out=out,
                       tol=1e-10, extra="[verify]\ndual = generator")
    _forbid_whole_tables(monkeypatch, "verify")
    assert main(["verify", "--config", cfg]) == 4
    run = load_config(cfg, argparse.Namespace(out=None, seed=None, tol=None))
    g, lat = run.window, run.lattice
    ident = convo_identity_residual(g, g, lat)
    lhs, rhs = estimate_convest(g, g, lat, run.weight)
    payload = json.loads((out / "verify.json").read_text())
    assert (payload["max_abs_error"], payload["worst_k"], payload["worst_x"]) \
        == (ident.max_abs_error, ident.worst_k, ident.worst_x)
    assert (payload["norm_estimate_lhs"], payload["norm_estimate_rhs"]) == (lhs, rhs)
    # M = 32 and gcd(a, M) = 8: k*a mod M takes P = 4 values
    assert payload["residue_classes"] == 4


def test_conjecture_builds_no_whole_bracket_table(tmp_path, monkeypatch):
    # conjecture reads the stride-a series of the dual a residue class at a
    # time; the written sum is the one priced off the whole table
    from gaborwalnut import (GaborLattice, Weight, WindowSpec, bracket,
                             build_window, dual_window)
    from gaborwalnut.amalgam import _profile

    cfg, out = _gauss256_config(tmp_path, "out")
    grid = build_grid(256, 16)
    lat = GaborLattice(grid, 8, 8)
    gd = dual_window(build_window(WindowSpec.gaussian(width=1.0), grid), lat,
                     tol=1e-12)
    whole = _profile(bracket._bracket_table(gd, gd, lat),
                     Weight.polynomial(2.0)).norm
    _forbid_whole_tables(monkeypatch, "conjecture")
    assert main(["conjecture", "--config", cfg]) == 0
    payload = json.loads((out / "conjecture.json").read_text())
    assert payload["sum_invbeta_blocks"] == whole


@pytest.mark.parametrize("scale", [1e155, 1e300])
def test_verify_dual_with_non_finite_brackets_exits_2(tmp_path, capsys, scale):
    # a finite dual file whose bracket [gd, T gd] overflows: exit 2 naming
    # that table, with no numpy warning, no traceback and no verify.json
    from gaborwalnut import Signal, WindowSpec, build_window
    from gaborwalnut.reports import write_window_file

    grid = build_grid(256, 16)
    g = build_window(WindowSpec.gaussian(width=1.0), grid)
    dual_path = tmp_path / "huge.txt"
    write_window_file(Signal(grid, g.samples * scale), dual_path)
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.cfg", L=256, s=16, a=8, b=8,
                       window="gaussian", window_extra="width = 1.0", out=out,
                       extra=f"[verify]\ndual = file\npath = {dual_path}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "DomainError" in err and "[gd, T gd] is not finite" in err
    assert "Traceback" not in err and "overflows" not in err
    assert not (out / "verify.json").exists()


def test_counterexample(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.cfg", L=128, s=8, a=4, b=16, out=out)
    assert main(["counterexample", "--config", cfg]) == 0
    payload = json.loads((out / "counterexample.json").read_text())
    assert payload["max_inner_product"] < 1e-12
    assert (out / "growth.svg").read_text().startswith("<svg")
    assert (out / "profile.csv").exists()


def test_counterexample_minimal(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.cfg", L=16, s=4, a=2, b=4, out=out)
    assert main(["counterexample", "--config", cfg]) == 0
    rows = list(csv.DictReader((out / "profile.csv").open()))
    assert len(rows) == 8  # 4 units, half-unit blocks


def test_conjecture(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.cfg", out=out)
    assert main(["conjecture", "--config", cfg]) == 0
    payload = json.loads((out / "conjecture.json").read_text())
    assert payload["sum_alpha_blocks"] == pytest.approx(0.5)
    assert payload["sum_invbeta_blocks"] == pytest.approx(0.75)
    assert (out / "bracket_sums.svg").exists()


def test_bench_single_case(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.cfg", L=64, s=8, a=4, b=4,
                       window="gaussian", window_extra="width = 1.0", out=out,
                       extra="[bench]\nreps = 3")
    assert main(["bench", "--config", cfg]) == 0
    lines = (out / "bench.csv").read_text().strip().splitlines()
    assert lines[0].startswith("# seed=")
    assert lines[1] == "L,a,b,t_direct,t_walnut,speedup"
    assert len(lines) == 3
    assert lines[2].startswith("64,4,4,")


def test_bench_zero_window_passes_without_warning(tmp_path, capsys):
    # a Gaussian centred at 1e300 is zero on the grid: both outputs are zero,
    # which agree, with no 0/0 (pytest raises a RuntimeWarning)
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.cfg", L=256, s=16, a=8, b=8,
                       window="gaussian", window_extra="center = 1e300",
                       out=out)
    assert main(["bench", "--config", cfg]) == 0
    assert capsys.readouterr().err == ""
    assert (out / "bench.csv").read_text().splitlines()[2].startswith(
        "256,8,8,")


def test_bench_nan_walnut_output_exits_4(tmp_path, monkeypatch, capsys):
    from gaborwalnut import Signal, cli
    real = cli.frame_operator_walnut

    def nan_walnut(W, f):
        y = real(W, f)
        return Signal(y.grid, np.full_like(y.samples, np.nan))

    monkeypatch.setattr(cli, "frame_operator_walnut", nan_walnut)
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.cfg", L=64, s=8, a=4, b=4,
                       window="gaussian", window_extra="width = 1.0", out=out)
    assert main(["bench", "--config", cfg]) == 4
    assert capsys.readouterr().err.startswith(
        "ContractViolationError: walnut/direct mismatch nan at L=64")
    assert list(out.iterdir()) == []


def test_bench_rejects_too_few_reps(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", L=64, s=8, a=4, b=4,
                       window="gaussian", window_extra="width = 1.0",
                       out=tmp_path / "out", extra="[bench]\nreps = 2")
    assert main(["bench", "--config", cfg]) == 2
    assert "DomainError" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["cases = 64:8:x:4", "cases = 64:8:4",
                                   "reps = three"])
def test_bench_bad_field_exits_2(tmp_path, capsys, field):
    cfg = write_config(tmp_path / "run.cfg", L=64, s=8, a=4, b=4,
                       window="gaussian", window_extra="width = 1.0",
                       out=tmp_path / "out", extra=f"[bench]\n{field}")
    assert main(["bench", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "ParseError" in err and "Traceback" not in err


def test_bench_refuses_a_case_above_the_size_cap(tmp_path, capsys):
    # 16384:16:32:64 sums M*N*L = 2**31 terms, where one direct apply takes
    # seconds; the small case before it is not timed either
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.cfg", L=64, s=8, a=4, b=4,
                       window="gaussian", window_extra="width = 1.0", out=out,
                       extra="[bench]\ncases = 64:8:4:4, 16384:16:32:64")
    t0 = time.perf_counter()
    assert main(["bench", "--config", cfg]) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith("SizeError: bench case 16384:16:32:64 ")
    assert f"M*N*L = {2**31} terms, above the limit {2**26}" in err
    assert not (out / "bench.csv").exists()


def test_seed_override(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.cfg", out=out, seed=1)
    assert main(["analyze", "--config", cfg, "--seed", "42"]) == 0
    payload = json.loads((out / "analyze.json").read_text())
    assert payload["seed"] == 42
    # the parser is shared between calls: no override carries over
    assert main(["analyze", "--config", cfg]) == 0
    payload = json.loads((out / "analyze.json").read_text())
    assert payload["seed"] == 1


@pytest.mark.parametrize("command", ["dual", "tight", "bench"])
def test_negative_seed_exits_2(tmp_path, capsys, command):
    cfg = write_config(tmp_path / "run.cfg", L=64, s=8, a=4, b=4,
                       window="gaussian", window_extra="width = 1.0",
                       out=tmp_path / "out", seed=-3)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "DomainError" in err and "Traceback" not in err
    cfg = write_config(tmp_path / "run2.cfg", L=64, s=8, a=4, b=4,
                       window="gaussian", window_extra="width = 1.0",
                       out=tmp_path / "out")
    assert main([command, "--config", cfg, "--seed", "-3"]) == 2
    assert "DomainError" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_weight_overflowing_on_the_grid_exits_2(tmp_path, capsys, command):
    # nu(n) = (1 + |n|)**1e6 is finite as a parameter but infinite at n = 1
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.cfg", L=64, s=8, a=4, b=4,
                       window="gaussian", window_extra="width = 1.0",
                       weight="polynomial", weight_extra="t = 1e6", out=out)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "DomainError" in err and "overflows" in err
    assert "Traceback" not in err
    assert not (out / f"{command}.json").exists()


@pytest.mark.parametrize("command", ["analyze", "dual", "tight",
                                     "conjecture"])
def test_failed_check_leaves_no_output(tmp_path, capsys, command):
    # nu(n) = exp(1000 * |n|**0.9) overflows on the rows of the tables; every
    # value is computed before the first file is written
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.cfg", L=256, s=16, a=8, b=8,
                       window="gaussian", window_extra="width = 1.0",
                       weight="subexponential",
                       weight_extra="c = 1000\ngamma = 0.9", out=out)
    assert main([command, "--config", cfg]) == 2
    assert re.search(r"DomainError: weight .* overflows",
                     capsys.readouterr().err)
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["analyze", "dual", "tight",
                                     "conjecture"])
def test_overflowing_walnut_table_exits_2(tmp_path, capsys, command):
    # a finite window file whose Walnut products overflow: one message that
    # names the table, no warning and no file
    from gaborwalnut import Signal, WindowSpec, build_window, reports
    grid = build_grid(256, 16)
    g = build_window(WindowSpec.gaussian(width=1.0), grid)
    window = tmp_path / "window.txt"
    reports.write_window_file(Signal(grid, 1e300 * g.samples), window)
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.cfg", L=256, s=16, a=8, b=8,
                       window="file", window_extra=f"path = {window}",
                       out=out)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "DomainError: Walnut table is not finite: products overflow"]
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["analyze", "dual"])
def test_non_finite_window_file_exits_2(tmp_path, capsys, command):
    window = tmp_path / "window.txt"
    lines = ["1.0 0.0"] * 8
    lines[2] = "nan 0.0"
    window.write_text("\n".join(lines) + "\n")
    cfg = write_config(tmp_path / "run.cfg", window="file",
                       window_extra=f"path = {window}", out=tmp_path / "out")
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "ParseError" in err and "window.txt:3" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_bad_tolerance_exits_2(tmp_path, capsys, tol):
    cfg = write_config(tmp_path / "run.cfg", out=tmp_path / "out", tol=tol)
    assert main(["dual", "--config", cfg]) == 2
    assert "DomainError" in capsys.readouterr().err
    cfg = write_config(tmp_path / "run2.cfg", out=tmp_path / "out")
    assert main(["dual", "--config", cfg, "--tol", tol]) == 2
    assert "DomainError" in capsys.readouterr().err


@pytest.mark.parametrize("command,method", [("dual", "richardson"),
                                            ("dual", "contour"),
                                            ("tight", "cg")])
def test_unknown_method_exits_2(tmp_path, capsys, command, method):
    cfg = write_config(tmp_path / "run.cfg", out=tmp_path / "out",
                       extra=f"[{command}]\nmethod = {method}")
    assert main([command, "--config", cfg]) == 2
    assert "ParseError" in capsys.readouterr().err


@pytest.mark.parametrize("command,method", [("dual", "fiber"), ("dual", "cg"),
                                            ("dual", "dense"), ("tight", "fiber"),
                                            ("tight", "contour"),
                                            ("tight", "dense")])
def test_each_library_method_accepted(tmp_path, command, method):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.cfg", out=out,
                       extra=f"[{command}]\nmethod = {method}")
    assert main([command, "--config", cfg]) == 0
    payload = json.loads((out / f"{command}.json").read_text())
    assert payload["reconstruction_residual"] < 1e-8


@pytest.mark.parametrize("command", ["dual", "tight"])
def test_dense_not_a_frame_above_dense_limit_exits_3(tmp_path, capsys,
                                                     command):
    # the S^-1 report's verdict comes before the dense method's size cap
    cfg = write_config(tmp_path / "run.cfg", L=2048, s=16, a=64, b=64,
                       window="gaussian", window_extra="width = 1.0",
                       out=tmp_path / "out",
                       extra=f"[{command}]\nmethod = dense")
    assert main([command, "--config", cfg]) == 3
    assert "NotAFrameError" in capsys.readouterr().err


def test_tight_not_a_frame_above_dense_limit_exits_3(tmp_path, capsys):
    # redundancy 1/2 at L = 2048: the fiber bounds see the rank deficit
    cfg = write_config(tmp_path / "run.cfg", L=2048, s=16, a=64, b=64,
                       window="gaussian", window_extra="width = 1.0",
                       out=tmp_path / "out")
    assert main(["tight", "--config", cfg]) == 3
    assert "NotAFrameError" in capsys.readouterr().err


def test_fiber_above_its_limit_exits_2(tmp_path, capsys, monkeypatch):
    from gaborwalnut import frame_op
    monkeypatch.setattr(frame_op, "FIBER_LIMIT", 8)  # the instance has L*p = 16
    cfg = write_config(tmp_path / "run.cfg", L=16, out=tmp_path / "out",
                       extra="[dual]\nmethod = fiber")
    assert main(["dual", "--config", cfg]) == 2
    assert "SizeError" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "dual", "tight",
                                     "conjecture"])
def test_default_dual_above_fiber_limit_exits_2(tmp_path, capsys,
                                                monkeypatch, command):
    # every default command refuses above the cap and names it; none offers
    # a library method (power_iteration) or argument (bounds=) that the CLI
    # cannot pass
    from gaborwalnut import frame_op
    monkeypatch.setattr(frame_op, "FIBER_LIMIT", 8)  # the instance has L*p = 16
    cfg = write_config(tmp_path / "run.cfg", L=16, out=tmp_path / "out")
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "SizeError" in err and "L*p <= 8" in err
    assert "power_iteration" not in err and "bounds=" not in err


@pytest.mark.parametrize("command", ["dual", "tight"])
def test_dual_and_tight_at_north_star_size(tmp_path, command):
    # L = 65536, b = 64: the residual is the exact duality defect, O(L*b)
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.cfg", L=65536, s=16, a=32, b=64,
                       window="gaussian", window_extra="width = 1.0",
                       weight="polynomial", weight_extra="t = 2", out=out)
    assert main([command, "--config", cfg]) == 0
    payload = json.loads((out / f"{command}.json").read_text())
    assert payload["reconstruction_residual"] <= 1e-12


# write_config keywords that put one fault into a config of a Gaussian window
# and a constant weight, and what the message must name: the key (lower-cased,
# as configparser reads it) and the keys it may be, or the section or value.
# Every command reads every section, so each fault stops each command.
STRAY_KEYS = {
    "window-misspelt": (dict(window_extra="widht = 3.0"), "key 'widht'",
                        "it takes kind, width, center"),
    "window-other-kind": (dict(window="hat", window_extra="units = 1"),
                          "key 'units'", "it takes kind"),
    "weight-other-kind": (dict(weight="polynomial",
                               weight_extra="t = 2\ngamma = 0.5"),
                          "key 'gamma'", "it takes kind, t"),
    "weight-constant": (dict(weight_extra="t = 2"), "key 't'", "it takes kind"),
    "grid-misspelt": (dict(grid_extra="LL = 256"), "key 'll'", "it takes L, s"),
    "options-misspelt": (dict(options_extra="toll = 1e-3\nsed = 5"),
                         "key 'toll'", "it takes tol, seed, out"),
    "dual-misspelt": (dict(extra="[dual]\nmethd = cg"), "key 'methd'",
                      "it takes method"),
    "tight-misspelt": (dict(extra="[tight]\nmethd = dense"), "key 'methd'",
                       "it takes method"),
    "verify-misspelt": (dict(extra="[verify]\ndula = generator"),
                        "key 'dula'", "it takes dual"),
    "bench-misspelt": (dict(extra="[bench]\nrep = 5"), "key 'rep'",
                       "it takes reps, cases"),
    "unknown-section": (dict(extra="[daul]\nmethod = cg"),
                        "[daul] is not a section", "the sections are grid,"),
    "bench-bad-case": (dict(extra="[bench]\ncases = 64:8:x:4"),
                       "bench case '64:8:x:4'", "is not L:s:a:b"),
}


@pytest.mark.parametrize("case", sorted(STRAY_KEYS))
@pytest.mark.parametrize("command", ["analyze", "dual", "verify"])
def test_key_the_kind_does_not_take_exits_2(tmp_path, capsys, command, case):
    keys, *named = STRAY_KEYS[case]
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.cfg", **{
        "L": 256, "s": 16, "a": 8, "b": 8, "window": "gaussian",
        "window_extra": "width = 1.0", "out": out, **keys})
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "ParseError" in err and "Traceback" not in err
    assert all(piece in err for piece in named), err
    assert not out.exists()


def test_default_section_keys_are_not_the_sections_own(tmp_path):
    # units and note reach [window] and [weight] from [DEFAULT] without
    # being refused; t from [DEFAULT] is the polynomial weight's exponent
    runs = {}
    for name, weight_extra, default in (("own", "t = 2", ""),
                                        ("default", "", "t = 2\n")):
        cfg = tmp_path / f"{name}.cfg"
        write_config(cfg, L=256, s=16, a=8, b=8, window="gaussian",
                     window_extra="width = 1.0", weight="polynomial",
                     weight_extra=weight_extra, out=tmp_path / name)
        cfg.write_text(f"[DEFAULT]\nunits = 1\nnote = shared\n{default}"
                       + cfg.read_text())
        assert main(["analyze", "--config", str(cfg)]) == 0
        runs[name] = (tmp_path / name / "analyze.json").read_text()
    assert runs["own"] == runs["default"]


@pytest.mark.parametrize("section,kind,message", [
    ("window", "gauss", "unknown window kind 'gauss'"),
    ("weight", "exponential", "unknown weight kind 'exponential'"),
    ("window", "file", "[window] kind = file: WindowSpec.from_file() missing 1 "
                       "required positional argument: 'path'"),
])
def test_unknown_kind_or_missing_key_exits_2(tmp_path, capsys, section, kind,
                                             message):
    keys = {"window": kind, "window_extra": ""} if section == "window" \
        else {"weight": kind}
    cfg = write_config(tmp_path / "run.cfg", out=tmp_path / "out", **keys)
    assert main(["analyze", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "ParseError" in err and message in err


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_ini():
    text = README.read_text(encoding="utf-8")
    return text.split("```ini\n", 1)[1].split("```", 1)[0]


def _readme_config_vocabulary():
    """``{section: keys}`` of the README's ini block, commented-out keys
    included; ``{(section, key): options}`` from its comments
    (``key = value  # a | b | c``); and ``{(section, kind): keys cell}``
    from its table of window and weight kinds."""
    keys, options, section = {}, {}, None
    for line in _readme_ini().splitlines():
        if line.startswith("["):
            section = line.split("]")[0][1:]
            keys[section] = set()
        elif "=" in line:
            key = line.lstrip("# ").split("=")[0].strip()
            keys[section].add(key)
            if "|" in line and not line.startswith("#"):
                options[section, key] = {
                    word.split()[0] for word in line.split("#", 1)[1].split("|")}
    kinds = {}
    for row in re.findall(r"^\| `\[(\w+)\]` \| `(\w+)`[^|]*\|([^|]*)\|",
                          README.read_text(encoding="utf-8"), re.MULTILINE):
        kinds[row[0], row[1]] = row[2]
    return keys, options, kinds


def test_readme_names_the_cli_vocabulary():
    keys, options, kinds = _readme_config_vocabulary()
    # each section with exactly the keys of the CLI's table, and each key that
    # chooses a kind with exactly that section's kinds
    assert keys == {name: {key for key in (kind_key, *(
        key for _, taken in section_kinds.values() for key in taken)) if key}
        for name, (kind_key, section_kinds) in _SECTIONS.items()}
    for name, (kind_key, section_kinds) in _SECTIONS.items():
        if kind_key:
            assert options[name, kind_key] == set(section_kinds) - {None}
    tables = {"window": _WINDOW_KINDS, "weight": _WEIGHT_KINDS}
    assert set(kinds) == {(section, kind) for section, table in tables.items()
                          for kind in table}
    # each key with the default that its constructor gives it
    for (section, kind), cell in kinds.items():
        make, keys = tables[section][kind]
        params = inspect.signature(make).parameters
        listed = re.findall(r"`(\w+)(?: = ([^`]+))?`", cell)
        assert [name for name, _ in listed] == list(keys), (section, kind)
        for name, default in listed:
            expect = params[name].default
            if expect is None or expect is params[name].empty:
                assert default == "", (section, kind, name)
            else:
                assert default == repr(expect), (section, kind, name)


def test_readme_config_runs(tmp_path):
    # the README's ini block as it stands, writing under tmp_path: every
    # section of it passes the checks that every command makes
    ini = _readme_ini()
    assert "\nout = gw-out\n" in ini
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(ini.replace("\nout = gw-out\n",
                               f"\nout = {tmp_path / 'gw-out'}\n"))
    assert main(["analyze", "--config", str(cfg)]) == 0
    assert (tmp_path / "gw-out" / "analyze.json").exists()


def test_percent_in_a_value_is_read_verbatim(tmp_path):
    # no interpolation: '%' in a window path and an output directory is a
    # character like any other
    window = tmp_path / "w100%.txt"
    window.write_text("1.0 0.0\n" * 4 + "0.0 0.0\n" * 4)
    outs = tmp_path / "gw-100%", tmp_path / "plain"
    write_config(tmp_path / "file.cfg", window="file",
                 window_extra=f"path = {window}", out=outs[0])
    write_config(tmp_path / "plain.cfg", out=outs[1])
    for name, out in zip(("file", "plain"), outs):
        assert main(["analyze", "--config", str(tmp_path / f"{name}.cfg")]) == 0
    # the file holds the characteristic window of one unit
    assert (outs[0] / "bounds.csv").read_bytes() == \
        (outs[1] / "bounds.csv").read_bytes()
