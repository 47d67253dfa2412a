import csv
import inspect
import json
import re
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from gaborwalnut import build_grid, read_window_file
from gaborwalnut.cli import (
    _VERIFY_DUALS,
    _WEIGHT_KINDS,
    _WINDOW_KINDS,
    COMMANDS,
    METHODS,
    main,
)


def write_config(path, *, L=8, s=4, a=2, b=2, window="characteristic",
                 window_extra="units = 1", weight="constant", weight_extra="",
                 extra="", out=None, tol=None, seed=1234):
    opts = [f"seed = {seed}"]
    if out is not None:
        opts.append(f"out = {out}")
    if tol is not None:
        opts.append(f"tol = {tol}")
    text = f"""
[grid]
L = {L}
s = {s}

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


def test_analyze_reports_non_frame_without_failing(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.cfg", a=4, b=4, out=out)
    assert main(["analyze", "--config", cfg]) == 0
    rows = list(csv.DictReader((out / "bounds.csv").open()))
    assert rows[0]["not_a_frame"] == "1"
    text = (out / "analyze.json").read_text()
    assert "Infinity" not in text and json.loads(text)["cond"] is None


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
    """Record the method of every ``inverse_solve`` call the CLI makes."""
    from gaborwalnut import cli, invert
    real = invert.inverse_solve
    solves = []

    def counting(*args, **kwargs):
        solves.append(kwargs.get("method"))
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
    reports.write_summability_json(expect, tmp_path / "expect.json")
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


def test_verify_builds_each_bracket_table_once(tmp_path, monkeypatch):
    # the identity and the norm estimate share the three tables; the written
    # numbers are those of the two public functions
    import argparse

    from gaborwalnut import convo_identity_residual, diagnostics, estimate_convest
    from gaborwalnut.cli import load_config

    real = diagnostics._bracket_table
    builds = []

    def counting(f, h, lat):
        builds.append((f, h))
        return real(f, h, lat)

    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.cfg", L=256, s=16, a=8, b=8,
                       window="gaussian", window_extra="width = 1.0",
                       weight="polynomial", weight_extra="t = 2", out=out,
                       tol=1e-10, extra="[verify]\ndual = generator")
    monkeypatch.setattr(diagnostics, "_bracket_table", counting)
    assert main(["verify", "--config", cfg]) == 4
    assert len(builds) == 3
    monkeypatch.setattr(diagnostics, "_bracket_table", real)
    run = load_config(cfg, argparse.Namespace(out=None, seed=None, tol=None))
    g, lat = run.window, run.lattice
    ident = convo_identity_residual(g, g, lat)
    lhs, rhs = estimate_convest(g, g, lat, run.weight)
    payload = json.loads((out / "verify.json").read_text())
    assert (payload["max_abs_error"], payload["worst_k"], payload["worst_x"]) \
        == (ident.max_abs_error, ident.worst_k, ident.worst_x)
    assert (payload["norm_estimate_lhs"], payload["norm_estimate_rhs"]) == (lhs, rhs)


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


def test_tight_not_a_frame_above_dense_limit_exits_3(tmp_path, capsys):
    # redundancy 1/2 at L = 2048: the fiber bounds see the rank deficit
    cfg = write_config(tmp_path / "run.cfg", L=2048, s=16, a=64, b=64,
                       window="gaussian", window_extra="width = 1.0",
                       out=tmp_path / "out")
    assert main(["tight", "--config", cfg]) == 3
    assert "NotAFrameError" in capsys.readouterr().err


def test_fiber_above_its_limit_exits_2(tmp_path, capsys, monkeypatch):
    from gaborwalnut import invert
    monkeypatch.setattr(invert, "FIBER_LIMIT", 8)  # the instance has L*p = 16
    cfg = write_config(tmp_path / "run.cfg", L=16, out=tmp_path / "out",
                       extra="[dual]\nmethod = fiber")
    assert main(["dual", "--config", cfg]) == 2
    assert "SizeError" in capsys.readouterr().err


def test_default_dual_above_fiber_limit_exits_2(tmp_path, capsys,
                                                monkeypatch):
    # the default refuses above the cap and names the explicit method
    from gaborwalnut import invert
    monkeypatch.setattr(invert, "FIBER_LIMIT", 8)  # the instance has L*p = 16
    cfg = write_config(tmp_path / "run.cfg", L=16, out=tmp_path / "out")
    assert main(["dual", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "SizeError" in err and "'cg' with bounds=" in err


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


# (window kind, window keys, weight kind, weight keys, stray key, keys taken)
STRAY_KEYS = {
    "window-misspelt": ("gaussian", "widht = 3.0", "constant", "", "widht",
                        "kind, width, center"),
    "window-other-kind": ("hat", "units = 1", "constant", "", "units",
                          "kind"),
    "weight-other-kind": ("gaussian", "width = 1.0", "polynomial",
                          "t = 2\ngamma = 0.5", "gamma", "kind, t"),
    "weight-constant": ("gaussian", "width = 1.0", "constant", "t = 2", "t",
                        "kind"),
}


@pytest.mark.parametrize("case", sorted(STRAY_KEYS))
@pytest.mark.parametrize("command", ["analyze", "dual"])
def test_key_the_kind_does_not_take_exits_2(tmp_path, capsys, command, case):
    window, window_extra, weight, weight_extra, key, takes = STRAY_KEYS[case]
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.cfg", L=256, s=16, a=8, b=8,
                       window=window, window_extra=window_extra, weight=weight,
                       weight_extra=weight_extra, out=out)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "ParseError" in err and "Traceback" not in err
    assert f"key {key!r}" in err and f"it takes {takes}" in err
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


def _readme_config_vocabulary():
    """``{(section, key): options}`` from the README's ini block comments
    (``key = value  # a | b | c``), and ``{(section, kind): keys cell}``
    from its table of window and weight kinds."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    ini = text.split("```ini\n", 1)[1].split("```", 1)[0]
    options, section = {}, None
    for line in ini.splitlines():
        if line.startswith("["):
            section = line.split("]")[0][1:]
        elif "|" in line and not line.startswith("#"):
            key, comment = line.split("#", 1)
            options[section, key.split("=")[0].strip()] = {
                word.split()[0] for word in comment.split("|")}
    kinds = {}
    for row in re.findall(r"^\| `\[(\w+)\]` \| `(\w+)`[^|]*\|([^|]*)\|", text,
                          re.MULTILINE):
        kinds[row[0], row[1]] = row[2]
    return options, kinds


def test_readme_names_the_cli_vocabulary():
    options, kinds = _readme_config_vocabulary()
    assert options["window", "kind"] == set(_WINDOW_KINDS)
    assert options["weight", "kind"] == set(_WEIGHT_KINDS)
    assert options["dual", "method"] == set(METHODS["dual"])
    assert options["tight", "method"] == set(METHODS["tight"])
    assert options["verify", "dual"] == set(_VERIFY_DUALS)
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
