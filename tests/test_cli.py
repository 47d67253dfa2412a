import csv
import json

import numpy as np
import pytest

from gaborwalnut import build_grid, read_window_file
from gaborwalnut.cli import main


def write_config(path, *, L=8, s=4, a=2, b=2, window="characteristic",
                 window_extra="units = 1", weight="constant", weight_extra="",
                 extra="", out=None, tol=None, seed=1234, trials=5):
    opts = [f"seed = {seed}", f"trials = {trials}"]
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


def test_invalid_lattice_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", a=3, out=tmp_path / "out")
    assert main(["analyze", "--config", cfg]) == 2
    assert "DivisibilityError" in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["analyze", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "ParseError" in capsys.readouterr().err


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
    assert (out / "summability.json").exists()
    assert (out / "solver.csv").exists()


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
                       extra="[dual]\nmethod = dense")
    assert main(["dual", "--config", cfg]) == 0
    rows = list(csv.DictReader((out / "solver.csv").open()))
    assert len(rows) == 1  # the dense solve reports a single residual
    # one quadrature level can never agree with a previous one
    monkeypatch.setattr(invert, "CONTOUR_NODES_MAX", invert.CONTOUR_NODES_START)
    assert main(["tight", "--config", cfg]) == 5
    assert "ConvergenceError" in capsys.readouterr().err


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


def test_verify_corrupted_dual_exits_4(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.cfg", out=out, tol=1e-10,
                       extra="[verify]\ndual = generator")
    assert main(["verify", "--config", cfg]) == 4
    assert "ContractViolationError" in capsys.readouterr().err
    payload = json.loads((out / "verify.json").read_text())
    assert payload["passed"] is False


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


def test_seed_override(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.cfg", out=out, seed=1)
    assert main(["analyze", "--config", cfg, "--seed", "42"]) == 0
    payload = json.loads((out / "analyze.json").read_text())
    assert payload["seed"] == 42


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
