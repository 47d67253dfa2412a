"""Tests of the benchmark itself: negative controls, tracing, the declared spec.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import gaborwalnut as gw
import harness
import run
import tracing
import workloads
from conftest import BENCH


def test_generator_as_its_own_dual_is_a_failed_dual():
    g, lat = workloads.instance(4096, 16, 32)
    job = workloads.Solve._dual("dual/generator", g, lat, seed=0)
    job.run = lambda: g
    rec = harness.run_job(job, deadline_refs=20000)
    assert not rec.ok and rec.wrong_answer
    defect = float(rec.reason.split()[2])
    assert defect > 1.0  # about 7 for this instance


def test_missed_deadline_is_a_failed_job_charged_its_deadline():
    g, lat = workloads.instance(2048, 32, 16)
    job = harness.Job("dual", "dual/c268",
                      lambda: workloads.solve_dual(g, lat), lambda gd: None)
    rec = harness.run_job(job, deadline_refs=50)  # about 0.2 s
    assert not rec.ok and not rec.wrong_answer
    assert rec.reason.startswith("DeadlineExceeded")
    assert 0.05 < rec.seconds < 1.0
    assert rec.cost == 50
    assert harness.kind_rates([rec])["dual_per_s"] == 0.0
    assert harness.kind_rates([rec])["fail_ratio"] == 1.0


def test_jobs_per_s_charges_failed_time():
    ok = harness.JobRecord("sweep", "sweep/a", 1.0, True, 1, None)
    bad = harness.JobRecord("sweep", "sweep/a", 3.0, False, 1, "x")
    assert harness.jobs_per_s([[ok, bad]]) == pytest.approx(0.25)


def test_jobs_per_kref_counts_cost_in_reference_times():
    rec = harness.run_job(harness.Job("sweep", "sweep/a", lambda: 1,
                                      lambda out: None), deadline_refs=100)
    assert 0 < rec.ref_s < 1.0
    assert rec.cost == pytest.approx(rec.seconds / rec.ref_s)
    fast = harness.JobRecord("sweep", "sweep/a", 1.0, True, 1, None, cost=250)
    slow = harness.JobRecord("sweep", "sweep/a", 1.5, False, 1, "x", cost=250)
    assert harness.jobs_per_kref([[fast]]) == pytest.approx(4.0)
    assert harness.jobs_per_kref([[fast, slow]]) == pytest.approx(2.0)


def test_self_time_subtracts_children_and_busy_counts_outermost():
    # id, parent, job, name, start, end, failed, extra
    spans = [
        [0, None, "j", "invert.tight_window", 0.0, 10.0, False, None],
        [1, 0, "j", "invert.frame_bounds", 2.0, 5.0, False, 4.0],
        [2, 1, "j", "frame_op.walnut_coefficients", 3.0, 4.0, False, None],
        [3, None, "j", "reports.write_summability_json", 10.0, 12.0, False, 7],
        [4, 3, "j", "reports.write_json", 10.5, 11.5, False, 7],
    ]
    m = tracing.layer_metrics(spans, cycles=1)
    assert m["invert.tight_window.self_s"] == pytest.approx(7.0)
    assert m["invert.frame_bounds.self_s"] == pytest.approx(2.0)
    assert m["invert.frame_bounds.cond"] == 4.0
    assert m["frame_op.walnut_coefficients.busy_s"] == pytest.approx(1.0)
    assert m["reports.write.calls"] == 2
    assert m["reports.write.busy_s"] == pytest.approx(2.0)
    assert m["reports.write.self_s"] == pytest.approx(2.0)
    assert m["reports.bytes_written"] == 7


def test_tracer_rebinds_in_every_namespace_and_restores(tmp_path):
    original = gw.frame_operator_walnut
    g, lat = workloads.instance(256, 8, 8)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert gw.frame_operator_walnut is not original
        W = gw.walnut_coefficients(g, lat)  # outside a job: not recorded
        assert tracer.spans == []
        with tracer.job("j"):
            gw.frame_operator_walnut(W, g)
            gw.dual_window(g, lat)  # reaches inverse_solve through invert's globals
            gw.reports.write_window_file(g, tmp_path / "g.txt")
    assert gw.frame_operator_walnut is original
    names = [sp[tracing.NAME] for sp in tracer.spans]
    assert names[0] == "frame_op.frame_operator_walnut"
    assert tracer.spans[0][tracing.EXTRA] == 16 * 256 * (2 * 8 + 2)
    assert "invert.inverse_solve" in names
    assert tracer.spans[-1][tracing.EXTRA] == (tmp_path / "g.txt").stat().st_size


def test_benchmark_json_declares_what_the_runs_report():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        run.per_layer_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
