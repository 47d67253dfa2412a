"""Benchmark of gaborwalnut: one closed-loop workload per run.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0

Run from the root of a source tree; the package is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a separately traced run with
``--trace 1``.  Each run also writes its full record (environment, samples
per job kind, every job's time) to ``perfbench/out/results/`` and, when
traced, its spans to ``perfbench/out/spans/``.

    python3 perfbench/run.py --summarize perfbench/BENCH_001.json

collects the records in ``perfbench/out/results/`` into one trajectory
point: median and quartiles of every metric per workload, and the tracing
overhead measured as traced against untraced throughput.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = (
    ("jobs_per_kref", "1/kref", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
)


def per_layer_spec():
    return (tracing.per_layer_names()
            + [("jobs_per_s", "1/s", "higher")]
            + [(name, "1/s", "higher") for name, _, _ in harness.KIND_RATES]
            + [("fail_ratio", "ratio", "lower"),
               ("trace.spans", "count", "lower"),
               ("trace.overhead_share", "ratio", "lower")])


def pin_blas_threads() -> int:
    """Run BLAS single-threaded, before numpy loads; return the usable cores.

    With one BLAS thread per core on a shared 2-vCPU host, the L = 256 dense
    calls of ``desk`` slowed down by up to 20x in some runs, most likely
    while a BLAS thread waited for a partner kept off its core by load from
    outside the process.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def pin_to_current_core() -> int:
    """Keep this process on the core it runs on; return that core.

    The reference loop around each job must time the same core as the job.
    """
    fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
    core = int(fields[36])  # field 39 of stat(5), counted after the name
    os.sched_setaffinity(0, {core})
    return core


def git_commit() -> str | None:
    """Commit of the source tree, or ``None`` outside a git checkout of it."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def blas_info(config: dict | None) -> dict | None:
    """The BLAS name, version and build configuration, without install paths."""
    if config is None:
        return None
    return {k: config[k] for k in ("name", "version", "openblas configuration")
            if k in config}


def environment(nproc: int, seed: int) -> dict:
    import numpy as np

    a = np.ones((512, 512))
    a @ a
    try:
        blas = blas_info(np.show_config(mode="dicts")["Build Dependencies"]["blas"])
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": nproc,
        "pinned_core": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "threads_running": len(os.listdir("/proc/self/task")),
        "machine": platform.machine(),
        "commit": git_commit(),
        "seed": seed,
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up (several times, for the median), measure, and return the record."""
    t0 = time.perf_counter()
    nproc = pin_blas_threads()
    pin_to_current_core()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import gaborwalnut
    import workloads

    if Path(gaborwalnut.__file__).resolve().parent != ROOT / "src" / "gaborwalnut":
        raise ImportError(f"gaborwalnut loaded from {gaborwalnut.__file__}")
    import_s = time.perf_counter() - t0

    workdir = OUT / f"work-{workload_name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups, warm_failures = [], []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload = workloads.WORKLOADS[workload_name]()
            warmups = workload.setup(np.random.default_rng(seed), workdir)
            for job in warmups:
                rec = harness.run_job(job, workload.deadline_refs,
                                      reference=workload.reference)
                if not rec.ok:
                    warm_failures.append(f"{rec.label}: {rec.reason}")
            setups.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setups)

        rng = np.random.default_rng([seed, 1])
        tracer = tracing.Tracer() if trace else None
        t0 = time.perf_counter()
        with tracing.installed(tracer) if trace else contextlib.nullcontext():
            cycles = harness.closed_loop(workload, rng, seconds, tracer)
        measured_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = [r for cyc in cycles for r in cyc]
    refs = [r.ref_s for r in records]
    e2e = {
        "jobs_per_kref": harness.jobs_per_kref(cycles),
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    result = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(nproc, seed),
        "import_s": import_s,
        "setup_runs_s": setups,
        "warmup_failures": warm_failures,
        "measured_s": measured_s,
        "cycles": len(cycles),
        "deadline_refs": workload.deadline_refs,
        "end_to_end": e2e,
        "jobs_per_s": harness.jobs_per_s(cycles),
        "reference_ms": quartiles([1e3 * x for x in refs]),
        "kind_rates": harness.kind_rates(records),
        "jobs": harness.kind_summary(records),
        "records": [[r.label, r.seconds, r.ok, r.reason, r.ref_s, r.cost]
                    for r in records],
        "attempted": len(records),
        "failed": sum(not r.ok for r in records),
        # Outputs are correct when no check failed; a job that raised or
        # missed its deadline gave no output and counts only as failed.
        "correct": not any(r.wrong_answer for r in records),
    }
    if trace:
        job_s = sum(r.seconds for r in records)
        per_layer = tracing.layer_metrics(tracer.spans, len(cycles))
        per_layer["jobs_per_s"] = result["jobs_per_s"]
        per_layer.update(result["kind_rates"])
        per_layer["trace.spans"] = len(tracer.spans) / len(cycles)
        per_layer["trace.overhead_share"] = (
            tracing.span_cost_s() * len(tracer.spans) / job_s)
        result["per_layer"] = per_layer
        result["spans"] = tracer.spans
    return result


def print_human(result: dict) -> None:
    env = result["environment"]
    print(f"# {result['workload']}: seed {result['seed']}, "
          f"{result['cycles']} cycles in {result['measured_s']:.1f} s, "
          f"deadline {result['deadline_refs']:g} reference times; "
          f"nproc {env['nproc']}, "
          f"BLAS threads running {env['threads_running']}, "
          f"numpy {env['numpy']}, python {env['python']}, "
          f"commit {env['commit']}")
    for label, s in result["jobs"].items():
        print(f"#   {label:24s} n={s['samples']:3d} failed={s['failed']:3d} "
              f"median={s['median_s'] * 1e3:10.2f} ms "
              f"max={s['max_s'] * 1e3:10.2f} ms"
              + (f"  {s['reasons'][0]}" if s["reasons"] else ""))
    ref = result["reference_ms"]
    print(f"#   reference loop median={ref['median']:.3f} ms "
          f"q1={ref['q1']:.3f} ms q3={ref['q3']:.3f} ms")
    print(f"#   jobs_per_s = {result['jobs_per_s']:.6g} 1/s")
    for name, value in result["kind_rates"].items():
        unit = "ratio" if name == "fail_ratio" else "1/s"
        print(f"#   {name} = {value:.6g} {unit}")
    print(f"#   attempted={result['attempted']} failed={result['failed']}")


def final_line(result: dict) -> dict:
    if result["trace"]:
        spec, values = per_layer_spec(), result["per_layer"]
    else:
        spec, values = END_TO_END, result["end_to_end"]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit, _ in spec},
    }


def save(result: dict) -> None:
    tag = (f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
           f"-{os.getpid()}")
    spans = result.pop("spans", None)
    if spans is not None:
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        with gzip.open(OUT / "spans" / f"{tag}.json.gz", "wt",
                       encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "job", "name", "start",
                                  "end", "failed", "extra"],
                       "spans": spans}, fh)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0],
                "runs": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / q2 if q2 else None, "runs": len(values)}


def summarize(target: Path) -> int:
    """Collect the saved run records into one trajectory point."""
    results = [json.loads(p.read_text(encoding="utf-8"))
               for p in sorted((OUT / "results").glob("*.json"))]
    if not results:
        print(f"no run records under {OUT / 'results'}", file=sys.stderr)
        return 1
    env = dict(results[-1]["environment"])
    env["blas"] = blas_info(env["blas"])
    out = {"command": "python3 perfbench/run.py --workload <w> --seed <n> "
                      "--seconds <s> --trace <0|1>",
           "environment": env, "workloads": {}}
    for name in dict.fromkeys(r["workload"] for r in results):
        plain = [r for r in results if r["workload"] == name and not r["trace"]]
        traced = [r for r in results if r["workload"] == name and r["trace"]]
        entry = {"runs": len(plain), "traced_runs": len(traced),
                 "seeds": sorted({r["seed"] for r in plain}),
                 "seconds": sorted({r["seconds"] for r in plain}),
                 "attempted": sum(r["attempted"] for r in plain),
                 "failed": sum(r["failed"] for r in plain),
                 "end_to_end": {}, "jobs_per_s": quartiles(
                     [r["jobs_per_s"] for r in plain]) if plain else None,
                 "kind_rates": {}, "per_layer": {}}
        for key, runs in (("end_to_end", plain), ("kind_rates", plain),
                          ("per_layer", traced)):
            for metric in (runs[0][key] if runs else {}):
                entry[key][metric] = quartiles([r[key][metric] for r in runs])
        if plain and traced:
            base = statistics.median(
                r["end_to_end"]["jobs_per_kref"] for r in plain)
            with_spans = statistics.median(
                r["end_to_end"]["jobs_per_kref"] for r in traced)
            entry["tracing_overhead"] = {
                "untraced_jobs_per_kref": base,
                "traced_jobs_per_kref": with_spans,
                "share": 1 - with_spans / base}
        out["workloads"][name] = entry
    target.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {target}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("solve", "transform", "desk"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--summarize", type=Path, metavar="TARGET",
                        help="collect saved run records into TARGET and exit")
    args = parser.parse_args(argv)
    if args.summarize is not None:
        return summarize(args.summarize)
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "gaborwalnut" / "__init__.py").is_file():
        print(f"perfbench: no gaborwalnut sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    line = final_line(result)
    print_human(result)
    save(result)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
