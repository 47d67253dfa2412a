"""Closed-loop job runner: deadlines, untimed checks and the metrics.

One client runs a workload's jobs back to back in this thread.  A job is
timed from its first call to its last; its output is then checked with the
clock stopped.  An exception, a failed check or a missed deadline makes the
job failed, and its time still counts: a failed job is time spent with
nothing completed.

The speed of a core on a shared host moves by up to half for seconds to
minutes at a time, while the sibling hardware thread is busy with other
load.  So a fixed reference loop, chosen per workload to do the kind of
work its jobs do, is timed right before and right after each job on the
same core, and ``jobs_per_kref`` counts each job's time in units of that
loop's time: the program's cost with the machine's speed divided out.
Deadlines are counted in the same units, so a missed deadline costs the
same on a slow core as on a fast one.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Any, Callable

from tracing import FAILED


class DeadlineExceeded(Exception):
    """A job ran past its deadline and was interrupted."""


@dataclass
class Job:
    """One unit of closed-loop work.

    ``run`` is timed; ``check`` receives its output, untimed, and returns a
    failure reason or ``None``.  ``ops`` counts the operations a verified job
    completes (32 applications for a stream job).  ``span`` names a span the
    traced run records around the whole job, for layers entered through one
    call (``cli.<command>``).
    """

    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    ops: int = 1
    span: str | None = None


@dataclass
class JobRecord:
    kind: str
    label: str
    seconds: float
    ok: bool
    ops: int
    reason: str | None
    wrong_answer: bool = False  # the output failed its check
    ref_s: float = float("nan")  # reference loop time around the job
    cost: float = float("nan")  # job time in reference loop times


def interpreter_reference() -> float:
    """Time a fixed pure-Python loop (about 3-5 ms), for interpreter-bound jobs."""
    t0 = time.perf_counter()
    x = 0
    for i in range(40_000):
        x += i * i
    return time.perf_counter() - t0


@contextmanager
def deadline(seconds: float):
    """Raise ``DeadlineExceeded`` in this thread once ``seconds`` have passed."""
    def on_alarm(signum, frame):
        raise DeadlineExceeded(f"missed the {seconds:g} s deadline")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_job(job: Job, deadline_refs: float, tracer=None,
            reference: Callable[[], float] = interpreter_reference) -> JobRecord:
    """Run one job under its deadline, then check its output untimed.

    ``reference`` is timed right before and right after the job.  The
    deadline is ``deadline_refs`` times the reference timed before it; a job
    that misses it costs exactly ``deadline_refs``.
    """
    recording = tracer.job(job.label) if tracer is not None else nullcontext()
    sp = None
    ref_before = reference()
    t0 = time.perf_counter()
    error = cost = None
    try:
        with recording:
            with tracer.span(job.span) if tracer and job.span else nullcontext() as sp:
                with deadline(deadline_refs * ref_before):
                    out = job.run()
    except DeadlineExceeded as exc:
        error, cost = f"DeadlineExceeded: {exc}", deadline_refs
    except Exception as exc:  # any failure of the job is a measured outcome
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    ref_s = (ref_before + reference()) / 2
    if cost is None:
        cost = elapsed / ref_s
    if error is not None:
        return JobRecord(job.kind, job.label, elapsed, False, job.ops, error,
                         ref_s=ref_s, cost=cost)
    try:
        reason = job.check(out)
    except Exception as exc:  # a check that cannot run is a failed check
        reason = f"check raised {type(exc).__name__}: {exc}"
    if reason is not None and sp is not None:
        sp[FAILED] = True
    return JobRecord(job.kind, job.label, elapsed, reason is None, job.ops,
                     reason, wrong_answer=reason is not None, ref_s=ref_s,
                     cost=cost)


def closed_loop(workload, rng, seconds: float, tracer=None) -> list[list[JobRecord]]:
    """Run whole cycles of the workload's job mix for about ``seconds``.

    At least one cycle runs; another starts only if the last one, checks
    included, would still end within ``seconds``.
    """
    cycles = []
    start = time.perf_counter()
    while True:
        c0 = time.perf_counter()
        jobs = workload.cycle(rng)
        cycles.append([run_job(job, workload.deadline_refs, tracer,
                               workload.reference) for job in jobs])
        now = time.perf_counter()
        if (now - start) + (now - c0) > seconds:
            return cycles


def jobs_per_s(cycles: list[list[JobRecord]]) -> float:
    """Median over cycles of verified jobs per second of job time."""
    return statistics.median(
        sum(r.ok for r in cyc) / sum(r.seconds for r in cyc) for cyc in cycles
    )


def jobs_per_kref(cycles: list[list[JobRecord]]) -> float:
    """Median over cycles of verified jobs per 1000 reference-loop times.

    Each job's time is divided by the reference loop's time around it, so a
    core that runs slower for a while slows both alike.
    """
    return statistics.median(
        1000 * sum(r.ok for r in cyc) / sum(r.cost for r in cyc)
        for cyc in cycles
    )


# Per-kind throughputs, named as the layer table in perfbench/README.md cites
# them: (metric, job kind, counts operations rather than jobs).
KIND_RATES = (
    ("dual_per_s", "dual", False),
    ("tight_per_s", "tight", False),
    ("apply_per_s", "stream", True),
    ("sweep_per_s", "sweep", False),
    ("coeffs_per_s", "coeffs", False),
    ("cli_runs_per_s", "cli", False),
)


def kind_rates(records: list[JobRecord]) -> dict[str, float]:
    """Verified work per second of each job kind's own time (0 if absent)."""
    out = {}
    for metric, kind, by_ops in KIND_RATES:
        mine = [r for r in records if r.kind == kind]
        busy = sum(r.seconds for r in mine)
        done = sum((r.ops if by_ops else 1) for r in mine if r.ok)
        out[metric] = done / busy if busy else 0.0
    out["fail_ratio"] = sum(not r.ok for r in records) / len(records)
    return out


def kind_summary(records: list[JobRecord]) -> dict[str, dict]:
    """Sample count, failures, median and maximum time per job label."""
    out = {}
    for label in dict.fromkeys(r.label for r in records):
        mine = [r for r in records if r.label == label]
        times = [r.seconds for r in mine]
        out[label] = {
            "kind": mine[0].kind,
            "samples": len(mine),
            "failed": sum(not r.ok for r in mine),
            "median_s": statistics.median(times),
            "max_s": max(times),
            "reasons": sorted({r.reason for r in mine if r.reason}),
        }
    return out
