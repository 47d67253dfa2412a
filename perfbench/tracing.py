"""Spans around the calls into each layer of ``gaborwalnut``, taken from outside.

``installed(tracer)`` rebinds every traced public function, in every
``gaborwalnut`` module namespace that holds it, to a wrapper that records a
span: name, start, end, parent span and job label.  Calls inside a module go
through its globals, so they are caught as well; the private
``invert._walnut_apply`` is not a public name and stays untraced.  Spans are
recorded only while a job runs (``Tracer.job``), so set-up and the untimed
output checks leave no trace.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from contextlib import contextmanager

# Traced public functions, by module of definition.
LAYERS = {
    "invert": ("frame_bounds", "inverse_solve", "tight_window",
               "verify_reconstruction"),
    "frame_op": ("frame_operator_walnut", "walnut_coefficients", "analysis",
                 "synthesis", "dense_frame_matrix", "frame_operator_direct"),
    "bracket": ("correlation_G", "bracket_product"),
    "core": ("tf_shift", "read_window_file", "build_window"),
    "diagnostics": ("convo_identity_residual", "estimate_convest",
                    "conjecture_probe", "dual_summability_report",
                    "counterexample_report"),
    "amalgam": ("amalgam_profile", "embedding_check"),
}
# Every ``reports.write_*`` is traced and reported as one group.
REPORTS_GROUP = "reports.write"
CLI_COMMANDS = ("analyze", "dual", "tight", "verify", "counterexample",
                "conjecture", "bench")
# Layers whose failed calls are counted.
COUNT_FAILED = ("invert", "cli")

# Span fields, one list per span.
ID, PARENT, JOB, NAME, START, END, FAILED, EXTRA = range(8)


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._job: str | None = None

    @contextmanager
    def job(self, label: str):
        """Record spans for the duration of one job, tagged with its label."""
        self._job = label
        first = len(self.spans)
        try:
            yield
        finally:
            # A deadline can interrupt the bookkeeping itself; close what it left open.
            now = time.perf_counter()
            for sp in self.spans[first:]:
                if sp[END] is None:
                    sp[END] = now
                    sp[FAILED] = True
            self._job = None
            self._stack.clear()

    @contextmanager
    def span(self, name: str):
        """Record one span around a block; yields the span (or ``None``)."""
        if self._job is None:
            yield None
            return
        parent = self._stack[-1][ID] if self._stack else None
        sp = [len(self.spans), parent, self._job, name, time.perf_counter(),
              None, False, None]
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        except BaseException:
            sp[FAILED] = True
            raise
        finally:
            sp[END] = time.perf_counter()
            self._stack.pop()


def _extra_bytes_walnut(args, kwargs, result):
    # One tiled multiplier and one shifted copy of f per signed r, plus the
    # input read and the output written: complex128 arrays of length L.
    lat = (args[0] if args else kwargs["W"]).lat
    return 16 * lat.grid.L * (2 * lat.b + 2)


def _extra_cond(args, kwargs, result):
    return result.B / result.A if result.A > 0 else None


def _extra_iterations(args, kwargs, result):
    return result[1].iterations


EXTRAS = {
    "frame_op.frame_operator_walnut": _extra_bytes_walnut,
    "invert.frame_bounds": _extra_cond,
    "invert.inverse_solve": _extra_iterations,
}


def _wrap(tracer: Tracer, name: str, fn):
    extra = EXTRAS.get(name)
    if extra is None and name.startswith("reports."):
        sig = inspect.signature(fn)

        def extra(args, kwargs, result):
            return os.path.getsize(sig.bind(*args, **kwargs).arguments["path"])

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer._job is None:
            return fn(*args, **kwargs)
        with tracer.span(name) as sp:
            result = fn(*args, **kwargs)
        if extra is not None:
            sp[EXTRA] = extra(args, kwargs, result)
        return result

    return traced


def traced_functions() -> dict[str, object]:
    """Span name -> original function, for every traced public function."""
    out = {}
    for module, names in LAYERS.items():
        mod = importlib.import_module(f"gaborwalnut.{module}")
        for fname in names:
            out[f"{module}.{fname}"] = getattr(mod, fname)
    reports = importlib.import_module("gaborwalnut.reports")
    for fname in reports.__all__:
        if fname.startswith("write_"):
            out[f"reports.{fname}"] = getattr(reports, fname)
    return out


@contextmanager
def installed(tracer: Tracer):
    """Rebind the traced functions to span-recording wrappers, then restore."""
    wrappers = {id(fn): (fn, _wrap(tracer, name, fn))
                for name, fn in traced_functions().items()}
    patched = []
    for modname, mod in list(sys.modules.items()):
        if modname != "gaborwalnut" and not modname.startswith("gaborwalnut."):
            continue
        for attr, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
                patched.append((mod, attr, value))
    try:
        yield tracer
    finally:
        for mod, attr, value in patched:
            setattr(mod, attr, value)


def per_layer_names() -> list[tuple[str, str, str]]:
    """``(name, unit, better)`` of every per-layer metric the traced run reports."""
    out = []

    def fn_metrics(base, failed):
        out.extend([(f"{base}.calls", "count", "lower"),
                    (f"{base}.busy_s", "s", "lower"),
                    (f"{base}.self_s", "s", "lower")])
        if failed:
            out.append((f"{base}.failed", "count", "lower"))

    for module, names in LAYERS.items():
        for fname in names:
            base = f"{module}.{fname}"
            fn_metrics(base, module in COUNT_FAILED)
            if base == "invert.frame_bounds":
                out.append((f"{base}.cond", "ratio", "lower"))
            elif base == "invert.inverse_solve":
                out.append((f"{base}.iterations", "count", "lower"))
            elif base == "frame_op.frame_operator_walnut":
                out.append((f"{base}.bytes_computed", "B", "lower"))
                out.append((f"{base}.GBps_computed", "GB/s", "higher"))
    fn_metrics(REPORTS_GROUP, False)
    out.append(("reports.bytes_written", "B", "lower"))
    for cmd in CLI_COMMANDS:
        fn_metrics(f"cli.{cmd}", True)
    return out


def layer_metrics(spans: list[list], cycles: int) -> dict[str, float]:
    """Per-layer metrics from the spans, per cycle of the workload's job mix.

    ``busy_s`` is inclusive and counts only the outermost span of a name (or
    of the reports group); ``self_s`` is busy time minus the time covered by
    child spans.  ``cond`` is the largest B/A seen.
    """
    child_time = [0.0] * len(spans)
    for sp in spans:
        if sp[PARENT] is not None:
            child_time[sp[PARENT]] += sp[END] - sp[START]

    def group(name):
        return REPORTS_GROUP if name.startswith("reports.") else name

    acc: dict[str, dict[str, float]] = {}
    for sp in spans:
        key = group(sp[NAME])
        a = acc.setdefault(key, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                 "failed": 0, "extra": 0.0, "cond": 0.0})
        dur = sp[END] - sp[START]
        a["calls"] += 1
        a["self_s"] += dur - child_time[sp[ID]]
        a["failed"] += int(sp[FAILED])
        nested = False
        parent = sp[PARENT]
        while parent is not None:
            if group(spans[parent][NAME]) == key:
                nested = True
                break
            parent = spans[parent][PARENT]
        if not nested:
            a["busy_s"] += dur
            if sp[EXTRA] is not None:
                if key == "invert.frame_bounds":
                    a["cond"] = max(a["cond"], sp[EXTRA])
                else:
                    a["extra"] += sp[EXTRA]

    n = max(cycles, 1)
    out: dict[str, float] = {}
    for name, _unit, _better in per_layer_names():
        base, _, field = name.rpartition(".")
        if name == "reports.bytes_written":
            out[name] = acc.get(REPORTS_GROUP, {}).get("extra", 0.0) / n
            continue
        a = acc.get(base, {})
        if field in ("calls", "busy_s", "self_s", "failed"):
            out[name] = a.get(field, 0) / n
        elif field == "cond":
            out[name] = a.get("cond", 0.0)
        elif field in ("iterations", "bytes_computed"):
            out[name] = a.get("extra", 0.0) / n
        elif field == "GBps_computed":
            busy = a.get("busy_s", 0.0)
            out[name] = a.get("extra", 0.0) / busy / 1e9 if busy else 0.0
    return out


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost of one recorded span, from a traced no-op call."""
    tracer = Tracer()

    def noop():
        return None

    traced = _wrap(tracer, "noop", noop)
    t0 = time.perf_counter()
    for _ in range(samples):
        noop()
    raw = time.perf_counter() - t0
    with tracer.job("calibration"):
        t0 = time.perf_counter()
        for _ in range(samples):
            traced()
        wrapped = time.perf_counter() - t0
    return max(wrapped - raw, 0.0) / samples
