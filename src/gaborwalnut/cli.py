"""Command-line front end: build instances from a config file, run analyses,
emit CSV/JSON reports and SVG plots, and benchmark the two operator paths.

A command only computes: it returns its files, each a name and the
``reports`` call that writes it, with the text it prints.  ``main`` writes
the files after the command has returned, so a failed check leaves none, and
then prints; a contract ``verify`` finds broken is raised after its
``verify.json`` is written.

Exit codes: 0 success, 2 configuration or validation error, 3 not a frame,
4 contract violation, 5 convergence failure.
"""

import argparse
import configparser
import math
import sys
import time
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from itertools import chain
from pathlib import Path

import numpy as np

from . import reports
from .amalgam import _profile, amalgam_norm, embedding_check
from .core import (
    GaborLattice,
    Grid,
    Signal,
    Weight,
    WindowSpec,
    build_grid,
    build_window,
    norm_l2,
    signed_range,
)
from .diagnostics import (
    _verify_pass,
    bracket_series,
    build_counterexample,
    counterexample_report,
    dual_summability_report,
)
from .errors import (
    ContractViolationError,
    ConvergenceError,
    DomainError,
    GaborToolkitError,
    NotAFrameError,
    NotAFrameWarning,
    ParseError,
    SizeError,
)
from .frame_op import (
    _block_size,
    frame_operator_direct,
    frame_operator_walnut,
    walnut_coefficients,
)
from .invert import (
    _check_tol,
    _inverse_walnut,
    dual_window,
    duality_defect,
    frame_bounds,
    inverse_solve,
    tight_window,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOT_A_FRAME = 3
EXIT_CONTRACT = 4
EXIT_CONVERGENCE = 5
# The exit code of each error class; any other error's is EXIT_CONFIG.
_EXIT_CODES = {NotAFrameError: EXIT_NOT_A_FRAME,
               ContractViolationError: EXIT_CONTRACT,
               ConvergenceError: EXIT_CONVERGENCE}

# Terms M*N*L of the double sum that each `bench` case times at least three
# times: that of 4096:16:32:32, the largest case of the README example.
_BENCH_TERMS = 1 << 26


@dataclass
class RunConfig:
    """Every section of a run config, read and checked by ``load_config``."""

    grid: Grid
    window_spec: WindowSpec
    window: Signal
    lattice: GaborLattice
    weight: Weight
    tol: float
    seed: int
    out: Path
    methods: dict[str, str | None]  # of `dual` and `tight`; None: the default
    verify_dual: tuple[str, WindowSpec | None]  # the mode; `file`'s window
    bench_reps: int
    bench_cases: list[tuple[int, int, int, int]]  # (L, s, a, b) of each case


@dataclass
class Outputs:
    """What a command computed: each file's name and the call that writes it
    to a given path, in writing order (called once: a call may read its
    rows as it writes them); the text it prints after them; and the check
    it failed, if any, raised after the text."""

    files: dict[str, Callable[[Path], None]]
    text: str
    failed: ContractViolationError | None = None


def _csv(header, rows) -> Callable[[Path], None]:
    """The write of a CSV file of ``header`` and ``rows`` to a given path."""
    return partial(reports.write_csv, header=header, rows=rows)


def _options(tol: float = 1e-10, seed: int = 0, out: str = "gw-out") -> tuple:
    _check_tol(tol)
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    return tol, seed, Path(out)


def _bench(reps: int = 3, cases: str = "") -> tuple:
    """``reps`` and each comma-separated ``L:s:a:b`` case as a tuple."""
    if reps < 3:
        raise DomainError(f"benchmark needs at least 3 repetitions, got {reps}")
    parsed = []
    for chunk in cases.split(",") if cases else ():
        try:
            L, s, a, b = (int(p) for p in chunk.strip().split(":"))
        except ValueError:
            raise ParseError(f"bench case {chunk!r} is not L:s:a:b") from None
        parsed.append((L, s, a, b))
    return reps, parsed


# Each kind of a section: its constructor and the keys it takes, each with its
# value's parser; a key left out takes the constructor's default.
_WINDOW_KINDS = {
    "characteristic": (WindowSpec.characteristic, {"units": float}),
    "gaussian": (WindowSpec.gaussian, {"width": float, "center": float}),
    "hat": (WindowSpec.hat, {}),
    "file": (WindowSpec.from_file, {"path": str}),
}
_WEIGHT_KINDS = {
    "constant": (Weight.constant, {}),
    "polynomial": (Weight.polynomial, {"t": float}),
    "subexponential": (Weight.subexponential, {"c": float, "gamma": float}),
}
_NAME_ONLY = (lambda: None, {})  # a kind that takes no key and builds nothing
# the dual that `verify` checks; `file`'s window is read when `verify` runs
_VERIFY_DUALS = {"canonical": _NAME_ONLY, "generator": _NAME_ONLY,
                 "file": (WindowSpec.from_file, {"path": str})}
# Every section the CLI reads: the key that chooses its kind (None for a
# section of one kind) and its kinds, the first the default. Every command
# reads every section; each but grid, lattice and window may be left out.
_SECTIONS = {
    "grid": (None, {None: (build_grid, {"L": int, "s": int})}),
    "lattice": (None, {None: (GaborLattice, {"a": int, "b": int})}),
    "window": ("kind", _WINDOW_KINDS),
    "weight": ("kind", _WEIGHT_KINDS),
    "options": (None, {None: (_options, {"tol": float, "seed": int,
                                          "out": str})}),
    "dual": ("method", dict.fromkeys((None, "fiber", "cg", "dense"), _NAME_ONLY)),
    "tight": ("method",
              dict.fromkeys((None, "fiber", "contour", "dense"), _NAME_ONLY)),
    "verify": ("dual", _VERIFY_DUALS),
    "bench": (None, {None: (_bench, {"reps": int, "cases": str})}),
}


def _from_section(parser: configparser.ConfigParser, name: str, **given):
    """``(kind, value)`` of section ``name``: the kind's constructor called
    with the section's keys and ``given``, which wins over them. An unknown
    kind, a key of its own (not from ``[DEFAULT]``) it does not take, a bad
    value or a missing key the constructor needs raises ``ParseError``."""
    kind_key, kinds = _SECTIONS[name]
    if name in ("grid", "lattice", "window") and not parser.has_section(name):
        raise ParseError(f"bad configuration: no section {name!r}")
    section = parser[name] if parser.has_section(name) else {}
    kind = section.get(kind_key, next(iter(kinds))) if kind_key else None
    if kind not in kinds:
        raise ParseError(f"unknown {name} {kind_key} {kind!r}")
    make, keys = kinds[kind]
    where = f"[{name}]" if kind is None else f"[{name}] {kind_key} = {kind}"
    takes = [kind_key, *keys] if kind_key else [*keys]
    for key in section:
        if key not in map(parser.optionxform, takes) \
                and key not in parser.defaults():
            raise ParseError(f"{where}: key {key!r} is not one it takes; it "
                             f"takes {', '.join(takes)}")
    try:  # a TypeError names the missing key that has no default
        args = {key: parse(section[key]) for key, parse in keys.items()
                if key in section}
        return kind, make(**{**args, **given})
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: {exc}") from exc


def load_config(path: str, overrides: argparse.Namespace) -> RunConfig:
    """Read a key=value config file verbatim and check every section of it
    against ``_SECTIONS``, whichever command runs."""
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#", ";"))
    given = {key: getattr(overrides, key) for key in ("tol", "seed", "out")
             if getattr(overrides, key) is not None}
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ParseError(f"config file {path!r} not found")
        for name in parser.sections():
            if name not in _SECTIONS:
                raise ParseError(f"[{name}] is not a section; the sections "
                                 f"are {', '.join(_SECTIONS)}")
        _, grid = _from_section(parser, "grid")
        _, lattice = _from_section(parser, "lattice", grid=grid)
        _, spec = _from_section(parser, "window")
        _, weight = _from_section(parser, "weight")
        _, (tol, seed, out) = _from_section(parser, "options", **given)
        methods = {which: _from_section(parser, which)[0]
                   for which in ("dual", "tight")}
        verify_dual = _from_section(parser, "verify")
        _, (reps, cases) = _from_section(parser, "bench")
        window = build_window(spec, grid)
    except (configparser.Error, ValueError) as exc:  # UnicodeDecodeError is one
        raise ParseError(f"bad configuration: {exc}") from exc
    return RunConfig(grid=grid, window_spec=spec, window=window,
                     lattice=lattice, weight=weight, tol=tol, seed=seed,
                     out=out, methods=methods, verify_dual=verify_dual,
                     bench_reps=reps, bench_cases=cases)


def cmd_analyze(cfg: RunConfig) -> Outputs:
    """Frame bounds, multiplier table, block norms and the empirical constant,
    all read off one operator value.  A system that is not a frame is a
    result here, recorded in ``analyze.json``, not a warning."""
    lat = cfg.lattice
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotAFrameWarning)
        bounds = frame_bounds(cfg.window, lat, tol=cfg.tol)
    W = walnut_coefficients(cfg.window, lat)
    prof = _profile(W.table, cfg.weight)
    am, l2, linf = embedding_check(cfg.window, lat.a, cfg.weight)
    # the multiplier sum over the squared window norm; inf for a zero window
    denom = am ** 2
    ratio = prof.norm / denom if denom else (math.inf if prof.norm > 0 else 0.0)
    table = ((r, x, re, im) for r in signed_range(lat.b)
             for x, (re, im) in enumerate(zip(W.table[r].real.tolist(),
                                              W.table[r].imag.tolist())))
    sups = ((r, sup, nu, sup * nu) for r, sup, nu in
            zip(prof.indices.tolist(), prof.block_sups.tolist(),
                prof.weights.tolist()))
    payload = {
        "A": bounds.A,
        "B": bounds.B,
        "not_a_frame": bounds.not_a_frame,
        "cond": None if bounds.not_a_frame else bounds.B / bounds.A,
        "bounds_method": bounds.method,
        "block_size": _block_size(lat),
        "redundancy": lat.redundancy,
        "weighted_multiplier_sum": prof.norm,
        "window_amalgam_norm": am,
        "empirical_ratio": ratio,
        "seed": cfg.seed,
    }
    return Outputs({
        "bounds.csv": _csv(("A", "B", "method", "not_a_frame"),
                           [(bounds.A, bounds.B, bounds.method,
                             int(bounds.not_a_frame))]),
        "walnut_coeffs.csv": _csv(
            ("factor", "a", "b", "M", "L"),
            chain([(float(W.factor), lat.a, lat.b, lat.M, lat.grid.L),
                   ("r", "x", "re", "im")], table)),
        "walnut.csv": _csv(("r", "sup", "weight", "product"), sups),
        "amalgam.csv": _csv(("norm", "value"), [("amalgam", am), ("l2", l2),
                                                ("linf", linf)]),
        "analyze.json": partial(reports.write_json, payload),
    }, f"analyze: A={bounds.A:.12g} B={bounds.B:.12g} -> {cfg.out}")


def _dual_like(cfg: RunConfig, which: str) -> Outputs:
    """``dual`` or ``tight`` on the one operator value of the window, read
    in dependency order: the ``S^-1`` report first (the fiber cap, the
    not-a-frame verdict and the one decomposition of ``W``), then the
    window, whose verdict reads the eigenvalues ``W`` now holds.  Returns
    the window, the ``S^-1`` report and, for ``dual``, the solver's
    residual history."""
    lat = cfg.lattice
    method = cfg.methods[which]
    summ = dual_summability_report(cfg.window, lat, cfg.weight)
    files = {}
    if which == "dual":
        gd, solver = inverse_solve(cfg.window, lat, cfg.window, method,
                                   cfg.tol)
        residual = duality_defect(cfg.window, gd, lat)
        extra = {"solver_converged": solver.converged}
        files["solver.csv"] = _csv(("iteration", "relative_residual"),
                                   enumerate(solver.residuals.tolist()))
    else:
        gd = tight_window(cfg.window, lat, method, cfg.tol)
        residual = duality_defect(gd, gd, lat)
        extra = {}
    name = f"{which}_window.txt"
    payload = {
        "window_file": name,
        "reconstruction_residual": residual,
        "amalgam_norm": amalgam_norm(gd, lat.a, cfg.weight),
        "l2_norm": norm_l2(gd),
        "seed": cfg.seed,
        **extra,
    }
    summary = {
        "lattice": {"L": lat.grid.L, "s": lat.grid.s, "a": lat.a, "b": lat.b},
        "weight": summ.weight,
        "per_r": [{"r": r, "sup": sup, "nu": nu, "product": prod}
                  for (r, sup, nu, prod) in summ.per_r],
        "weighted_sum": summ.weighted_sum,
        "cross_check_error": summ.cross_check_error,
    }
    files.update({
        name: partial(reports.write_window_file, gd),
        "summability.csv": _csv(
            ("r", "sup", "weight", "product", "cumsum"),
            ((*row, cum) for row, cum in
             zip(summ.per_r, summ.tail_profile.tolist()))),
        "summability.json": partial(reports.write_json, summary),
        f"{which}.json": partial(reports.write_json, payload),
    })
    return Outputs(files, f"{which}: residual={residual:.3e} -> {cfg.out}")


def cmd_dual(cfg: RunConfig) -> Outputs:
    """Canonical dual window with its duality defect and summability reports.

    ``reconstruction_residual`` in ``dual.json`` is
    :func:`duality_defect` of ``(g, gd)``, which bounds ``||S_{g,gd} - I||``.
    """
    return _dual_like(cfg, "dual")


def cmd_tight(cfg: RunConfig) -> Outputs:
    """Canonical tight window with its self-duality defect and the
    summability reports of ``S^-1``; no dual window is solved.

    ``reconstruction_residual`` in ``tight.json`` is :func:`duality_defect`
    of ``(gt, gt)``, which bounds ``||S_{gt,gt} - I||``.
    """
    return _dual_like(cfg, "tight")


def cmd_verify(cfg: RunConfig) -> Outputs:
    """Check the mixed-bracket identity and norm estimate for the instance;
    a failed check is returned with ``verify.json``, which records it."""
    lat = cfg.lattice
    mode, spec = cfg.verify_dual
    gd = {"canonical": lambda: dual_window(cfg.window, lat, tol=cfg.tol),
          "generator": lambda: cfg.window,  # deliberate negative control
          "file": lambda: build_window(spec, cfg.grid)}[mode]()
    ident, lhs, rhs = _verify_pass(cfg.window, gd, lat, cfg.weight)
    ok = ident.max_abs_error < cfg.tol and lhs <= rhs
    payload = {
        "max_abs_error": ident.max_abs_error,
        "worst_k": ident.worst_k,
        "worst_x": ident.worst_x,
        "residue_classes": lat.M // math.gcd(lat.a, lat.M),
        "norm_estimate_lhs": lhs,
        "norm_estimate_rhs": rhs,
        "tolerance": cfg.tol,
        "dual_mode": mode,
        "passed": ok,
    }
    failed = None if ok else ContractViolationError(
        f"identity residual {ident.max_abs_error:.3e} (tol {cfg.tol:.1e}) "
        f"or norm estimate lhs={lhs:.6g} > rhs={rhs:.6g}")
    return Outputs({"verify.json": partial(reports.write_json, payload)},
                   f"verify: residual={ident.max_abs_error:.3e} "
                   f"lhs={lhs:.6g} rhs={rhs:.6g} -> {cfg.out}", failed)


def cmd_counterexample(cfg: RunConfig) -> Outputs:
    """Build the staircase perturbation and report orthogonality and growth."""
    grid = cfg.grid
    h = build_counterexample("harmonic", grid)
    g = build_window(WindowSpec.characteristic(1.0), grid)
    lat = GaborLattice(grid, grid.s // 2, grid.units)
    max_inner, profile = counterexample_report(h, g, lat, cfg.weight)
    radii = np.arange(1, len(profile.weighted_cumsums) + 1)
    payload = {
        "max_inner_product": max_inner,
        "profile_total": profile.norm,
        "units": grid.units,
        "seed": cfg.seed,
    }
    rows = ((n, sup, wgt, sup * wgt, cum) for n, sup, wgt, cum in
            zip(profile.indices.tolist(), profile.block_sups.tolist(),
                profile.weights.tolist(), profile.weighted_cumsums.tolist()))
    return Outputs({
        "profile.csv": _csv(("n", "sup", "weight", "weighted_sup", "cumsum"),
                            rows),
        "growth.svg": partial(
            reports.write_svg_lines,
            series={"weighted cumsum": (radii, profile.weighted_cumsums)},
            title="Block-norm partial sums of the staircase perturbation",
            xlabel="blocks included", ylabel="cumulative weighted sup"),
        "counterexample.json": partial(reports.write_json, payload),
    }, f"counterexample: max inner={max_inner:.3e} "
       f"profile total={profile.norm:.6g} -> {cfg.out}")


def cmd_conjecture(cfg: RunConfig) -> Outputs:
    """Probe both block geometries of the dual window's multiplier sums and
    return their chart and totals.  ``S^-1`` is read first: the stride-M
    series is read off its table, as ``dual``'s summability report reads
    it, which builds ``W``'s one eigendecomposition; the dual's verdict
    then reads the eigenvalues ``W`` holds."""
    lat = cfg.lattice
    W = walnut_coefficients(cfg.window, lat)
    alpha_seq = _profile(_inverse_walnut(W).table, cfg.weight).weighted_cumsums
    gd = dual_window(cfg.window, lat, tol=cfg.tol)
    invbeta_seq = bracket_series(gd, gd, lat, cfg.weight)
    sum_alpha, sum_invbeta = float(alpha_seq[-1]), float(invbeta_seq[-1])
    series = {
        "stride-M at period a": (np.arange(1, len(alpha_seq) + 1), alpha_seq),
        "stride-a at period M": (np.arange(1, len(invbeta_seq) + 1),
                                 invbeta_seq),
    }
    payload = {
        "sum_alpha_blocks": sum_alpha,
        "sum_invbeta_blocks": sum_invbeta,
        "ratio": (sum_invbeta / sum_alpha) if sum_alpha else None,
        "seed": cfg.seed,
    }
    return Outputs({
        "bracket_sums.svg": partial(
            reports.write_svg_lines, series=series,
            title="Weighted multiplier partial sums in both block geometries",
            xlabel="terms included", ylabel="partial sum"),
        "conjecture.json": partial(reports.write_json, payload),
    }, f"conjecture: alpha-blocks={sum_alpha:.6g} "
       f"invbeta-blocks={sum_invbeta:.6g} -> {cfg.out}")


def cmd_bench(cfg: RunConfig) -> Outputs:
    """Median wall times of the double-sum and multiplier applications on the
    lattices of ``[bench] cases``, else the config's own; a case whose double
    sum has more than ``_BENCH_TERMS`` terms raises ``SizeError``."""
    reps = cfg.bench_reps
    lattices = [GaborLattice(build_grid(L, s), a, b)
                for L, s, a, b in cfg.bench_cases] or [cfg.lattice]
    for lat in lattices:  # before any case is timed
        L, terms = lat.grid.L, lat.M * lat.N * lat.grid.L
        if terms > _BENCH_TERMS:
            raise SizeError(f"bench case {L}:{lat.grid.s}:{lat.a}:{lat.b} has a "
                            f"double sum of M*N*L = {terms} terms, above the "
                            f"limit {_BENCH_TERMS}")
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for lat in lattices:
        grid, L, a, b = lat.grid, lat.grid.L, lat.a, lat.b
        g = build_window(cfg.window_spec, grid)
        W = walnut_coefficients(g, lat)
        f = Signal(grid, rng.standard_normal(L) + 1j * rng.standard_normal(L))
        t_direct, t_walnut = [], []
        for _ in range(reps):
            t0 = time.perf_counter()
            y_direct = frame_operator_direct(g, lat, f)
            t_direct.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            y_walnut = frame_operator_walnut(W, f)
            t_walnut.append(time.perf_counter() - t0)
            # a zero window gives zero outputs, and a NaN fails the check
            rel = np.linalg.norm(y_walnut.samples - y_direct.samples) / \
                max(np.linalg.norm(y_direct.samples), 1e-300)
            if not rel <= 1e-10:
                raise ContractViolationError(
                    f"walnut/direct mismatch {rel:.3e} at L={L}, a={a}, b={b}"
                )
        med_d = sorted(t_direct)[reps // 2]
        med_w = sorted(t_walnut)[reps // 2]
        rows.append((L, a, b, med_d, med_w, med_d / med_w))
    return Outputs({
        "bench.csv": _csv((f"# seed={cfg.seed} reps={reps}",),
                          [("L", "a", "b", "t_direct", "t_walnut", "speedup"),
                           *rows]),
    }, "\n".join(f"bench: L={L} a={a} b={b} direct={td:.4f}s "
                 f"walnut={tw:.6f}s speedup={sp:.1f}x"
                 for L, a, b, td, tw, sp in rows))


_DISPATCH = {
    "analyze": cmd_analyze,
    "dual": cmd_dual,
    "tight": cmd_tight,
    "verify": cmd_verify,
    "counterexample": cmd_counterexample,
    "conjecture": cmd_conjecture,
    "bench": cmd_bench,
}
COMMANDS = tuple(_DISPATCH)


# built once: parse_args leaves the parser as it found it
_PARSER = argparse.ArgumentParser(
    prog="gabor-walnut",
    description="Discrete Gabor-frame toolkit command line",
)
_PARSER.add_argument("command", choices=COMMANDS)
_PARSER.add_argument("--config", required=True, help="path to a run config")
_PARSER.add_argument("--out", default=None, help="output directory override")
_PARSER.add_argument("--seed", type=int, default=None, help="seed override")
_PARSER.add_argument("--tol", type=float, default=None,
                     help="tolerance override")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        cfg = load_config(args.config, args)
        cfg.out.mkdir(parents=True, exist_ok=True)
        done = _DISPATCH[args.command](cfg)
        for name, write in done.files.items():
            write(cfg.out / name)
        print(done.text)
        if done.failed is not None:
            raise done.failed
        return EXIT_OK
    except (GaborToolkitError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return next((code for error, code in _EXIT_CODES.items()
                     if isinstance(exc, error)), EXIT_CONFIG)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
