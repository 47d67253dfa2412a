"""Command-line front end: build instances from a config file, run analyses,
emit CSV/JSON reports and SVG plots, and benchmark the two operator paths.

Exit codes: 0 success, 2 configuration or validation error, 3 not a frame,
4 contract violation, 5 convergence failure.
"""

import argparse
import configparser
import math
import sys
import time
import warnings
from dataclasses import dataclass
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
)
from .diagnostics import (
    _convest,
    _identity_residual,
    _verify_tables,
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
    empirical_multiplier_ratio,
    frame_operator_direct,
    frame_operator_walnut,
    walnut_coefficients,
)
from .invert import (
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

COMMANDS = ("analyze", "dual", "tight", "verify", "counterexample",
            "conjecture", "bench")
# Library methods each command accepts in its config section.
METHODS = {"dual": ("fiber", "cg", "dense"),
           "tight": ("fiber", "contour", "dense")}
# Terms M*N*L of the double sum that each `bench` case times at least three
# times: that of 4096:16:32:32, the largest case of the README example.
_BENCH_TERMS = 1 << 26


@dataclass
class RunConfig:
    """Validated run configuration: instance objects plus common options."""

    grid: Grid
    window: Signal
    lattice: GaborLattice
    weight: Weight
    tol: float
    seed: int
    out: Path
    raw: configparser.ConfigParser


def _build_weight(section) -> Weight:
    kind = section.get("kind", "constant").strip()
    if kind == "constant":
        return Weight.constant()
    if kind == "polynomial":
        return Weight.polynomial(section.getfloat("t", 0.0))
    if kind == "subexponential":
        return Weight.subexponential(section.getfloat("c", 1.0),
                                     section.getfloat("gamma", 0.5))
    raise ParseError(f"unknown weight kind {kind!r}")


def _build_window_spec(section) -> WindowSpec:
    kind = section.get("kind", "characteristic").strip()
    if kind == "characteristic":
        return WindowSpec.characteristic(section.getfloat("units", 1.0))
    if kind == "gaussian":
        center = section.getfloat("center", fallback=None)
        return WindowSpec.gaussian(section.getfloat("width", 1.0), center)
    if kind == "hat":
        return WindowSpec.hat()
    if kind == "file":
        path = section.get("path", fallback=None)
        if path is None:
            raise ParseError("file window needs a 'path' key")
        return WindowSpec.from_file(path)
    raise ParseError(f"unknown window kind {kind!r}")


def load_config(path: str, overrides: argparse.Namespace) -> RunConfig:
    """Parse a key=value config file and validate it against the constructors."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ParseError(f"config file {path!r} not found")
        grid = build_grid(parser.getint("grid", "L"), parser.getint("grid", "s"))
        lattice = GaborLattice(grid, parser.getint("lattice", "a"),
                               parser.getint("lattice", "b"))
        window = build_window(_build_window_spec(parser["window"]), grid)
        weight = _build_weight(parser["weight"]) if parser.has_section("weight") \
            else Weight.constant()
        opts = parser["options"] if parser.has_section("options") else {}
        tol = overrides.tol if overrides.tol is not None else float(
            opts.get("tol", 1e-10))
        seed = overrides.seed if overrides.seed is not None else int(
            opts.get("seed", 0))
    except KeyError as exc:
        raise ParseError(f"bad configuration: no section {exc}") from exc
    except (configparser.Error, ValueError) as exc:  # UnicodeDecodeError is one
        raise ParseError(f"bad configuration: {exc}") from exc
    out = Path(overrides.out) if overrides.out is not None else Path(
        opts.get("out", "gw-out"))
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be finite and > 0, got {tol!r}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    return RunConfig(grid=grid, window=window, lattice=lattice, weight=weight,
                     tol=tol, seed=seed, out=out, raw=parser)


def _prepare_out(cfg: RunConfig) -> Path:
    cfg.out.mkdir(parents=True, exist_ok=True)
    return cfg.out


def cmd_analyze(cfg: RunConfig) -> int:
    """Frame bounds, multiplier table, block norms and the empirical constant."""
    out = _prepare_out(cfg)
    lat = cfg.lattice
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotAFrameWarning)
        bounds = frame_bounds(cfg.window, lat, tol=cfg.tol)
    W = walnut_coefficients(cfg.window, lat)
    reports.write_bounds_csv(bounds, out / "bounds.csv")
    reports.write_walnut_csv(W, out / "walnut_coeffs.csv")
    prof = _profile(W.table, cfg.weight)
    with open(out / "walnut.csv", "w", encoding="utf-8") as fh:
        fh.write("r,sup,weight,product\n")
        for r, sup, nu in zip(prof.indices.tolist(), prof.block_sups.tolist(),
                              prof.weights.tolist()):
            fh.write(f"{r},{sup!r},{nu!r},{sup * nu!r}\n")
    am, l2, linf = embedding_check(cfg.window, lat.a, cfg.weight)
    with open(out / "amalgam.csv", "w", encoding="utf-8") as fh:
        fh.write("norm,value\n")
        fh.write(f"amalgam,{am!r}\nl2,{l2!r}\nlinf,{linf!r}\n")
    reports.write_json(
        {
            "A": bounds.A,
            "B": bounds.B,
            "not_a_frame": bounds.not_a_frame,
            "cond": None if bounds.not_a_frame else bounds.B / bounds.A,
            "bounds_method": bounds.method,
            "block_size": _block_size(lat),
            "redundancy": lat.redundancy,
            "weighted_multiplier_sum": prof.norm,
            "window_amalgam_norm": am,
            "empirical_ratio": empirical_multiplier_ratio(cfg.window, lat,
                                                          cfg.weight),
            "seed": cfg.seed,
        },
        out / "analyze.json",
    )
    print(f"analyze: A={bounds.A:.12g} B={bounds.B:.12g} -> {out}")
    return EXIT_OK


def _dual_like(cfg: RunConfig, which: str) -> int:
    method = cfg.raw.get(which, "method", fallback=None)
    if method is not None:
        method = method.strip()
        if method not in METHODS[which]:
            raise ParseError(f"unknown {which} method {method!r}")
    out = _prepare_out(cfg)
    lat = cfg.lattice
    extra = {}
    if which == "dual":
        gd, solver = inverse_solve(cfg.window, lat, cfg.window,
                                   method=method, tol=cfg.tol)
        reports.write_solver_csv(solver, out / "solver.csv")
        extra["solver_converged"] = solver.converged
        residual = duality_defect(cfg.window, gd, lat)
    else:
        gd = tight_window(cfg.window, lat, method=method, tol=cfg.tol)
        residual = duality_defect(gd, gd, lat)
    # the multipliers of S^-1, whichever command and method ran
    summ = dual_summability_report(cfg.window, lat, cfg.weight)
    name = f"{which}_window.txt"
    reports.write_window_file(gd, out / name)
    reports.write_summability_csv(summ, out / "summability.csv")
    reports.write_summability_json(summ, out / "summability.json")
    reports.write_json(
        {
            "window_file": name,
            "reconstruction_residual": residual,
            "amalgam_norm": amalgam_norm(gd, lat.a, cfg.weight),
            "l2_norm": norm_l2(gd),
            "seed": cfg.seed,
            **extra,
        },
        out / f"{which}.json",
    )
    print(f"{which}: residual={residual:.3e} -> {out}")
    return EXIT_OK


def cmd_dual(cfg: RunConfig) -> int:
    """Canonical dual window with its duality defect and summability reports.

    ``reconstruction_residual`` in ``dual.json`` is
    :func:`duality_defect` of ``(g, gd)``, which bounds ``||S_{g,gd} - I||``.
    """
    return _dual_like(cfg, "dual")


def cmd_tight(cfg: RunConfig) -> int:
    """Canonical tight window with its self-duality defect and the
    summability reports of ``S^-1``; no dual window is solved.

    ``reconstruction_residual`` in ``tight.json`` is :func:`duality_defect`
    of ``(gt, gt)``, which bounds ``||S_{gt,gt} - I||``.
    """
    return _dual_like(cfg, "tight")


def cmd_verify(cfg: RunConfig) -> int:
    """Check the mixed-bracket identity and norm estimate for the instance."""
    out = _prepare_out(cfg)
    lat = cfg.lattice
    mode = "canonical"
    if cfg.raw.has_section("verify"):
        mode = cfg.raw["verify"].get("dual", "canonical").strip()
    if mode == "canonical":
        gd = dual_window(cfg.window, lat, tol=min(cfg.tol, 1e-12))
    elif mode == "generator":
        gd = cfg.window  # deliberate negative control
    elif mode == "file":
        path = cfg.raw["verify"].get("path", fallback=None)
        if path is None:
            raise ParseError("verify dual 'file' needs a 'path' key")
        gd = build_window(WindowSpec.from_file(path), cfg.grid)
    else:
        raise ParseError(f"unknown verify dual mode {mode!r}")
    tables = _verify_tables(cfg.window, gd, lat)
    ident = _identity_residual(lat, *tables)
    lhs, rhs = _convest(lat, cfg.weight, *tables)
    ok = ident.max_abs_error < cfg.tol and lhs <= rhs
    reports.write_json(
        {
            "max_abs_error": ident.max_abs_error,
            "worst_k": ident.worst_k,
            "worst_x": ident.worst_x,
            "norm_estimate_lhs": lhs,
            "norm_estimate_rhs": rhs,
            "tolerance": cfg.tol,
            "dual_mode": mode,
            "passed": ok,
        },
        out / "verify.json",
    )
    print(f"verify: residual={ident.max_abs_error:.3e} lhs={lhs:.6g} "
          f"rhs={rhs:.6g} -> {out}")
    if not ok:
        raise ContractViolationError(
            f"identity residual {ident.max_abs_error:.3e} (tol {cfg.tol:.1e}) "
            f"or norm estimate lhs={lhs:.6g} > rhs={rhs:.6g}"
        )
    return EXIT_OK


def cmd_counterexample(cfg: RunConfig) -> int:
    """Build the staircase perturbation and report orthogonality and growth."""
    out = _prepare_out(cfg)
    grid = cfg.grid
    h = build_counterexample("harmonic", grid)
    g = build_window(WindowSpec.characteristic(1.0), grid)
    lat = GaborLattice(grid, grid.s // 2, grid.units)
    max_inner, profile = counterexample_report(h, g, lat, cfg.weight)
    reports.write_profile_csv(profile, out / "profile.csv")
    radii = np.arange(1, len(profile.weighted_cumsums) + 1)
    reports.write_svg_lines(
        out / "growth.svg",
        {"weighted cumsum": (radii, profile.weighted_cumsums)},
        title="Block-norm partial sums of the staircase perturbation",
        xlabel="blocks included",
        ylabel="cumulative weighted sup",
    )
    reports.write_json(
        {
            "max_inner_product": max_inner,
            "profile_total": profile.norm,
            "units": grid.units,
            "seed": cfg.seed,
        },
        out / "counterexample.json",
    )
    print(f"counterexample: max inner={max_inner:.3e} "
          f"profile total={profile.norm:.6g} -> {out}")
    return EXIT_OK


def cmd_conjecture(cfg: RunConfig) -> int:
    """Probe both block geometries of the dual window's multiplier sums; the
    stride-M series is the summability report's, read off ``S^-1``."""
    out = _prepare_out(cfg)
    lat = cfg.lattice
    gd = dual_window(cfg.window, lat, tol=min(cfg.tol, 1e-12))
    alpha_seq = dual_summability_report(cfg.window, lat, cfg.weight,
                                        cross_check=False).tail_profile
    invbeta_seq = bracket_series(gd, gd, lat, cfg.weight)
    sum_alpha, sum_invbeta = float(alpha_seq[-1]), float(invbeta_seq[-1])
    reports.write_svg_lines(
        out / "bracket_sums.svg",
        {
            "stride-M at period a": (np.arange(1, len(alpha_seq) + 1), alpha_seq),
            "stride-a at period M": (np.arange(1, len(invbeta_seq) + 1),
                                     invbeta_seq),
        },
        title="Weighted multiplier partial sums in both block geometries",
        xlabel="terms included",
        ylabel="partial sum",
    )
    reports.write_json(
        {
            "sum_alpha_blocks": sum_alpha,
            "sum_invbeta_blocks": sum_invbeta,
            "ratio": (sum_invbeta / sum_alpha) if sum_alpha else None,
            "seed": cfg.seed,
        },
        out / "conjecture.json",
    )
    print(f"conjecture: alpha-blocks={sum_alpha:.6g} "
          f"invbeta-blocks={sum_invbeta:.6g} -> {out}")
    return EXIT_OK


def _bench_lattices(cfg: RunConfig) -> list[GaborLattice]:
    """The lattices of ``[bench] cases``, else the config's own; a case
    whose double sum has more than ``_BENCH_TERMS`` terms raises
    ``SizeError``."""
    lattices = [cfg.lattice]
    if cfg.raw.has_section("bench") and cfg.raw["bench"].get("cases",
                                                             fallback=None):
        lattices = []
        for chunk in cfg.raw["bench"]["cases"].split(","):
            try:
                L, s, a, b = (int(p) for p in chunk.strip().split(":"))
            except ValueError:
                raise ParseError(f"bench case {chunk!r} is not L:s:a:b") from None
            lattices.append(GaborLattice(build_grid(L, s), a, b))
    for lat in lattices:
        L, terms = lat.grid.L, lat.M * lat.N * lat.grid.L
        if terms > _BENCH_TERMS:
            raise SizeError(f"bench case {L}:{lat.grid.s}:{lat.a}:{lat.b} has a "
                            f"double sum of M*N*L = {terms} terms, above the "
                            f"limit {_BENCH_TERMS}")
    return lattices


def cmd_bench(cfg: RunConfig) -> int:
    """Median wall times of the double-sum and multiplier applications."""
    out = _prepare_out(cfg)
    reps = 3
    if cfg.raw.has_section("bench"):
        try:
            reps = cfg.raw["bench"].getint("reps", 3)
        except ValueError as exc:
            raise ParseError(f"bad bench reps: {exc}") from exc
    if reps < 3:
        raise DomainError(f"benchmark needs at least 3 repetitions, got {reps}")
    lattices = _bench_lattices(cfg)
    rng = np.random.default_rng(cfg.seed)
    rows = []
    spec = _build_window_spec(cfg.raw["window"])
    for lat in lattices:
        grid, L, a, b = lat.grid, lat.grid.L, lat.a, lat.b
        g = build_window(spec, grid)
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
            rel = np.linalg.norm(y_walnut.samples - y_direct.samples) / \
                np.linalg.norm(y_direct.samples)
            if rel > 1e-10:
                raise ContractViolationError(
                    f"walnut/direct mismatch {rel:.3e} at L={L}, a={a}, b={b}"
                )
        med_d = sorted(t_direct)[reps // 2]
        med_w = sorted(t_walnut)[reps // 2]
        rows.append((L, a, b, med_d, med_w, med_d / med_w))
    with open(out / "bench.csv", "w", encoding="utf-8") as fh:
        fh.write(f"# seed={cfg.seed} reps={reps}\n")
        fh.write("L,a,b,t_direct,t_walnut,speedup\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")
    for L, a, b, td, tw, sp in rows:
        print(f"bench: L={L} a={a} b={b} direct={td:.4f}s walnut={tw:.6f}s "
              f"speedup={sp:.1f}x")
    return EXIT_OK


_DISPATCH = {
    "analyze": cmd_analyze,
    "dual": cmd_dual,
    "tight": cmd_tight,
    "verify": cmd_verify,
    "counterexample": cmd_counterexample,
    "conjecture": cmd_conjecture,
    "bench": cmd_bench,
}


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
        return _DISPATCH[args.command](cfg)
    except NotAFrameError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NOT_A_FRAME
    except ContractViolationError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except ConvergenceError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (GaborToolkitError, configparser.Error, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
