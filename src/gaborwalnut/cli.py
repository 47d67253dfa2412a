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
from .amalgam import amalgam_norm, embedding_check
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
    bracket_series,
    build_counterexample,
    convo_identity_residual,
    counterexample_report,
    dual_summability_report,
    estimate_convest,
)
from .errors import (
    ContractViolationError,
    ConvergenceError,
    DomainError,
    GaborToolkitError,
    NotAFrameError,
    NotAFrameWarning,
    ParseError,
)
from .frame_op import (
    empirical_multiplier_ratio,
    frame_operator_direct,
    frame_operator_walnut,
    walnut_coefficients,
    walnut_weighted_sum,
)
from .invert import (
    dual_window,
    frame_bounds,
    inverse_solve,
    tight_window,
    verify_reconstruction,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOT_A_FRAME = 3
EXIT_CONTRACT = 4
EXIT_CONVERGENCE = 5

COMMANDS = ("analyze", "dual", "tight", "verify", "counterexample",
            "conjecture", "bench")


@dataclass
class RunConfig:
    """Validated run configuration: instance objects plus common options."""

    grid: Grid
    window: Signal
    lattice: GaborLattice
    weight: Weight
    tol: float
    trials: int
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
    read = parser.read(path)
    if not read:
        raise ParseError(f"config file {path!r} not found")
    try:
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
        trials = int(opts.get("trials", 20))
    except (configparser.Error, ValueError) as exc:
        raise ParseError(f"bad configuration: {exc}") from exc
    out = Path(overrides.out) if overrides.out is not None else Path(
        opts.get("out", "gw-out"))
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be finite and > 0, got {tol!r}")
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    return RunConfig(grid=grid, window=window, lattice=lattice, weight=weight,
                     tol=tol, trials=trials, seed=seed, out=out, raw=parser)


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
    with open(out / "walnut.csv", "w", encoding="utf-8") as fh:
        fh.write("r,sup,weight,product\n")
        for r, sup in W.sup_norms().items():
            nu = float(cfg.weight(r))
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
            "redundancy": lat.redundancy,
            "weighted_multiplier_sum": walnut_weighted_sum(W, cfg.weight),
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
    default = "cg" if which == "dual" else "contour"
    method = default
    if cfg.raw.has_section(which):
        method = cfg.raw[which].get("method", default).strip()
    if method not in (default, "dense"):
        raise ParseError(f"unknown {which} method {method!r}")
    out = _prepare_out(cfg)
    lat = cfg.lattice
    if which == "dual":
        gd, solver = inverse_solve(cfg.window, lat, cfg.window,
                                   method=method, tol=cfg.tol)
        reports.write_solver_csv(solver, out / "solver.csv")
        name = "dual_window.txt"
    else:
        gd = tight_window(cfg.window, lat, method=method, tol=cfg.tol)
        name = "tight_window.txt"
    reports.write_window_file(gd, out / name)
    residual = verify_reconstruction(cfg.window, gd, lat, trials=cfg.trials,
                                     seed=cfg.seed) if which == "dual" else \
        verify_reconstruction(gd, gd, lat, trials=cfg.trials, seed=cfg.seed)
    summ = dual_summability_report(cfg.window, lat, cfg.weight,
                                   tol=min(cfg.tol, 1e-12))
    reports.write_summability_csv(summ, out / "summability.csv")
    reports.write_summability_json(summ, out / "summability.json")
    reports.write_json(
        {
            "window_file": name,
            "reconstruction_residual": residual,
            "amalgam_norm": amalgam_norm(gd, lat.a, cfg.weight),
            "l2_norm": norm_l2(gd),
            "seed": cfg.seed,
        },
        out / f"{which}.json",
    )
    print(f"{which}: residual={residual:.3e} -> {out}")
    return EXIT_OK


def cmd_dual(cfg: RunConfig) -> int:
    """Canonical dual window with reconstruction and summability reports."""
    return _dual_like(cfg, "dual")


def cmd_tight(cfg: RunConfig) -> int:
    """Canonical tight window with self-duality and summability reports."""
    return _dual_like(cfg, "tight")


def cmd_verify(cfg: RunConfig) -> int:
    """Check the mixed-bracket identity and norm estimate for the instance."""
    out = _prepare_out(cfg)
    lat = cfg.lattice
    mode = "canonical"
    if cfg.raw.has_section("verify"):
        mode = cfg.raw["verify"].get("dual", "canonical").strip()
    if mode == "canonical":
        gd = dual_window(cfg.window, lat, method="cg", tol=min(cfg.tol, 1e-12))
    elif mode == "generator":
        gd = cfg.window  # deliberate negative control
    elif mode == "file":
        spec = WindowSpec.from_file(cfg.raw["verify"]["path"])
        gd = build_window(spec, cfg.grid)
    else:
        raise ParseError(f"unknown verify dual mode {mode!r}")
    ident = convo_identity_residual(cfg.window, gd, lat)
    lhs, rhs = estimate_convest(cfg.window, gd, lat, cfg.weight)
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
    rule = "harmonic"
    if cfg.raw.has_section("counterexample"):
        rule = cfg.raw["counterexample"].get("rule", "harmonic").strip()
    if rule != "harmonic":
        raise ParseError(f"unsupported counterexample rule {rule!r}")
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
    """Probe both block geometries of the dual window's multiplier sums."""
    out = _prepare_out(cfg)
    lat = cfg.lattice
    gd = dual_window(cfg.window, lat, method="cg", tol=min(cfg.tol, 1e-12))
    alpha_seq = np.cumsum([
        sup * float(cfg.weight(r))
        for r, sup in walnut_coefficients(gd, lat).sup_norms().items()
    ])
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


def _bench_cases(cfg: RunConfig):
    if cfg.raw.has_section("bench") and cfg.raw["bench"].get("cases",
                                                             fallback=None):
        cases = []
        for chunk in cfg.raw["bench"]["cases"].split(","):
            parts = chunk.strip().split(":")
            if len(parts) != 4:
                raise ParseError(f"bench case {chunk!r} is not L:s:a:b")
            cases.append(tuple(int(p) for p in parts))
        return cases
    lat = cfg.lattice
    return [(cfg.grid.L, cfg.grid.s, lat.a, lat.b)]


def cmd_bench(cfg: RunConfig) -> int:
    """Median wall times of the double-sum and multiplier applications."""
    out = _prepare_out(cfg)
    reps = 3
    if cfg.raw.has_section("bench"):
        reps = cfg.raw["bench"].getint("reps", 3)
    if reps < 3:
        raise DomainError(f"benchmark needs at least 3 repetitions, got {reps}")
    rng = np.random.default_rng(cfg.seed)
    rows = []
    spec = _build_window_spec(cfg.raw["window"])
    for (L, s, a, b) in _bench_cases(cfg):
        grid = build_grid(L, s)
        lat = GaborLattice(grid, a, b)
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gabor-walnut",
        description="Discrete Gabor-frame toolkit command line",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a run config")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    parser.add_argument("--tol", type=float, default=None,
                        help="tolerance override")
    args = parser.parse_args(argv)
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
