"""The benchmark's workloads: ``solve``, ``transform`` and ``desk``.

Every window is a Gaussian of width 1 at s = 16 samples per unit unless
stated.  The seed draws every random signal and moves each window centre by
whole lattice steps; the frame operator commutes with those shifts, so B/A
and the iteration counts, and with them the cost of a job, do not depend on
the seed.  Calls go through module attributes (``gw.frame_bounds``) so that
the traced run's rebinding sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from pathlib import Path

import numpy as np

import gaborwalnut as gw
from gaborwalnut import cli, invert, reports

from harness import Job, interpreter_reference

S = 16
TOL = 1e-10
FIXTURE_TOL = 1e-12
RECON_TOL = 1e-8
SYMMETRY_TOL = 1e-10
SCALAR_TOL = 1e-12
MAX_SHIFT = 8  # centre moves by up to this many lattice steps either way


def instance(L: int, a: int, b: int, shift: int = 0):
    """Gaussian window (width 1) and lattice, centre moved by ``shift`` steps of ``a``."""
    grid = gw.build_grid(L, S)
    lat = gw.GaborLattice(grid, a, b)
    centre = grid.units / 2 + shift * a / S
    return gw.build_window(gw.WindowSpec.gaussian(1.0, centre), grid), lat


def random_signal(grid, rng) -> "gw.Signal":
    return gw.Signal(grid, rng.standard_normal(grid.L)
                     + 1j * rng.standard_normal(grid.L))


def shift(rng) -> int:
    return int(rng.integers(-MAX_SHIFT, MAX_SHIFT + 1))


def default_bounds_method(L: int) -> str:
    """The method ``inverse_solve`` itself picks for bounds at this size."""
    return "dense" if L <= invert.DENSE_LIMIT else "power_iteration"


def solve_dual(g, lat, tol=TOL):
    """Frame bounds at the default method for the size, then the CG dual."""
    fb = gw.frame_bounds(g, lat, method=default_bounds_method(lat.grid.L))
    return gw.inverse_solve(g, lat, g, bounds=fb, tol=tol)[0]


def reconstruction_check(g, gd, lat, seed: int) -> str | None:
    """``None`` when ``gd`` reconstructs with ``g`` (one seeded trial)."""
    res = gw.verify_reconstruction(g, gd, lat, trials=1, seed=seed)
    if not res <= RECON_TOL:
        return f"reconstruction residual {res:.3e} > {RECON_TOL:g}"
    return None


def relative(x: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))


_STREAM = np.exp(2j * np.pi * np.arange(65536) / 65536)  # 1 MiB


def stream_reference() -> float:
    """Time 4 rolled multiply-adds over a 1 MiB array, like a Walnut apply.

    The reference of memory-bound jobs: a busy sibling thread slows them
    less than it slows the interpreter.
    """
    t0 = time.perf_counter()
    out = np.zeros_like(_STREAM)
    for k in range(4):
        out += _STREAM * np.roll(_STREAM, 1024 * k)
    return time.perf_counter() - t0


# ---------------------------------------------------------------- solve


class Solve:
    """Dual and tight windows beyond the dense limit; ``invert`` does the work.

    L = 2048 is the smallest power of two above the dense limit (1024); one
    cycle already takes about 35 s there.  ``c2`` and ``c268`` keep the
    continuum lattices of the L = 4096 reference instances (alpha = 1 and 2,
    beta = 1/8), so B/A is about 2.4 and 268 as at L = 4096.  The tight job
    on ``c268`` runs into its deadline at this commit; it stays in the mix.
    Deadlines count reference loop times (see ``harness``).
    """

    name = "solve"
    reference = staticmethod(interpreter_reference)
    L = 2048
    LATTICES = {"c2": (16, 16), "c268": (32, 16)}
    # About twice the slowest job that succeeds: tight c2 takes up to 2700
    # reference loops (7-11 s on a shared 2-vCPU virtual machine).
    deadline_refs = 5500

    def setup(self, rng, workdir: Path) -> list[Job]:
        g, lat = instance(256, 8, 8)
        return [self._dual("dual/warmup", g, lat, 0),
                self._tight("tight/warmup", g, lat, 0)]

    def cycle(self, rng) -> list[Job]:
        jobs = []
        for kind in ("dual", "tight"):
            for name, (a, b) in self.LATTICES.items():
                g, lat = instance(self.L, a, b, shift(rng))
                make = self._dual if kind == "dual" else self._tight
                jobs.append(make(f"{kind}/{name}", g, lat,
                                 int(rng.integers(2**31))))
        return jobs

    @staticmethod
    def _dual(label, g, lat, seed) -> Job:
        return Job("dual", label, lambda: solve_dual(g, lat),
                   lambda gd: reconstruction_check(g, gd, lat, seed))

    @staticmethod
    def _tight(label, g, lat, seed) -> Job:
        return Job("tight", label, lambda: gw.tight_window(g, lat, tol=TOL),
                   lambda gt: reconstruction_check(gt, gt, lat, seed))


# ------------------------------------------------------------ transform


def symmetry_defect(pairs) -> float:
    """Worst relative ``|<Sf,h> - <f,Sh>|`` over ``((f, Sf), (h, Sh))`` pairs."""
    worst = 0.0
    for (f, Sf), (h, Sh) in pairs:
        lhs = np.vdot(h.samples, Sf.samples)
        rhs = np.vdot(Sh.samples, f.samples)
        scale = np.linalg.norm(Sf.samples) * np.linalg.norm(h.samples)
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


class Transform:
    """Operator applications at the north-star sizes; ``frame_op`` does the work.

    stream: one multiplier table, then 32 applications on seeded signals.
    sweep: a fresh seeded window, its table and one application.
    coeffs: analysis with the canonical dual, synthesis with the window.
    Per cycle: 1 stream and 8 sweep jobs at each size, then 2 coeffs jobs.
    """

    name = "transform"
    reference = staticmethod(stream_reference)
    SIZES = ((16384, 32, 64), (65536, 64, 64))
    COEFFS = (4096, 16, 32)
    STREAM_APPLIES = 32
    SWEEPS = 8
    COEFFS_JOBS = 2
    deadline_refs = 5000  # about 10 s

    def setup(self, rng, workdir: Path) -> list[Job]:
        self.g_c, self.lat_c = instance(*self.COEFFS, shift(rng))
        self.gd_c = solve_dual(self.g_c, self.lat_c, tol=FIXTURE_TOL)
        self.W_c = gw.walnut_coefficients(self.g_c, self.lat_c)
        self.scalar = {L: self._scalar_instance(L, b) for L, _, b in self.SIZES}
        g, lat = instance(1024, 16, 16)
        f = random_signal(lat.grid, rng)
        return [self._stream("stream/warmup", g, lat, [f, f]),
                self._sweep("sweep/warmup", lat, 0, f, f),
                self._coeffs("coeffs/warmup", random_signal(self.lat_c.grid, rng))]

    @staticmethod
    def _scalar_instance(L: int, b: int):
        """Unit box with a = s/2 and b = L/s: its frame operator is exactly 2 I.

        s is L/b so that the table has the same b terms as the workload's.
        """
        grid = gw.build_grid(L, L // b)
        lat = gw.GaborLattice(grid, grid.s // 2, b)
        box = gw.build_window(gw.WindowSpec.characteristic(1.0), grid)
        return gw.walnut_coefficients(box, lat)

    def cycle(self, rng) -> list[Job]:
        jobs = []
        for L, a, b in self.SIZES:
            g, lat = instance(L, a, b, shift(rng))
            fs = [random_signal(lat.grid, rng) for _ in range(self.STREAM_APPLIES)]
            jobs.append(self._stream(f"stream/{L}", g, lat, fs))
            for _ in range(self.SWEEPS):
                jobs.append(self._sweep(f"sweep/{L}", lat, shift(rng),
                                        random_signal(lat.grid, rng),
                                        random_signal(lat.grid, rng)))
        for _ in range(self.COEFFS_JOBS):
            jobs.append(self._coeffs(f"coeffs/{self.COEFFS[0]}",
                                     random_signal(self.lat_c.grid, rng)))
        return jobs

    def _stream(self, label, g, lat, fs) -> Job:
        def run():
            W = gw.walnut_coefficients(g, lat)
            return [gw.frame_operator_walnut(W, f) for f in fs]

        def check(outs):
            pairs = list(zip(fs, outs))
            defect = symmetry_defect(zip(pairs, pairs[1:]))
            if not defect <= SYMMETRY_TOL:
                return f"Hermitian symmetry defect {defect:.3e}"
            if not all(np.vdot(f.samples, Sf.samples).real > 0 for f, Sf in pairs):
                return "<Sf, f> not positive"
            return self._scalar_check(lat.grid.L, fs[0])

        return Job("stream", label, run, check, ops=len(fs))

    def _scalar_check(self, L, f) -> str | None:
        W = self.scalar.get(L)
        if W is None:
            return None
        x = gw.Signal(W.lat.grid, f.samples)
        err = relative(gw.frame_operator_walnut(W, x).samples, 2 * x.samples)
        if not err <= SCALAR_TOL:
            return f"scalar instance S = 2I off by {err:.3e}"
        return None

    def _sweep(self, label, lat, steps, f, h) -> Job:
        centre = lat.grid.units / 2 + steps * lat.a / S

        def run():
            g = gw.build_window(gw.WindowSpec.gaussian(1.0, centre), lat.grid)
            W = gw.walnut_coefficients(g, lat)
            return W, gw.frame_operator_walnut(W, f)

        def check(out):
            W, Sf = out
            Sh = gw.frame_operator_walnut(W, h)
            defect = symmetry_defect([((f, Sf), (h, Sh))])
            if not defect <= SYMMETRY_TOL:
                return f"Hermitian symmetry defect {defect:.3e}"
            if not np.vdot(f.samples, Sf.samples).real > 0:
                return "<Sf, f> not positive"
            return None

        return Job("sweep", label, run, check)

    def _coeffs(self, label, f) -> Job:
        g, gd, lat = self.g_c, self.gd_c, self.lat_c

        def run():
            return gw.synthesis(g, lat, gw.analysis(gd, lat, f))

        def check(y):
            res = relative(y.samples, f.samples)
            if not res <= RECON_TOL:
                return f"round trip residual {res:.3e} > {RECON_TOL:g}"
            direct = gw.frame_operator_direct(g, lat, f).samples
            err = relative(gw.frame_operator_walnut(self.W_c, f).samples, direct)
            if not err <= SYMMETRY_TOL:
                return f"walnut apply differs from the double sum by {err:.3e}"
            return None

        return Job("coeffs", label, run, check)


# ----------------------------------------------------------------- desk

CONFIG = """\
[grid]
L = {L}
s = {s}

[lattice]
a = {a}
b = {b}

[window]
kind = gaussian
width = 1.0
center = {centre!r}

[weight]
kind = polynomial
t = 2

[options]
tol = {tol!r}
seed = {seed}

[verify]
{verify}
"""


class Desk:
    """In-process CLI runs; ``cli``, ``reports``, ``diagnostics`` do the work.

    One pass: at L = 256 (a = b = 8) analyze, dual, tight, verify (canonical),
    verify (dual = generator, expected exit 4), counterexample, conjecture
    and bench; then verify (dual = file) and counterexample at L = 4096
    (a = 16, b = 32) and L = 8192 (a = 16, b = 64), reading dual windows
    solved and written in set-up.
    """

    name = "desk"
    reference = staticmethod(interpreter_reference)
    SMALL = (256, 8, 8)
    LARGE = ((4096, 16, 32), (8192, 16, 64))
    deadline_refs = 6000  # about 20 s

    def setup(self, rng, workdir: Path) -> list[Job]:
        self.workdir = workdir
        self.seed = int(rng.integers(2**31))
        L, a, b = self.SMALL
        steps = shift(rng)
        self.runs = []
        for tag, cmd, verify, code in (
            ("analyze", "analyze", "canonical", 0),
            ("dual", "dual", "canonical", 0),
            ("tight", "tight", "canonical", 0),
            ("verify-canonical", "verify", "canonical", 0),
            ("verify-generator", "verify", "generator", cli.EXIT_CONTRACT),
            ("counterexample", "counterexample", "canonical", 0),
            ("conjecture", "conjecture", "canonical", 0),
            ("bench", "bench", "canonical", 0),
        ):
            self.runs.append(self._config(f"{tag}-{L}", cmd, L, a, b, steps,
                                          f"dual = {verify}", code))
        for L, a, b in self.LARGE:
            steps = shift(rng)
            g, lat = instance(L, a, b, steps)
            path = workdir / f"dual-{L}.txt"
            reports.write_window_file(solve_dual(g, lat, tol=FIXTURE_TOL), path)
            verify = f"dual = file\npath = {path}"
            self.runs.append(self._config(f"verify-file-{L}", "verify", L, a, b,
                                          steps, verify, 0))
            self.runs.append(self._config(f"counterexample-{L}", "counterexample",
                                          L, a, b, steps, verify, 0))
        warm_L, warm_a, warm_b = 64, 4, 4
        warm = self._config("analyze-warmup", "analyze", warm_L, warm_a, warm_b,
                            0, "dual = canonical", 0)
        return [self._job(*warm)]

    def _config(self, tag, cmd, L, a, b, steps, verify, code):
        path = self.workdir / f"{tag}.cfg"
        path.write_text(CONFIG.format(L=L, s=S, a=a, b=b,
                                      centre=L / S / 2 + steps * a / S,
                                      tol=TOL, seed=self.seed, verify=verify),
                        encoding="utf-8")
        return tag, cmd, path, self.workdir / tag, code

    def cycle(self, rng) -> list[Job]:
        return [self._job(*run) for run in self.runs]

    def _job(self, tag, cmd, config, out, code) -> Job:
        argv = [cmd, "--config", str(config), "--out", str(out)]

        def run():
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                return cli.main(argv)

        def check(exit_code):
            if exit_code != code:
                return f"exit code {exit_code}, expected {code}"
            return check_outputs(cmd, out, expect_pass=code == 0)

        return Job("cli", f"cli/{tag}", run, check, span=f"cli.{cmd}")


def check_outputs(cmd: str, out: Path, expect_pass: bool) -> str | None:
    """Check the JSON fields a CLI command wrote."""
    def field(name, key):
        return json.loads((out / name).read_text(encoding="utf-8"))[key]

    if cmd in ("dual", "tight"):
        res = field(f"{cmd}.json", "reconstruction_residual")
        if not res <= RECON_TOL:
            return f"{cmd} reconstruction_residual {res:.3e} > {RECON_TOL:g}"
    elif cmd == "verify":
        if field("verify.json", "passed") is not expect_pass:
            return f"verify passed is not {expect_pass}"
    elif cmd == "analyze":
        A, B = field("analyze.json", "A"), field("analyze.json", "B")
        if not 0 < A <= B:
            return f"frame bounds A={A!r}, B={B!r}"
    elif cmd == "counterexample":
        inner = field("counterexample.json", "max_inner_product")
        if not inner <= SYMMETRY_TOL:
            return f"counterexample max_inner_product {inner:.3e}"
    elif cmd == "conjecture":
        alpha = field("conjecture.json", "sum_alpha_blocks")
        if not 0 < alpha < float("inf"):
            return f"conjecture sum_alpha_blocks {alpha!r}"
    elif cmd == "bench":
        rows = (out / "bench.csv").read_text(encoding="utf-8").splitlines()
        if len(rows) != 3 or not float(rows[2].split(",")[-1]) > 0:
            return "bench.csv lacks its timing row"
    return None


WORKLOADS = {w.name: w for w in (Solve, Transform, Desk)}
