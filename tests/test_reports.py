import csv
import inspect
import json
import math
import re

import numpy as np
import pytest

from gaborwalnut import (
    GaborLattice,
    ParseError,
    Signal,
    Weight,
    WindowSpec,
    build_counterexample,
    build_grid,
    build_window,
    counterexample_report,
    dual_summability_report,
    inverse_solve,
    read_window_file,
    reports,
    signed_range,
    walnut_coefficients,
)
import gaborwalnut.core
from gaborwalnut.cli import main
from gaborwalnut.reports import (
    _SVG_HEIGHT,
    _SVG_WIDTH,
    write_svg_lines,
    write_window_file,
)


@pytest.fixture
def chi_lat():
    grid = build_grid(8, 4)
    return build_window(WindowSpec.characteristic(1.0), grid), \
        GaborLattice(grid, 2, 2)


def test_window_file_round_trip(tmp_path):
    grid = build_grid(16, 4)
    rng = np.random.default_rng(6)
    sig = Signal(grid, rng.standard_normal(16) + 1j * rng.standard_normal(16))
    path = tmp_path / "window.txt"
    write_window_file(sig, path)
    back = read_window_file(str(path), grid)
    assert np.array_equal(back.samples, sig.samples)
    # the file window spec goes through the same reader
    spec = WindowSpec.from_file(str(path))
    assert np.array_equal(build_window(spec, grid).samples, sig.samples)


def test_window_file_bytes_match_line_by_line_format(tmp_path):
    # the block-joined writer against one f-string per sample, on signed
    # zeros, subnormals, extremes, integers and random values; 2052 lines
    # are two whole blocks of 1024 and a partial one
    grid = build_grid(2052, 4)
    rng = np.random.default_rng(7)
    samples = rng.standard_normal(2052) + 1j * rng.standard_normal(2052)
    samples[:8] = [complex(-0.0, 0.0), complex(0.0, -0.0), 5e-324 - 1e-310j,
                   1e300 - 1e-300j, -1e300 + 2.5e-308j, 3 + 0j, -7 + 12j,
                   complex(2**53, -(2**60))]
    sig = Signal(grid, samples)
    path = tmp_path / "window.txt"
    write_window_file(sig, path)
    expect = "".join(f"{float(v.real)!r} {float(v.imag)!r}\n"
                     for v in sig.samples)
    assert path.read_bytes() == expect.encode("utf-8")


def test_window_file_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1.0 0.0\nnot numbers here\n")
    with pytest.raises(ParseError):
        read_window_file(str(path), build_grid(8, 4))


def test_window_file_wrong_length(tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("1.0 0.0\n2.0 0.0\n")
    with pytest.raises(ParseError):
        read_window_file(str(path), build_grid(8, 4))


def read_line_by_line(path, L):
    """The line-by-line reader: the reference for every accept and reject."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(f"{path}:{lineno}: expected 're im', got {line!r}")
            try:
                re, im = float(parts[0]), float(parts[1])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            if not (math.isfinite(re) and math.isfinite(im)):
                raise ParseError(f"{path}:{lineno}: non-finite sample {line!r}")
            values.append(complex(re, im))
    if len(values) != L:
        raise ParseError(f"{path}: expected {L} sample lines, found {len(values)}")
    return np.array(values, dtype=complex)


WINDOW_TEXTS = {
    "plain": "1.0 0.0\n-0.0 2.5\n0.0 -0.0\n3 4\n",
    "no-final-newline": "1.0 0.0\n-0.0 2.5\n0.0 -0.0\n3 4",
    "spacing": "  1.0\t0.0  \n-0.0 \x0b 2.5\n\x0c0.0\x1c-0.0\n3   4\t\n",
    "crlf": "1.0 0.0\r\n-0.0 2.5\r\n0.0 -0.0\r\n3 4\r\n",
    "cr": "1.0 0.0\r-0.0 2.5\r0.0 -0.0\r3 4\r",
    "spellings": "1_0 +.5\ninfinity 0\n0x1p3 1\n1,5 2\n",
    "numpy-agrees": "1_0 +.5\n1e-400 -.5e1\n1E5 -0\n.5 5.\n",
    "huge": "1e500 0\n1 1\n1 1\n1 1\n",
    "nan": "1 1\n1 nan\n1 1\n1 1\n",
    "three-then-one": "1 2 3\n4\n5 6\n7 8\n",
    "one-then-three": "1\n2 3 4\n5 6\n7 8\n",
    "blank-middle": "1 2\n\n3 4\n5 6\n7 8\n",
    "blank-end": "1 2\n3 4\n5 6\n7 8\n\n",
    "spaces-end": "1 2\n3 4\n5 6\n7 8\n   ",
    "short": "1 2\n3 4\n5 6\n",
    "long": "1 2\n3 4\n5 6\n7 8\n9 10\n",
    "nul": "1 2\n3 4\x00\n5 6\n7 8\n",
    "nbsp": "1\xa02\n3 4\n5 6\n7 8\n",
    "line-separator": "1 2\u20283 4\n5 6\n7 8\n",
    "next-line": "1 2\x853 4\n5 6\n7 8\n",
    "bom": "\ufeff1 2\n3 4\n5 6\n7 8\n",
    "arabic-digits": "\u0661 2\n3 4\n5 6\n7 8\n",
    "empty": "",
    # edges of the np.loadtxt path: files it reads, files it refuses and
    # files it never sees
    "whitespace-line-of-five": "1 2\n3 4\n \t \n5 6\n7 8\n",
    "whitespace-line-of-four": "1 2\n \t\n5 6\n7 8\n",
    "crlf-no-final-newline": "1 2\r\n3 4\r\n5 6\r\n7 8",
    "crlf-and-lf": "1 2\r\n3 4\n5 6\r\n7 8\n",
    "cr-and-lf": "1 2\r3 4\n5 6\n7 8\n",
    "cr-and-crlf-of-five": "1 2\r\r\n3 4\n5 6\n7 8\n",
    "leading-plus": "+1 +2\n+3.5 -4\n+.5e+1 6\n7 +8E-0\n",
    "plus-inf": "1 2\n+inf 4\n5 6\n7 8\n",
    "nul-between": "1 2\n3\x004\n5 6\n7 8\n",
    "hash-token": "1 2\n3 #\n5 6\n7 8\n",
    "hash-comment": "1 2\n3 4 # five\n5 6\n7 8\n",
    "hash-line": "1 2\n# 3 4\n5 6\n7 8\n",
    "signs-only": "1 2\n+ -\n5 6\n7 8\n",
    "exponent-only": "1 2\n3 e\n5 6\n7 8\n",
    "two-points": "1 2\n3 4..\n5 6\n7 8\n",
    "sign-inside": "1 2\n3-4 5\n5 6\n7 8\n",
}


@pytest.mark.parametrize("name", sorted(WINDOW_TEXTS))
def test_window_file_blocks_match_line_by_line(tmp_path, name):
    path = tmp_path / f"{name}.txt"
    path.write_bytes(WINDOW_TEXTS[name].encode("utf-8"))
    grid = build_grid(4, 2)
    try:
        expect = read_line_by_line(str(path), 4)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            read_window_file(str(path), grid)
        assert str(got.value) == str(exc)
    else:
        back = read_window_file(str(path), grid).samples
        assert np.array_equal(back.view(np.int64), expect.view(np.int64))


def test_window_file_not_utf8(tmp_path):
    # the decoding error surfaces where the line-by-line reader meets it,
    # as a ParseError naming the file
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"1 2\n3 4\n5 6\n7 \xe9\n")
    with pytest.raises(UnicodeDecodeError):
        read_line_by_line(str(path), 4)
    with pytest.raises(ParseError, match=r"latin1\.txt: not UTF-8 text"):
        read_window_file(str(path), build_grid(4, 2))
    path.write_bytes(b"1 2 3\n" + b"0 0\n" * 5000 + b"\xe9 1\n")
    with pytest.raises(ParseError, match=":1: expected"):
        read_window_file(str(path), build_grid(4, 2))


def line_by_line_message(path, L):
    """The message the line-by-line reader fails with, a decoding error
    reported as ``read_window_file`` words it."""
    try:
        read_line_by_line(path, L)
    except ParseError as exc:
        return str(exc)
    except UnicodeDecodeError as exc:
        return f"{path}: not UTF-8 text ({exc.reason})"
    raise AssertionError(f"{path} is well formed")


# 41 bytes a line: 200 of them reach past the 8 KiB that a text-mode read
# decodes at a time
LONG = "0.12345678901234567 -0.12345678901234567\n"


@pytest.mark.parametrize("lines, bad, expect", [
    # the malformed line is decoded before the chunk that holds the bad
    # byte, so it is read first and its message wins
    ([LONG] * 99 + ["1 2 3\n"] + [LONG] * 110 + ["\xe9 1\n"] + [LONG] * 45,
     "latin1", ":100: expected 're im'"),
    # both in the first decoded chunk: the decoder fails before any of its
    # lines is read
    (["1 2\n", "3 4 5\n", "6 7\n", "8 \xe9\n"], "latin1", ": not UTF-8 text"),
    # a latin-1 NBSP, which np.loadtxt would take for a blank
    (["1\xa02\n", "3 4\n", "5 6\n", "7 8\n"], "latin1", ": not UTF-8 text"),
])
def test_window_file_bad_line_and_bad_byte(tmp_path, lines, bad, expect):
    path = tmp_path / "mixed.txt"
    path.write_bytes("".join(lines).encode(bad))
    with pytest.raises(ParseError) as got:
        read_window_file(str(path), build_grid(len(lines), 1))
    assert str(got.value) == line_by_line_message(str(path), len(lines))
    assert expect in str(got.value)


@pytest.mark.parametrize("lineno, text", [
    (257, "1 2 3"), (513, "1"), (700, "x 0"), (1000, "inf 0"), (600, "")])
def test_window_file_first_bad_line_in_a_later_batch(tmp_path, lineno, text):
    # the first bad line past the start of the file is the one named; a
    # second bad line after it changes nothing
    grid = build_grid(1000, 4)
    rng = np.random.default_rng(lineno)
    path = tmp_path / "window.txt"
    write_window_file(Signal(grid, rng.standard_normal(1000)
                             + 1j * rng.standard_normal(1000)), path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[lineno - 1] = text + "\n"
    if lineno < 1000:
        lines[-1] = "nan 0\n"
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(ParseError) as got:
        read_window_file(str(path), grid)
    assert str(got.value).startswith(f"{path}:{lineno}: ")
    assert str(got.value) == line_by_line_message(str(path), 1000)


@pytest.mark.parametrize("text", ["1 2\n3 4\n", "1 2\n3 x\n"])
def test_window_file_opened_once(tmp_path, monkeypatch, text):
    path = tmp_path / "window.txt"
    path.write_text(text)
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(gaborwalnut.core, "open", counting_open, raising=False)
    try:
        read_window_file(str(path), build_grid(2, 1))
    except ParseError:
        pass
    assert opened == [str(path)]


@pytest.mark.filterwarnings("error")
def test_window_file_all_blank_warns_nothing(tmp_path):
    # np.loadtxt warns on a file with no data: an all-blank file of L lines
    # is walked instead, and refused at its first line without a warning
    path = tmp_path / "blank.txt"
    path.write_bytes(b"\n \n\t\n  \n")
    with pytest.raises(ParseError, match=r"blank\.txt:1: expected 're im'"):
        read_window_file(str(path), build_grid(4, 2))


@pytest.mark.parametrize("newline, final", [("\n", True), ("\r\n", True), ("\n", False)])
def test_window_file_plain_is_one_loadtxt(tmp_path, monkeypatch, newline, final):
    # a written window, its CRLF copy and a copy without the last line end
    # are converted by one np.loadtxt call whose array the signal keeps: no
    # silent fall back to the line walk
    grid = build_grid(300, 4)
    rng = np.random.default_rng(8)
    sig = Signal(grid, rng.standard_normal(300) + 1j * rng.standard_normal(300))
    path = tmp_path / "window.txt"
    write_window_file(sig, path)
    text = path.read_bytes().replace(b"\n", newline.encode())
    path.write_bytes(text if final else text.rstrip())
    calls = []
    loadtxt = np.loadtxt

    def counting_loadtxt(*args, **kwargs):
        calls.append(loadtxt(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(gaborwalnut.core.np, "loadtxt", counting_loadtxt)
    back = read_window_file(str(path), grid)
    assert len(calls) == 1 and np.shares_memory(back.samples, calls[0])
    assert np.array_equal(back.samples, sig.samples)


CHI_CONFIG = """
[grid]
L = {L}
s = 4

[window]
kind = characteristic
units = 1

[lattice]
a = 2
b = 2

[weight]
{weight}

{extra}
"""


def run_cli(tmp_path, command, weight="kind = constant", extra=""):
    """Run one CLI command on the ``chi_lat`` instance (``counterexample``,
    which needs 4 units, on L = 16) and return its output directory."""
    L = 16 if command == "counterexample" else 8
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text(CHI_CONFIG.format(L=L, weight=weight, extra=extra))
    out = tmp_path / command
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    return out


def test_profile_csv(tmp_path):
    # counterexample's profile.csv: every row is counterexample_report's
    out = run_cli(tmp_path, "counterexample", "kind = polynomial\nt = 1")
    grid = build_grid(16, 4)
    g = build_window(WindowSpec.characteristic(1.0), grid)
    _, prof = counterexample_report(build_counterexample("harmonic", grid), g,
                                    GaborLattice(grid, 2, 4),
                                    Weight.polynomial(1.0))
    rows = list(csv.DictReader((out / "profile.csv").open()))
    assert [r["n"] for r in rows] == ["0", "1", "-1", "2", "-2", "3", "-3", "4"]
    assert float(rows[-1]["cumsum"]) == pytest.approx(prof.norm)
    assert list(rows[0]) == ["n", "sup", "weight", "weighted_sup", "cumsum"]
    assert [list(r.values()) for r in rows] == [
        [str(n), repr(s), repr(w), repr(s * w), repr(c)] for n, s, w, c in
        zip(prof.indices.tolist(), prof.block_sups.tolist(),
            prof.weights.tolist(), prof.weighted_cumsums.tolist())]


def test_walnut_csv(tmp_path, chi_lat):
    # analyze's walnut_coeffs.csv: a lattice header row, then the table
    g, lat = chi_lat
    W = walnut_coefficients(g, lat)
    out = run_cli(tmp_path, "analyze")
    lines = (out / "walnut_coeffs.csv").read_text().strip().splitlines()
    assert lines[0].split(",") == ["factor", "a", "b", "M", "L"]
    header_vals = lines[1].split(",")
    assert header_vals == [repr(float(W.factor)), "2", "2", "4", "8"]
    assert lines[2].split(",") == ["r", "x", "re", "im"]
    assert len(lines) == 3 + lat.b * lat.a
    assert lines[3:] == [f"{r},{x},{float(W.table[r][x].real)!r},"
                         f"{float(W.table[r][x].imag)!r}"
                         for r in signed_range(lat.b) for x in range(lat.a)]


def test_bounds_csv(tmp_path):
    out = run_cli(tmp_path, "analyze")
    rows = list(csv.DictReader((out / "bounds.csv").open()))
    assert len(rows) == 1
    assert float(rows[0]["A"]) == pytest.approx(2.0)
    assert float(rows[0]["B"]) == pytest.approx(2.0)
    assert (rows[0]["method"], rows[0]["not_a_frame"]) == ("fiber", "0")


def test_solver_csv(tmp_path, chi_lat):
    # dual's solver.csv under cg: the library solve's residual history
    g, lat = chi_lat
    _, report = inverse_solve(g, lat, g, method="cg", tol=1e-12)
    out = run_cli(tmp_path, "dual", extra="[dual]\nmethod = cg\n"
                                          "[options]\ntol = 1e-12")
    rows = list(csv.DictReader((out / "solver.csv").open()))
    assert len(rows) == report.iterations
    assert float(rows[-1]["relative_residual"]) <= 1e-12
    assert [(r["iteration"], r["relative_residual"]) for r in rows] == [
        (str(i), repr(r)) for i, r in enumerate(report.residuals.tolist())]


def test_summability_outputs(tmp_path, chi_lat):
    # dual's summability.csv and .json: dual_summability_report's values
    g, lat = chi_lat
    rep = dual_summability_report(g, lat, Weight.constant())
    out = run_cli(tmp_path, "dual")
    rows = list(csv.DictReader((out / "summability.csv").open()))
    assert len(rows) == lat.b
    assert [list(r.values()) for r in rows] == [
        [str(r), repr(s), repr(w), repr(p), repr(c)] for (r, s, w, p), c in
        zip(rep.per_r, rep.tail_profile.tolist())]
    payload = json.loads((out / "summability.json").read_text())
    assert payload["lattice"] == {"L": 8, "s": 4, "a": 2, "b": 2}
    assert payload["weighted_sum"] == pytest.approx(0.5)
    assert payload["weighted_sum"] == rep.weighted_sum
    assert {e["r"] for e in payload["per_r"]} == {0, 1}
    assert payload["per_r"] == [{"r": r, "sup": s, "nu": w, "product": p}
                                for r, s, w, p in rep.per_r]
    assert payload["weight"] == rep.weight
    assert payload["cross_check_error"] == rep.cross_check_error


def test_svg_plot(tmp_path):
    path = tmp_path / "plot.svg"
    xs = np.arange(10)
    write_svg_lines(path, {"series a": (xs, xs ** 2), "series b": (xs, xs)},
                    title="growth", xlabel="x", ylabel="y")
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") == 2
    assert "growth" in text


def svg_points_reference(series):
    """Each series' polyline points, formatted one point at a time."""
    margin, width, height = 56, _SVG_WIDTH, _SVG_HEIGHT
    xs_all = [float(x) for xs, _ in series.values() for x in xs]
    ys_all = [float(y) for _, ys in series.values() for y in ys]
    x0, x1, y0, y1 = min(xs_all), max(xs_all), min(ys_all), max(ys_all)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x):
        return margin + (x - x0) / (x1 - x0) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y0) / (y1 - y0) * (height - 2 * margin)

    return [" ".join(f"{sx(float(x)):.2f},{sy(float(y)):.2f}"
                     for x, y in zip(xs, ys)).encode("utf-8")
            for xs, ys in series.values()]


def test_svg_points_match_per_point_reference(tmp_path):
    rng = np.random.default_rng(11)
    xs = np.arange(1, 1025)
    cases = [
        {"one": (xs, np.cumsum(rng.exponential(size=1024)))},
        {"a": (xs, rng.standard_normal(1024) * 1e3),
         "b": (np.arange(512) * 0.37, rng.standard_normal(512))},
        {"constant": (np.arange(7), np.full(7, 2.5))},  # y1 == y0
        {"point": ([3], [-7.25])},  # x1 == x0 and y1 == y0
    ]
    path = tmp_path / "plot.svg"
    for series in cases:
        write_svg_lines(path, series)
        got = re.findall(rb'<polyline points="([^"]*)"', path.read_bytes())
        assert got == svg_points_reference(series)
    # a constant series where y0 + 1.0 == y0 gets a span of one float step,
    # not a division by zero
    write_svg_lines(path, {"huge": ([1, 2], [1e17, 1e17])})
    assert b'<polyline points="56.00,364.00 584.00,364.00"' in path.read_bytes()


# signed zeros, a subnormal, extremes, non-finite values and ordinary ones
ODD = [0.0, -0.0, 5e-324, 1.7976931348623157e308, -1e-300, math.inf, -math.inf,
       math.nan, 1.0, 2.5, -1 / 3, 1e16, 123456789.0]


def _csv_writer_bytes(path, header, rows) -> bytes:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows(rows)
    return path.read_bytes()


def test_csv_bytes_match_csv_writer(tmp_path):
    # write_csv against csv.writer on the same fields, \r\n ends included:
    # ints, Python floats, np.float64 values and names, each float written
    # as repr(float(v)) and never as numpy's "np.float64(...)"
    ref, out = tmp_path / "ref.csv", tmp_path / "out.csv"
    x = np.array(ODD)
    n = len(ODD)
    rows = [[k, v, np.float64(w), name, np.int64(-k), bool(k % 2)]
            for k, v, w, name in zip(range(n), ODD, x[::-1],
                                     ("fiber", "dense", "power_iteration") * n)]
    header = ["n", "float", "np.float64", "method", "np.int64", "flag"]
    reports.write_csv(out, header, rows)
    assert out.read_bytes() == _csv_writer_bytes(
        ref, header, [[str(k), repr(float(v)), repr(float(w)), name, str(m),
                       str(flag)] for k, v, w, name, m, flag in rows])
    assert b"np." not in out.read_bytes().split(b"\r\n", 1)[1]
    # rows may be any iterable, read once; no rows leaves the header alone
    reports.write_csv(out, ("a", "b"), iter([(1, 2.5)]))
    assert out.read_bytes() == b"a,b\r\n1,2.5\r\n"
    reports.write_csv(out, ("a",), [])
    assert out.read_bytes() == b"a\r\n"


def test_cli_csv_files_are_csv_writer_bytes(tmp_path):
    # every CSV file the CLI writes reads back through csv.reader and writes
    # out through csv.writer to the same bytes
    outs = [run_cli(tmp_path, "analyze"),
            run_cli(tmp_path, "dual", extra="[dual]\nmethod = cg"),
            run_cli(tmp_path, "counterexample"),
            run_cli(tmp_path, "bench", extra="[bench]\nreps = 3")]
    names = sorted(p.name for out in outs for p in out.glob("*.csv"))
    assert names == ["amalgam.csv", "bench.csv", "bounds.csv", "profile.csv",
                     "solver.csv", "summability.csv", "walnut.csv",
                     "walnut_coeffs.csv"]
    for path in (p for out in outs for p in out.glob("*.csv")):
        with path.open(newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert path.read_bytes() == _csv_writer_bytes(
            tmp_path / "ref.csv", header, rows), path.name


def test_reports_exports_four_writers_taking_path():
    # perfbench/tracing.py binds each writer's ``path`` argument by name
    assert reports.__all__ == ["write_window_file", "write_csv", "write_json",
                               "write_svg_lines"]
    for name in reports.__all__:
        assert "path" in inspect.signature(getattr(reports, name)).parameters
