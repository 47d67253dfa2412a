import csv
import json
import math

import numpy as np
import pytest

from gaborwalnut import (
    GaborLattice,
    ParseError,
    Signal,
    Weight,
    WindowSpec,
    amalgam_profile,
    build_grid,
    build_window,
    dual_summability_report,
    frame_bounds,
    inverse_solve,
    read_window_file,
    walnut_coefficients,
)
from gaborwalnut.amalgam import AmalgamProfile
from gaborwalnut.core import signed_range
from gaborwalnut.diagnostics import SummabilityReport
from gaborwalnut.frame_op import WalnutCoeffs
from gaborwalnut.invert import FrameBounds, SolverReport
from gaborwalnut.reports import (
    write_bounds_csv,
    write_profile_csv,
    write_solver_csv,
    write_summability_csv,
    write_summability_json,
    write_svg_lines,
    write_walnut_csv,
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


def test_profile_csv(tmp_path, chi_lat):
    g, _ = chi_lat
    prof = amalgam_profile(g, 2, Weight.polynomial(1.0))
    path = tmp_path / "profile.csv"
    write_profile_csv(prof, path)
    rows = list(csv.DictReader(path.open()))
    assert [r["n"] for r in rows] == ["0", "1", "-1", "2"]
    assert float(rows[-1]["cumsum"]) == pytest.approx(prof.norm)
    assert set(rows[0]) == {"n", "sup", "weight", "weighted_sup", "cumsum"}


def test_walnut_csv(tmp_path, chi_lat):
    g, lat = chi_lat
    W = walnut_coefficients(g, lat)
    path = tmp_path / "walnut.csv"
    write_walnut_csv(W, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",") == ["factor", "a", "b", "M", "L"]
    header_vals = lines[1].split(",")
    assert header_vals[1:] == ["2", "2", "4", "8"]
    assert lines[2].split(",") == ["r", "x", "re", "im"]
    assert len(lines) == 3 + lat.b * lat.a


def test_bounds_csv(tmp_path, chi_lat):
    g, lat = chi_lat
    path = tmp_path / "bounds.csv"
    write_bounds_csv(frame_bounds(g, lat, method="dense"), path)
    rows = list(csv.DictReader(path.open()))
    assert float(rows[0]["A"]) == pytest.approx(2.0)
    assert float(rows[0]["B"]) == pytest.approx(2.0)


def test_solver_csv(tmp_path, chi_lat):
    g, lat = chi_lat
    _, report = inverse_solve(g, lat, g, method="cg", tol=1e-12)
    path = tmp_path / "solver.csv"
    write_solver_csv(report, path)
    rows = list(csv.DictReader(path.open()))
    assert len(rows) == report.iterations
    assert float(rows[-1]["relative_residual"]) <= 1e-12


def test_summability_outputs(tmp_path, chi_lat):
    g, lat = chi_lat
    rep = dual_summability_report(g, lat, Weight.constant())
    cpath = tmp_path / "summ.csv"
    jpath = tmp_path / "summ.json"
    write_summability_csv(rep, cpath)
    write_summability_json(rep, jpath)
    rows = list(csv.DictReader(cpath.open()))
    assert len(rows) == lat.b
    payload = json.loads(jpath.read_text())
    assert payload["lattice"] == {"L": 8, "s": 4, "a": 2, "b": 2}
    assert payload["weighted_sum"] == pytest.approx(0.5)
    assert {e["r"] for e in payload["per_r"]} == {0, 1}


def test_svg_plot(tmp_path):
    path = tmp_path / "plot.svg"
    xs = np.arange(10)
    write_svg_lines(path, {"series a": (xs, xs ** 2), "series b": (xs, xs)},
                    title="growth", xlabel="x", ylabel="y")
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") == 2
    assert "growth" in text


# signed zeros, a subnormal, extremes, non-finite values and ordinary ones
ODD = [0.0, -0.0, 5e-324, 1.7976931348623157e308, -1e-300, math.inf, -math.inf,
       math.nan, 1.0, 2.5, -1 / 3, 1e16, 123456789.0]


def _complex(re, im):
    z = np.empty(len(re), dtype=complex)
    z.real, z.imag = re, im
    return z


def _csv_writer_bytes(path, header, rows) -> bytes:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows(rows)
    return path.read_bytes()


def test_csv_bytes_match_csv_writer(tmp_path):
    # each joined writer against csv.writer on the same fields, \r\n ends
    # included
    ref, out = tmp_path / "ref.csv", tmp_path / "out.csv"
    x = np.array(ODD)
    y = x[::-1].copy()
    n = len(ODD)
    with np.errstate(all="ignore"):
        prof = AmalgamProfile(2, np.array([0, 1, -1] + list(range(2, n - 2))),
                              x, y, np.cumsum(x))
        rows = [[int(k), repr(float(s)), repr(float(w)), repr(float(s * w)),
                 repr(float(c))] for k, s, w, c in
                zip(prof.indices, x, y, prof.weighted_cumsums)]
    write_profile_csv(prof, out)
    assert out.read_bytes() == _csv_writer_bytes(
        ref, ["n", "sup", "weight", "weighted_sup", "cumsum"], rows)

    lat = GaborLattice(build_grid(2 * n, 2), n, 2)
    W = WalnutCoeffs(lat, np.stack([_complex(x, y), _complex(y, -x)]))
    write_walnut_csv(W, out)
    # the factor is the lattice's M/s = n/2
    rows = [["factor", "a", "b", "M", "L"], [repr(n / 2), n, 2, n, 2 * n],
            ["r", "x", "re", "im"]]
    rows += [[r, k, repr(float(W.table[r][k].real)), repr(float(W.table[r][k].imag))]
             for r in signed_range(2) for k in range(n)]
    assert out.read_bytes() == _csv_writer_bytes(ref, rows[0], rows[1:])

    rep = SolverReport("cg", n, x, False)
    write_solver_csv(rep, out)
    assert out.read_bytes() == _csv_writer_bytes(
        ref, ["iteration", "relative_residual"],
        [[i, repr(float(r))] for i, r in enumerate(x)])

    per_r = tuple((r, s, w, s * w) for r, s, w in zip(range(n), ODD, ODD[::-1]))
    rep = SummabilityReport(lat, "constant", per_r, 1.0, np.cumsum(y), None)
    write_summability_csv(rep, out)
    assert out.read_bytes() == _csv_writer_bytes(
        ref, ["r", "sup", "weight", "product", "cumsum"],
        [[r, repr(s), repr(w), repr(p), repr(float(c))]
         for (r, s, w, p), c in zip(per_r, rep.tail_profile)])

    for method in ("fiber", "dense", "power_iteration"):
        for A, B, flag in zip(ODD, ODD[::-1], (False, True) * n):
            write_bounds_csv(FrameBounds(A, B, method, flag), out)
            assert out.read_bytes() == _csv_writer_bytes(
                ref, ["A", "B", "method", "not_a_frame"],
                [[repr(A), repr(B), method, int(flag)]])
