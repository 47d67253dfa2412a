"""Serialization of profiles, multiplier tables and reports to CSV/JSON/SVG.

All CSV output is comma-separated UTF-8 with a header row.  Plots are
written as self-contained SVG polyline charts; plotting is presentation-only
and never feeds back into computation.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .amalgam import AmalgamProfile
from .core import Signal, signed_range
from .diagnostics import SummabilityReport
from .frame_op import WalnutCoeffs
from .invert import FrameBounds, SolverReport

__all__ = [
    "write_window_file",
    "write_profile_csv",
    "write_walnut_csv",
    "write_bounds_csv",
    "write_solver_csv",
    "write_summability_csv",
    "write_summability_json",
    "write_json",
    "write_svg_lines",
]


# Lines of a window file formatted by one join; a bigger block only holds
# more strings at once.
_WRITE_LINES = 1024

# Pixel size of every chart that write_svg_lines writes.
_SVG_WIDTH, _SVG_HEIGHT = 640, 420


def write_window_file(sig: Signal, path) -> None:
    """Write a signal in the window file format: one ``re im`` pair per line."""
    parts = sig.samples.view(float)
    with open(path, "w", encoding="utf-8") as fh:
        for k in range(0, parts.size, 2 * _WRITE_LINES):
            block = parts[k:k + 2 * _WRITE_LINES].tolist()
            out = ["", " ", "", "\n"] * (len(block) // 2)
            out[::2] = map(repr, block)  # the reprs fill the empty slots
            fh.write("".join(out))


def _write_csv(path, header: str, lines) -> None:
    """Write a header and preformatted rows, joined once, with the ``\\r\\n``
    line ends of ``csv.writer``.  Every field is a number or a method name,
    so none needs quoting."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(header + "\r\n" + "".join(lines))


def write_profile_csv(profile: AmalgamProfile, path) -> None:
    rows = zip(profile.indices.tolist(), profile.block_sups.tolist(),
               profile.weights.tolist(), profile.weighted_cumsums.tolist())
    _write_csv(path, "n,sup,weight,weighted_sup,cumsum",
               (f"{int(n)},{sup!r},{wgt!r},{sup * wgt!r},{cum!r}\r\n"
                for n, sup, wgt, cum in rows))


def write_walnut_csv(W: WalnutCoeffs, path) -> None:
    """Full multiplier table, preceded by a lattice header row."""
    lat = W.lat
    head = (f"factor,a,b,M,L\r\n{float(W.factor)!r},{lat.a},{lat.b},{lat.M},"
            f"{lat.grid.L}\r\nr,x,re,im")
    _write_csv(path, head, (
        f"{r},{x},{re!r},{im!r}\r\n"
        for r in signed_range(lat.b)
        for x, (re, im) in enumerate(zip(W.table[r].real.tolist(),
                                         W.table[r].imag.tolist()))))


def write_bounds_csv(bounds: FrameBounds, path) -> None:
    _write_csv(path, "A,B,method,not_a_frame",
               [f"{bounds.A!r},{bounds.B!r},{bounds.method},"
                f"{int(bounds.not_a_frame)}\r\n"])


def write_solver_csv(report: SolverReport, path) -> None:
    _write_csv(path, "iteration,relative_residual",
               (f"{i},{r!r}\r\n" for i, r in enumerate(report.residuals.tolist())))


def write_summability_csv(report: SummabilityReport, path) -> None:
    rows = zip(report.per_r, report.tail_profile.tolist())
    _write_csv(path, "r,sup,weight,product,cumsum",
               (f"{r},{sup!r},{nu!r},{prod!r},{cum!r}\r\n"
                for (r, sup, nu, prod), cum in rows))


def _summability_dict(report: SummabilityReport) -> dict:
    lat = report.lattice
    return {
        "lattice": {"L": lat.grid.L, "s": lat.grid.s, "a": lat.a, "b": lat.b},
        "weight": report.weight,
        "per_r": [
            {"r": r, "sup": sup, "nu": nu, "product": prod}
            for (r, sup, nu, prod) in report.per_r
        ],
        "weighted_sum": report.weighted_sum,
        "cross_check_error": report.cross_check_error,
    }


def write_summability_json(report: SummabilityReport, path) -> None:
    write_json(_summability_dict(report), path)


def write_json(payload: dict, path) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def write_svg_lines(path, series: dict[str, tuple], title: str = "",
                    xlabel: str = "", ylabel: str = "") -> None:
    """Write a minimal ``_SVG_WIDTH x _SVG_HEIGHT`` SVG polyline chart.

    ``series`` maps a legend label to an ``(xs, ys)`` pair of equal-length
    sequences.  Axes are linear with automatic ranges.
    """
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    margin = 56
    width, height = _SVG_WIDTH, _SVG_HEIGHT
    xs_all = np.concatenate([np.asarray(xs, dtype=float) for xs, _ in series.values()])
    ys_all = np.concatenate([np.asarray(ys, dtype=float) for _, ys in series.values()])
    x0, x1 = float(xs_all.min()), float(xs_all.max())
    y0, y1 = float(ys_all.min()), float(ys_all.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x):
        return margin + (x - x0) / (x1 - x0) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y0) / (y1 - y0) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.0f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<line x1="{margin}" y1="{height-margin}" x2="{width-margin}" '
        f'y2="{height-margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height-margin}" stroke="black"/>',
        f'<text x="{width/2:.0f}" y="{height-12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>',
        f'<text x="16" y="{height/2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {height/2:.0f})">{ylabel}</text>',
        f'<text x="{margin}" y="{height-margin+16}" font-family="sans-serif" '
        f'font-size="10">{x0:.4g}</text>',
        f'<text x="{width-margin}" y="{height-margin+16}" text-anchor="end" '
        f'font-family="sans-serif" font-size="10">{x1:.4g}</text>',
        f'<text x="{margin-4}" y="{height-margin}" text-anchor="end" '
        f'font-family="sans-serif" font-size="10">{y0:.4g}</text>',
        f'<text x="{margin-4}" y="{margin+4}" text-anchor="end" '
        f'font-family="sans-serif" font-size="10">{y1:.4g}</text>',
    ]
    for i, (label, (xs, ys)) in enumerate(series.items()):
        color = colors[i % len(colors)]
        pts = " ".join(
            f"{sx(float(x)):.2f},{sy(float(y)):.2f}" for x, y in zip(xs, ys)
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        ly = margin + 16 * i
        parts.append(
            f'<line x1="{width-margin-110}" y1="{ly}" x2="{width-margin-90}" '
            f'y2="{ly}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{width-margin-84}" y="{ly+4}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
