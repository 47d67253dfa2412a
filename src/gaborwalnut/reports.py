"""Serialization of profiles, multiplier tables and reports to CSV/JSON/SVG.

All CSV output is comma-separated UTF-8 with a header row.  Plots are
written as self-contained SVG polyline charts; plotting is presentation-only
and never feeds back into computation.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .amalgam import AmalgamProfile
from .bracket import PeriodicVector
from .core import Signal, signed_range
from .diagnostics import SummabilityReport
from .frame_op import WalnutCoeffs
from .invert import FrameBounds, SolverReport

__all__ = [
    "write_window_file",
    "write_profile_csv",
    "write_periodic_csv",
    "write_walnut_csv",
    "write_bounds_csv",
    "write_solver_csv",
    "write_summability_csv",
    "write_summability_json",
    "write_json",
    "write_svg_lines",
]


def write_window_file(sig: Signal, path) -> None:
    """Write a signal in the window file format: one ``re im`` pair per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for v in sig.samples:
            fh.write(f"{float(v.real)!r} {float(v.imag)!r}\n")


def write_profile_csv(profile: AmalgamProfile, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(["n", "sup", "weight", "weighted_sup", "cumsum"])
        for n, sup, wgt, cum in zip(
            profile.indices, profile.block_sups, profile.weights,
            profile.weighted_cumsums,
        ):
            wr.writerow([int(n), repr(float(sup)), repr(float(wgt)),
                         repr(float(sup * wgt)), repr(float(cum))])


def write_periodic_csv(pv: PeriodicVector, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(["index", "re", "im"])
        for i, v in enumerate(pv.values):
            wr.writerow([i, repr(float(v.real)), repr(float(v.imag))])


def write_walnut_csv(W: WalnutCoeffs, path) -> None:
    """Full multiplier table, preceded by a lattice header row."""
    lat = W.lat
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(["factor", "a", "b", "M", "L"])
        wr.writerow([repr(float(W.factor)), lat.a, lat.b, lat.M, lat.grid.L])
        wr.writerow(["r", "x", "re", "im"])
        for r in signed_range(lat.b):
            vals = W.table[r]
            for x in range(lat.a):
                wr.writerow([r, x, repr(float(vals[x].real)),
                             repr(float(vals[x].imag))])


def write_bounds_csv(bounds: FrameBounds, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(["A", "B", "method", "not_a_frame"])
        wr.writerow([repr(bounds.A), repr(bounds.B), bounds.method,
                     int(bounds.not_a_frame)])


def write_solver_csv(report: SolverReport, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(["iteration", "relative_residual"])
        for i, r in enumerate(report.residuals):
            wr.writerow([i, repr(float(r))])


def write_summability_csv(report: SummabilityReport, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(["r", "sup", "weight", "product", "cumsum"])
        for (r, sup, nu, prod), cum in zip(report.per_r, report.tail_profile):
            wr.writerow([r, repr(sup), repr(nu), repr(prod), repr(float(cum))])


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
                    xlabel: str = "", ylabel: str = "",
                    width: int = 640, height: int = 420) -> None:
    """Write a minimal SVG polyline chart.

    ``series`` maps a legend label to an ``(xs, ys)`` pair of equal-length
    sequences.  Axes are linear with automatic ranges.
    """
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    margin = 56
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
