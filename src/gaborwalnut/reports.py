"""File formats: CSV rows, JSON payloads, SVG line charts and window files.

Four primitives and no knowledge of the values they format: the CLI builds
each file's rows or payload and calls one of them on the output path.  All
CSV output is comma-separated UTF-8 with a header row and ``\\r\\n`` line
ends.  Plots are self-contained SVG polyline charts; plotting is
presentation-only and never feeds back into computation.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from pathlib import Path

import numpy as np

from .core import Signal

__all__ = ["write_window_file", "write_csv", "write_json", "write_svg_lines"]


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


def write_csv(path, header, rows) -> None:
    """Write a header row and ``rows``, joined once, with the ``\\r\\n`` line
    ends of ``csv.writer``: a float field as ``repr(float(v))``, so that a
    numpy scalar is written as its value, and any other field as ``str``.
    Every field is a number or a name, so none needs quoting."""
    lines = [",".join([repr(float(v)) if isinstance(v, float) else str(v)
                       for v in row]) for row in chain([header], rows)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


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
    # a span of one, or of one step of the floats where x0 + 1.0 == x0
    if x1 == x0:
        x1 = max(x0 + 1.0, math.nextafter(x0, math.inf))
    if y1 == y0:
        y1 = max(y0 + 1.0, math.nextafter(y0, math.inf))

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
        # the scalar formula's order of operations, as silent as floats
        with np.errstate(all="ignore"):
            px = margin + (np.asarray(xs, dtype=float) - x0) / (x1 - x0) * (
                width - 2 * margin)
            py = height - margin - (np.asarray(ys, dtype=float) - y0) / (
                y1 - y0) * (height - 2 * margin)
        pts = " ".join(map("{:.2f},{:.2f}".format, px.tolist(), py.tolist()))
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
