"""Tiny dependency-free SVG renderings of sweep curves and surfaces.

These are convenience views only; the CSV files written next to them are
the source of truth.  Output is deterministic: same data, same bytes.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

__all__ = ["line_plot", "heatmap"]

_WIDTH, _HEIGHT = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 80, 24, 44, 56
#: plot box: left and right x, bottom and top y
_BOX = (_MARGIN_L, _WIDTH - _MARGIN_R, _HEIGHT - _MARGIN_B, _MARGIN_T)
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

# five-stop blue->yellow ramp for heatmaps
_RAMP = ((68, 1, 84), (59, 82, 139), (33, 145, 140), (94, 201, 98), (253, 231, 37))


def _transform(lo: float, hi: float, log: bool):
    if log:
        lo, hi = math.log10(lo), math.log10(hi)
    span = hi - lo if hi > lo else 1.0

    def to_unit(v: float) -> float:
        v = math.log10(v) if log else v
        return (v - lo) / span

    ticks = [lo + span * i / 4.0 for i in range(5)]
    labels = [f"{10.0 ** t:.3g}" if log else f"{t:.3g}" for t in ticks]
    return to_unit, [(lo + span * i / 4.0 - lo) / span for i in range(5)], labels


def _axes(xticks, xlabels, yticks, ylabels) -> list[str]:
    """The plot frame with its tick marks and tick labels."""
    x0, x1, y0, y1 = _BOX
    parts = [f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" fill="none" stroke="#333"/>']
    for u, lab in zip(xticks, xlabels):
        px = x0 + u * (x1 - x0)
        parts.append(f'<line x1="{px:.2f}" y1="{y0}" x2="{px:.2f}" y2="{y0 + 5}" stroke="#333"/>')
        parts.append(f'<text x="{px:.2f}" y="{y0 + 20}" text-anchor="middle" font-size="12">{lab}</text>')
    for u, lab in zip(yticks, ylabels):
        py = y0 - u * (y0 - y1)
        parts.append(f'<line x1="{x0 - 5}" y1="{py:.2f}" x2="{x0}" y2="{py:.2f}" stroke="#333"/>')
        parts.append(f'<text x="{x0 - 8}" y="{py + 4:.2f}" text-anchor="end" font-size="12">{lab}</text>')
    return parts


def _write(path, plot: list[str], title: str, xlabel: str, ylabel: str, legend=()):
    """Write the document: a white page, ``plot``, the title and axis labels, then ``legend``."""
    x0, x1, y0, y1 = _BOX
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        *plot,
        f'<text x="{(x0 + x1) / 2:.2f}" y="24" text-anchor="middle" font-size="15">{title}</text>',
        f'<text x="{(x0 + x1) / 2:.2f}" y="{_HEIGHT - 12}" text-anchor="middle" font-size="13">{xlabel}</text>',
        f'<text x="20" y="{(y0 + y1) / 2:.2f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 20 {(y0 + y1) / 2:.2f})">{ylabel}</text>',
        *legend,
        "</svg>",
    ]
    Path(path).write_text("\n".join(parts))


def line_plot(path, x, series: dict, *, title="", xlabel="", ylabel="", logx=False, logy=False):
    """Polyline plot of one or more named series against a common x axis."""
    x = [float(v) for v in x]
    all_y = [float(v) for ys in series.values() for v in ys]
    tx, xticks, xlabels = _transform(min(x), max(x), logx)
    ty, yticks, ylabels = _transform(min(all_y), max(all_y), logy)
    x0, x1, y0, y1 = _BOX
    legend = []
    for i, (name, ys) in enumerate(series.items()):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(
            f"{x0 + tx(xv) * (x1 - x0):.2f},{y0 - ty(float(yv)) * (y0 - y1):.2f}"
            for xv, yv in zip(x, ys)
        )
        legend.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.8"/>')
        legend.append(
            f'<text x="{x1 - 8}" y="{y1 + 18 + 16 * i}" text-anchor="end" font-size="12" '
            f'fill="{color}">{name}</text>'
        )
    _write(path, _axes(xticks, xlabels, yticks, ylabels), title, xlabel, ylabel, legend)


def _ramp_colors(u: np.ndarray) -> list[str]:
    """``rgb(...)`` colours of the ramp at each ``u`` (clipped to [0, 1]), in ``u``'s flat order."""
    pos = np.minimum(np.maximum(u, 0.0), 1.0) * (len(_RAMP) - 1)
    i = np.minimum(pos.astype(int), len(_RAMP) - 2)
    f = (pos - i)[..., None]
    ramp = np.array(_RAMP, dtype=float)
    rgb = np.rint(ramp[i] * (1 - f) + ramp[i + 1] * f).astype(int)  # rint rounds half to even, as round does
    return [f"rgb({r},{g},{b})" for r, g, b in rgb.reshape(-1, 3).tolist()]


def heatmap(path, values, x_values, y_values, *, title="", xlabel="", ylabel=""):
    """Cell heatmap of the 2-D ``values[iy, ix]`` over labeled axes."""
    values = np.asarray(values, dtype=float)
    ny, nx = values.shape
    lo, hi = float(values.min()), float(values.max())
    span = hi - lo if hi > lo else 1.0
    x0, x1, y0, y1 = _BOX
    cw = (x1 - x0) / nx
    ch = (y0 - y1) / ny
    parts = []
    colors = _ramp_colors((values - lo) / span)
    size = f'width="{cw + 0.5:.2f}" height="{ch + 0.5:.2f}"'
    xs = [f"{x0 + ix * cw:.2f}" for ix in range(nx)]
    for iy in range(ny):
        py = f"{y0 - (iy + 1) * ch:.2f}"
        row = colors[iy * nx:(iy + 1) * nx]
        parts.extend(f'<rect x="{px}" y="{py}" {size} fill="{color}"/>' for px, color in zip(xs, row))
    nxt = min(nx, 6)
    nyt = min(ny, 6)
    for i in range(nxt):
        ix = round(i * (nx - 1) / max(nxt - 1, 1)) if nx > 1 else 0
        px = x0 + (ix + 0.5) * cw
        parts.append(
            f'<text x="{px:.2f}" y="{y0 + 20}" text-anchor="middle" font-size="12">{float(x_values[ix]):.3g}</text>'
        )
    for i in range(nyt):
        iy = round(i * (ny - 1) / max(nyt - 1, 1)) if ny > 1 else 0
        py = y0 - (iy + 0.5) * ch
        parts.append(
            f'<text x="{x0 - 8}" y="{py + 4:.2f}" text-anchor="end" font-size="12">{float(y_values[iy]):.3g}</text>'
        )
    _write(path, parts, f"{title} (min {lo:.4g}, max {hi:.4g})", xlabel, ylabel)
