"""Minimal self-contained SVG rendering: heatmaps and line charts.

No external renderer: coordinates are formatted with fixed precision so the
same data always produces byte-identical files. Heatmaps use a linear color
scale built from fixed anchor colors; invalid (NaN) cells are drawn in a
distinct neutral gray and called out in the legend.
"""

from __future__ import annotations

import math

import numpy as np

# Dark-blue to yellow anchors, perceptually ordered, linearly interpolated.
_ANCHORS = [
    (68, 1, 84), (71, 44, 122), (59, 81, 139), (44, 113, 142),
    (33, 144, 141), (39, 173, 129), (92, 200, 99), (170, 220, 50),
    (253, 231, 37),
]
_ANCHOR_RGB = np.array(_ANCHORS, dtype=float)
# Two-digit hex of each channel value: a lookup is 7x faster than formatting.
_HEX = [f"{v:02x}" for v in range(256)]
_INVALID_FILL = "#b4b4b4"
_LINE_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
                "#8c564b"]


def _colors(t) -> list[str]:
    """Fill colors of scale positions t (clipped to [0, 1]; NaN is invalid).

    np.rint rounds half to even, as Python's round does."""
    t = np.asarray(t, dtype=float).ravel()
    fills = [_INVALID_FILL] * t.size
    valid = np.flatnonzero(~np.isnan(t))
    pos = np.clip(t[valid], 0.0, 1.0) * (len(_ANCHORS) - 1)
    i = np.minimum(pos.astype(int), len(_ANCHORS) - 2)
    frac = (pos - i)[:, None]
    a, b = _ANCHOR_RGB[i], _ANCHOR_RGB[i + 1]
    rgb = np.rint(a + (b - a) * frac).astype(int)
    for k, (r, g, b_) in zip(valid.tolist(), rgb.tolist()):
        fills[k] = f"#{_HEX[r]}{_HEX[g]}{_HEX[b_]}"
    return fills


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _axis_ticks(values) -> list[tuple[float, str]]:
    lo, hi = float(values[0]), float(values[-1])
    mid = 0.5 * (lo + hi)
    return [(lo, f"{lo:g}"), (mid, f"{mid:g}"), (hi, f"{hi:g}")]


def _axis_titles(left: float, top: float, width: float, height: float,
                 x_label: str, y_label: str) -> list[str]:
    """The x title under the plot area and the y title turned up its left."""
    return [f'<text x="{_fmt(left + width / 2)}" '
            f'y="{_fmt(top + height + 34)}" text-anchor="middle" '
            f'font-size="13" font-family="sans-serif">{x_label}</text>',
            f'<text x="16" y="{_fmt(top + height / 2)}" '
            f'text-anchor="middle" font-size="13" '
            f'font-family="sans-serif" transform="rotate(-90 16 '
            f'{_fmt(top + height / 2)})">{y_label}</text>']


def _write_document(path, title_x: float, title: str, config_hash: str,
                    body: list[str]) -> None:
    """Write a 620 x 430 document: the hash comment, the white background
    and the title centred at title_x, then the body's elements, one a line
    (the body is never empty)."""
    head = ['<svg xmlns="http://www.w3.org/2000/svg" width="620" '
            'height="430" viewBox="0 0 620 430">',
            f"<!-- config_hash={config_hash} -->",
            '<rect width="620" height="430" fill="#ffffff"/>',
            f'<text x="{_fmt(title_x)}" y="22" text-anchor="middle" '
            f'font-size="15" font-family="sans-serif">{title}</text>']
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(head) + "\n")
        handle.write("\n".join(body))
        handle.write("\n</svg>\n")


def emit_svg_heatmap(path, matrix, x_values, y_values, x_label: str,
                     y_label: str, title: str, config_hash: str,
                     value_label: str = "intensity") -> None:
    """Render a matrix (rows indexed by y_values, columns by x_values)."""
    matrix = np.asarray(matrix, dtype=float)
    ny, nx = matrix.shape
    if nx != len(x_values) or ny != len(y_values):
        raise ValueError("matrix dimensions must match the axis grids")
    finite = matrix[np.isfinite(matrix)]
    vmin = float(finite.min()) if finite.size else 0.0
    vmax = float(finite.max()) if finite.size else 1.0
    if vmax <= vmin:
        vmax = vmin + 1.0

    left, top, width, height = 70.0, 40.0, 420.0, 320.0
    cw, ch = width / nx, height / ny
    parts = []
    fills = _colors((matrix - vmin) / (vmax - vmin))
    xs = [_fmt(left + ix * cw) for ix in range(nx)]
    # y axis points up: last row at the top of the plot area.
    ys = [_fmt(top + (ny - 1 - iy) * ch) for iy in range(ny)]
    size = f'width="{_fmt(cw + 0.5)}" height="{_fmt(ch + 0.5)}"'
    parts.extend(f'<rect x="{xs[k % nx]}" y="{ys[k // nx]}" {size} '
                 f'fill="{fill}"/>' for k, fill in enumerate(fills))
    parts.append(f'<rect x="{_fmt(left)}" y="{_fmt(top)}" width="{_fmt(width)}"'
                 f' height="{_fmt(height)}" fill="none" stroke="#000000"/>')
    x_span = float(x_values[-1]) - float(x_values[0]) or 1.0
    y_span = float(y_values[-1]) - float(y_values[0]) or 1.0
    for value, label in _axis_ticks(x_values):
        frac = (value - float(x_values[0])) / x_span
        x = left + frac * width
        parts.append(f'<text x="{_fmt(x)}" y="{_fmt(top + height + 16)}" '
                     f'text-anchor="middle" font-size="11" '
                     f'font-family="sans-serif">{label}</text>')
    for value, label in _axis_ticks(y_values):
        frac = (value - float(y_values[0])) / y_span
        y = top + height - frac * height
        parts.append(f'<text x="{_fmt(left - 6)}" y="{_fmt(y + 4)}" '
                     f'text-anchor="end" font-size="11" '
                     f'font-family="sans-serif">{label}</text>')
    parts.extend(_axis_titles(left, top, width, height, x_label, y_label))

    # Linear color bar with end labels.
    bar_x, bar_w = left + width + 24.0, 18.0
    steps = 32
    bar_fills = _colors(np.arange(steps) / steps + 0.5 / steps)
    for i, fill in enumerate(bar_fills):
        y0 = top + height * (1.0 - (i + 1) / steps)
        parts.append(f'<rect x="{_fmt(bar_x)}" y="{_fmt(y0)}" '
                     f'width="{_fmt(bar_w)}" '
                     f'height="{_fmt(height / steps + 0.5)}" '
                     f'fill="{fill}"/>')
    parts.append(f'<rect x="{_fmt(bar_x)}" y="{_fmt(top)}" '
                 f'width="{_fmt(bar_w)}" height="{_fmt(height)}" fill="none" '
                 f'stroke="#000000"/>')
    parts.append(f'<text x="{_fmt(bar_x + bar_w + 4)}" y="{_fmt(top + 10)}" '
                 f'font-size="11" font-family="sans-serif">{vmax:.3g}</text>')
    parts.append(f'<text x="{_fmt(bar_x + bar_w + 4)}" '
                 f'y="{_fmt(top + height)}" font-size="11" '
                 f'font-family="sans-serif">{vmin:.3g}</text>')
    parts.append(f'<text x="{_fmt(bar_x + bar_w + 4)}" '
                 f'y="{_fmt(top + height / 2)}" font-size="11" '
                 f'font-family="sans-serif">{value_label}</text>')
    if np.any(~np.isfinite(matrix)):
        parts.append(f'<rect x="{_fmt(left)}" y="408" width="12" height="12" '
                     f'fill="{_INVALID_FILL}" stroke="#000000"/>')
        parts.append(f'<text x="{_fmt(left + 18)}" y="418" font-size="11" '
                     f'font-family="sans-serif">invalid geometry cell</text>')
    _write_document(path, left + width / 2, title, config_hash, parts)


def emit_svg_lines(path, x_values, series, x_label: str, y_label: str,
                   title: str, config_hash: str, log_y: bool = False) -> None:
    """Render line series: series is a list of (label, y_array) pairs."""
    x = np.asarray(x_values, dtype=float)
    if x.size < 2:
        raise ValueError("need at least two x samples")
    ys = [(str(label), np.asarray(y, dtype=float)) for label, y in series]
    if not ys:
        raise ValueError("need at least one series")
    for _, y in ys:
        if y.shape != x.shape:
            raise ValueError("series length must match x grid")

    stacked = np.concatenate([y for _, y in ys])
    stacked = stacked[np.isfinite(stacked)]
    if log_y:
        stacked = stacked[stacked > 0]
        if stacked.size == 0:
            raise ValueError("log scale requires positive data")
        lo = math.log10(float(stacked.min()))
        hi = math.log10(float(stacked.max()))
    else:
        lo = float(stacked.min()) if stacked.size else 0.0
        hi = float(stacked.max()) if stacked.size else 1.0
    if hi <= lo:
        hi = lo + 1.0

    left, top, width, height = 70.0, 40.0, 460.0, 320.0
    parts = []
    parts.append(f'<rect x="{_fmt(left)}" y="{_fmt(top)}" '
                 f'width="{_fmt(width)}" height="{_fmt(height)}" fill="none" '
                 f'stroke="#000000"/>')

    x_span = (x[-1] - x[0]) or 1.0

    def sx(value: float) -> float:
        return left + (value - x[0]) / x_span * width

    for idx, (label, y) in enumerate(ys):
        color = _LINE_COLORS[idx % len(_LINE_COLORS)]
        keep = np.isfinite(y) & (y > 0) if log_y else np.isfinite(y)
        shown = y[keep]
        if log_y:
            # math.log10 per value: np.log10 differs from it in the last bit
            shown = np.array([math.log10(v) for v in shown.tolist()])
        px = sx(x[keep])
        py = top + height * (1.0 - (shown - lo) / (hi - lo))
        points = " ".join(map("{:.2f},{:.2f}".format, px.tolist(),
                              py.tolist()))
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{points}"/>')
        ly = top + 16 + 16 * idx
        parts.append(f'<line x1="{_fmt(left + width - 120)}" '
                     f'y1="{_fmt(ly - 4)}" x2="{_fmt(left + width - 100)}" '
                     f'y2="{_fmt(ly - 4)}" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{_fmt(left + width - 94)}" y="{_fmt(ly)}" '
                     f'font-size="11" font-family="sans-serif">{label}</text>')

    for value, label in _axis_ticks(x):
        parts.append(f'<text x="{_fmt(sx(value))}" '
                     f'y="{_fmt(top + height + 16)}" text-anchor="middle" '
                     f'font-size="11" font-family="sans-serif">{label}</text>')
    for frac in (0.0, 0.5, 1.0):
        value = lo + frac * (hi - lo)
        shown = 10.0 ** value if log_y else value
        parts.append(f'<text x="{_fmt(left - 6)}" '
                     f'y="{_fmt(top + height * (1 - frac) + 4)}" '
                     f'text-anchor="end" font-size="11" '
                     f'font-family="sans-serif">{shown:.3g}</text>')
    parts.extend(_axis_titles(left, top, width, height, x_label, y_label))
    _write_document(path, left + width / 2, title, config_hash, parts)
