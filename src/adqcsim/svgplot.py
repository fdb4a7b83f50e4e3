"""Minimal hand-rolled SVG plotting for histogram verification figures.

Output is a plain static SVG string: histogram bars plus an optional
exponential-overlay polyline.  Content is fully determined by the inputs
(no timestamps or generator metadata), so identical runs produce identical
files.
"""

from __future__ import annotations

import numpy as np

from .sqwalk import Histogram

_WIDTH = 640
_HEIGHT = 400
_MARGIN = 55


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def histogram_svg(hist: Histogram, rate: float | None = None, title: str = "") -> str:
    """Render bars on axes labelled steps and count, plus the exponential overlay.

    When ``rate`` is given, the overlay draws the expected bin counts of an
    exponential law with that rate, anchored at the histogram's left edge:
    total * bin_width * rate * exp(-rate * (x - x0)).
    """
    edges = np.asarray(hist.bin_edges, dtype=float)
    counts = np.asarray(hist.counts, dtype=float)
    x0, x1 = float(edges[0]), float(edges[-1])
    span_x = x1 - x0 if x1 > x0 else 1.0

    overlay: list[tuple[float, float]] = []
    if rate is not None:
        width = float(edges[1] - edges[0])
        centers = 0.5 * (edges[:-1] + edges[1:])
        expected = hist.total * width * rate * np.exp(-rate * (centers - x0))
        overlay = list(zip(centers.tolist(), expected.tolist()))

    y_max = max(float(counts.max()), max((y for _, y in overlay), default=0.0), 1.0)

    def sx(x: float) -> float:
        return _MARGIN + (x - x0) / span_x * (_WIDTH - 2 * _MARGIN)

    def sy(y: float) -> float:
        return _HEIGHT - _MARGIN - y / y_max * (_HEIGHT - 2 * _MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2}" y="24" text-anchor="middle" '
            f'font-family="monospace" font-size="14">{title}</text>'
        )

    for k in range(hist.bin_count):
        left, right = float(edges[k]), float(edges[k + 1])
        h = float(counts[k])
        parts.append(
            f'<rect x="{_fmt(sx(left))}" y="{_fmt(sy(h))}" '
            f'width="{_fmt(sx(right) - sx(left))}" '
            f'height="{_fmt(sy(0.0) - sy(h))}" '
            f'fill="#7aa6c2" stroke="#2b4a63" stroke-width="0.5"/>'
        )

    if overlay:
        pts = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in overlay)
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="#c0392b" stroke-width="1.5"/>'
        )

    axis = (
        f'<line x1="{_MARGIN}" y1="{_HEIGHT - _MARGIN}" x2="{_WIDTH - _MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>'
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>'
    )
    parts.append(axis)
    parts.append(
        f'<text x="{_WIDTH / 2}" y="{_HEIGHT - 12}" text-anchor="middle" '
        'font-family="monospace" font-size="12">steps</text>'
    )
    parts.append(
        f'<text x="16" y="{_HEIGHT / 2}" text-anchor="middle" '
        f'font-family="monospace" font-size="12" '
        f'transform="rotate(-90 16 {_HEIGHT / 2})">count</text>'
    )
    for x, anchor in ((x0, "start"), (x1, "end")):
        parts.append(
            f'<text x="{_fmt(sx(x))}" y="{_HEIGHT - _MARGIN + 16}" '
            f'text-anchor="{anchor}" font-family="monospace" font-size="10">'
            f"{_fmt(x)}</text>"
        )
    parts.append(
        f'<text x="{_MARGIN - 6}" y="{_fmt(sy(y_max) + 4)}" text-anchor="end" '
        f'font-family="monospace" font-size="10">{_fmt(y_max)}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts)
