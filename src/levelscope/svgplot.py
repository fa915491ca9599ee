"""Minimal SVG 1.1 line plots: log-x axis, decade ticks, optional threshold
line. No plotting dependency; output is a deterministic string of the data.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

__all__ = ["line_plot"]

_PALETTE = ("#1f6fb2", "#c44e52", "#55a868", "#8172b2", "#937860", "#dd8452")

_WIDTH, _HEIGHT = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64.0, 16.0, 28.0, 44.0
# About this many y ticks, at a step of 1, 2, 2.5 or 5 times a power of ten.
_TICKS = 5


def _escape(text: str) -> str:
    """Escape &, < and > for XML character data, as xml.sax.saxutils.escape
    does without extra entities; importing that module would pull in urllib,
    http and ssl."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(x: float) -> str:
    return f"{x:.2f}".rstrip("0").rstrip(".")


def _nice_ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / _TICKS
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-12 * step:
        ticks.append(v)
        v += step
    return ticks


def line_plot(
    curves: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    *,
    title: str,
    x_label: str,
    y_label: str,
    hline: float | None = None,
) -> str:
    """Render labeled (x, y) curves on a log-x, linear-y frame, _WIDTH by
    _HEIGHT pixels.

    curves: (label, x values, y values) triples; x must be positive.
    hline: optional horizontal reference line, drawn dashed.
    """
    if not curves:
        raise ValueError("need at least one curve")
    xs = [x for _, cx, _ in curves for x in cx]
    ys = [y for _, _, cy in curves for y in cy]
    if min(xs) <= 0.0:
        raise ValueError("log-x plot needs strictly positive x values")
    lx_lo, lx_hi = math.log10(min(xs)), math.log10(max(xs))
    if lx_hi <= lx_lo:
        lx_hi = lx_lo + 1.0
    y_lo = min(ys + ([hline] if hline is not None else []))
    y_hi = max(ys + ([hline] if hline is not None else []))
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    # Anchor the floor just below zero for nonnegative data (probabilities).
    y_lo = -pad if y_lo >= 0.0 else y_lo - pad
    y_hi = y_hi + pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + plot_w * (math.log10(x) - lx_lo) / (lx_hi - lx_lo)

    def py(y: float) -> float:
        return _MARGIN_T + plot_h * (1.0 - (y - y_lo) / (y_hi - y_lo))

    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    out.append(f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
    out.append(
        f'<text x="{_WIDTH / 2:.1f}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{_escape(title)}</text>'
    )
    # frame
    out.append(
        f'<rect x="{_MARGIN_L:.1f}" y="{_MARGIN_T:.1f}" width="{plot_w:.1f}" '
        f'height="{plot_h:.1f}" fill="none" stroke="black" stroke-width="1"/>'
    )
    # decade ticks on x
    for d in range(math.ceil(lx_lo - 1e-9), math.floor(lx_hi + 1e-9) + 1):
        x = px(10.0**d)
        out.append(
            f'<line x1="{x:.1f}" y1="{_MARGIN_T + plot_h:.1f}" x2="{x:.1f}" '
            f'y2="{_MARGIN_T + plot_h + 5:.1f}" stroke="black"/>'
        )
        out.append(
            f'<text x="{x:.1f}" y="{_MARGIN_T + plot_h + 18:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">1e{d}</text>'
        )
        out.append(
            f'<line x1="{x:.1f}" y1="{_MARGIN_T:.1f}" x2="{x:.1f}" '
            f'y2="{_MARGIN_T + plot_h:.1f}" stroke="#dddddd" stroke-width="0.5"/>'
        )
    # y ticks
    for tick in _nice_ticks(y_lo, y_hi):
        y = py(tick)
        out.append(
            f'<line x1="{_MARGIN_L - 5:.1f}" y1="{y:.1f}" x2="{_MARGIN_L:.1f}" '
            f'y2="{y:.1f}" stroke="black"/>'
        )
        out.append(
            f'<text x="{_MARGIN_L - 8:.1f}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(tick)}</text>'
        )
    # axis labels
    out.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 10:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{_escape(x_label)}</text>'
    )
    out.append(
        f'<text x="16" y="{_MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {_MARGIN_T + plot_h / 2:.1f})">{_escape(y_label)}</text>'
    )
    if hline is not None:
        y = py(hline)
        out.append(
            f'<line x1="{_MARGIN_L:.1f}" y1="{y:.1f}" x2="{_MARGIN_L + plot_w:.1f}" '
            f'y2="{y:.1f}" stroke="#555555" stroke-dasharray="6,4" stroke-width="1"/>'
        )
    for i, (label, cx, cy) in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(cx, cy))
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = _MARGIN_T + 16 + 16 * i
        lx = _MARGIN_L + plot_w - 130
        out.append(
            f'<line x1="{lx:.1f}" y1="{ly - 4:.1f}" x2="{lx + 22:.1f}" y2="{ly - 4:.1f}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{lx + 28:.1f}" y="{ly:.1f}" font-family="sans-serif" '
            f'font-size="11">{_escape(label)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
