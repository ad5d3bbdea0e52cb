"""Self-contained SVG rendering of the bound intervals, without matplotlib.

One floating bar spans [lb, ub] for each assumption set, with the
unconditional group on the left and the stratified group (when present)
on the right.  Bars follow the report's set order.  Every bar carries its
exact endpoint values in ``data-lb`` / ``data-ub`` attributes, and a
sidecar JSON next to the SVG echoes the plotted numbers verbatim.
"""

from __future__ import annotations

import json
from pathlib import Path

_COLORS = {"A1_3": "#4c72b0", "A1_4": "#dd8452", "A1_5": "#55a868"}

_TITLE = "Bounds on the probability of causation"
_WIDTH, _HEIGHT = 720, 420
_MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM = 70, 30, 50, 70


def _y_pixel(value: float) -> float:
    chart_height = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    return _MARGIN_TOP + (1.0 - value) * chart_height


def render_bounds_svg(bars: list[dict]) -> str:
    """Render interval bars to an SVG string.

    Each bar dict needs keys ``assumption_set``, ``group`` (``unconditional``
    or ``stratified``), ``lb`` and ``ub``.
    """
    groups = []
    for group in ("unconditional", "stratified"):
        if any(bar["group"] == group for bar in bars):
            groups.append(group)
    if not groups:
        raise ValueError("no bars to render")

    chart_width = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    group_width = chart_width / len(groups)
    bar_width = min(46.0, group_width / 4.5)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="Helvetica,Arial,sans-serif">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2}" y="28" text-anchor="middle" font-size="16">{_TITLE}</text>',
    ]

    for tick in range(0, 11, 2):
        value = tick / 10.0
        y = _y_pixel(value)
        parts.append(
            f'<line x1="{_MARGIN_LEFT}" y1="{y:.2f}" x2="{_WIDTH - _MARGIN_RIGHT}" '
            f'y2="{y:.2f}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-size="11">{value:.1f}</text>'
        )

    for g_idx, group in enumerate(groups):
        group_bars = [bar for bar in bars if bar["group"] == group]
        x_center = _MARGIN_LEFT + (g_idx + 0.5) * group_width
        span = bar_width * 1.4 * max(len(group_bars) - 1, 0)
        x_start = x_center - span / 2.0
        for b_idx, bar in enumerate(group_bars):
            x = x_start + b_idx * bar_width * 1.4 - bar_width / 2.0
            y_top = _y_pixel(bar["ub"])
            height = max(_y_pixel(bar["lb"]) - y_top, 1.0)
            color = _COLORS.get(bar["assumption_set"], "#888888")
            parts.append(
                f'<rect x="{x:.2f}" y="{y_top:.2f}" width="{bar_width:.2f}" '
                f'height="{height:.2f}" fill="{color}" fill-opacity="0.85" '
                f'data-assumption-set="{bar["assumption_set"]}" data-group="{group}" '
                f'data-lb="{bar["lb"]!r}" data-ub="{bar["ub"]!r}"/>'
            )
        parts.append(
            f'<text x="{x_center:.2f}" y="{_HEIGHT - _MARGIN_BOTTOM + 24}" text-anchor="middle" '
            f'font-size="12">{group}</text>'
        )

    legend_sets = []
    for bar in bars:
        if bar["assumption_set"] not in legend_sets:
            legend_sets.append(bar["assumption_set"])
    legend_x = _MARGIN_LEFT
    legend_y = _HEIGHT - 22
    for name in legend_sets:
        color = _COLORS.get(name, "#888888")
        parts.append(f'<rect x="{legend_x}" y="{legend_y - 10}" width="12" height="12" fill="{color}"/>')
        parts.append(f'<text x="{legend_x + 17}" y="{legend_y}" font-size="12">{name}</text>')
        legend_x += 90

    parts.append("</svg>")
    return "\n".join(parts)


def write_plot(bars: list[dict], path: str | Path) -> tuple[Path, Path]:
    """Write the SVG and its sidecar JSON; returns both paths."""
    svg_path = Path(path)
    svg_path.write_text(render_bounds_svg(bars), encoding="utf-8")
    sidecar_path = svg_path.with_name(svg_path.name + ".json")
    sidecar_path.write_text(
        json.dumps({"bars": bars}, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return svg_path, sidecar_path
