"""Pure-stdlib SVG writers for placements and tile maps."""

from __future__ import annotations

import numpy as np

from repro.db import NodeKind

_KIND_STYLE = {
    NodeKind.CELL: ("#4f81bd", 0.75),
    NodeKind.MACRO: ("#c0504d", 0.85),
    NodeKind.FIXED: ("#7f7f7f", 0.9),
    NodeKind.TERMINAL: ("#333333", 1.0),
    NodeKind.TERMINAL_NI: ("#333333", 1.0),
}


def placement_to_svg(
    design,
    path: str | None = None,
    *,
    canvas: float = 900.0,
    show_fences: bool = True,
) -> str:
    """Render the placement as SVG; optionally write to ``path``.

    Cells are blue, movable macros red, fixed objects grey, fences drawn
    as dashed green outlines.  Returns the SVG text.
    """
    core = design.core
    scale = canvas / max(core.width, core.height)
    w = core.width * scale
    h = core.height * scale

    def sx(x):
        return (x - core.xl) * scale

    def sy(y):  # SVG y grows down
        return h - (y - core.yl) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" '
        f'height="{h:.0f}" viewBox="0 0 {w:.2f} {h:.2f}">',
        f'<rect x="0" y="0" width="{w:.2f}" height="{h:.2f}" '
        f'fill="#fbfbf6" stroke="black"/>',
    ]
    for node in design.nodes:
        color, opacity = _KIND_STYLE.get(node.kind, ("#000000", 1.0))
        r = node.rect
        if r.area <= 0:
            parts.append(
                f'<circle cx="{sx(r.xl):.2f}" cy="{sy(r.yl):.2f}" r="2" fill="{color}"/>'
            )
            continue
        parts.append(
            f'<rect x="{sx(r.xl):.2f}" y="{sy(r.yh):.2f}" '
            f'width="{r.width * scale:.2f}" height="{r.height * scale:.2f}" '
            f'fill="{color}" fill-opacity="{opacity}" stroke="#222" stroke-width="0.2"/>'
        )
    if show_fences:
        for region in design.regions:
            for r in region.rects:
                parts.append(
                    f'<rect x="{sx(r.xl):.2f}" y="{sy(r.yh):.2f}" '
                    f'width="{r.width * scale:.2f}" height="{r.height * scale:.2f}" '
                    f'fill="none" stroke="#2e8b57" stroke-width="1.5" '
                    f'stroke-dasharray="6,3"/>'
                )
    parts.append("</svg>")
    text = "\n".join(parts)
    if path:
        with open(path, "w") as f:
            f.write(text)
    return text


def heatmap_to_svg(
    grid: np.ndarray,
    path: str | None = None,
    *,
    canvas: float = 600.0,
    vmax: float | None = None,
) -> str:
    """Render a tile map (``grid[ix, iy]``, y up) as an SVG heat map."""
    data = np.asarray(grid, dtype=float)
    nx, ny = data.shape
    top = float(vmax) if vmax else max(float(data.max()), 1e-12)
    cell = canvas / max(nx, ny)
    w, h = nx * cell, ny * cell
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" '
        f'height="{h:.0f}" viewBox="0 0 {w:.2f} {h:.2f}">'
    ]
    for i in range(nx):
        for j in range(ny):
            t = min(data[i, j] / top, 1.0)
            # white -> yellow -> red ramp
            red = 255
            green = int(255 * (1.0 - 0.75 * t))
            blue = int(255 * (1.0 - t))
            parts.append(
                f'<rect x="{i * cell:.2f}" y="{(ny - 1 - j) * cell:.2f}" '
                f'width="{cell:.2f}" height="{cell:.2f}" '
                f'fill="rgb({red},{green},{blue})"/>'
            )
    parts.append("</svg>")
    text = "\n".join(parts)
    if path:
        with open(path, "w") as f:
            f.write(text)
    return text
