"""Incremental (ECO) legalization.

After an engineering change — a handful of cells moved, resized or added
— rerunning full legalization would disturb thousands of placed cells.
``eco_legalize`` re-legalizes *only* the changed cells: each is inserted
into the nearest sub-row gap that accommodates it (its fence domain
respected), leaving every other cell untouched.

Returns per-cell displacements so callers can bound the disturbance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.db import Design, NodeKind
from repro.legal.subrows import SubRowMap


@dataclass
class EcoResult:
    """Outcome of one incremental legalization."""

    placed: list = field(default_factory=list)  # (node index, displacement)
    failed: list = field(default_factory=list)  # node indices with no spot

    @property
    def ok(self) -> bool:
        return not self.failed

    @property
    def max_displacement(self) -> float:
        return max((d for _, d in self.placed), default=0.0)

    @property
    def total_displacement(self) -> float:
        return sum(d for _, d in self.placed)


def _free_intervals(design: Design, sr, exclude: set):
    cells = sorted(
        (i for i in sr.cells if i not in exclude),
        key=lambda i: design.nodes[i].x,
    )
    out = []
    cursor = sr.x_min
    for idx in cells:
        node = design.nodes[idx]
        if node.x > cursor + 1e-9:
            out.append((cursor, node.x))
        cursor = max(cursor, node.x + node.placed_width)
    if cursor < sr.x_max - 1e-9:
        out.append((cursor, sr.x_max))
    return out


def eco_legalize(
    design: Design,
    changed: list,
    submap: SubRowMap | None = None,
    *,
    search_radius: float | None = None,
) -> EcoResult:
    """Legalize only ``changed`` (node indices), minimally displacing them.

    The rest of the placement is treated as immovable.  ``search_radius``
    limits the y-distance of candidate sub-rows (default: whole core;
    the nearest feasible gap wins regardless).
    """
    if submap is None:
        submap = SubRowMap(design)
    submap.rebuild_cells(design)
    exclude = set(changed)
    result = EcoResult()
    # Widest first: hardest to seat, and earlier placements only shrink
    # the gap supply.
    order = sorted(
        (i for i in changed if design.nodes[i].is_movable),
        key=lambda i: -design.nodes[i].placed_width,
    )
    if search_radius is None:
        search_radius = design.core.height
    for idx in order:
        node = design.nodes[idx]
        if node.kind is not NodeKind.CELL:
            result.failed.append(idx)  # macros need the macro legalizer
            continue
        best = None
        best_cost = float("inf")
        for sr in submap.for_region(node.region):
            dy = abs(sr.y - node.y)
            if dy > search_radius or dy >= best_cost:
                continue
            for lo, hi in _free_intervals(design, sr, exclude):
                if hi - lo < node.placed_width - 1e-9:
                    continue
                x = min(max(node.x, lo), hi - node.placed_width)
                x = sr.snap_x(x, node.placed_width)
                if x < lo - 1e-9 or x + node.placed_width > hi + 1e-9:
                    continue
                cost = abs(x - node.x) + dy
                if cost < best_cost:
                    best_cost = cost
                    best = (sr, x)
        if best is None:
            result.failed.append(idx)
            continue
        sr, x = best
        disp = abs(x - node.x) + abs(sr.y - node.y)
        node.x = x
        node.y = sr.y
        sr.cells.append(idx)
        exclude.discard(idx)  # now a fixed obstacle for the rest
        result.placed.append((idx, disp))
    return result
