"""Sub-rows: placement rows fragmented by obstacles and fence domains.

A sub-row is a maximal obstacle-free interval of a row belonging to one
*fence domain*: either the interior of one fence region (only that
region's cells may use it) or the open area (only unfenced cells).  This
encodes the contest's exclusive-region semantics directly in the data the
legalizers consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.db import Design, NodeKind


@dataclass
class SubRow:
    """An obstacle-free interval of one row, in one fence domain."""

    row_index: int
    y: float
    height: float
    x_min: float
    x_max: float
    site_width: float
    region: int | None = None  # fence region id; None = open area
    cells: list = field(default_factory=list)  # node indices, set by legalizers

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    def snap_x(self, x: float, cell_width: float) -> float:
        """Site-aligned x nearest ``x`` keeping the cell inside."""
        return snap_to_site(x, cell_width, self.x_min, self.x_max, self.site_width)


def snap_to_site(
    x: float, cell_width: float, x_min: float, x_max: float, site_width: float
) -> float:
    """Site-aligned x nearest ``x`` keeping a ``cell_width`` cell inside
    ``[x_min, x_max]`` (:meth:`SubRow.snap_x` on plain scalars)."""
    x = min(max(x, x_min), x_max - cell_width)
    site = round((x - x_min) / site_width)
    out = x_min + site * site_width
    if out + cell_width > x_max + 1e-9:
        out -= site_width
    return max(out, x_min)


def free_intervals(design: Design, sr: SubRow, exclude=()) -> list:
    """Maximal free ``(lo, hi)`` gaps of ``sr`` between its current cells,
    ignoring the cells in ``exclude``."""
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


def _subtract_intervals(intervals, cut_lo: float, cut_hi: float):
    """Remove ``[cut_lo, cut_hi]`` from a list of disjoint intervals."""
    out = []
    for lo, hi in intervals:
        if cut_hi <= lo or cut_lo >= hi:
            out.append((lo, hi))
            continue
        if cut_lo > lo:
            out.append((lo, cut_lo))
        if cut_hi < hi:
            out.append((cut_hi, hi))
    return out


class SubRowMap:
    """All sub-rows of a design, built from its rows, obstacles and fences."""

    def __init__(self, design: Design, min_width: float | None = None):
        self.design = design
        self.subrows: list = []
        min_width = design.site_width if min_width is None else min_width
        obstacles = [
            node.rect
            for node in design.nodes
            if node.kind.blocks_placement
            and (node.kind.is_fixed or node.kind is NodeKind.MACRO)
        ]
        for row in design.rows:
            row_lo, row_hi = row.y, row.y + row.height
            intervals = [(row.x_min, row.x_max)]
            for rect in obstacles:
                if rect.yl < row_hi - 1e-9 and rect.yh > row_lo + 1e-9:
                    intervals = _subtract_intervals(intervals, rect.xl, rect.xh)
            # Partition each interval into fence domains.  Fence regions
            # are assumed mutually disjoint (the generator and Bookshelf
            # benchmarks guarantee this); overlap would make domains
            # ambiguous and is caught by Design.validate elsewhere.
            for lo, hi in intervals:
                pieces = []
                remaining = [(lo, hi)]
                for region in design.regions:
                    for rect in region.rects:
                        if rect.yl >= row_hi - 1e-9 or rect.yh <= row_lo + 1e-9:
                            continue
                        # Only rows fully inside the fence vertically can
                        # host its cells; partially covered rows are lost
                        # to everyone (cells would straddle the boundary).
                        full = rect.yl <= row_lo + 1e-9 and rect.yh >= row_hi - 1e-9
                        new_remaining = []
                        for qlo, qhi in remaining:
                            cl = max(qlo, rect.xl)
                            ch = min(qhi, rect.xh)
                            if ch > cl and full:
                                pieces.append((cl, ch, region.index))
                            new_remaining.extend(
                                _subtract_intervals([(qlo, qhi)], rect.xl, rect.xh)
                            )
                        remaining = new_remaining
                pieces.extend((qlo, qhi, None) for qlo, qhi in remaining)
                for plo, phi, dom in pieces:
                    # Snap onto the *global* site grid (anchored at the
                    # row origin) so cell x positions stay site-aligned
                    # regardless of where obstacles cut the row.
                    sw = row.site_width
                    plo_s = row.x_min + sw * np.ceil((plo - row.x_min) / sw - 1e-9)
                    phi_s = row.x_min + sw * np.floor((phi - row.x_min) / sw + 1e-9)
                    if phi_s - plo_s >= min_width:
                        self.subrows.append(
                            SubRow(
                                row_index=row.index,
                                y=row.y,
                                height=row.height,
                                x_min=plo_s,
                                x_max=phi_s,
                                site_width=sw,
                                region=dom,
                            )
                        )
        self.subrows.sort(key=lambda s: (s.y, s.x_min))
        self._by_region: dict = {}
        for sr in self.subrows:
            self._by_region.setdefault(sr.region, []).append(sr)

    def for_region(self, region: int | None) -> list:
        """Sub-rows a cell of the given fence domain may occupy."""
        return self._by_region.get(region, [])

    def rebuild_cells(self, design: Design) -> None:
        """Re-derive each sub-row's cell list from current positions.

        Needed after passes that move cells between rows (global /
        vertical swap) so row-local algorithms see fresh membership.
        """
        for sr in self.subrows:
            sr.cells.clear()
        index = {}
        for sr in self.subrows:
            index.setdefault(round(sr.y, 6), []).append(sr)
        for node in design.nodes:
            if not node.is_movable or node.kind is not NodeKind.CELL:
                continue
            for sr in index.get(round(node.y, 6), []):
                if sr.x_min - 1e-6 <= node.x and node.x + node.placed_width <= sr.x_max + 1e-6:
                    sr.cells.append(node.index)
                    break
        for sr in self.subrows:
            sr.cells.sort(key=lambda i: design.nodes[i].x)

    def total_capacity(self, region: int | None = None) -> float:
        rows = self.subrows if region is Ellipsis else self.for_region(region)
        return sum(sr.width * sr.height for sr in rows)
