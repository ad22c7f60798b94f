"""Golden twins of the legalization kernels.

The original per-object Tetris assignment, Abacus cluster refinement and
legality audit, bodies unchanged.
"""

from __future__ import annotations

from repro.db import Design, NodeKind
from repro.legal.check import LegalityReport
from repro.legal.subrows import SubRowMap
from repro.legal.tetris import _sorted_cells, _stranding_budgets


# ----------------------------------------------------------------------
# legal.tetris
# ----------------------------------------------------------------------
def _assign_reference(
    design: Design, submap: SubRowMap, row_probe: int, pack_only: bool
) -> SubRowMap:
    """The original per-object assignment loop (golden baseline)."""
    tails = {id(sr): sr.x_min for sr in submap.subrows}
    cells = _sorted_cells(design)
    budgets = _stranding_budgets(submap, cells)
    for node in cells:
        domain = submap.for_region(node.region)
        if not domain:
            raise RuntimeError(
                f"no sub-rows available for cell {node.name} "
                f"(region {node.region})"
            )
        # Probe sub-rows nearest in y first.
        ranked = sorted(domain, key=lambda sr: abs(sr.y - node.y))[:row_probe]
        best = None
        best_cost = float("inf")
        w = node.placed_width
        for sr in ranked:
            tail = tails[id(sr)]
            if pack_only:
                x = tail
            else:
                site = sr.site_width
                allowed = site * int(budgets[id(sr)] / site)
                x = min(max(tail, sr.snap_x(node.x, w)), tail + allowed)
            if x + w > sr.x_max + 1e-9:
                continue
            cost = abs(x - node.x) + abs(sr.y - node.y)
            if cost < best_cost:
                best_cost = cost
                best = (sr, x)
        if best is None:
            # Widen: any sub-row in the domain with room at its tail.
            for sr in domain:
                tail = tails[id(sr)]
                if tail + w > sr.x_max + 1e-9:
                    continue
                cost = abs(tail - node.x) + abs(sr.y - node.y)
                if cost < best_cost:
                    best_cost = cost
                    best = (sr, tail)
        if best is None:
            raise RuntimeError(
                f"legalization capacity exhausted placing {node.name}"
            )
        sr, x = best
        node.x = x
        node.y = sr.y
        budgets[id(sr)] -= max(0.0, x - tails[id(sr)])
        tails[id(sr)] = x + w
        sr.cells.append(node.index)
    return submap


# ----------------------------------------------------------------------
# legal.abacus
# ----------------------------------------------------------------------
class _Cluster:
    __slots__ = ("e", "q", "w", "x", "cells")

    def __init__(self):
        self.e = 0.0  # total weight
        self.q = 0.0  # sum of weight * (target - offset-in-cluster)
        self.w = 0.0  # total width
        self.x = 0.0
        self.cells = []

    def add_cell(self, node, target_x: float, weight: float) -> None:
        self.cells.append(node)
        self.q += weight * (target_x - self.w)
        self.e += weight
        self.w += node.placed_width

    def merge_left(self, other: "_Cluster") -> None:
        """Absorb ``self`` into ``other`` (other is to the left)."""
        for node in self.cells:
            other.cells.append(node)
        other.q += self.q - self.e * other.w
        other.e += self.e
        other.w += self.w

    def optimal_x(self, x_min: float, x_max: float) -> float:
        x = self.q / self.e if self.e > 0 else x_min
        return min(max(x, x_min), x_max - self.w)


def _refine_reference(design, submap: SubRowMap, desired_x: dict | None) -> float:
    """The original cluster-object implementation (golden baseline)."""
    total_disp = 0.0
    for sr in submap.subrows:
        if not sr.cells:
            continue
        nodes = [design.nodes[i] for i in sr.cells]
        targets = {
            n.index: (desired_x.get(n.index, n.x) if desired_x else n.x) for n in nodes
        }
        nodes.sort(key=lambda n: targets[n.index])
        clusters = []
        for node in nodes:
            target = min(max(targets[node.index], sr.x_min), sr.x_max - node.placed_width)
            c = _Cluster()
            c.add_cell(node, target, weight=1.0)
            c.x = c.optimal_x(sr.x_min, sr.x_max)
            clusters.append(c)
            # Collapse overlaps from the right end.
            while len(clusters) >= 2 and clusters[-2].x + clusters[-2].w > clusters[-1].x + 1e-12:
                right = clusters.pop()
                right.merge_left(clusters[-1])
                clusters[-1].x = clusters[-1].optimal_x(sr.x_min, sr.x_max)
        # Write back, site-aligned.
        order = []
        for c in clusters:
            x = c.optimal_x(sr.x_min, sr.x_max)
            for node in c.cells:
                order.append((node, x))
                x += node.placed_width
        cursor = sr.x_min
        for node, x in order:
            x = max(sr.snap_x(x, node.placed_width), cursor)
            node.x = x
            node.y = sr.y
            cursor = x + node.placed_width
            total_disp += abs(x - targets[node.index])
        # The site snap can push the tail past the boundary; repack from
        # the right edge leftward (alignment is preserved because widths
        # are whole sites).
        limit = sr.x_max
        for node, _ in reversed(order):
            x = min(node.x, limit - node.placed_width)
            node.x = max(x, sr.x_min)
            limit = node.x
        sr.cells = [n.index for n, _ in order]
    return total_disp


# ----------------------------------------------------------------------
# legal.check
# ----------------------------------------------------------------------
def _check_legal_reference(
    design: Design, *, tol: float = 1e-6, max_violations: int = 200
) -> LegalityReport:
    """The original per-object audit loop (golden baseline)."""
    report = LegalityReport()
    core = design.core
    rows_y = {round(r.y, 6) for r in design.rows}
    site = design.site_width

    def add(msg: str) -> bool:
        report.violations.append(msg)
        return len(report.violations) >= max_violations

    blockers = []
    for node in design.nodes:
        if not node.is_movable:
            continue
        report.checked_nodes += 1
        r = node.rect
        if (
            r.xl < core.xl - tol
            or r.xh > core.xh + tol
            or r.yl < core.yl - tol
            or r.yh > core.yh + tol
        ):
            if add(f"{node.name}: outside core"):
                return report
        if node.kind is NodeKind.CELL:
            if round(node.y, 6) not in rows_y:
                if add(f"{node.name}: not row-aligned (y={node.y})"):
                    return report
            phase = (node.x - core.xl) / site
            if abs(phase - round(phase)) > 1e-4:
                if add(f"{node.name}: not site-aligned (x={node.x})"):
                    return report
        if node.region is not None:
            region = design.regions[node.region]
            if not region.contains_rect(r.inflated(-min(tol, r.width / 2, r.height / 2))):
                if add(f"{node.name}: outside fence {region.name}"):
                    return report
        else:
            for region in design.regions:
                if any(
                    r.overlap_area(fr) > tol * max(1.0, r.area) for fr in region.rects
                ):
                    if add(f"{node.name}: intrudes into fence {region.name}"):
                        return report
                    break
        blockers.append((r, node.name))
    for node in design.nodes:
        if not node.is_movable and node.kind.blocks_placement:
            blockers.append((node.rect, node.name))

    # Overlap sweep: sort by xl, compare against active window.
    blockers.sort(key=lambda t: t[0].xl)
    active = []
    for rect, name in blockers:
        still = []
        for other, other_name in active:
            if other.xh > rect.xl + tol:
                still.append((other, other_name))
                if rect.intersects(other) and rect.overlap_area(other) > tol:
                    if add(f"overlap: {name} x {other_name}"):
                        return report
        active = still
        active.append((rect, name))
    return report
