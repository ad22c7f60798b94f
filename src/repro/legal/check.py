"""Independent legality audit.

Used by tests and the flow after legalization/detailed placement; checks
are written against the design rules directly, not against the
legalizers' internal state, so they catch legalizer bugs.

The audit evaluates core containment, site phase and fence
intrusion as vectorized NumPy predicates over flat coordinate arrays and
only materializes per-node messages for actual violations; the overlap
sweep runs on plain float tuples instead of :class:`Rect` objects.  The
reports are identical to the original per-object loop's (a golden twin
under ``tests/reference/``) — every comparison is replicated with the
same scalar semantics, in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.db import Design, NodeKind


@dataclass
class LegalityReport:
    """Violations found by :func:`check_legal` (empty = legal)."""

    violations: list = field(default_factory=list)
    checked_nodes: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return f"legal ({self.checked_nodes} nodes checked)"
        head = "; ".join(self.violations[:5])
        more = f" (+{len(self.violations) - 5} more)" if len(self.violations) > 5 else ""
        return f"{len(self.violations)} violations: {head}{more}"


def check_legal(
    design: Design,
    *,
    tol: float = 1e-6,
    max_violations: int = 200,
) -> LegalityReport:
    """Audit core containment, row/site alignment, overlaps and fences."""
    report = LegalityReport()
    core = design.core
    rows_y = {round(r.y, 6) for r in design.rows}
    site = design.site_width

    def add(msg: str) -> bool:
        report.violations.append(msg)
        return len(report.violations) >= max_violations

    movables = [n for n in design.nodes if n.is_movable]
    n_mov = len(movables)
    if n_mov:
        x = np.array([n.x for n in movables])
        y = np.array([n.y for n in movables])
        pw = np.array([n.placed_width for n in movables])
        ph = np.array([n.placed_height for n in movables])
        xh = x + pw
        yh = y + ph
        is_cell = np.array([n.kind is NodeKind.CELL for n in movables])
        m_core = (
            (x < core.xl - tol)
            | (xh > core.xh + tol)
            | (y < core.yl - tol)
            | (yh > core.yh + tol)
        )
        # Row alignment keys use Python round(), exactly like the scalar
        # loop; building the key list is cheap relative to set lookups.
        m_row = np.array(
            [
                bool(c) and round(yv, 6) not in rows_y
                for c, yv in zip(is_cell.tolist(), y.tolist())
            ]
        )
        phase = (x - core.xl) / site
        m_site = is_cell & (np.abs(phase - np.rint(phase)) > 1e-4)
        # Fence checks: fenced nodes go through the original Rect methods
        # (they are few); unfenced intrusion is vectorized per fence rect.
        m_fence = np.zeros(n_mov, dtype=bool)
        fence_of = np.full(n_mov, -1, dtype=np.int64)
        unfenced = np.array([n.region is None for n in movables])
        for pos in np.flatnonzero(~unfenced).tolist():
            node = movables[pos]
            r = node.rect
            region = design.regions[node.region]
            if not region.contains_rect(
                r.inflated(-min(tol, r.width / 2, r.height / 2))
            ):
                m_fence[pos] = True
                fence_of[pos] = node.region
        if design.regions and unfenced.any():
            limit = tol * np.maximum(1.0, pw * ph)
            for region in design.regions:
                hit = np.zeros(n_mov, dtype=bool)
                for fr in region.rects:
                    w_ov = np.minimum(xh, fr.xh) - np.maximum(x, fr.xl)
                    h_ov = np.minimum(yh, fr.yh) - np.maximum(y, fr.yl)
                    ov = np.where((w_ov > 0.0) & (h_ov > 0.0), w_ov * h_ov, 0.0)
                    hit |= ov > limit
                fresh = hit & unfenced & ~m_fence
                m_fence |= fresh
                fence_of[fresh] = region.index
        any_viol = m_core | m_row | m_site | m_fence
        for pos in np.flatnonzero(any_viol).tolist():
            node = movables[pos]
            full = False
            if m_core[pos]:
                full = add(f"{node.name}: outside core")
            if not full and m_row[pos]:
                full = add(f"{node.name}: not row-aligned (y={node.y})")
            if not full and m_site[pos]:
                full = add(f"{node.name}: not site-aligned (x={node.x})")
            if not full and m_fence[pos]:
                region = design.regions[fence_of[pos]]
                if unfenced[pos]:
                    full = add(f"{node.name}: intrudes into fence {region.name}")
                else:
                    full = add(f"{node.name}: outside fence {region.name}")
            if full:
                report.checked_nodes = pos + 1
                return report
    report.checked_nodes = n_mov

    blockers = [
        (float(x[i]), float(y[i]), float(xh[i]), float(yh[i]), movables[i].name)
        for i in range(n_mov)
    ]
    for node in design.nodes:
        if not node.is_movable and node.kind.blocks_placement:
            r = node.rect
            blockers.append((r.xl, r.yl, r.xh, r.yh, node.name))

    # Overlap sweep: sort by xl, compare against active window.
    blockers.sort(key=lambda t: t[0])
    active: list = []
    for bxl, byl, bxh, byh, name in blockers:
        still = []
        for o in active:
            if o[2] > bxl + tol:
                still.append(o)
                if bxl < o[2] and o[0] < bxh and byl < o[3] and o[1] < byh:
                    w = min(bxh, o[2]) - max(bxl, o[0])
                    h = min(byh, o[3]) - max(byl, o[1])
                    if not (w <= 0.0 or h <= 0.0) and w * h > tol:
                        if add(f"overlap: {name} x {o[4]}"):
                            return report
        active = still
        active.append((bxl, byl, bxh, byh, name))
    return report
