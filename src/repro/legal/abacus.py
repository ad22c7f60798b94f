"""Abacus: optimal single-row placement refinement by clustering DP.

Within each sub-row (cell-to-row assignment fixed by Tetris), Abacus
places cells in desired-x order minimizing total weighted squared
displacement, by merging cells into clusters whose optimal position is
the weighted mean of member targets (Spindler et al., ISPD'08).

The default path runs the cluster recurrence on flat side-by-side stacks
(e/q/w/x plus the first-member position of each cluster — membership is
an index *range* over the cells pre-sorted per sub-row), so a collapse
pops scalars instead of concatenating Python lists of node objects.
``reference=True`` keeps the original ``_Cluster``-object implementation
callable as the golden baseline; the recurrence arithmetic is replicated
operation by operation, so both produce bit-identical rows.
"""

from __future__ import annotations

import numpy as np

from repro.legal.subrows import SubRowMap


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


def _snap_x(x: float, cell_width: float, x_min: float, x_max: float,
            site_width: float) -> float:
    """:meth:`~repro.legal.subrows.SubRow.snap_x`, replicated verbatim
    so the row core below stays a pure function of plain scalars."""
    x = min(max(x, x_min), x_max - cell_width)
    site = round((x - x_min) / site_width)
    out = x_min + site * site_width
    if out + cell_width > x_max + 1e-9:
        out -= site_width
    return max(out, x_min)


def _refine_row(tgt, widths, x_min: float, x_max: float, site_width: float):
    """The per-row cluster recurrence as a pure function.

    ``tgt``/``widths`` are per-cell lists in the sub-row's current cell
    order.  Returns ``(order, xs_out, disps)``: the target-sorted cell
    order (indices into the input lists), the final lower-left x per
    sorted position, and the pre-repack |displacement| per sorted
    position.
    """
    order = np.argsort(np.array(tgt), kind="stable").tolist()
    tgt = [tgt[j] for j in order]
    widths = [widths[j] for j in order]
    n_cells = len(tgt)
    # Cluster stacks: weight, q, width, optimal x, first member index.
    ce: list = []
    cq: list = []
    cw: list = []
    cx: list = []
    cfirst: list = []
    for pos in range(n_cells):
        wd = widths[pos]
        target = min(max(tgt[pos], x_min), x_max - wd)
        # A fresh cluster's add_cell, replicated literally.
        q = 0.0 + 1.0 * (target - 0.0)
        e = 0.0 + 1.0
        w = 0.0 + wd
        x = q / e if e > 0 else x_min
        cq.append(q)
        ce.append(e)
        cw.append(w)
        cx.append(min(max(x, x_min), x_max - w))
        cfirst.append(pos)
        # Collapse overlaps from the right end.
        while len(cx) >= 2 and cx[-2] + cw[-2] > cx[-1] + 1e-12:
            q_r = cq.pop()
            e_r = ce.pop()
            w_r = cw.pop()
            cx.pop()
            cfirst.pop()
            cq[-1] += q_r - e_r * cw[-1]
            ce[-1] += e_r
            cw[-1] += w_r
            x = cq[-1] / ce[-1] if ce[-1] > 0 else x_min
            cx[-1] = min(max(x, x_min), x_max - cw[-1])
    # Write back, site-aligned.
    xs_out = [0.0] * n_cells
    disps = [0.0] * n_cells
    cursor = x_min
    n_clusters = len(cfirst)
    for ci in range(n_clusters):
        x = cq[ci] / ce[ci] if ce[ci] > 0 else x_min
        x = min(max(x, x_min), x_max - cw[ci])
        last = cfirst[ci + 1] if ci + 1 < n_clusters else n_cells
        for pos in range(cfirst[ci], last):
            wd = widths[pos]
            xx = max(_snap_x(x, wd, x_min, x_max, site_width), cursor)
            xs_out[pos] = xx
            cursor = xx + wd
            disps[pos] = abs(xx - tgt[pos])
            x += wd
    # The site snap can push the tail past the boundary; repack from
    # the right edge leftward (alignment is preserved because widths
    # are whole sites).
    limit = x_max
    for pos in range(n_cells - 1, -1, -1):
        x = min(xs_out[pos], limit - widths[pos])
        xs_out[pos] = max(x, x_min)
        limit = xs_out[pos]
    return order, xs_out, disps


def _apply_row(design, sr, order, xs_out) -> None:
    """Write one refined row's positions and cell order back."""
    nodes = [design.nodes[i] for i in sr.cells]
    nodes = [nodes[j] for j in order]
    y = sr.y
    for pos, node in enumerate(nodes):
        node.x = xs_out[pos]
        node.y = y
    sr.cells = [n.index for n in nodes]


def abacus_refine(
    design,
    submap: SubRowMap,
    desired_x: dict | None = None,
    *,
    reference: bool = False,
) -> float:
    """Refine every sub-row; returns total |x displacement| vs desired.

    ``desired_x`` maps node index to the pre-legalization lower-left x
    (defaults to current positions, i.e. pure re-packing).
    """
    if reference:
        return _refine_reference(design, submap, desired_x)
    total_disp = 0.0
    for sr in submap.subrows:
        if not sr.cells:
            continue
        nodes = [design.nodes[i] for i in sr.cells]
        tgt = [
            (desired_x.get(n.index, n.x) if desired_x else n.x) for n in nodes
        ]
        widths = [n.placed_width for n in nodes]
        order, xs_out, disps = _refine_row(
            tgt, widths, sr.x_min, sr.x_max, sr.site_width
        )
        _apply_row(design, sr, order, xs_out)
        # Per-cell accumulation in sorted order — the same additions in
        # the same sequence the pre-refactor inline loop ran.
        for d in disps:
            total_disp += d
    return total_disp


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
