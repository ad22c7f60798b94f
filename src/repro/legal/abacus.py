"""Abacus: optimal single-row placement refinement by clustering DP.

Within each sub-row (cell-to-row assignment fixed by Tetris), Abacus
places cells in desired-x order minimizing total weighted squared
displacement, by merging cells into clusters whose optimal position is
the weighted mean of member targets (Spindler et al., ISPD'08).

The refinement runs the cluster recurrence on flat side-by-side stacks
(e/q/w/x plus the first-member position of each cluster — membership is
an index *range* over the cells pre-sorted per sub-row), so a collapse
pops scalars instead of concatenating Python lists of node objects.  The
recurrence arithmetic of the original ``_Cluster``-object implementation
(a golden twin under ``tests/reference/``) is replicated operation by
operation, so both produce bit-identical rows.
"""

from __future__ import annotations

import numpy as np

from repro.legal.subrows import SubRowMap, snap_to_site


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
            xx = max(snap_to_site(x, wd, x_min, x_max, site_width), cursor)
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
) -> float:
    """Refine every sub-row; returns total |x displacement| vs desired.

    ``desired_x`` maps node index to the pre-legalization lower-left x
    (defaults to current positions, i.e. pure re-packing).
    """
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
