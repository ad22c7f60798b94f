"""Tetris-style greedy standard-cell legalization.

Cells are processed left-to-right (by global-placement x); each takes the
cheapest feasible position at the current *tail* of a nearby sub-row in
its fence domain.  O(n log n + n * rows-probed), displacement-aware, and
the classical warm start for Abacus refinement.

The assignment ranks candidate sub-rows with a vectorized
stable ``argsort`` over per-domain y arrays and keeps tails/stranding
budgets in flat arrays indexed by sub-row sequence number, instead of
re-sorting a Python list of sub-row objects per cell and keying dicts by
``id(sr)``.  It produces the same assignments as the original per-object
loop (a golden twin under ``tests/reference/``), bit for bit: a stable
argsort over ``|sr.y - node.y|`` reproduces Python's stable ``sorted``
exactly, and every scalar placement expression is unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.db import Design, NodeKind
from repro.legal.subrows import SubRowMap


def tetris_legalize(
    design: Design,
    submap: SubRowMap | None = None,
    *,
    row_probe: int = 24,
) -> SubRowMap:
    """Assign every standard cell to a sub-row position.

    Two attempts: the displacement-friendly variant places each cell at
    ``max(tail, desired x)``, which can strand row space and exhaust
    capacity on tight designs; if that happens the assignment is redone
    with pure tail packing, which never strands and succeeds whenever
    per-domain capacity suffices.  (Abacus restores x afterwards either
    way.)  Raises ``RuntimeError`` only on true capacity exhaustion.
    """
    if submap is None:
        submap = SubRowMap(design)
    snapshot = {
        n.index: (n.x, n.y)
        for n in design.nodes
        if n.is_movable and n.kind in (NodeKind.CELL, NodeKind.FILLER)
    }
    try:
        return _assign(design, submap, row_probe, pack_only=False)
    except RuntimeError:
        for idx, (x, y) in snapshot.items():
            design.nodes[idx].x = x
            design.nodes[idx].y = y
        for sr in submap.subrows:
            sr.cells.clear()
        return _assign(design, submap, row_probe, pack_only=True)


def _sorted_cells(design: Design):
    cells = [
        n
        for n in design.nodes
        if n.is_movable and n.kind in (NodeKind.CELL, NodeKind.FILLER)
    ]
    cells.sort(key=lambda n: n.x)
    return cells


def _stranding_budgets(submap: SubRowMap, cells) -> dict:
    """Per-sub-row stranding allowance, keyed by ``id(sr)``.

    Placing a cell past a row's tail permanently wastes the gap (cells
    arrive in x order), so each sub-row may strand at most its fair share
    of its fence domain's slack.  Total stranding then never exceeds
    total slack and the assignment stays feasible.
    """
    need: dict = {}
    for n in cells:
        need[n.region] = need.get(n.region, 0.0) + n.placed_width
    fill: dict = {}
    for region, demand in need.items():
        cap = sum(sr.width for sr in submap.for_region(region))
        fill[region] = demand / cap if cap > 0 else 1.0
    return {
        id(sr): max(0.0, sr.width * (1.0 - fill.get(sr.region, 1.0)))
        for sr in submap.subrows
    }


def _assign(design: Design, submap: SubRowMap, row_probe: int, pack_only: bool) -> SubRowMap:
    subrows = submap.subrows
    sid_of = {id(sr): i for i, sr in enumerate(subrows)}
    tails = np.array([sr.x_min for sr in subrows])
    cells = _sorted_cells(design)
    budgets_by_id = _stranding_budgets(submap, cells)
    budgets = np.array([budgets_by_id[id(sr)] for sr in subrows])
    # Per fence domain: the sub-row list (in for_region order, which the
    # widen fallback walks), their sequence ids, and per-row geometry
    # arrays the vectorized probe reads.
    domains: dict = {}

    def domain_of(region):
        got = domains.get(region, None)
        if got is None:
            dom = submap.for_region(region)
            got = domains[region] = (
                dom,
                np.array([sid_of[id(sr)] for sr in dom], dtype=np.int64),
                np.array([sr.y for sr in dom]),
                np.array([sr.x_min for sr in dom]),
                np.array([sr.x_max for sr in dom]),
                np.array([sr.site_width for sr in dom]),
            )
        return got

    inf = float("inf")
    for node in cells:
        dom, sids, dom_ys, dom_xmin, dom_xmax, dom_site = domain_of(node.region)
        if not dom:
            raise RuntimeError(
                f"no sub-rows available for cell {node.name} "
                f"(region {node.region})"
            )
        nx = node.x
        ny = node.y
        w = node.placed_width
        # Probe sub-rows nearest in y first: a stable argsort over the
        # distance array ranks exactly like sorted(..., key=|Δy|).
        ranked = np.argsort(np.abs(dom_ys - ny), kind="stable")
        if len(ranked) > row_probe:
            ranked = ranked[:row_probe]
        # All probed rows priced at once.  Every expression mirrors the
        # original scalar loop term for term: one-argument ``round`` is
        # round-half-even, i.e. ``np.rint``; ``int(budget / site)``
        # truncates toward zero and budgets never go negative, so
        # ``np.trunc`` matches; min/max map to np.minimum/np.maximum on
        # the same operands in the same order.
        sid_r = sids[ranked]
        tail_r = tails[sid_r]
        if pack_only:
            x = tail_r
        else:
            xmin_r = dom_xmin[ranked]
            xmax_r = dom_xmax[ranked]
            site_r = dom_site[ranked]
            allowed = site_r * np.trunc(budgets[sid_r] / site_r)
            # snap_x, vectorized.
            xs = np.minimum(np.maximum(nx, xmin_r), xmax_r - w)
            snapped = xmin_r + np.rint((xs - xmin_r) / site_r) * site_r
            snapped = np.where(snapped + w > xmax_r + 1e-9, snapped - site_r, snapped)
            snapped = np.maximum(snapped, xmin_r)
            x = np.minimum(np.maximum(tail_r, snapped), tail_r + allowed)
        cost = np.abs(x - nx) + np.abs(dom_ys[ranked] - ny)
        cost = np.where(x + w > dom_xmax[ranked] + 1e-9, inf, cost)
        # argmin returns the first index achieving the minimum, exactly
        # like the sequential strict `cost < best_cost` update.
        j = int(cost.argmin())
        best_cost = float(cost[j])
        if best_cost != inf:
            best = (int(sid_r[j]), float(x[j]))
        else:
            best = None
        if best is None:
            # Widen: any sub-row in the domain with room at its tail.
            for j, sr in enumerate(dom):
                sid = int(sids[j])
                tail = float(tails[sid])
                if tail + w > sr.x_max + 1e-9:
                    continue
                cost = abs(tail - nx) + abs(sr.y - ny)
                if cost < best_cost:
                    best_cost = cost
                    best = (sid, tail)
        if best is None:
            raise RuntimeError(
                f"legalization capacity exhausted placing {node.name}"
            )
        sid, x = best
        sr = subrows[sid]
        node.x = x
        node.y = sr.y
        budgets[sid] -= max(0.0, x - float(tails[sid]))
        tails[sid] = x + w
        sr.cells.append(node.index)
    return submap
