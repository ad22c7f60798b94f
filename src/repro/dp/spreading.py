"""Congestion-driven cell spreading (post-legalization refinement).

The last routability lever in the flow: after legalization, cells
sitting in tiles whose estimated congestion exceeds a threshold are
evacuated into nearby whitespace in cooler tiles, preserving legality
exactly (cells move into verified sub-row gaps).  HPWL is allowed to
degrade by a bounded amount per move — trading wirelength for
routability is the point.

The scan caches sub-row free intervals (invalidated only for the two
sub-rows an accepted move touches), resolves each cell's owning sub-row
through per-sub-row membership sets, and maps coordinates to congestion
tiles with scalar arithmetic instead of ndarray round trips.  It visits
candidates in the same order and compares with the same scalar semantics
as the original per-object scan (a golden twin under
``tests/reference/``), so the chosen moves are bit-identical.
"""

from __future__ import annotations

import math

from repro.db import NodeKind
from repro.legal.subrows import free_intervals
from repro.route.rudy import rudy_congestion


def congestion_spread_pass(
    design,
    submap,
    inc=None,
    *,
    threshold: float = 0.9,
    max_moves: int = 200,
    max_distance: float | None = None,
    hpwl_slack: float = 0.002,
) -> tuple:
    """Move cells out of congested tiles into cool whitespace.

    Returns ``(moves_made, hpwl_delta)``.  ``hpwl_slack`` bounds the
    acceptable HPWL increase per move as a fraction of total HPWL.
    ``inc`` is an optional shared :class:`~repro.dp.IncrementalHPWL`.
    """
    if design.routing is None:
        return 0, 0.0
    from repro.dp.hpwl_delta import IncrementalHPWL

    if inc is None:
        inc = IncrementalHPWL(design)
    return _spread(
        design,
        submap,
        inc,
        threshold=threshold,
        max_moves=max_moves,
        max_distance=max_distance,
        hpwl_slack=hpwl_slack,
    )


def _spread(
    design,
    submap,
    inc,
    *,
    threshold: float,
    max_moves: int,
    max_distance: float | None,
    hpwl_slack: float,
) -> tuple:
    """The spreading scan behind :func:`congestion_spread_pass`."""
    grid = design.routing.grid
    cong = rudy_congestion(design)

    if max_distance is None:
        max_distance = 0.25 * max(design.core.width, design.core.height)
    hpwl_budget = hpwl_slack * max(design.hpwl(), 1.0)

    submap.rebuild_cells(design)

    # Scalar tile lookup: same floor + clamp arithmetic as
    # BinGrid.index_of, minus the ndarray round trips.
    xl0 = grid.area.xl
    yl0 = grid.area.yl
    bw = grid.bin_w
    bh = grid.bin_h
    nx_hi = grid.nx - 1
    ny_hi = grid.ny - 1
    floor = math.floor
    cong_list = cong.tolist()

    def tile_cong(x, y) -> float:
        ix = min(max(floor((x - xl0) / bw), 0), nx_hi)
        iy = min(max(floor((y - yl0) / bh), 0), ny_hi)
        return cong_list[ix][iy]

    # Hot cells, hottest tiles first, low pin count first (cheap to move).
    hot_cells = []
    for node in design.nodes:
        if not node.is_movable or node.kind is not NodeKind.CELL:
            continue
        c = tile_cong(node.cx, node.cy)
        if c > threshold:
            hot_cells.append((-c, len(node.pins), node.index))
    hot_cells.sort()

    # O(1) membership per sub-row replaces the `idx in sr.cells` list
    # scans; the lookup order over the region's sub-rows is unchanged.
    member_sets: dict = {}

    def members_of(sr):
        key = id(sr)
        got = member_sets.get(key)
        if got is None:
            got = member_sets[key] = set(sr.cells)
        return got

    # Free intervals are recomputed only for the two sub-rows an accepted
    # move touches; every other row's gaps are provably unchanged.
    interval_cache: dict = {}

    def intervals_of(sr):
        key = id(sr)
        got = interval_cache.get(key)
        if got is None:
            got = interval_cache[key] = free_intervals(design, sr)
        return got

    cool = threshold * 0.9
    moves = 0
    total_delta = 0.0
    for _, _, idx in hot_cells:
        if moves >= max_moves:
            break
        node = design.nodes[idx]
        src_sr = None
        for sr in submap.for_region(node.region):
            if idx in members_of(sr):
                src_sr = sr
                break
        if src_sr is None:
            continue
        nx0 = node.x
        ny0 = node.y
        ncx0 = node.cx
        ncy0 = node.cy
        pw = node.placed_width
        ph = node.placed_height
        best = None
        best_cost = float("inf")
        for sr in submap.for_region(node.region):
            if abs(sr.y - ny0) > max_distance:
                continue
            for lo, hi in intervals_of(sr):
                if hi - lo < pw - 1e-9:
                    continue
                # Candidate x nearest to the cell inside the gap.
                x = min(max(nx0, lo), hi - pw)
                x = sr.snap_x(x, pw)
                if x < lo - 1e-9 or x + pw > hi + 1e-9:
                    continue
                ncx = x + pw / 2.0
                ncy = sr.y + ph / 2.0
                if tile_cong(ncx, ncy) > cool:
                    continue  # destination must actually be cooler
                dist = abs(ncx - ncx0) + abs(ncy - ncy0)
                if dist > max_distance or dist < 1e-9:
                    continue
                if dist < best_cost:
                    best_cost = dist
                    best = (sr, x, ncx, ncy)
        if best is None:
            continue
        sr, x, ncx, ncy = best
        delta = inc.delta_for_moves([(idx, ncx, ncy)])
        if delta > hpwl_budget:
            continue
        inc.apply_moves([(idx, ncx, ncy)])
        src_sr.cells.remove(idx)
        members_of(src_sr).discard(idx)
        sr.cells.append(idx)
        members_of(sr).add(idx)
        interval_cache.pop(id(src_sr), None)
        interval_cache.pop(id(sr), None)
        moves += 1
        total_delta += delta
    return moves, total_delta
