"""Global and vertical swap passes.

Each standard cell is driven toward its *optimal region* (the median box
of its nets); a same-footprint cell already sitting there is the swap
partner.  Swapping equal-width cells between their slots preserves
legality exactly, including fence domains (partners must share the fence
region id).

All optimal regions come from the pass-start placement, in one
vectorized median evaluation.  A cell's candidate pairings all move
that cell, so :meth:`IncrementalHPWL.score_swaps` prices them in one
call that reduces the cell's nets once and scans only the partners'
nets per pairing.  Candidate positions are read from mirror lists
refreshed from the design after every committed swap, so scoring sees
exactly what re-reading the nodes would — bit for bit.  ``_SlotIndex``
buckets by exact integer site-width keys
(``round(placed_width / site_width)``) rather than ``round(width, 6)``
floats, so near-equal widths can't land in different buckets on
different platforms, and builds the ordering of the original grouped
sorted lists (a golden twin under ``tests/reference/``) with one global
``np.lexsort``.
"""

from __future__ import annotations

import bisect

import numpy as np

from repro.db import NodeKind
from repro.dp.hpwl_delta import IncrementalHPWL


class _SlotIndex:
    """Same-footprint candidate lookup, bucketed by (width-key, region).

    Buckets are kept sorted by (cx, cy, index) at pass start; lookups
    bisect to the query abscissa and scan outward, so a pass costs
    O(n * (log n + k)) instead of the naive O(n^2).  Bucket *positions*
    go slightly stale as swaps commit — harmless, since candidates are
    scored from the live mirror arrays, which :meth:`note_moved` refreshes
    from the design after every accepted swap.
    """

    def __init__(self, design, cells):
        self.design = design
        num = len(design.nodes)
        # Live position mirrors: always equal to node.cx/node.cy/node.y.
        self.mx = [0.0] * num
        self.my = [0.0] * num
        self.ny = [0.0] * num
        self._key_of = {}
        site = design.site_width
        entries = []  # (wkey, region-id, cx, cy, idx) per cell
        regions = []
        region_ids: dict = {}
        for idx in cells:
            node = design.nodes[idx]
            cx = node.cx
            cy = node.cy
            self.mx[idx] = cx
            self.my[idx] = cy
            self.ny[idx] = node.y
            region = node.region
            rid = region_ids.get(region)
            if rid is None:
                rid = region_ids[region] = len(regions)
                regions.append(region)
            wkey = round(node.placed_width / site)
            self._key_of[idx] = (wkey, rid)
            entries.append((wkey, rid, cx, cy, idx))
        self.buckets = self._bucket(entries) if entries else {}

    @staticmethod
    def _bucket(entries) -> dict:
        """``{(wkey, rid): (xs, ids)}`` from ``(wkey, rid, cx, cy, idx)``
        entries, each bucket's lists sorted by ``(cx, cy, idx)``."""
        buckets = {}
        wk = np.array([e[0] for e in entries], dtype=np.int64)
        rid_a = np.array([e[1] for e in entries], dtype=np.int64)
        cx_a = np.array([e[2] for e in entries])
        cy_a = np.array([e[3] for e in entries])
        id_a = np.array([e[4] for e in entries], dtype=np.int64)
        # Global sort: bucket keys first, then the (cx, cy, idx) tuple
        # order within each bucket.
        order = np.lexsort((id_a, cy_a, cx_a, rid_a, wk))
        wk = wk[order]
        rid_a = rid_a[order]
        cx_s = cx_a[order]
        id_s = id_a[order]
        cuts = np.flatnonzero((wk[1:] != wk[:-1]) | (rid_a[1:] != rid_a[:-1])) + 1
        starts = np.concatenate(([0], cuts, [len(wk)]))
        for a, b in zip(starts[:-1], starts[1:]):
            a = int(a)
            b = int(b)
            key = (int(wk[a]), int(rid_a[a]))
            buckets[key] = (cx_s[a:b].tolist(), id_s[a:b].tolist())
        return buckets

    def note_moved(self, idx: int) -> None:
        """Refresh the mirrors of ``idx`` from the design after a move."""
        node = self.design.nodes[idx]
        self.mx[idx] = node.cx
        self.my[idx] = node.cy
        self.ny[idx] = node.y

    def candidates(self, idx: int, x: float, y: float, k: int, *, rows=None):
        """Up to ``k`` same-footprint cells nearest to ``(x, y)``.

        ``rows`` restricts partners to given y coordinates (vertical swap).
        """
        entry = self.buckets.get(self._key_of.get(idx))
        if not entry:
            return []
        xs, ids = entry
        pos = bisect.bisect_left(xs, x)
        mx = self.mx
        my = self.my
        ny = self.ny
        n_ids = len(ids)
        inf = float("inf")
        # Scan outward in x, keeping the k best by full manhattan metric.
        # xs is sorted and pos is the bisect-left split, so the gaps are
        # xs[hi] - x on the right and x - xs[lo] on the left (no abs).
        scored = []
        lo, hi = pos - 1, pos
        gap_hi = xs[hi] - x if hi < n_ids else inf
        gap_lo = x - xs[lo] if lo >= 0 else inf
        worst = inf
        probe_budget = max(4 * k, 16)
        while probe_budget > 0 and (lo >= 0 or hi < n_ids):
            if gap_hi <= gap_lo:
                cand = ids[hi]
                hi += 1
                gap_hi = xs[hi] - x if hi < n_ids else inf
            else:
                cand = ids[lo]
                lo -= 1
                gap_lo = x - xs[lo] if lo >= 0 else inf
            probe_budget -= 1
            if cand == idx:
                continue
            if rows is not None and round(ny[cand], 6) not in rows:
                continue
            dist = abs(mx[cand] - x) + abs(my[cand] - y)
            if dist < worst or len(scored) < k:
                scored.append((dist, cand))
                scored.sort()
                if len(scored) > k:
                    scored.pop()
                worst = scored[-1][0]
            # Early exit: once the x gap alone exceeds the worst kept
            # distance, nothing further out can improve.
            if len(scored) == k:
                next_gap = gap_hi if gap_hi < gap_lo else gap_lo
                if next_gap > worst:
                    break
        return [c for _, c in scored]


def _swap_sweep(
    design,
    inc: IncrementalHPWL,
    *,
    candidates_per_cell: int,
    rows_for,
    gate=None,
) -> tuple:
    """One sweep of swap attempts; returns (#accepted, HPWL gain)."""
    cells = [
        n.index
        for n in design.nodes
        if n.is_movable and n.kind is NodeKind.CELL
    ]
    # All optimal regions come from the pass-start placement: one batched
    # median evaluation.
    regions = inc.optimal_regions(cells)
    index = _SlotIndex(design, cells)
    site = design.site_width
    mx = index.mx
    my = index.my
    accepted = 0
    gain = 0.0
    for idx in cells:
        region = regions[idx]
        if region is None:
            continue
        x_lo, x_hi, y_lo, y_hi = region
        cx = mx[idx]
        cy = my[idx]
        tx = min(max(cx, x_lo), x_hi)
        ty = min(max(cy, y_lo), y_hi)
        if abs(tx - cx) + abs(ty - cy) < site:
            continue  # already in its optimal region
        rows = rows_for(index.ny[idx]) if rows_for else None
        cands = index.candidates(idx, tx, ty, candidates_per_cell, rows=rows)
        if not cands:
            continue
        move_sets = [[(idx, mx[c], my[c]), (c, cx, cy)] for c in cands]
        deltas = inc.score_swaps(move_sets)
        for j, other_idx in enumerate(cands):
            moves = move_sets[j]
            # Both checks are pure filters: price first, it is cheaper.
            if deltas[j] < -1e-9 and (gate is None or gate(moves)):
                inc.apply_moves(moves)
                index.note_moved(idx)
                index.note_moved(other_idx)
                accepted += 1
                gain -= float(deltas[j])
                break
    return accepted, gain


def global_swap_pass(
    design, inc: IncrementalHPWL, *, candidates_per_cell: int = 8, gate=None
) -> tuple:
    """Unrestricted same-footprint swaps toward optimal regions."""
    return _swap_sweep(
        design,
        inc,
        candidates_per_cell=candidates_per_cell,
        rows_for=None,
        gate=gate,
    )


def vertical_swap_pass(
    design, inc: IncrementalHPWL, *, candidates_per_cell: int = 4, gate=None
) -> tuple:
    """Swaps restricted to the rows adjacent to each cell's own."""
    row_h = design.row_height

    def rows_for(y):
        return {round(y + row_h, 6), round(y - row_h, 6)}

    return _swap_sweep(
        design,
        inc,
        candidates_per_cell=candidates_per_cell,
        rows_for=rows_for,
        gate=gate,
    )
