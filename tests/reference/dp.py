"""Golden twins of the detailed-placement kernels.

The original per-pin ``IncrementalHPWL`` loops, the grouped-sort
``_SlotIndex`` buckets, the scalar congestion gate, the per-object
congestion spreading scan, bodies unchanged, and SciPy's assignment
solver.
"""

from __future__ import annotations

import numpy as np
import scipy.optimize

from repro.db import NodeKind
from repro.dp.engine import CONGESTION_GATE_THRESHOLD
from repro.dp.hpwl_delta import IncrementalHPWL
from repro.dp.swap import _SlotIndex
from repro.legal.subrows import free_intervals as _free_intervals
from repro.route.rudy import rudy_map


# ----------------------------------------------------------------------
# dp.hpwl_delta
# ----------------------------------------------------------------------
class ReferenceIncrementalHPWL(IncrementalHPWL):
    """``IncrementalHPWL`` on the original per-pin / per-net loops.

    Every pricing entry point prices each move set on its own with
    ``_delta_for_moves_reference``, from the arrays: the twin never
    reads the Python-list mirrors, which its ``apply_moves`` leaves
    stale.
    """

    def _refresh_bbox(self, net: int) -> None:
        start = int(self.net_ptr[net])
        stop = int(self.net_ptr[net + 1])
        if stop - start == 0:
            return
        px = self.px[start:stop]
        py = self.py[start:stop]
        self._bb[net, 0] = px.min()
        self._bb[net, 1] = px.max()
        self._bb[net, 2] = py.min()
        self._bb[net, 3] = py.max()

    def _refresh_bboxes(self, nets) -> None:
        """The per-net bbox loop (the initial fill of every net)."""
        for net in nets:
            self._refresh_bbox(net)

    def _delta_for_moves_reference(self, moves) -> float:
        nets = {n for idx, _, _ in moves for n in self.node_nets[idx]}
        new_pos = {idx: (nx, ny) for idx, nx, ny in moves}
        pin_node = self.arrays.pin_node
        pin_dx = self.arrays.pin_dx
        pin_dy = self.arrays.pin_dy
        delta = 0.0
        for n in sorted(nets):  # ascending net order: the summation contract
            start = int(self.net_ptr[n])
            stop = int(self.net_ptr[n + 1])
            if stop - start < 2:
                continue
            bb = self._bb[n]
            before = (bb[1] - bb[0]) + (bb[3] - bb[2])
            xl = xh = yl = yh = None
            for k in range(start, stop):
                nd = int(pin_node[k])
                pos = new_pos.get(nd)
                if pos is None:
                    x = self.px[k]
                    y = self.py[k]
                else:
                    x = pos[0] + pin_dx[k]
                    y = pos[1] + pin_dy[k]
                if xl is None:
                    xl = xh = x
                    yl = yh = y
                else:
                    if x < xl:
                        xl = x
                    elif x > xh:
                        xh = x
                    if y < yl:
                        yl = y
                    elif y > yh:
                        yh = y
            delta += self.weights[n] * ((xh - xl) + (yh - yl) - before)
        return float(delta)

    delta_for_moves = _delta_for_moves_reference

    def score_moves(self, move_sets) -> np.ndarray:
        return np.array(
            [self._delta_for_moves_reference(ms) for ms in move_sets],
            dtype=float,
        )

    score_reorders = score_moves
    score_swaps = score_moves

    def score_relocations(self, cells, slots) -> np.ndarray:
        k = len(cells)
        cost = np.zeros((k, k))
        for a in range(k):
            for b in range(k):
                if a != b:
                    cost[a, b] = self._delta_for_moves_reference(
                        [(cells[a], slots[b][0], slots[b][1])]
                    )
        return cost

    def _apply_moves_reference(self, moves) -> None:
        for idx, ncx, ncy in moves:
            node = self.design.nodes[idx]
            node.move_center_to(ncx, ncy)
            self.cx[idx] = ncx
            self.cy[idx] = ncy
        pin_node = self.arrays.pin_node
        nets = sorted({n for idx, _, _ in moves for n in self.node_nets[idx]})
        moved = {idx for idx, _, _ in moves}
        for n in nets:
            start = int(self.net_ptr[n])
            stop = int(self.net_ptr[n + 1])
            for k in range(start, stop):
                nd = int(pin_node[k])
                if nd in moved:
                    self.px[k] = self.cx[nd] + self.arrays.pin_dx[k]
                    self.py[k] = self.cy[nd] + self.arrays.pin_dy[k]
            self._refresh_bbox(n)

    apply_moves = _apply_moves_reference

    def optimal_regions(self, cells) -> dict:
        cells = [int(c) for c in cells]
        return {c: self.optimal_region(c) for c in cells}


# ----------------------------------------------------------------------
# dp.swap
# ----------------------------------------------------------------------
class ReferenceSlotIndex(_SlotIndex):
    """``_SlotIndex`` with the original grouped-sort bucket build."""

    @staticmethod
    def _bucket(entries) -> dict:
        buckets = {}
        grouped: dict = {}
        for wkey, rid, cx, cy, idx in entries:
            grouped.setdefault((wkey, rid), []).append((cx, cy, idx))
        for key, bucket in grouped.items():
            bucket.sort()
            buckets[key] = (
                [e[0] for e in bucket],
                [e[2] for e in bucket],
            )
        return buckets


# ----------------------------------------------------------------------
# dp.matching
# ----------------------------------------------------------------------
#: SciPy's compiled solver, the one matching called before its port.
linear_sum_assignment_reference = scipy.optimize.linear_sum_assignment


# ----------------------------------------------------------------------
# dp.engine
# ----------------------------------------------------------------------
def make_gate_reference(self, design):
    """``DetailedPlacer._make_gate`` with the original scalar gate."""
    if design.routing is None:
        return None
    grid = design.routing.grid
    arrays = design.pin_arrays()
    cx, cy = design.pull_centers()
    demand = rudy_map(arrays, cx, cy, grid)
    supply = (
        design.routing.hcap * grid.bin_h + design.routing.vcap * grid.bin_w
    ) / grid.bin_area
    with np.errstate(divide="ignore", invalid="ignore"):
        cong = np.where(supply > 0, demand / np.maximum(supply, 1e-12), 0.0)
    threshold = CONGESTION_GATE_THRESHOLD

    def gate(moves) -> bool:
        for idx, nx, ny in moves:
            sx, sy = grid.index_of(
                design.nodes[idx].cx, design.nodes[idx].cy
            )
            dx, dy = grid.index_of(nx, ny)
            dest = cong[int(dx), int(dy)]
            src = cong[int(sx), int(sy)]
            if dest > threshold and dest > src + 0.05:
                return False
        return True

    return gate


# ----------------------------------------------------------------------
# dp.spreading
# ----------------------------------------------------------------------
def _spread_reference(
    design,
    submap,
    inc,
    *,
    threshold: float,
    max_moves: int,
    max_distance: float | None,
    hpwl_slack: float,
) -> tuple:
    """The original per-object spreading loop (golden baseline)."""
    grid = design.routing.grid
    arrays = design.pin_arrays()
    cx, cy = design.pull_centers()
    demand = rudy_map(arrays, cx, cy, grid)
    supply = (
        design.routing.hcap * grid.bin_h + design.routing.vcap * grid.bin_w
    ) / grid.bin_area
    with np.errstate(divide="ignore", invalid="ignore"):
        cong = np.where(supply > 0, demand / np.maximum(supply, 1e-12), 0.0)

    if max_distance is None:
        max_distance = 0.25 * max(design.core.width, design.core.height)
    hpwl_budget = hpwl_slack * max(design.hpwl(), 1.0)

    submap.rebuild_cells(design)

    def tile_of(x, y):
        ix, iy = grid.index_of(x, y)
        return int(ix), int(iy)

    # Hot cells, hottest tiles first, low pin count first (cheap to move).
    hot_cells = []
    for node in design.nodes:
        if not node.is_movable or node.kind is not NodeKind.CELL:
            continue
        ix, iy = tile_of(node.cx, node.cy)
        if cong[ix, iy] > threshold:
            hot_cells.append((-cong[ix, iy], len(node.pins), node.index))
    hot_cells.sort()

    moves = 0
    total_delta = 0.0
    for _, _, idx in hot_cells:
        if moves >= max_moves:
            break
        node = design.nodes[idx]
        src_sr = None
        for sr in submap.for_region(node.region):
            if idx in sr.cells:
                src_sr = sr
                break
        if src_sr is None:
            continue
        best = None
        best_cost = float("inf")
        for sr in submap.for_region(node.region):
            if abs(sr.y - node.y) > max_distance:
                continue
            for lo, hi in _free_intervals(design, sr):
                if hi - lo < node.placed_width - 1e-9:
                    continue
                # Candidate x nearest to the cell inside the gap.
                x = min(max(node.x, lo), hi - node.placed_width)
                x = sr.snap_x(x, node.placed_width)
                if x < lo - 1e-9 or x + node.placed_width > hi + 1e-9:
                    continue
                ncx = x + node.placed_width / 2.0
                ncy = sr.y + node.placed_height / 2.0
                tix, tiy = tile_of(ncx, ncy)
                if cong[tix, tiy] > threshold * 0.9:
                    continue  # destination must actually be cooler
                dist = abs(ncx - node.cx) + abs(ncy - node.cy)
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
        sr.cells.append(idx)
        moves += 1
        total_delta += delta
    return moves, total_delta
