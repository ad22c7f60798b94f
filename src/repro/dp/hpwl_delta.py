"""Incremental HPWL bookkeeping for detailed placement.

Detailed placement evaluates millions of candidate moves; recomputing the
whole wirelength each time would dominate runtime.  ``IncrementalHPWL``
keeps per-pin coordinates and per-net bounding boxes and answers "what
would the HPWL delta be if these nodes moved to these centres" in time
proportional to the number of pins on the affected nets.

The passes price sets of one to eight moves at a time, where NumPy's
per-call overhead costs more than the arithmetic.  So pricing scans
Python-list mirrors of the pin coordinates, pin offsets, net pointers,
net weights and per-net HPWL, which :meth:`IncrementalHPWL.apply_moves`
keeps equal to the arrays:

* :meth:`~IncrementalHPWL.delta_for_moves` and
  :meth:`~IncrementalHPWL.score_moves` scan each set's nets;
* :meth:`~IncrementalHPWL.score_reorders` prices sets that all move the
  same cells (a reorder window's permutations) and reduces each net's
  unmoved pins once per call;
* :meth:`~IncrementalHPWL.score_swaps` prices sets that all move one
  anchor cell (a cell's swap candidates) and reduces once each anchor
  net that holds no other moved cell;
* :meth:`~IncrementalHPWL.score_relocations` prices every single-cell
  move of a matching batch in one array call.

Every path honours the summation contract of the original per-pin
Python loops (golden twins under ``tests/reference/``), so the results
are *bit-identical*: a delta is the sum, from ``0.0``, of the per-net
terms ``w · ((xh'−xl') + (yh'−yl') − before)`` over the affected nets
with at least two pins, in ascending net order.  Per-net bounds are pure
min/max reductions, which no reduction order changes, and rounding is
monotone, so ``min_k fl(t + dx_k) == fl(t + min_k dx_k)``: the extremes
of a moved cell's pins on a net follow from its offset extremes.
"""

from __future__ import annotations

import numpy as np

_INF = float("inf")


def _multi_arange(starts, counts):
    """``np.concatenate([np.arange(s, s+c) ...])`` without the Python loop.

    Every ``counts`` entry must be positive — filter zero-length segments
    before calling so the output segments stay aligned with the input.
    """
    counts = np.asarray(counts, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    if total <= 128:
        # Python range expansion beats the cumsum setup for tiny batches.
        return np.array(
            [
                i
                for s, c in zip(starts.tolist(), counts.tolist())
                for i in range(s, s + c)
            ],
            dtype=np.int64,
        )
    out = np.ones(total, dtype=np.int64)
    ends = np.cumsum(counts)
    out[0] = starts[0]
    if len(starts) > 1:
        out[ends[:-1]] = starts[1:] - (starts[:-1] + counts[:-1]) + 1
    return np.cumsum(out)


class IncrementalHPWL:
    """Maintains per-net bounding boxes under node moves."""

    def __init__(self, design):
        self.design = design
        arrays = design.pin_arrays()
        self.arrays = arrays
        cx, cy = design.pull_centers()
        self.cx = cx
        self.cy = cy
        self.px = cx[arrays.pin_node] + arrays.pin_dx
        self.py = cy[arrays.pin_node] + arrays.pin_dy
        self.net_ptr = arrays.net_ptr
        self.weights = arrays.net_weight
        # Node→net / node→pin incidence from the flat pin table (never
        # from the Python pin objects, which can diverge after mutation).
        incidence = design.node_incidence()
        self._nn_ptr = incidence.node_net_ptr
        self._nn_ids = incidence.node_net_ids
        np_ptr = incidence.node_pin_ptr
        np_ids = incidence.node_pin_ids
        self.node_nets = [
            self._nn_ids[self._nn_ptr[i] : self._nn_ptr[i + 1]].tolist()
            for i in range(len(design.nodes))
        ]
        self._node_pins = [
            np_ids[np_ptr[i] : np_ptr[i + 1]].tolist()
            for i in range(len(design.nodes))
        ]
        self._net_deg = np.diff(self.net_ptr)
        # Cached per-net bounding boxes make the "before" side of every
        # delta O(1); they are refreshed on apply_moves.
        n = arrays.num_nets
        self._bb = np.zeros((n, 4))  # xl, xh, yl, yh
        if n:
            self._refresh_bboxes(np.arange(n, dtype=np.int64))
        # Python-list mirrors of everything pricing reads.
        self._pin_x = self.px.tolist()
        self._pin_y = self.py.tolist()
        self._pin_node = arrays.pin_node.tolist()
        self._pin_dx = arrays.pin_dx.tolist()
        self._pin_dy = arrays.pin_dy.tolist()
        self._ptr = self.net_ptr.tolist()
        self._w = self.weights.tolist()
        bb = self._bb
        self._before = ((bb[:, 1] - bb[:, 0]) + (bb[:, 3] - bb[:, 2])).tolist()
        deg = self._net_deg.tolist()
        # Each node's nets with at least 2 pins, ascending.
        self._nets2 = [
            [net for net in nets if deg[net] >= 2] for nets in self.node_nets
        ]

    # ------------------------------------------------------------------
    # bounding-box maintenance
    # ------------------------------------------------------------------
    def _refresh_bboxes(self, nets) -> None:
        """Vectorized bbox refresh for many nets (skips 0-pin nets)."""
        nets = np.asarray(nets, dtype=np.int64)
        deg = self._net_deg[nets]
        nets = nets[deg > 0]
        if not nets.size:
            return
        deg = self._net_deg[nets]
        pins = _multi_arange(self.net_ptr[nets], deg)
        bounds = np.zeros(len(nets), dtype=np.int64)
        np.cumsum(deg[:-1], out=bounds[1:])
        self._bb[nets, 0] = np.minimum.reduceat(self.px[pins], bounds)
        self._bb[nets, 1] = np.maximum.reduceat(self.px[pins], bounds)
        self._bb[nets, 2] = np.minimum.reduceat(self.py[pins], bounds)
        self._bb[nets, 3] = np.maximum.reduceat(self.py[pins], bounds)

    # ------------------------------------------------------------------
    def net_hpwl(self, net: int) -> float:
        if self._net_deg[net] < 2:
            return 0.0
        bb = self._bb[net]
        return float(self.weights[net] * ((bb[1] - bb[0]) + (bb[3] - bb[2])))

    def total(self) -> float:
        return float(
            sum(self.net_hpwl(n) for n in range(self.arrays.num_nets))
        )

    # ------------------------------------------------------------------
    # move pricing
    # ------------------------------------------------------------------
    def _nets_of(self, moves) -> list:
        """The moved cells' nets with at least 2 pins, ascending."""
        nets2 = self._nets2
        if len(moves) == 1:
            return nets2[moves[0][0]]
        merged = set()
        for move in moves:
            merged.update(nets2[move[0]])
        return sorted(merged)

    def _scan(self, nets, at) -> float:
        """The delta over ``nets`` with node ``i``'s centre at ``at[i]``."""
        ptr = self._ptr
        pin_node = self._pin_node
        pin_x = self._pin_x
        pin_y = self._pin_y
        pin_dx = self._pin_dx
        pin_dy = self._pin_dy
        w = self._w
        before = self._before
        centre = at.get
        delta = 0.0
        for n in nets:
            xl = yl = _INF
            xh = yh = -_INF
            for k in range(ptr[n], ptr[n + 1]):
                c = centre(pin_node[k])
                if c is None:
                    x = pin_x[k]
                    y = pin_y[k]
                else:
                    x = c[0] + pin_dx[k]
                    y = c[1] + pin_dy[k]
                if x < xl:
                    xl = x
                if x > xh:
                    xh = x
                if y < yl:
                    yl = y
                if y > yh:
                    yh = y
            delta += w[n] * (((xh - xl) + (yh - yl)) - before[n])
        return delta

    def delta_for_moves(self, moves) -> float:
        """HPWL change if each ``(node_index, new_cx, new_cy)`` applied.

        Evaluates affected nets exactly (handles several nodes on one
        net).  Does not mutate state.
        """
        if not moves:
            return 0.0
        return self._scan(
            self._nets_of(moves), {i: (x, y) for i, x, y in moves}
        )

    def score_moves(self, move_sets) -> list:
        """:meth:`delta_for_moves` of each set in ``move_sets``.

        Nothing is mutated, so callers may score speculative candidates
        freely and apply only the winner.
        """
        return [self.delta_for_moves(ms) for ms in move_sets]

    def score_reorders(self, move_sets) -> list:
        """:meth:`score_moves` for sets that all move the same cells.

        Each net's unmoved pins are reduced once per call, and each set
        then folds in only its moved pins.  A reorder window's
        permutations are such sets.
        """
        if not move_sets:
            return []
        cells = {move[0] for move in move_sets[0]}
        ptr = self._ptr
        pin_node = self._pin_node
        pin_x = self._pin_x
        pin_y = self._pin_y
        pin_dx = self._pin_dx
        pin_dy = self._pin_dy
        w = self._w
        before = self._before
        nets = []  # (weight, before, unmoved extremes, moved pins)
        for n in self._nets_of(move_sets[0]):
            xl = yl = _INF
            xh = yh = -_INF
            moved = []
            for k in range(ptr[n], ptr[n + 1]):
                node = pin_node[k]
                if node in cells:
                    moved.append((node, pin_dx[k], pin_dy[k]))
                    continue
                x = pin_x[k]
                y = pin_y[k]
                if x < xl:
                    xl = x
                if x > xh:
                    xh = x
                if y < yl:
                    yl = y
                if y > yh:
                    yh = y
            nets.append((w[n], before[n], xl, xh, yl, yh, moved))
        out = []
        for ms in move_sets:
            at = {i: (x, y) for i, x, y in ms}
            delta = 0.0
            for wn, bn, xl, xh, yl, yh, moved in nets:
                for node, dx, dy in moved:
                    c = at[node]
                    x = c[0] + dx
                    y = c[1] + dy
                    if x < xl:
                        xl = x
                    if x > xh:
                        xh = x
                    if y < yl:
                        yl = y
                    if y > yh:
                        yh = y
                delta += wn * (((xh - xl) + (yh - yl)) - bn)
            out.append(delta)
        return out

    def score_swaps(self, move_sets) -> list:
        """:meth:`score_moves` for sets whose first move is one anchor cell.

        Once per call, each of the anchor's nets is reduced to the other
        pins' extremes and the anchor's offset extremes; such a net costs
        a set one min or max per bound.  A set scans pin by pin only the
        nets of its other moved cells.  A cell's swap candidates are such
        sets.
        """
        if not move_sets:
            return []
        anchor = move_sets[0][0][0]
        ptr = self._ptr
        pin_node = self._pin_node
        pin_x = self._pin_x
        pin_y = self._pin_y
        pin_dx = self._pin_dx
        pin_dy = self._pin_dy
        w = self._w
        before = self._before
        nets2 = self._nets2
        reduced = {}
        for n in nets2[anchor]:
            xl = yl = dxl = dyl = _INF
            xh = yh = dxh = dyh = -_INF
            for k in range(ptr[n], ptr[n + 1]):
                if pin_node[k] == anchor:
                    x = pin_dx[k]
                    y = pin_dy[k]
                    if x < dxl:
                        dxl = x
                    if x > dxh:
                        dxh = x
                    if y < dyl:
                        dyl = y
                    if y > dyh:
                        dyh = y
                    continue
                x = pin_x[k]
                y = pin_y[k]
                if x < xl:
                    xl = x
                if x > xh:
                    xh = x
                if y < yl:
                    yl = y
                if y > yh:
                    yh = y
            reduced[n] = (w[n], before[n], xl, xh, yl, yh, dxl, dxh, dyl, dyh)
        out = []
        for ms in move_sets:
            _, tx, ty = ms[0]
            if len(ms) == 2:
                partner, ptx, pty = ms[1]
                scanned = nets2[partner]
            else:
                partner = None
                scanned = self._nets_of(ms[1:])
            at = {i: (x, y) for i, x, y in ms}
            delta = 0.0
            for n in sorted(reduced.keys() | scanned):
                r = reduced.get(n)
                if r is None and partner is not None:
                    # Only the partner moves on this net.
                    xl = yl = _INF
                    xh = yh = -_INF
                    for k in range(ptr[n], ptr[n + 1]):
                        if pin_node[k] == partner:
                            x = ptx + pin_dx[k]
                            y = pty + pin_dy[k]
                        else:
                            x = pin_x[k]
                            y = pin_y[k]
                        if x < xl:
                            xl = x
                        if x > xh:
                            xh = x
                        if y < yl:
                            yl = y
                        if y > yh:
                            yh = y
                    delta += w[n] * (((xh - xl) + (yh - yl)) - before[n])
                elif r is None or n in scanned:
                    delta += self._scan((n,), at)
                else:
                    wn, bn, xl, xh, yl, yh, dxl, dxh, dyl, dyh = r
                    x = tx + dxl
                    if x < xl:
                        xl = x
                    x = tx + dxh
                    if x > xh:
                        xh = x
                    y = ty + dyl
                    if y < yl:
                        yl = y
                    y = ty + dyh
                    if y > yh:
                        yh = y
                    delta += wn * (((xh - xl) + (yh - yl)) - bn)
            out.append(delta)
        return out

    def score_relocations(self, cells, slots) -> np.ndarray:
        """Every single-cell move of a batch, priced in one array call.

        Returns the ``(k, k)`` matrix whose ``[a, b]`` entry is
        ``delta_for_moves([(cells[a], *slots[b])])``, with a zero
        diagonal.  Each (cell, net) pair is reduced once to the other
        pins' extremes and the cell's offset extremes.  Each cell's nets
        are padded to a common count with ``+0.0`` terms, which leave a
        sum that starts at ``+0.0`` unchanged.
        """
        k = len(cells)
        cost = np.zeros((k, k))
        nets2 = self._nets2
        counts = [len(nets2[c]) for c in cells]
        width = max(counts, default=0)
        if not width:
            return cost
        pair_net = np.array(
            [n for c in cells for n in nets2[c]], dtype=np.int64
        )
        pair_row = np.repeat(np.arange(k), counts)
        starts = np.zeros(k, dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        pair_col = np.arange(len(pair_net)) - starts[pair_row]
        deg = self._net_deg[pair_net]
        pins = _multi_arange(self.net_ptr[pair_net], deg)
        own = self.arrays.pin_node[pins] == np.repeat(
            np.asarray(cells, dtype=np.int64)[pair_row], deg
        )
        bounds = np.zeros(len(pair_net), dtype=np.int64)
        np.cumsum(deg[:-1], out=bounds[1:])

        def padded(per_pair):
            out = np.zeros((k, 1, width))
            out[pair_row, 0, pair_col] = per_pair
            return out

        def others(reduce, values, fill):
            return padded(reduce.reduceat(np.where(own, fill, values), bounds))

        def offsets(reduce, values, fill):
            return padded(reduce.reduceat(np.where(own, values, fill), bounds))

        inf = np.inf
        px = self.px[pins]
        py = self.py[pins]
        dx = self.arrays.pin_dx[pins]
        dy = self.arrays.pin_dy[pins]
        sx = np.array([s[0] for s in slots], dtype=float)[None, :, None]
        sy = np.array([s[1] for s in slots], dtype=float)[None, :, None]
        xl = np.minimum(
            others(np.minimum, px, inf), sx + offsets(np.minimum, dx, inf)
        )
        xh = np.maximum(
            others(np.maximum, px, -inf), sx + offsets(np.maximum, dx, -inf)
        )
        yl = np.minimum(
            others(np.minimum, py, inf), sy + offsets(np.minimum, dy, inf)
        )
        yh = np.maximum(
            others(np.maximum, py, -inf), sy + offsets(np.maximum, dy, -inf)
        )
        bb = self._bb[pair_net]
        before = padded((bb[:, 1] - bb[:, 0]) + (bb[:, 3] - bb[:, 2]))
        valid = padded(1.0) > 0.0
        terms = padded(self.weights[pair_net]) * (
            ((xh - xl) + (yh - yl)) - before
        )
        terms = np.where(valid, terms, 0.0)
        for j in range(width):  # sequential, ascending net order
            cost = cost + terms[:, :, j]
        np.fill_diagonal(cost, 0.0)
        return cost

    # ------------------------------------------------------------------
    def apply_moves(self, moves) -> None:
        """Commit moves: update the coordinates, boxes and design nodes."""
        if not moves:
            return
        # Commit lists are tiny (1-3 moves), so per-pin scalar writes and
        # per-net list reductions beat array temporaries.  Each value is
        # computed once and written to the array and to its mirror.
        nodes = self.design.nodes
        pin_dx = self._pin_dx
        pin_dy = self._pin_dy
        pin_x = self._pin_x
        pin_y = self._pin_y
        px = self.px
        py = self.py
        for idx, ncx, ncy in moves:
            nodes[idx].move_center_to(ncx, ncy)
            self.cx[idx] = ncx
            self.cy[idx] = ncy
            for k in self._node_pins[idx]:
                x = ncx + pin_dx[k]
                y = ncy + pin_dy[k]
                pin_x[k] = px[k] = x
                pin_y[k] = py[k] = y
        if len(moves) == 1:
            nets = self.node_nets[moves[0][0]]
        else:
            nets = set()
            for move in moves:
                nets.update(self.node_nets[move[0]])
        ptr = self._ptr
        bb = self._bb
        before = self._before
        for n in nets:
            start = ptr[n]
            stop = ptr[n + 1]
            if start == stop:
                continue
            xs = pin_x[start:stop]
            ys = pin_y[start:stop]
            xl = min(xs)
            xh = max(xs)
            yl = min(ys)
            yh = max(ys)
            bb[n] = (xl, xh, yl, yh)
            before[n] = (xh - xl) + (yh - yl)

    # ------------------------------------------------------------------
    def optimal_region(self, idx: int):
        """The median window of ``idx``'s nets — the classic optimal
        region a cell would move to if nets were the only force.

        Returns ``(x_lo, x_hi, y_lo, y_hi)`` from the medians of the other
        pins' bounding coordinates, or ``None`` for unconnected cells.
        """
        xs_lo, xs_hi, ys_lo, ys_hi = [], [], [], []
        for n in self.node_nets[idx]:
            start = int(self.net_ptr[n])
            stop = int(self.net_ptr[n + 1])
            nodes = self.arrays.pin_node[start:stop]
            mask = nodes != idx
            if not mask.any():
                continue
            px = self.px[start:stop][mask]
            py = self.py[start:stop][mask]
            xs_lo.append(px.min())
            xs_hi.append(px.max())
            ys_lo.append(py.min())
            ys_hi.append(py.max())
        if not xs_lo:
            return None
        return (
            float(np.median(xs_lo)),
            float(np.median(xs_hi)),
            float(np.median(ys_lo)),
            float(np.median(ys_hi)),
        )

    def optimal_regions(self, cells) -> dict:
        """Median windows for many cells at once.

        Returns ``{node_index: region-or-None}`` for every index in
        ``cells``.  The batched path masks each cell's own pins to ±inf,
        reduces other-pin extremes per (cell, net) pair with ``reduceat``,
        and takes group medians by sorting within cell segments — all
        bit-identical to calling :meth:`optimal_region` per cell.
        """
        cells = [int(c) for c in cells]
        if len(cells) <= 1:
            return {c: self.optimal_region(c) for c in cells}
        cells_arr = np.asarray(cells, dtype=np.int64)
        nn_counts = self._nn_ptr[cells_arr + 1] - self._nn_ptr[cells_arr]
        has_nets = nn_counts > 0
        out = {c: None for c in cells}
        if not has_nets.any():
            return out
        pos_with = np.flatnonzero(has_nets)
        pair_pos = np.repeat(pos_with, nn_counts[pos_with])
        pair_nets = self._nn_ids[
            _multi_arange(self._nn_ptr[cells_arr[pos_with]], nn_counts[pos_with])
        ].astype(np.int64)
        deg = self._net_deg[pair_nets]
        exp_pins = _multi_arange(self.net_ptr[pair_nets], deg)
        exp_pair = np.repeat(np.arange(len(pair_nets)), deg)
        self_mask = (
            self.arrays.pin_node[exp_pins] == cells_arr[pair_pos][exp_pair]
        )
        vx = self.px[exp_pins]
        vy = self.py[exp_pins]
        bounds = np.zeros(len(pair_nets), dtype=np.int64)
        np.cumsum(deg[:-1], out=bounds[1:])
        inf = np.inf
        p_xl = np.minimum.reduceat(np.where(self_mask, inf, vx), bounds)
        p_xh = np.maximum.reduceat(np.where(self_mask, -inf, vx), bounds)
        p_yl = np.minimum.reduceat(np.where(self_mask, inf, vy), bounds)
        p_yh = np.maximum.reduceat(np.where(self_mask, -inf, vy), bounds)
        valid = np.isfinite(p_xl)  # nets whose pins are all on the cell drop
        if not valid.any():
            return out
        vcell = pair_pos[valid]
        counts = np.bincount(vcell, minlength=len(cells))
        starts = np.zeros(len(cells), dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        lo = starts + (counts - 1) // 2
        hi = starts + counts // 2
        nonzero = counts > 0
        lo_nz = lo[nonzero]
        hi_nz = hi[nonzero]

        def _group_median(vals):
            sv = vals[np.lexsort((vals, vcell))]
            # (a+b)/2 of the two middle order statistics == np.median.
            return (sv[lo_nz] + sv[hi_nz]) / 2.0

        med_xl = _group_median(p_xl[valid])
        med_xh = _group_median(p_xh[valid])
        med_yl = _group_median(p_yl[valid])
        med_yh = _group_median(p_yh[valid])
        for j, pos in enumerate(np.flatnonzero(nonzero).tolist()):
            out[cells[pos]] = (
                float(med_xl[j]),
                float(med_xh[j]),
                float(med_yl[j]),
                float(med_yh[j]),
            )
        return out
