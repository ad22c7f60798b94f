"""Incremental HPWL bookkeeping for detailed placement.

Detailed placement evaluates millions of candidate moves; recomputing the
whole wirelength each time would dominate runtime.  ``IncrementalHPWL``
keeps per-net pin coordinates and bounding boxes and answers "what would
the HPWL delta be if these nodes moved to these centres" in time
proportional to the number of pins on the affected nets.

The bookkeeping runs on the CSR node→net / node→pin incidence from
:meth:`Design.node_incidence`, with dirty-net pin gathers,
``np.minimum/maximum.reduceat`` bounding boxes, and a batched
:meth:`score_moves` that prices every candidate move set of a pass in one
NumPy evaluation.

It honours the summation contract of the original per-pin Python loops
(golden twins under ``tests/reference/``), so the results are
*bit-identical*: a delta is the sum of per-net terms
``w · ((xh'−xl') + (yh'−yl') − before)`` accumulated sequentially over
the affected nets in ascending net order.  Per-net bounds are pure
min/max reductions, which are associativity-insensitive, so the
vectorized reductions reproduce the scalar comparison loops bit for bit;
only the accumulation order of the final sum matters, and both fix it the
same way.
"""

from __future__ import annotations

import numpy as np


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
        self._np_ptr = incidence.node_pin_ptr
        self._np_ids = incidence.node_pin_ids
        self.node_nets = [
            self._nn_ids[self._nn_ptr[i] : self._nn_ptr[i + 1]].tolist()
            for i in range(len(design.nodes))
        ]
        self._node_pins = [
            self._np_ids[self._np_ptr[i] : self._np_ptr[i + 1]].tolist()
            for i in range(len(design.nodes))
        ]
        self._net_deg = np.diff(self.net_ptr)
        self._deg_list = self._net_deg.tolist()
        self._pin_net = np.repeat(
            np.arange(arrays.num_nets, dtype=np.int64), self._net_deg
        )
        # Lazy per-node cache of (pins on >=2-pin nets, their offsets):
        # the dirty-pin set every scored move of that node rewrites.
        self._dirty_cache: list = [None] * len(design.nodes)
        # Cached per-net bounding boxes make the "before" side of every
        # delta O(1); they are refreshed on apply_moves.
        n = arrays.num_nets
        self._bb = np.zeros((n, 4))  # xl, xh, yl, yh
        if n:
            self._refresh_bboxes(np.arange(n, dtype=np.int64))

    # ------------------------------------------------------------------
    # bounding-box maintenance
    # ------------------------------------------------------------------
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
        """Vectorized bbox refresh for many nets (skips 0-pin nets)."""
        nets = np.asarray(nets, dtype=np.int64)
        if nets.size <= 8:
            # Slice min/max per net beats the reduceat setup for the
            # handful of nets a single accepted move touches.
            for net in nets.tolist():
                self._refresh_bbox(net)
            return
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
    def _affected_nets(self, node_indices) -> np.ndarray:
        """Sorted unique nets touching any of ``node_indices``."""
        if not len(node_indices):
            return np.empty(0, dtype=np.int64)
        if len(node_indices) == 1:
            i = node_indices[0]
            return np.asarray(
                self._nn_ids[self._nn_ptr[i] : self._nn_ptr[i + 1]],
                dtype=np.int64,
            )
        # Sorted set union over the per-node (already sorted, unique)
        # Python lists — same result as np.unique over the concatenated
        # CSR slices, but far cheaper for the tiny sets DP passes score.
        merged = set()
        for i in node_indices:
            merged.update(self.node_nets[i])
        return np.array(sorted(merged), dtype=np.int64)

    def _dirty_of(self, idx: int):
        """``idx``'s pins on >=2-pin nets, with their offsets (cached).

        Within any scored pin segment whose nets include all of ``idx``'s
        >=2-pin nets, exactly these pins take new coordinates when ``idx``
        moves.
        """
        got = self._dirty_cache[idx]
        if got is None:
            ids = self._np_ids[self._np_ptr[idx] : self._np_ptr[idx + 1]]
            if ids.size:
                ids = ids[self._net_deg[self._pin_net[ids]] >= 2]
            got = self._dirty_cache[idx] = (
                ids,
                self.arrays.pin_dx[ids],
                self.arrays.pin_dy[ids],
            )
        return got

    def delta_for_moves(self, moves) -> float:
        """HPWL change if each ``(node_index, new_cx, new_cy)`` applied.

        Evaluates affected nets exactly (handles several nodes on one
        net).  Does not mutate state.
        """
        if not moves:
            return 0.0
        return float(self._score_general([moves])[0])

    def score_moves(self, move_sets) -> np.ndarray:
        """Batched :meth:`delta_for_moves` over many candidate move sets.

        ``move_sets`` is a sequence of move lists; the result is one
        delta per set, bit-identical to pricing each set on its own.
        Nothing is mutated, so callers may score speculative candidates
        freely and apply only the winner.
        """
        n_sets = len(move_sets)
        if n_sets == 0:
            return np.zeros(0)
        if n_sets > 1 and all(len(ms) == 1 for ms in move_sets):
            first = move_sets[0][0][0]
            if all(ms[0][0] == first for ms in move_sets):
                return self._score_single_node(
                    first,
                    [(ms[0][1], ms[0][2]) for ms in move_sets],
                )
        return self._score_general(move_sets)

    def _score_single_node(self, idx: int, targets) -> np.ndarray:
        """All candidate targets of one node, priced in one sweep.

        Per affected net we pre-reduce the *other* pins' extremes and the
        node's own pin-offset extremes; each target's bounds are then two
        min/max ops per axis instead of a pin rescan.  Exact because
        rounding is monotone: ``min_k fl(tx+dx_k) == fl(tx + min_k dx_k)``.
        """
        nets = self._affected_nets([idx])
        nets = nets[self._net_deg[nets] >= 2]
        n_t = len(targets)
        if not nets.size:
            return np.zeros(n_t)
        deg = self._net_deg[nets]
        pins = _multi_arange(self.net_ptr[nets], deg)
        gnode = self.arrays.pin_node[pins]
        own = gnode == idx
        bounds = np.zeros(len(nets), dtype=np.int64)
        np.cumsum(deg[:-1], out=bounds[1:])
        inf = np.inf
        px = self.px[pins]
        py = self.py[pins]
        oth_xl = np.minimum.reduceat(np.where(own, inf, px), bounds)
        oth_xh = np.maximum.reduceat(np.where(own, -inf, px), bounds)
        oth_yl = np.minimum.reduceat(np.where(own, inf, py), bounds)
        oth_yh = np.maximum.reduceat(np.where(own, -inf, py), bounds)
        dx = self.arrays.pin_dx[pins]
        dy = self.arrays.pin_dy[pins]
        own_dx_lo = np.minimum.reduceat(np.where(own, dx, inf), bounds)
        own_dx_hi = np.maximum.reduceat(np.where(own, dx, -inf), bounds)
        own_dy_lo = np.minimum.reduceat(np.where(own, dy, inf), bounds)
        own_dy_hi = np.maximum.reduceat(np.where(own, dy, -inf), bounds)
        tx = np.array([t[0] for t in targets], dtype=float)[:, None]
        ty = np.array([t[1] for t in targets], dtype=float)[:, None]
        xl = np.minimum(oth_xl[None, :], tx + own_dx_lo[None, :])
        xh = np.maximum(oth_xh[None, :], tx + own_dx_hi[None, :])
        yl = np.minimum(oth_yl[None, :], ty + own_dy_lo[None, :])
        yh = np.maximum(oth_yh[None, :], ty + own_dy_hi[None, :])
        bb = self._bb[nets]
        before = (bb[:, 1] - bb[:, 0]) + (bb[:, 3] - bb[:, 2])
        terms = self.weights[nets][None, :] * (
            ((xh - xl) + (yh - yl)) - before[None, :]
        )
        out = np.zeros(n_t)
        for j in range(len(nets)):  # sequential, ascending net order
            out = out + terms[:, j]
        return out

    def _score_general(self, move_sets) -> np.ndarray:
        n_sets = len(move_sets)
        deg_list = self._deg_list
        node_nets = self.node_nets
        # Per-set affected nets (sorted, >= 2 pins) via Python set unions
        # of the per-node net lists — the sets are tiny, so this beats
        # the array machinery by a wide margin.
        nets_lists = []
        for ms in move_sets:
            if len(ms) == 1:
                merged = node_nets[ms[0][0]]
            else:
                u = set()
                for idx, _, _ in ms:
                    u.update(node_nets[idx])
                merged = sorted(u)
            nets_lists.append([n for n in merged if deg_list[n] >= 2])
        counts = [len(l) for l in nets_lists]
        if not any(counts):
            return np.zeros(n_sets)
        nets_all = np.array(
            [n for l in nets_lists for n in l], dtype=np.int64
        )
        deg = self._net_deg[nets_all]
        pins = _multi_arange(self.net_ptr[nets_all], deg)
        bpx = self.px[pins]
        bpy = self.py[pins]
        # Net → pin segment starts.  Each set's pins are one contiguous,
        # strictly increasing slice (ranges of ascending nets), so a
        # moved node's dirty pins — all its >=2-pin-net pins, which the
        # set's net union necessarily covers — locate by searchsorted.
        pin_cum = np.zeros(len(nets_all) + 1, dtype=np.int64)
        np.cumsum(deg, out=pin_cum[1:])
        net_pos = 0
        for s, ms in enumerate(move_sets):
            c = counts[s]
            if not c:
                continue
            a = int(pin_cum[net_pos])
            b = int(pin_cum[net_pos + c])
            net_pos += c
            seg = pins[a:b]
            for idx, nx, ny in ms:
                dirty, ddx, ddy = self._dirty_of(idx)
                if dirty.size:
                    pos = a + seg.searchsorted(dirty)
                    bpx[pos] = nx + ddx
                    bpy[pos] = ny + ddy
        bounds = pin_cum[:-1]
        xl = np.minimum.reduceat(bpx, bounds)
        xh = np.maximum.reduceat(bpx, bounds)
        yl = np.minimum.reduceat(bpy, bounds)
        yh = np.maximum.reduceat(bpy, bounds)
        bb = self._bb[nets_all]
        before = (bb[:, 1] - bb[:, 0]) + (bb[:, 3] - bb[:, 2])
        terms = (
            self.weights[nets_all] * (((xh - xl) + (yh - yl)) - before)
        ).tolist()
        # Sequential per-set accumulation in ascending net order: nets of
        # one set are contiguous and sorted, so a linear walk suffices.
        out = [0.0] * n_sets
        net_pos = 0
        for s in range(n_sets):
            acc = 0.0
            for j in range(net_pos, net_pos + counts[s]):
                acc += terms[j]
            out[s] = acc
            net_pos += counts[s]
        return np.array(out)

    # ------------------------------------------------------------------
    def apply_moves(self, moves) -> None:
        """Commit moves: update cached coordinates and the design nodes."""
        if not moves:
            return
        # Commit lists are tiny (1-3 moves), so per-pin scalar writes and
        # per-net slice refreshes beat array temporaries.  The float64
        # expressions match the original per-net update exactly.
        pin_dx = self.arrays.pin_dx
        pin_dy = self.arrays.pin_dy
        px = self.px
        py = self.py
        for idx, ncx, ncy in moves:
            node = self.design.nodes[idx]
            node.move_center_to(ncx, ncy)
            self.cx[idx] = ncx
            self.cy[idx] = ncy
            for k in self._node_pins[idx]:
                px[k] = ncx + pin_dx[k]
                py[k] = ncy + pin_dy[k]
        if len(moves) == 1:
            for n in self.node_nets[moves[0][0]]:
                self._refresh_bbox(n)
        else:
            self._refresh_bboxes(
                self._affected_nets([idx for idx, _, _ in moves])
            )

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
