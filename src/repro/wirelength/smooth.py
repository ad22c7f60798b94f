"""Smooth differentiable wirelength models (LSE and WA).

Both models approximate per-net ``max`` and ``min`` of pin coordinates with
smooth functions of a smoothing parameter ``gamma``; smaller ``gamma``
tracks HPWL more tightly but is harder to optimize.

The weighted-average model for the max side of one net is::

    WA_max(x) = sum(x_i * exp(x_i / gamma)) / sum(exp(x_i / gamma))

and analogously with ``exp(-x/gamma)`` for the min side.  Its error against
the true max is bounded by ``gamma * ln(k)`` *from below and above in a
tighter band than log-sum-exp's*, which is the model's theoretical claim —
``benchmarks/bench_fig4_model_error.py`` reproduces the comparison.

All computations are vectorized over the CSR pin table.  Exponents are
shifted by the per-net extremum before exponentiation, so the models are
numerically stable for any coordinate magnitude (the "stable-WA" scheme
from the TSV placement paper in the source listing).

Hot-path layout: the pin-table *compaction* (active nets, per-pin net ids,
net offsets) depends only on the netlist topology, so it is built once
per :class:`~repro.db.design.PinArrays` instance — vectorized, cached on
the arrays object, and shared by every model over that topology.  With
it comes a *degree-major* copy of the compacted pins
(:class:`_DegreeMajor`): nets sorted by pin count, largest first, and
row ``j`` holding pin ``j`` of every net with more than ``j`` pins.
Evaluations gather pin coordinates straight into that order, so a net
max, min or sum is one elementwise op per row over all nets instead of
one ``reduceat`` segment per net.  The rows replay ``reduceat``'s order:
the first pin, then the others left to right (for a sum, the first pin
plus the left-to-right sum of the rest), which is NumPy's order for
nets of up to 8 pins; larger nets keep ``reduceat`` on their own
gathered pins.  Per-net values go back to net order before the weighted
total and per-pin gradient terms back to pin-table order before the
``np.bincount`` scatter (bit-identical to ``np.add.at``, several times
faster), so every net total and node sum keeps its order.  Gathers into
work buffers pass ``mode="clip"``: with ``out``, the default mode
gathers into a temporary first, and every index here is in range by
construction.  ``rebind`` swaps in a re-oriented or re-weighted pin
table without rebuilding the topology.  The original per-net
construction loop and allocating evaluation path, on the pin-table
layout with ``reduceat``, are kept as golden twins under
``tests/reference/``; ``tests/test_gp_perf_equiv.py`` asserts both
agree to the last bit.
"""

from __future__ import annotations

import numpy as np


# Nets with more pins than this keep ``reduceat``: NumPy reduces the 8 or
# more pins after the first in an order of its own (8 partial sums for a
# sum), not left to right.
_ROW_PINS = 8


class _DegreeMajor:
    """Degree-major copy of a compacted pin table.

    ``order`` lists the nets by pin count, largest first (stable), and
    ``rank`` is its inverse.  The copy stores its rows one after
    another; entry ``r`` of row ``j`` holds pin ``j`` of net ``order[r]``,
    so row ``j`` has one entry per net with more than ``j`` pins.
    ``sel`` maps each entry to its compacted pin and ``net`` to its
    net's rank, and ``to_csr`` maps each compacted pin back to its
    entry.  The first ``big`` nets have more than :data:`_ROW_PINS`
    pins; ``big_sel`` lists their pins' entries net by net, with
    ``big_starts`` as ``reduceat`` offsets.  ``small_rows`` holds, per
    row ``j < _ROW_PINS``, the slice of the other nets' entries and the
    rank that ends it.
    """

    __slots__ = (
        "order", "rank", "sel", "net", "to_csr", "big", "big_sel", "big_starts",
        "small_rows",
    )

    def __init__(self, cstarts, total):
        counts = np.diff(np.append(cstarts, total))
        order = np.argsort(-counts, kind="stable")
        deg = counts[order]
        num_rows = int(deg[0]) if len(deg) else 0
        # per row j, the number of nets with more than j pins
        widths = np.searchsorted(-deg, -np.arange(num_rows), side="left")
        rows = np.zeros(num_rows + 1, dtype=np.int64)
        np.cumsum(widths, out=rows[1:])
        row = np.repeat(np.arange(num_rows, dtype=np.int64), widths)
        net = np.arange(total, dtype=np.int64) - rows[row]
        self.order = order
        self.rank = np.empty_like(order)
        self.rank[order] = np.arange(len(order))
        self.sel = cstarts[order[net]] + row
        self.net = net
        self.to_csr = np.empty_like(self.sel)
        self.to_csr[self.sel] = np.arange(total)
        big = int(widths[_ROW_PINS]) if num_rows > _ROW_PINS else 0
        big_deg = deg[:big]
        self.big = big
        self.big_starts = np.zeros(big, dtype=np.int64)
        np.cumsum(big_deg[:-1], out=self.big_starts[1:])
        big_net = np.repeat(np.arange(big, dtype=np.int64), big_deg)
        big_pin = np.arange(len(big_net), dtype=np.int64) - self.big_starts[big_net]
        self.big_sel = rows[big_pin] + big_net
        self.small_rows = [
            (slice(rows[j] + big, rows[j] + widths[j]), int(widths[j]))
            for j in range(min(num_rows, _ROW_PINS))
        ]


class _Compaction:
    """Topology-only pin-table compaction shared across models.

    ``weights`` are those of the table the compaction was built from; a
    model takes its weights from the table it is bound to.
    """

    __slots__ = (
        "active", "starts", "weights", "pin_sel", "pin_net", "cstarts", "degree_major",
    )

    def __init__(
        self, active, starts, weights, pin_sel, pin_net, cstarts, degree_major=None
    ):
        self.active = active
        self.starts = starts
        self.weights = weights
        self.pin_sel = pin_sel
        self.pin_net = pin_net
        self.cstarts = cstarts
        self.degree_major = degree_major


def _compact_pins(net_ptr, net_weight) -> _Compaction:
    """Pure vectorized compaction — no Python per-net loop."""
    counts = np.diff(net_ptr)
    active = counts >= 2
    starts = net_ptr[:-1][active]
    weights = net_weight[active]
    if len(starts) == 0:
        empty = np.empty(0, dtype=np.int64)
        return _Compaction(
            active, starts, weights, empty, empty.copy(), empty.copy(),
            _DegreeMajor(empty, 0),
        )
    active_counts = counts[active]
    total = int(active_counts.sum())
    cstarts = np.zeros(len(starts), dtype=np.int64)
    np.cumsum(active_counts[:-1], out=cstarts[1:])
    pin_net = np.repeat(np.arange(len(starts), dtype=np.int64), active_counts)
    # pin k of the table is pin (k - cstarts[net]) of its net, which lives
    # at starts[net] + that offset in the original CSR arrays.
    pin_sel = np.arange(total, dtype=np.int64)
    pin_sel -= cstarts[pin_net]
    pin_sel += starts[pin_net]
    return _Compaction(
        active, starts, weights, pin_sel, pin_net, cstarts, _DegreeMajor(cstarts, total)
    )


def compaction_for(arrays) -> _Compaction:
    """The (cached) compaction of one pin table.

    The build is memoized on the ``PinArrays`` object itself: pin tables
    are immutable once built and replaced wholesale when the topology, an
    orientation or a net weight changes, so object identity is a safe key.
    """
    comp = getattr(arrays, "_smooth_compaction", None)
    if comp is None:
        comp = _compact_pins(arrays.net_ptr, arrays.net_weight)
        try:
            arrays._smooth_compaction = comp
        except AttributeError:  # exotic containers without __dict__
            pass
    return comp


class SmoothWirelength:
    """Base class: holds the degree-major pin table and the node scatter."""

    def __init__(self, arrays, num_nodes: int, gamma: float):
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        self.num_nodes = int(num_nodes)
        self.gamma = float(gamma)
        self._bind(arrays, compaction_for(arrays))

    def _bind(self, arrays, comp: _Compaction) -> None:
        self.arrays = arrays
        self._comp = comp
        self._starts = comp.starts
        self._weights = arrays.net_weight[comp.active]
        dm = comp.degree_major
        self._dm = dm
        # Pin-table order, for the gradient scatter; node ids as intp,
        # which ``take`` and ``bincount`` would otherwise convert per call.
        self._pin_node = arrays.pin_node[comp.pin_sel].astype(np.intp)
        sel = comp.pin_sel[dm.sel]
        self._dm_node = self._pin_node[dm.sel]
        self._dm_dx = arrays.pin_dx[sel]
        self._dm_dy = arrays.pin_dy[sel]
        # Per-pin net weight, constant over positions.
        self._wpin = self._weights[dm.order][dm.net]
        # Both axes' gradient terms go back to pin-table order in one gather.
        self._to_csr2 = np.concatenate([dm.to_csr, dm.to_csr + len(sel)])
        self._bufs: dict = {}
        self._probe = None

    def rebind(self, arrays) -> "SmoothWirelength":
        """Adopt a rebuilt pin table without redoing the compaction.

        Orientation passes replace ``pin_dx``/``pin_dy`` and net
        weighting replaces ``net_weight``, but both keep the netlist
        topology, so the compaction and its degree-major table carry
        over; the per-pin gathers and the net weights are taken from the
        new table.  A table with a different ``net_ptr`` triggers a full
        rebuild.
        """
        same = arrays.net_ptr is self.arrays.net_ptr or np.array_equal(
            arrays.net_ptr, self.arrays.net_ptr
        )
        comp = self._comp if same else compaction_for(arrays)
        self._bind(arrays, comp)
        return self

    def _buf(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        buf = self._bufs.get(name)
        if buf is None or buf.shape != tuple(shape):
            buf = np.empty(shape, dtype=dtype)
            self._bufs[name] = buf
        return buf

    # -- per-axis machinery -------------------------------------------
    def _axis_value_fast(self, p: np.ndarray, axis: str):
        """Buffered per-axis value; returns ``(value, state)``.

        ``p`` and the per-pin tables are degree-major and the per-net
        values ranked (see :class:`_DegreeMajor`).  ``state`` carries the
        exponential tables the gradient needs, held in axis-suffixed
        buffers so a later :meth:`_axis_grad_fast` (or the other axis's
        value pass) cannot clobber them.
        """
        raise NotImplementedError

    def _axis_grad_fast(self, state, grad: np.ndarray) -> None:
        """Write a value pass's degree-major per-pin gradient to ``grad``."""
        raise NotImplementedError

    def value_grad(self, cx: np.ndarray, cy: np.ndarray):
        """Smooth wirelength and its gradient w.r.t. node centres.

        Returns ``(value, grad_x, grad_y)`` with gradients over all
        ``num_nodes`` nodes (fixed nodes included; the caller masks).
        """
        if len(self._starts) == 0:
            return 0.0, np.zeros(self.num_nodes), np.zeros(self.num_nodes)
        px, py = self._pin_coords(cx, cy, "")
        vx, st_x = self._axis_value_fast(px, "x")
        vy, st_y = self._axis_value_fast(py, "y")
        grad_x, grad_y = self._gradient(st_x, st_y)
        return self._total(vx, vy), grad_x, grad_y

    def value_probe(self, cx: np.ndarray, cy: np.ndarray) -> float:
        """Objective value only, stashing state for :meth:`finish_grad`.

        The value half of the line-search value/gradient split: rejected
        trial points skip gradient assembly entirely, while
        :meth:`finish_grad` completes the gradient of the *last probed
        point* from the stashed exponential tables with exactly the ops
        :meth:`value_grad` would have run — the pair is bit-identical to
        one ``value_grad`` call.
        """
        if len(self._starts) == 0:
            self._probe = ("empty",)
            return 0.0
        px, py = self._pin_coords(cx, cy, "")
        vx, st_x = self._axis_value_fast(px, "x")
        vy, st_y = self._axis_value_fast(py, "y")
        self._probe = ("split", st_x, st_y)
        return self._total(vx, vy)

    def finish_grad(self):
        """Gradients of the last :meth:`value_probe` point."""
        if self._probe[0] == "empty":
            return np.zeros(self.num_nodes), np.zeros(self.num_nodes)
        _, st_x, st_y = self._probe
        return self._gradient(st_x, st_y)

    def value(self, cx: np.ndarray, cy: np.ndarray) -> float:
        """Smooth wirelength only, with no gradient work.

        Runs the value half of :meth:`value_probe` in buffers of its own,
        so a pending probe stays intact for :meth:`finish_grad`.
        """
        if len(self._starts) == 0:
            return 0.0
        px, py = self._pin_coords(cx, cy, "v")
        vx, _ = self._axis_value_fast(px, "vx")
        vy, _ = self._axis_value_fast(py, "vy")
        return self._total(vx, vy)

    def _pin_coords(self, cx: np.ndarray, cy: np.ndarray, tag: str):
        """Degree-major pin coordinates in the ``tag``-named buffers."""
        n = len(self._dm_node)
        px = self._buf(tag + "px", (n,))
        py = self._buf(tag + "py", (n,))
        np.take(cx, self._dm_node, out=px, mode="clip")
        px += self._dm_dx
        np.take(cy, self._dm_node, out=py, mode="clip")
        py += self._dm_dy
        return px, py

    def _total(self, vx: np.ndarray, vy: np.ndarray) -> float:
        """Weighted total of ranked per-net values, summed in net order."""
        v = vx + vy
        return float(np.sum(self._weights * v[self._dm.rank]))

    def _gradient(self, st_x, st_y):
        """Node gradients from both axes' value-pass states.

        The weighted per-pin terms go back to pin-table order before the
        scatter, so every node sums its pins in the original order.
        """
        n = len(self._dm_node)
        grad = self._buf("grad", (2, n))
        self._axis_grad_fast(st_x, grad[0])
        self._axis_grad_fast(st_y, grad[1])
        np.multiply(self._wpin, grad, out=grad)
        scatter = self._buf("scatter", (2, n))
        np.take(grad.reshape(-1), self._to_csr2, out=scatter.reshape(-1), mode="clip")
        grad_x = np.bincount(self._pin_node, weights=scatter[0], minlength=self.num_nodes)
        grad_y = np.bincount(self._pin_node, weights=scatter[1], minlength=self.num_nodes)
        return grad_x, grad_y

    # -- per-net reductions, bit-identical to reduceat on the pin table --
    def _big_pins(self, p: np.ndarray) -> np.ndarray:
        """The pins of the nets that keep ``reduceat``, net by net."""
        sel = self._dm.big_sel
        return np.take(p, sel, out=self._buf("big", (len(sel),)), mode="clip")

    def _net_extreme(self, op, p: np.ndarray) -> np.ndarray:
        """``op.reduceat`` per net, ranked: the first pin, then the others
        left to right."""
        dm = self._dm
        out = np.empty(len(dm.order))
        b = dm.big
        small = out[b:]
        (first, _), (second, _), *rest = dm.small_rows
        op(p[first], p[second], out=small)
        for row, end in rest:
            head = small[: end - b]
            op(head, p[row], out=head)
        if b:
            op.reduceat(self._big_pins(p), dm.big_starts, out=out[:b])
        return out

    def _net_max(self, p: np.ndarray) -> np.ndarray:
        return self._net_extreme(np.maximum, p)

    def _net_min(self, p: np.ndarray) -> np.ndarray:
        return self._net_extreme(np.minimum, p)

    def _net_sum(self, p: np.ndarray) -> np.ndarray:
        """``np.add.reduceat`` per net, ranked: the first pin plus the
        left-to-right sum of the others."""
        dm = self._dm
        out = np.empty(len(dm.order))
        b = dm.big
        small = out[b:]
        (first, _), (second, _), *rest = dm.small_rows
        np.copyto(small, p[second])
        for row, end in rest:
            small[: end - b] += p[row]
        np.add(p[first], small, out=small)
        if b:
            np.add.reduceat(self._big_pins(p), dm.big_starts, out=out[:b])
        return out


class LogSumExp(SmoothWirelength):
    """The classical log-sum-exp wirelength model (Naylor patent lineage)."""

    def _axis_value_fast(self, p: np.ndarray, axis: str):
        g = self.gamma
        net = self._dm.net
        n = len(p)
        mx = self._net_max(p)
        mn = self._net_min(p)
        e_pos = self._buf("e_pos_" + axis, (n,))
        e_neg = self._buf("e_neg_" + axis, (n,))
        np.take(mx, net, out=e_pos, mode="clip")  # hi, expanded per pin
        np.subtract(p, e_pos, out=e_pos)
        e_pos /= g
        np.exp(e_pos, out=e_pos)
        np.take(mn, net, out=e_neg, mode="clip")  # lo, expanded per pin
        np.subtract(e_neg, p, out=e_neg)
        e_neg /= g
        np.exp(e_neg, out=e_neg)
        s_pos = self._net_sum(e_pos)
        s_neg = self._net_sum(e_neg)
        value = g * (np.log(s_pos) + np.log(s_neg)) + mx - mn
        return value, (e_pos, e_neg, s_pos, s_neg)

    def _axis_grad_fast(self, state, grad: np.ndarray) -> None:
        e_pos, e_neg, s_pos, s_neg = state
        net = self._dm.net
        t = self._buf("t1", grad.shape)
        np.take(s_pos, net, out=grad, mode="clip")
        np.divide(e_pos, grad, out=grad)
        np.take(s_neg, net, out=t, mode="clip")
        np.divide(e_neg, t, out=t)
        grad -= t


class WeightedAverage(SmoothWirelength):
    """The weighted-average (WA) wirelength model."""

    def _axis_value_fast(self, p: np.ndarray, axis: str):
        g = self.gamma
        net = self._dm.net
        n = len(p)
        e_pos = self._buf("e_pos_" + axis, (n,))
        e_neg = self._buf("e_neg_" + axis, (n,))
        prod = self._buf("prod", (n,))
        # Max side, shifted by the net max for stability.
        np.take(self._net_max(p), net, out=e_pos, mode="clip")
        np.subtract(p, e_pos, out=e_pos)
        e_pos /= g
        np.exp(e_pos, out=e_pos)
        s_pos = self._net_sum(e_pos)
        np.multiply(p, e_pos, out=prod)
        t_pos = self._net_sum(prod)
        f_pos = t_pos / s_pos
        # Min side, shifted by the net min.
        np.take(self._net_min(p), net, out=e_neg, mode="clip")
        np.subtract(e_neg, p, out=e_neg)
        e_neg /= g
        np.exp(e_neg, out=e_neg)
        s_neg = self._net_sum(e_neg)
        np.multiply(p, e_neg, out=prod)
        t_neg = self._net_sum(prod)
        f_neg = t_neg / s_neg
        value = f_pos - f_neg
        return value, (p, e_pos, e_neg, s_pos, t_pos, s_neg, t_neg)

    def _axis_grad_fast(self, state, grad: np.ndarray) -> None:
        p, e_pos, e_neg, s_pos, t_pos, s_neg, t_neg = state
        g = self.gamma
        net = self._dm.net
        n = len(p)
        # grad_pos = e_pos * ((1 + p/g) * sp - tp/g) / (sp * sp)
        t1 = self._buf("t1", (n,))
        t2 = self._buf("t2", (n,))
        np.divide(p, g, out=grad)
        grad += 1.0
        np.take(s_pos, net, out=t1, mode="clip")  # sp
        grad *= t1
        np.take(t_pos, net, out=t2, mode="clip")  # tp
        t2 /= g
        grad -= t2
        grad *= e_pos
        np.multiply(t1, t1, out=t1)  # sp * sp
        grad /= t1
        # grad_neg = e_neg * ((1 - p/g) * sn + tn/g) / (sn * sn)
        neg = self._buf("neg", (n,))
        np.divide(p, g, out=neg)
        np.subtract(1.0, neg, out=neg)
        np.take(s_neg, net, out=t1, mode="clip")  # sn
        neg *= t1
        np.take(t_neg, net, out=t2, mode="clip")  # tn
        t2 /= g
        neg += t2
        neg *= e_neg
        np.multiply(t1, t1, out=t1)  # sn * sn
        neg /= t1
        grad -= neg


#: The smooth wirelength models :func:`make_model` builds, by name.
WIRELENGTH_MODELS = {"wa": WeightedAverage, "lse": LogSumExp}


def make_model(kind: str, arrays, num_nodes: int, gamma: float) -> SmoothWirelength:
    """Factory: ``"wa"`` (default placer choice) or ``"lse"``."""
    if kind not in WIRELENGTH_MODELS:
        raise ValueError(f"unknown wirelength model {kind!r}")
    return WIRELENGTH_MODELS[kind](arrays, num_nodes, gamma)
