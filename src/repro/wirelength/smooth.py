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
reduceat offsets) depends only on the netlist topology, so it is built
once per :class:`~repro.db.design.PinArrays` instance — vectorized, cached
on the arrays object, and shared by every model over that topology.
``rebind`` swaps in a re-oriented pin table without rebuilding it.  Value
and gradient evaluations reuse preallocated per-pin work buffers and
scatter gradients with ``np.bincount`` (bit-identical to ``np.add.at``,
several times faster).  The original per-net construction loop and
allocating evaluation path are kept as golden twins under
``tests/reference/``; ``tests/test_gp_perf_equiv.py`` asserts both agree
to the last bit.
"""

from __future__ import annotations

import numpy as np


class _Compaction:
    """Topology-only pin-table compaction shared across models."""

    __slots__ = ("active", "starts", "weights", "pin_sel", "pin_net", "cstarts")

    def __init__(self, active, starts, weights, pin_sel, pin_net, cstarts):
        self.active = active
        self.starts = starts
        self.weights = weights
        self.pin_sel = pin_sel
        self.pin_net = pin_net
        self.cstarts = cstarts


def _compact_pins(net_ptr, net_weight) -> _Compaction:
    """Pure vectorized compaction — no Python per-net loop."""
    counts = np.diff(net_ptr)
    active = counts >= 2
    starts = net_ptr[:-1][active]
    weights = net_weight[active]
    if len(starts) == 0:
        empty = np.empty(0, dtype=np.int64)
        return _Compaction(active, starts, weights, empty, empty.copy(), empty.copy())
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
    return _Compaction(active, starts, weights, pin_sel, pin_net, cstarts)


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
    """Base class: holds the CSR pin table and per-pin net expansion."""

    def __init__(self, arrays, num_nodes: int, gamma: float):
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        self.num_nodes = int(num_nodes)
        self.gamma = float(gamma)
        self._bind(arrays, compaction_for(arrays))

    def _bind(self, arrays, comp: _Compaction) -> None:
        self.arrays = arrays
        self._comp = comp
        self._active = comp.active
        self._starts = comp.starts
        self._weights = comp.weights
        self._pin_sel = comp.pin_sel
        self._pin_net = comp.pin_net
        self._cstarts = comp.cstarts
        self._pin_node = arrays.pin_node[self._pin_sel]
        self._pin_dx = arrays.pin_dx[self._pin_sel]
        self._pin_dy = arrays.pin_dy[self._pin_sel]
        # Per-pin net weight, constant over positions.
        self._wpin = self._weights[self._pin_net] if len(self._starts) else None
        self._bufs: dict = {}
        self._probe = None

    def rebind(self, arrays) -> "SmoothWirelength":
        """Adopt a rebuilt pin table without redoing the compaction.

        Orientation passes replace ``pin_dx``/``pin_dy`` but keep the
        netlist topology, so the compaction (and this model's work
        buffers) carry over; only the per-pin gathers are refreshed.
        A table with a different ``net_ptr`` triggers a full rebuild.
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

        ``state`` carries the exponential tables the gradient needs, held
        in axis-suffixed buffers so a later :meth:`_axis_grad_fast` (or
        the other axis's value pass) cannot clobber them.
        """
        raise NotImplementedError

    def _axis_grad_fast(self, state, axis: str):
        """Finish the per-pin gradient from a value pass's ``state``."""
        raise NotImplementedError

    def _axis_value_grad_fast(self, p: np.ndarray, axis: str):
        """Per-axis ``(per-net value, per-pin gradient)``, in buffers."""
        value, state = self._axis_value_fast(p, axis)
        return value, self._axis_grad_fast(state, axis)

    def value_grad(self, cx: np.ndarray, cy: np.ndarray):
        """Smooth wirelength and its gradient w.r.t. node centres.

        Returns ``(value, grad_x, grad_y)`` with gradients over all
        ``num_nodes`` nodes (fixed nodes included; the caller masks).
        """
        if len(self._starts) == 0:
            return 0.0, np.zeros(self.num_nodes), np.zeros(self.num_nodes)
        n = len(self._pin_node)
        px, py = self._pin_coords(cx, cy, "")
        vx, gx = self._axis_value_grad_fast(px, "x")
        vy, gy = self._axis_value_grad_fast(py, "y")
        value = float(np.sum(self._weights * (vx + vy)))
        scatter = self._buf("scatter", (n,))
        np.multiply(self._wpin, gx, out=scatter)
        grad_x = np.bincount(self._pin_node, weights=scatter, minlength=self.num_nodes)
        np.multiply(self._wpin, gy, out=scatter)
        grad_y = np.bincount(self._pin_node, weights=scatter, minlength=self.num_nodes)
        return value, grad_x, grad_y

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
        return float(np.sum(self._weights * (vx + vy)))

    def finish_grad(self):
        """Gradients of the last :meth:`value_probe` point."""
        if self._probe[0] == "empty":
            return np.zeros(self.num_nodes), np.zeros(self.num_nodes)
        _, st_x, st_y = self._probe
        gx = self._axis_grad_fast(st_x, "x")
        gy = self._axis_grad_fast(st_y, "y")
        n = len(self._pin_node)
        scatter = self._buf("scatter", (n,))
        np.multiply(self._wpin, gx, out=scatter)
        grad_x = np.bincount(self._pin_node, weights=scatter, minlength=self.num_nodes)
        np.multiply(self._wpin, gy, out=scatter)
        grad_y = np.bincount(self._pin_node, weights=scatter, minlength=self.num_nodes)
        return grad_x, grad_y

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
        return float(np.sum(self._weights * (vx + vy)))

    def _pin_coords(self, cx: np.ndarray, cy: np.ndarray, tag: str):
        """Pin coordinates gathered into the ``tag``-named buffers."""
        n = len(self._pin_node)
        px = self._buf(tag + "px", (n,))
        py = self._buf(tag + "py", (n,))
        np.take(cx, self._pin_node, out=px)
        px += self._pin_dx
        np.take(cy, self._pin_node, out=py)
        py += self._pin_dy
        return px, py

    # -- shared helpers -------------------------------------------------
    def _net_max(self, p):
        return np.maximum.reduceat(p, self._cstarts)

    def _net_min(self, p):
        return np.minimum.reduceat(p, self._cstarts)

    def _net_sum(self, p):
        return np.add.reduceat(p, self._cstarts)



class LogSumExp(SmoothWirelength):
    """The classical log-sum-exp wirelength model (Naylor patent lineage)."""

    def _axis_value_fast(self, p: np.ndarray, axis: str):
        g = self.gamma
        pin_net = self._pin_net
        n = len(p)
        mx = self._net_max(p)
        mn = self._net_min(p)
        e_pos = self._buf("e_pos_" + axis, (n,))
        e_neg = self._buf("e_neg_" + axis, (n,))
        np.take(mx, pin_net, out=e_pos)        # hi, expanded per pin
        np.subtract(p, e_pos, out=e_pos)
        e_pos /= g
        np.exp(e_pos, out=e_pos)
        np.take(mn, pin_net, out=e_neg)        # lo, expanded per pin
        np.subtract(e_neg, p, out=e_neg)
        e_neg /= g
        np.exp(e_neg, out=e_neg)
        s_pos = self._net_sum(e_pos)
        s_neg = self._net_sum(e_neg)
        value = g * (np.log(s_pos) + np.log(s_neg)) + mx - mn
        return value, (e_pos, e_neg, s_pos, s_neg)

    def _axis_grad_fast(self, state, axis: str):
        e_pos, e_neg, s_pos, s_neg = state
        pin_net = self._pin_net
        n = len(e_pos)
        grad = self._buf("grad_" + axis, (n,))
        t = self._buf("t1", (n,))
        np.take(s_pos, pin_net, out=grad)
        np.divide(e_pos, grad, out=grad)
        np.take(s_neg, pin_net, out=t)
        np.divide(e_neg, t, out=t)
        grad -= t
        return grad


class WeightedAverage(SmoothWirelength):
    """The weighted-average (WA) wirelength model."""

    def _axis_value_fast(self, p: np.ndarray, axis: str):
        g = self.gamma
        pin_net = self._pin_net
        n = len(p)
        e_pos = self._buf("e_pos_" + axis, (n,))
        e_neg = self._buf("e_neg_" + axis, (n,))
        prod = self._buf("prod", (n,))
        # Max side, shifted by the net max for stability.
        np.take(self._net_max(p), pin_net, out=e_pos)
        np.subtract(p, e_pos, out=e_pos)
        e_pos /= g
        np.exp(e_pos, out=e_pos)
        s_pos = self._net_sum(e_pos)
        np.multiply(p, e_pos, out=prod)
        t_pos = self._net_sum(prod)
        f_pos = t_pos / s_pos
        # Min side, shifted by the net min.
        np.take(self._net_min(p), pin_net, out=e_neg)
        np.subtract(e_neg, p, out=e_neg)
        e_neg /= g
        np.exp(e_neg, out=e_neg)
        s_neg = self._net_sum(e_neg)
        np.multiply(p, e_neg, out=prod)
        t_neg = self._net_sum(prod)
        f_neg = t_neg / s_neg
        value = f_pos - f_neg
        return value, (p, e_pos, e_neg, s_pos, t_pos, s_neg, t_neg)

    def _axis_grad_fast(self, state, axis: str):
        p, e_pos, e_neg, s_pos, t_pos, s_neg, t_neg = state
        g = self.gamma
        pin_net = self._pin_net
        n = len(p)
        # grad_pos = e_pos * ((1 + p/g) * sp - tp/g) / (sp * sp)
        grad = self._buf("grad_" + axis, (n,))
        t1 = self._buf("t1", (n,))
        t2 = self._buf("t2", (n,))
        np.divide(p, g, out=grad)
        grad += 1.0
        np.take(s_pos, pin_net, out=t1)        # sp
        grad *= t1
        np.take(t_pos, pin_net, out=t2)        # tp
        t2 /= g
        grad -= t2
        grad *= e_pos
        np.multiply(t1, t1, out=t1)            # sp * sp
        grad /= t1
        # grad_neg = e_neg * ((1 - p/g) * sn + tn/g) / (sn * sn)
        neg = self._buf("neg", (n,))
        np.divide(p, g, out=neg)
        np.subtract(1.0, neg, out=neg)
        np.take(s_neg, pin_net, out=t1)        # sn
        neg *= t1
        np.take(t_neg, pin_net, out=t2)        # tn
        t2 /= g
        neg += t2
        neg *= e_neg
        np.multiply(t1, t1, out=t1)            # sn * sn
        neg /= t1
        grad -= neg
        return grad


def make_model(kind: str, arrays, num_nodes: int, gamma: float) -> SmoothWirelength:
    """Factory: ``"wa"`` (default placer choice) or ``"lse"``."""
    kind = kind.lower()
    if kind == "wa":
        return WeightedAverage(arrays, num_nodes, gamma)
    if kind == "lse":
        return LogSumExp(arrays, num_nodes, gamma)
    raise ValueError(f"unknown wirelength model {kind!r}")
