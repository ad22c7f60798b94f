"""Optimality-flavoured tests for Abacus single-row placement.

Abacus minimizes total squared displacement for a fixed left-to-right
order.  For small rows we can check that claim against dense quadratic
optimization (projected coordinate descent) and against naive greedy
packing.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Design, Node, Row
from repro.legal import SubRowMap, abacus_refine


def row_design(widths):
    d = Design("a")
    d.add_row(Row(y=0.0, height=1.0, site_width=0.01, x_min=0.0, num_sites=10_000))
    for k, w in enumerate(widths):
        d.add_node(Node(f"c{k}", float(w), 1.0, x=0.0, y=0.0))
    return d


def place_with_abacus(widths, targets):
    d = row_design(widths)
    sm = SubRowMap(d)
    sr = sm.subrows[0]
    order = np.argsort(targets)
    for idx in order:
        d.nodes[int(idx)].x = float(targets[int(idx)])
        sr.cells.append(int(idx))
    abacus_refine(d, sm, {i: float(targets[i]) for i in range(len(widths))})
    return d, sm


def quadratic_cost(d, targets):
    return sum(
        (d.nodes[i].x - targets[i]) ** 2 for i in range(len(targets))
    )


def reference_optimum(widths, targets, iters=4000):
    """Projected coordinate descent on the ordered-packing QP."""
    order = np.argsort(targets)
    w = np.array([widths[i] for i in order], dtype=float)
    t = np.array([targets[i] for i in order], dtype=float)
    x = np.maximum.accumulate(t)  # feasible start respecting order
    for k in range(1, len(x)):
        x[k] = max(x[k], x[k - 1] + w[k - 1])
    for _ in range(iters):
        for k in range(len(x)):
            lo = x[k - 1] + w[k - 1] if k > 0 else 0.0
            hi = x[k + 1] - w[k] if k + 1 < len(x) else 95.0
            x[k] = min(max(t[k], lo), hi)
    cost = float(((x - t) ** 2).sum())
    return cost


class TestAbacusQuality:
    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.floats(0.5, 3.0), min_size=2, max_size=6),
        st.data(),
    )
    def test_near_reference_optimum(self, widths, data):
        targets = [
            data.draw(st.floats(0.0, 20.0)) for _ in widths
        ]
        d, sm = place_with_abacus(widths, targets)
        got = quadratic_cost(d, targets)
        ref = reference_optimum(widths, targets)
        # site snapping costs a little; allow a site-quantization margin
        n = len(widths)
        assert got <= ref + 0.05 * n + 1e-6

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(0.5, 2.0), min_size=2, max_size=8), st.data())
    def test_always_legal(self, widths, data):
        targets = [data.draw(st.floats(0.0, 20.0)) for _ in widths]
        d, _ = place_with_abacus(widths, targets)
        # pairwise non-overlap in the row
        spans = sorted(
            (n.x, n.x + n.placed_width) for n in d.nodes if n.is_movable
        )
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert a1 <= b0 + 1e-6

    def test_overfull_cluster_clamps_left(self):
        # all targets at the far right, total width forces a left shift
        d, sm = place_with_abacus([2.0, 2.0, 2.0], [95.0, 95.0, 95.0])
        xs = sorted(n.x for n in d.nodes if n.is_movable)
        sr = sm.subrows[0]
        assert xs[0] >= sr.x_min - 1e-9
        assert xs[-1] + 2.0 <= sr.x_max + 1e-9
