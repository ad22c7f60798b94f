"""Tests for detailed placement (incremental HPWL + the move passes)."""

import numpy as np
import pytest

from repro.db import Design, Net, Node, NodeKind, Pin, Row
from repro.dp import (
    DetailedPlacer,
    DPConfig,
    IncrementalHPWL,
    global_swap_pass,
    local_reorder_pass,
    matching_pass,
    vertical_swap_pass,
)
from repro.legal import check_legal, tetris_legalize


def rowed_design(n_cells=24, n_rows=6, sites=60, n_nets=16, seed=0):
    rng = np.random.default_rng(seed)
    d = Design("t")
    for r in range(n_rows):
        d.add_row(Row(y=float(r), height=1.0, site_width=0.25, x_min=0.0, num_sites=sites))
    for i in range(n_cells):
        d.add_node(Node(f"c{i}", 1.0, 1.0, x=float(rng.uniform(0, 13)), y=float(rng.uniform(0, 5))))
    for j in range(n_nets):
        k = int(rng.integers(2, 5))
        members = rng.choice(n_cells, size=k, replace=False)
        d.add_net(Net(f"n{j}", pins=[Pin(node=int(m)) for m in members]))
    submap = tetris_legalize(d)
    return d, submap


class TestIncrementalHPWL:
    def test_total_matches_design(self):
        d, _ = rowed_design()
        inc = IncrementalHPWL(d)
        assert inc.total() == pytest.approx(d.hpwl())

    def test_delta_matches_recompute(self):
        d, _ = rowed_design(seed=1)
        inc = IncrementalHPWL(d)
        before = d.hpwl()
        node = d.nodes[0]
        move = [(0, node.cx + 3.0, node.cy)]
        delta = inc.delta_for_moves(move)
        inc.apply_moves(move)
        assert d.hpwl() == pytest.approx(before + delta)
        assert inc.total() == pytest.approx(d.hpwl())

    def test_multi_node_delta(self):
        d, _ = rowed_design(seed=2)
        inc = IncrementalHPWL(d)
        before = d.hpwl()
        a, b = d.nodes[0], d.nodes[1]
        moves = [(0, b.cx, b.cy), (1, a.cx, a.cy)]
        delta = inc.delta_for_moves(moves)
        inc.apply_moves(moves)
        assert d.hpwl() == pytest.approx(before + delta)

    def test_delta_pure(self):
        d, _ = rowed_design(seed=3)
        inc = IncrementalHPWL(d)
        h0 = d.hpwl()
        inc.delta_for_moves([(0, 50.0, 3.0)])
        assert d.hpwl() == h0  # no mutation

    def test_optimal_region_median(self):
        d = Design("t")
        d.add_row(Row(y=0, height=1, site_width=0.25, x_min=0, num_sites=100))
        for k, x in enumerate((0.0, 10.0, 20.0)):
            d.add_node(Node(f"c{k}", 1, 1, x=x, y=0))
        d.add_net(Net("n1", pins=[Pin(node=0), Pin(node=1)]))
        d.add_net(Net("n2", pins=[Pin(node=1), Pin(node=2)]))
        inc = IncrementalHPWL(d)
        x_lo, x_hi, y_lo, y_hi = inc.optimal_region(1)
        # medians over the two nets' other-pin extremes: (0.5+20.5)/2
        assert x_lo == pytest.approx(10.5)
        assert x_hi == pytest.approx(10.5)

    def test_optimal_region_unconnected(self):
        d, _ = rowed_design()
        d.add_node(Node("lonely", 1, 1))
        inc = IncrementalHPWL(d)
        assert inc.optimal_region(d.node("lonely").index) is None


class TestPasses:
    @pytest.mark.parametrize(
        "pass_fn",
        [
            lambda d, inc, sm: global_swap_pass(d, inc),
            lambda d, inc, sm: vertical_swap_pass(d, inc),
            lambda d, inc, sm: local_reorder_pass(d, inc, sm),
            lambda d, inc, sm: matching_pass(d, inc),
        ],
        ids=["global_swap", "vertical_swap", "local_reorder", "matching"],
    )
    def test_pass_never_hurts_and_stays_legal(self, pass_fn):
        d, sm = rowed_design(n_cells=30, seed=4)
        before = d.hpwl()
        accepted, gain = pass_fn(d, IncrementalHPWL(d), sm)
        after = d.hpwl()
        assert after <= before + 1e-6
        assert gain == pytest.approx(before - after, abs=1e-6)
        assert check_legal(d).ok

    def test_global_swap_finds_obvious_swap(self):
        d = Design("t")
        d.add_row(Row(y=0, height=1, site_width=0.25, x_min=0, num_sites=100))
        d.add_row(Row(y=1, height=1, site_width=0.25, x_min=0, num_sites=100))
        # two anchor pairs placed crosswise
        a = d.add_node(Node("a", 1, 1, x=0.0, y=0.0))
        b = d.add_node(Node("b", 1, 1, x=20.0, y=0.0))
        pa = d.add_node(Node("pa", 1, 1, kind=NodeKind.FIXED, x=20.0, y=1.0))
        pb = d.add_node(Node("pb", 1, 1, kind=NodeKind.FIXED, x=0.0, y=1.0))
        d.add_net(Net("na", pins=[Pin(node=a.index), Pin(node=pa.index)]))
        d.add_net(Net("nb", pins=[Pin(node=b.index), Pin(node=pb.index)]))
        before = d.hpwl()
        accepted, gain = global_swap_pass(d, IncrementalHPWL(d))
        assert accepted == 1
        assert d.hpwl() < before

    def test_swap_respects_region(self):
        d, sm = rowed_design(n_cells=10, seed=5)
        d.nodes[0].region = 0  # pretend-fence one cell; no partner shares it
        from repro.db import Region
        from repro.geometry import Rect

        d.add_region(Region("f", rects=[Rect(0, 0, 15, 6)]))
        accepted, _ = global_swap_pass(d, IncrementalHPWL(d))
        # node 0 may only swap with same-region cells -> none exist
        assert d.nodes[0].region == 0  # unchanged, no crash

    def test_gate_blocks_moves(self):
        d, sm = rowed_design(n_cells=20, seed=6)
        always_block = lambda moves: False
        accepted, gain = global_swap_pass(d, IncrementalHPWL(d), gate=always_block)
        assert accepted == 0 and gain == 0


class TestEngine:
    def test_engine_improves_or_equal(self):
        d, sm = rowed_design(n_cells=40, n_nets=30, seed=7)
        before = d.hpwl()
        report = DetailedPlacer(DPConfig(rounds=1, congestion_aware=False)).run(d, sm)
        assert report.hpwl_after <= before + 1e-6
        assert report.hpwl_before == pytest.approx(before)
        assert check_legal(d).ok

    def test_engine_records_passes(self):
        d, sm = rowed_design(seed=8)
        report = DetailedPlacer(DPConfig(rounds=1, congestion_aware=False)).run(d, sm)
        names = [p[0] for p in report.passes]
        assert "global_swap" in names and "matching" in names

    def test_improvement_property(self):
        d, sm = rowed_design(seed=9)
        report = DetailedPlacer(DPConfig(rounds=1, congestion_aware=False)).run(d, sm)
        assert 0 <= report.improvement <= 1

    def test_books_balance(self):
        d, sm = rowed_design(n_cells=40, n_nets=30, seed=7)
        report = DetailedPlacer(DPConfig(congestion_aware=False)).run(d, sm)
        assert sum(p[1] for p in report.passes) > 0
        assert not report.hpwl_mismatch

    def test_corrupt_mirror_unbalances_the_books(self, monkeypatch):
        from repro.dp import engine

        reorder = engine.local_reorder_pass

        def corrupt_then_reorder(design, inc, submap, **kw):
            # The widest net's recorded HPWL grows, so every window
            # moving one of its cells seems to gain.
            net = max(range(len(inc._before)), key=lambda n: inc._ptr[n + 1] - inc._ptr[n])
            inc._before[net] += 1e3
            return reorder(design, inc, submap, **kw)

        monkeypatch.setattr(engine, "local_reorder_pass", corrupt_then_reorder)
        d, sm = rowed_design(n_cells=40, n_nets=30, seed=7)
        report = DetailedPlacer(DPConfig(rounds=1, congestion_aware=False)).run(d, sm)
        assert report.hpwl_mismatch
