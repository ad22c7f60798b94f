"""Tests for congestion-driven cell spreading."""

import numpy as np

from repro.db import Design, Net, Node, Pin, Row
from repro.dp import DetailedPlacer, DPConfig, congestion_spread_pass
from repro.geometry import Rect
from repro.legal import check_legal, tetris_legalize
from repro.route import RoutingSpec


def hot_design(n_cells=30, seed=0):
    """Cells legalized into the left half; routing supply starved there."""
    rng = np.random.default_rng(seed)
    d = Design("hot")
    for r in range(8):
        d.add_row(Row(y=float(r), height=1.0, site_width=0.25, x_min=0.0, num_sites=160))
    for i in range(n_cells):
        d.add_node(
            Node(f"c{i}", 1.0, 1.0, x=float(rng.uniform(0, 8)), y=float(rng.uniform(0, 7)))
        )
    for j in range(n_cells // 2):
        members = rng.choice(n_cells, size=3, replace=False)
        d.add_net(Net(f"n{j}", pins=[Pin(node=int(m)) for m in members]))
    d.routing = RoutingSpec.uniform(Rect(0, 0, 40, 8), 10, 8, hcap=6, vcap=6)
    # starve the left quarter where all the cells sit
    d.routing.block_rect(Rect(0, 0, 10, 8), keep_fraction=0.05)
    return d


class TestSpreadPass:
    def test_moves_cells_and_stays_legal(self):
        d = hot_design()
        sm = tetris_legalize(d)
        moves, delta = congestion_spread_pass(d, sm, threshold=0.5, max_moves=50)
        assert moves > 0
        assert check_legal(d).ok

    def test_respects_move_cap(self):
        d = hot_design(seed=1)
        sm = tetris_legalize(d)
        moves, _ = congestion_spread_pass(d, sm, threshold=0.3, max_moves=3)
        assert moves <= 3

    def test_reduces_peak_rudy(self):
        from repro.route.rudy import rudy_map

        d = hot_design(seed=2)
        sm = tetris_legalize(d)
        grid = d.routing.grid

        def peak():
            demand = rudy_map(d.pin_arrays(), *d.pull_centers(), grid)
            supply = (d.routing.hcap * grid.bin_h + d.routing.vcap * grid.bin_w) / grid.bin_area
            with np.errstate(divide="ignore", invalid="ignore"):
                c = np.where(supply > 0, demand / np.maximum(supply, 1e-12), 0.0)
            return float(c.max())

        before = peak()
        moves, _ = congestion_spread_pass(d, sm, threshold=0.5, max_moves=100,
                                          hpwl_slack=0.05)
        after = peak()
        assert moves > 0
        assert after <= before + 1e-9

    def test_no_routing_no_op(self):
        d = hot_design(seed=3)
        sm = tetris_legalize(d)
        d.routing = None
        assert congestion_spread_pass(d, sm) == (0, 0.0)

    def test_cool_design_no_moves(self):
        d = hot_design(seed=4)
        # restore generous supply everywhere
        d.routing = RoutingSpec.uniform(Rect(0, 0, 40, 8), 10, 8, hcap=1e5, vcap=1e5)
        sm = tetris_legalize(d)
        moves, _ = congestion_spread_pass(d, sm, threshold=0.9)
        assert moves == 0


class TestEngineIntegration:
    def test_spread_runs_in_engine(self):
        d = hot_design(seed=5)
        sm = tetris_legalize(d)
        cfg = DPConfig(rounds=1, congestion_aware=True)
        report = DetailedPlacer(cfg).run(d, sm)
        moved = {p[0]: p[1] for p in report.passes}
        # The starved tiles run hot enough for the default 0.9 threshold.
        assert moved["congestion_spread"] > 0
        assert check_legal(d).ok

    def test_spread_disabled(self):
        d = hot_design(seed=6)
        sm = tetris_legalize(d)
        cfg = DPConfig(rounds=1, congestion_aware=False)
        report = DetailedPlacer(cfg).run(d, sm)
        assert "congestion_spread" not in [p[0] for p in report.passes]
