"""Tests for the full global router."""

import numpy as np
import pytest

from repro.db import Design, Net, Node, Pin
from repro.geometry import Rect
from repro.grids import BinGrid
from repro.route import GlobalRouter, GridGraph, RoutingSpec


def design_with_nets(net_specs, core=16.0, cap=4.0, tiles=8):
    """net_specs: list of lists of (x, y) pin positions."""
    d = Design("t", core=Rect(0, 0, core, core))
    idx = 0
    for pins in net_specs:
        members = []
        for (x, y) in pins:
            n = d.add_node(Node(f"c{idx}", 0.5, 0.5))
            n.move_center_to(x, y)
            members.append(n.index)
            idx += 1
        d.add_net(Net(f"n{len(d.nets)}", pins=[Pin(node=m) for m in members]))
    d.routing = RoutingSpec.uniform(d.core, tiles, tiles, hcap=cap, vcap=cap)
    return d


class TestGridGraph:
    def test_capacities_from_spec(self):
        spec = RoutingSpec.uniform(Rect(0, 0, 8, 8), 4, 4, hcap=3, vcap=5)
        g = GridGraph(spec)
        assert g.cap_e.shape == (3, 4)
        assert g.cap_n.shape == (4, 3)
        assert (g.cap_e == 3).all() and (g.cap_n == 5).all()

    def test_usage_runs(self):
        g = GridGraph(RoutingSpec.uniform(Rect(0, 0, 8, 8), 4, 4))
        g.add_horizontal_run(1, 0, 3)
        assert g.use_e[:, 1].tolist() == [1, 1, 1]
        g.add_vertical_run(2, 1, 2)
        assert g.use_n[2, 1] == 1

    def test_overflow_math(self):
        g = GridGraph(RoutingSpec.uniform(Rect(0, 0, 8, 8), 4, 4, hcap=1, vcap=1))
        for _ in range(3):
            g.add_horizontal_run(0, 0, 1)
        assert g.total_overflow() == pytest.approx(2.0)
        assert g.max_overflow() == pytest.approx(2.0)

    def test_tile_congestion_shape(self):
        g = GridGraph(RoutingSpec.uniform(Rect(0, 0, 8, 8), 4, 4))
        g.add_horizontal_run(0, 0, 3)
        tc = g.tile_congestion()
        assert tc.shape == (4, 4)
        assert tc.max() > 0

    def test_history_bumps_only_overflowed(self):
        g = GridGraph(RoutingSpec.uniform(Rect(0, 0, 8, 8), 4, 4, hcap=1, vcap=1))
        g.add_horizontal_run(0, 0, 1)
        g.add_horizontal_run(0, 0, 1)  # now over capacity 1
        g.bump_history()
        assert g.history_e[0, 0] > 0
        assert g.history_e[1, 0] == 0

    def test_block_rect_reduces_capacity(self):
        spec = RoutingSpec.uniform(Rect(0, 0, 8, 8), 4, 4, hcap=10, vcap=10)
        spec.block_rect(Rect(0, 0, 4, 4), keep_fraction=0.5)
        assert spec.hcap[0, 0] == pytest.approx(5.0)
        assert spec.hcap[3, 3] == pytest.approx(10.0)

    def test_block_rect_validates(self):
        spec = RoutingSpec.uniform(Rect(0, 0, 8, 8), 4, 4)
        with pytest.raises(ValueError):
            spec.block_rect(Rect(0, 0, 1, 1), keep_fraction=1.5)


class TestRouter:
    def test_routes_simple_net(self):
        d = design_with_nets([[(1, 1), (13, 13)]])
        rr = GlobalRouter(d.routing).route(d)
        assert rr.num_segments == 1
        assert rr.graph.wirelength() >= 12  # at least manhattan tile distance
        assert rr.metrics.total_overflow == 0

    def test_empty_design(self):
        d = design_with_nets([])
        rr = GlobalRouter(d.routing).route(d)
        assert rr.num_segments == 0
        assert rr.metrics.rc == 0.0

    def test_single_tile_net_routes_free(self):
        d = design_with_nets([[(1.0, 1.0), (1.2, 1.2)]])
        rr = GlobalRouter(d.routing).route(d)
        assert rr.num_segments == 0
        assert rr.graph.wirelength() == 0

    def test_usage_matches_wirelength(self):
        d = design_with_nets([[(1, 1), (9, 1)], [(1, 5), (1, 13)]])
        rr = GlobalRouter(d.routing).route(d)
        assert rr.graph.wirelength() == pytest.approx(
            rr.graph.use_e.sum() + rr.graph.use_n.sum()
        )

    def test_congestion_spreads_load(self):
        """Many parallel nets across a cut should use several rows."""
        nets = [[(1, 7.5), (15, 7.5)] for _ in range(12)]
        d = design_with_nets(nets, cap=3.0)
        rr = GlobalRouter(d.routing, sweeps=3).route(d)
        rows_used = (rr.graph.use_e.sum(axis=0) > 0).sum()
        assert rows_used >= 3  # not all piled in one row

    def test_maze_reduces_overflow(self):
        nets = [[(1, 7.5), (15, 7.5)] for _ in range(12)]
        d = design_with_nets(nets, cap=2.0)
        r0 = GlobalRouter(d.routing, sweeps=1, z_refine=False, maze_rounds=0).route(d)
        r1 = GlobalRouter(d.routing, sweeps=1, maze_rounds=4).route(d)
        assert r1.metrics.total_overflow <= r0.metrics.total_overflow

    def test_route_needs_input(self):
        spec = RoutingSpec.uniform(Rect(0, 0, 8, 8), 4, 4)
        with pytest.raises(ValueError):
            GlobalRouter(spec).route()

    def test_congestion_map_shape(self):
        d = design_with_nets([[(1, 1), (13, 13)]])
        rr = GlobalRouter(d.routing).route(d)
        assert rr.congestion_map().shape == (8, 8)

    def test_deterministic(self):
        d1 = design_with_nets([[(1, 1), (13, 13)], [(2, 9), (14, 3)]])
        d2 = design_with_nets([[(1, 1), (13, 13)], [(2, 9), (14, 3)]])
        r1 = GlobalRouter(d1.routing).route(d1)
        r2 = GlobalRouter(d2.routing).route(d2)
        assert np.array_equal(r1.graph.use_e, r2.graph.use_e)
        assert np.array_equal(r1.graph.use_n, r2.graph.use_n)
