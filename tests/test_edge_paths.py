"""Edge-path tests across modules: less-travelled branches that the
main suites don't reach."""

import numpy as np
import pytest

from repro.benchgen import BenchmarkSpec, make_benchmark
from repro.db import Design, Net, Node, NodeKind, Pin
from repro.geometry import Rect
from repro.grids import BinGrid
from repro.route import GridGraph, RoutingSpec


class TestRoutingSpecMisc:
    def test_copy_is_deep(self):
        spec = RoutingSpec.uniform(Rect(0, 0, 8, 8), 4, 4, hcap=5, vcap=5)
        dup = spec.copy()
        dup.hcap[0, 0] = 0.0
        assert spec.hcap[0, 0] == 5.0

    def test_total_supply(self):
        spec = RoutingSpec.uniform(Rect(0, 0, 8, 8), 4, 4, hcap=2, vcap=3)
        assert spec.total_supply() == pytest.approx(16 * 2 + 16 * 3)

    def test_shape_validation(self):
        grid = BinGrid(Rect(0, 0, 8, 8), 4, 4)
        with pytest.raises(ValueError):
            RoutingSpec(grid, np.ones((2, 2)), np.ones((4, 4)))


class TestGridGraphBlockedEdges:
    def test_zero_capacity_edge_costs_prohibitive(self):
        spec = RoutingSpec.uniform(Rect(0, 0, 8, 8), 4, 4, hcap=0, vcap=5)
        g = GridGraph(spec)
        cost_e, cost_n = g.cost_arrays()
        assert cost_e.min() >= 1e6
        assert cost_n.max() < 1e3

    def test_unused_zero_cap_edge_not_congested(self):
        spec = RoutingSpec.uniform(Rect(0, 0, 8, 8), 4, 4, hcap=0, vcap=5)
        g = GridGraph(spec)
        cong = g.edge_congestion()
        finite = cong[np.isfinite(cong)]
        assert (finite == 0).all()

    def test_used_zero_cap_edge_infinite(self):
        spec = RoutingSpec.uniform(Rect(0, 0, 8, 8), 4, 4, hcap=0, vcap=5)
        g = GridGraph(spec)
        g.add_horizontal_run(0, 0, 1)
        assert np.isinf(g.edge_congestion()).any()


class TestDesignConnectErrors:
    def test_connect_unregistered_net(self):
        d = Design("t", core=Rect(0, 0, 4, 4))
        node = d.add_node(Node("a", 1, 1))
        loose = Net("loose")
        with pytest.raises(ValueError):
            d.connect(loose, node)


class TestClusteringCaps:
    def test_max_cluster_cells_respected(self):
        from repro.gp import cluster_design

        d = make_benchmark(
            BenchmarkSpec(name="cc", num_cells=200, num_macros=0,
                          num_fixed_macros=0, seed=31)
        )
        cd = cluster_design(d, ratio=0.1, max_cluster_cells=3)
        counts = {}
        for orig in range(len(d.nodes)):
            if d.nodes[orig].kind is NodeKind.CELL:
                counts[cd.assignment[orig]] = counts.get(cd.assignment[orig], 0) + 1
        assert max(counts.values()) <= 3


class TestWriterVariants:
    def test_write_without_optional_sections(self, tmp_path):
        from repro.io import read_bookshelf, write_bookshelf
        from repro.db import Row

        d = Design("plain")
        d.add_row(Row(y=0, height=1, site_width=0.25, x_min=0, num_sites=40))
        d.add_node(Node("a", 1, 1))
        d.add_node(Node("b", 1, 1))
        d.add_net(Net("n", pins=[Pin(node=0), Pin(node=1)]))
        aux = write_bookshelf(d, str(tmp_path))
        files = open(aux).read()
        assert ".route" not in files
        assert ".regions" not in files
        d2 = read_bookshelf(aux)
        assert d2.routing is None and d2.regions == []


class TestCliErrorPaths:
    def test_route_without_route_file(self, tmp_path, capsys):
        from repro.cli import main
        from repro.io import write_bookshelf
        from repro.db import Row

        d = Design("nr")
        d.add_row(Row(y=0, height=1, site_width=0.25, x_min=0, num_sites=40))
        d.add_node(Node("a", 1, 1))
        d.add_node(Node("b", 1, 1))
        d.add_net(Net("n", pins=[Pin(node=0), Pin(node=1)]))
        aux = write_bookshelf(d, str(tmp_path))
        assert main(["route", "--aux", aux]) == 2


class TestOptimRecording:
    def test_trajectory_recorded(self):
        from repro.optim import minimize_cg

        def f(x):
            return float(x @ x), 2 * x

        res = minimize_cg(f, np.ones(3), max_iter=10, step_init=0.5, record=True)
        assert len(res.trajectory) >= 2
        assert res.trajectory[0] >= res.trajectory[-1]


class TestGridTargets:
    def test_single_bin_grid(self):
        g = BinGrid(Rect(0, 0, 4, 4), 1, 1)
        field = np.array([[7.0]])
        assert g.bilinear_sample(field, 2.0, 2.0) == pytest.approx(7.0)

    def test_with_bin_target_tiny(self):
        g = BinGrid.with_bin_target(Rect(0, 0, 100, 1), 4)
        assert g.nx >= 1 and g.ny >= 1


class TestNetWeightMonotone:
    def test_repeated_application_monotone_bounded(self):
        from repro.gp import apply_congestion_net_weights

        d = make_benchmark(
            BenchmarkSpec(name="nw", num_cells=100, num_macros=0,
                          num_fixed_macros=0, seed=37, cap_factor=2.0)
        )
        cong = np.full((d.routing.grid.nx, d.routing.grid.ny), 2.0)
        prev_max = 1.0
        for _ in range(6):
            apply_congestion_net_weights(d, cong, max_weight=4.0)
            cur = max(net.weight for net in d.nets)
            assert cur >= prev_max - 1e-12
            prev_max = cur
        assert prev_max <= 4.0 + 1e-9
