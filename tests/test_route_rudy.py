"""Tests for RUDY and pin-density congestion estimation."""

import numpy as np
import pytest

from repro.db import Design, Net, Node, Pin
from repro.geometry import Rect
from repro.grids import BinGrid
from repro.route import pin_density_map, rudy_map
from repro.route.rudy import rudy_congestion_metrics
from tests.reference import use_reference


def two_pin_design(p0, p1, core=16.0):
    d = Design("t", core=Rect(0, 0, core, core))
    a = d.add_node(Node("a", 0.5, 0.5))
    a.move_center_to(*p0)
    b = d.add_node(Node("b", 0.5, 0.5))
    b.move_center_to(*p1)
    d.add_net(Net("n", pins=[Pin(node=0), Pin(node=1)]))
    return d


class TestRudy:
    def test_total_demand_is_hpwl(self):
        d = two_pin_design((2, 2), (10, 6))
        grid = BinGrid(d.core, 8, 8)
        arrays = d.pin_arrays()
        cx, cy = d.pull_centers()
        m = rudy_map(arrays, cx, cy, grid)
        total = m.sum() * grid.bin_area
        assert total == pytest.approx(8 + 4, rel=1e-6)

    def test_demand_confined_to_bbox(self):
        d = two_pin_design((2, 2), (6, 6))
        grid = BinGrid(d.core, 8, 8)
        arrays = d.pin_arrays()
        cx, cy = d.pull_centers()
        m = rudy_map(arrays, cx, cy, grid)
        assert m[7, 7] == 0.0
        assert m[1, 1] > 0

    def test_degenerate_net_padded(self):
        """A zero-height net still deposits its demand."""
        d = two_pin_design((2, 4), (10, 4))
        grid = BinGrid(d.core, 8, 8)
        arrays = d.pin_arrays()
        cx, cy = d.pull_centers()
        m = rudy_map(arrays, cx, cy, grid)
        assert m.sum() * grid.bin_area == pytest.approx(8.0 + grid.bin_h, rel=1e-6)

    def test_wire_width_scales(self):
        d = two_pin_design((2, 2), (10, 6))
        grid = BinGrid(d.core, 8, 8)
        arrays = d.pin_arrays()
        cx, cy = d.pull_centers()
        m1 = rudy_map(arrays, cx, cy, grid, wire_width=1.0)
        m2 = rudy_map(arrays, cx, cy, grid, wire_width=2.0)
        assert np.allclose(m2, 2 * m1)

    def test_single_pin_nets_skipped(self):
        d = Design("t", core=Rect(0, 0, 16, 16))
        d.add_node(Node("a", 1, 1, x=3, y=3))
        d.add_net(Net("n", pins=[Pin(node=0)]))
        grid = BinGrid(d.core, 8, 8)
        m = rudy_map(d.pin_arrays(), *d.pull_centers(), grid)
        assert m.sum() == 0.0


class TestPinDensity:
    def test_counts_pins(self):
        d = two_pin_design((2, 2), (10, 6))
        grid = BinGrid(d.core, 8, 8)
        m = pin_density_map(d.pin_arrays(), *d.pull_centers(), grid)
        assert m.sum() == 2.0
        assert m[1, 1] == 1.0
        assert m[5, 3] == 1.0

    def test_zero_and_one_pin_nets(self):
        """Empty and single-pin nets contribute their pins, no demand."""
        d = Design("t", core=Rect(0, 0, 16, 16))
        d.add_node(Node("a", 1, 1, x=3, y=3))
        d.add_net(Net("empty", pins=[]))
        d.add_net(Net("single", pins=[Pin(node=0)]))
        grid = BinGrid(d.core, 8, 8)
        m = pin_density_map(d.pin_arrays(), *d.pull_centers(), grid)
        assert m.sum() == 1.0  # the one real pin
        assert rudy_map(d.pin_arrays(), *d.pull_centers(), grid).sum() == 0.0

    def test_out_buffer_bit_identical(self):
        d = two_pin_design((2, 2), (10, 6))
        grid = BinGrid(d.core, 8, 8)
        arrays = d.pin_arrays()
        cx, cy = d.pull_centers()
        fresh = pin_density_map(arrays, cx, cy, grid)
        buf = grid.zeros()
        buf.fill(123.0)  # stale contents must not leak through
        reused = pin_density_map(arrays, cx, cy, grid, out=buf)
        assert reused is buf
        assert np.array_equal(fresh, reused)

    def test_out_shape_mismatch_raises(self):
        d = two_pin_design((2, 2), (10, 6))
        grid = BinGrid(d.core, 8, 8)
        with pytest.raises(ValueError, match="shape"):
            pin_density_map(
                d.pin_arrays(), *d.pull_centers(), grid, out=np.zeros((4, 4))
            )


class TestRudyBuffers:
    def test_out_buffer_bit_identical(self):
        d = two_pin_design((2, 2), (10, 6))
        grid = BinGrid(d.core, 8, 8)
        arrays = d.pin_arrays()
        cx, cy = d.pull_centers()
        fresh = rudy_map(arrays, cx, cy, grid)
        buf = grid.zeros()
        buf.fill(-7.0)
        reused = rudy_map(arrays, cx, cy, grid, out=buf)
        assert reused is buf
        assert np.array_equal(fresh, reused)

    def test_out_matches_reference_path(self):
        d = two_pin_design((2, 2), (11, 7))
        grid = BinGrid(d.core, 8, 8)
        arrays = d.pin_arrays()
        cx, cy = d.pull_centers()
        with use_reference() as calls:  # rasterizes with the original sweep
            golden = rudy_map(arrays, cx, cy, grid)
        assert calls["rasterize"] == 1
        buf = grid.zeros()
        assert np.array_equal(golden, rudy_map(arrays, cx, cy, grid, out=buf))


class TestRudyMetricsEdgeCases:
    def _with_routing(self, design, cap=10.0):
        from repro.route import RoutingSpec

        design.routing = RoutingSpec.uniform(design.core, 8, 8, cap, cap)
        return design

    def test_no_nets_no_offenders(self):
        """A design with no (real) nets yields clean all-zero metrics."""
        d = Design("t", core=Rect(0, 0, 16, 16))
        d.add_node(Node("a", 1, 1, x=3, y=3))
        d.add_net(Net("empty", pins=[]))
        d.add_net(Net("single", pins=[Pin(node=0)]))
        m = rudy_congestion_metrics(self._with_routing(d))
        assert m.total_overflow == 0.0
        assert m.max_overflow == 0.0
        assert m.routed_wirelength == 0.0
        assert np.isfinite(m.peak_congestion)

    def test_no_routing_spec_raises(self):
        d = two_pin_design((2, 2), (10, 6))
        with pytest.raises(ValueError, match="routing spec"):
            rudy_congestion_metrics(d)

    def test_starved_supply_overflows(self):
        """Near-zero supply turns the whole demand into overflow."""
        d = self._with_routing(two_pin_design((2, 2), (10, 6)), cap=1e-9)
        m = rudy_congestion_metrics(d)
        assert m.total_overflow == pytest.approx(m.routed_wirelength, rel=1e-6)

    def test_ranking_agrees_with_router(self):
        """RUDY must rank the same tiles hot as a real lookahead route."""
        from repro.benchgen import BenchmarkSpec, make_benchmark
        from repro.gp.initial import initial_placement
        from repro.route.router import GlobalRouter

        spec = BenchmarkSpec(
            name="rank", num_cells=500, num_macros=2, num_fixed_macros=1,
            macro_area_fraction=0.2, utilization=0.65, cap_factor=4.5,
            seed=5,
        )
        design = make_benchmark(spec)
        initial_placement(design, seed=3)
        grid = design.routing.grid
        rudy = rudy_map(design.pin_arrays(), *design.pull_centers(), grid)
        router = GlobalRouter(
            design.routing, sweeps=1, z_refine=False, maze_rounds=0
        )
        routed = router.route(design).congestion_map()
        k = max(rudy.size // 5, 1)  # hottest quintile of tiles
        top_rudy = set(np.argsort(rudy.ravel())[-k:].tolist())
        top_routed = set(np.argsort(routed.ravel())[-k:].tolist())
        overlap = len(top_rudy & top_routed) / k
        assert overlap >= 0.5, f"hot-tile overlap {overlap:.2f}"
        corr = float(np.corrcoef(rudy.ravel(), routed.ravel())[0, 1])
        assert corr >= 0.7, f"tile correlation {corr:.2f}"
