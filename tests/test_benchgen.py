"""Tests for the synthetic benchmark generator."""

import numpy as np
import pytest

from repro.benchgen import BenchmarkSpec, SUITE, make_benchmark, make_suite_design
from repro.benchgen.rent import (
    assign_cells_to_leaves,
    leaf_module_path,
    sample_net_degrees,
    sample_net_levels,
    subtree_cells,
)
from repro.db import NodeKind, compute_stats


def small_spec(**kw):
    base = dict(
        name="g", num_cells=300, num_macros=3, num_fixed_macros=1,
        num_terminals=12, seed=5,
    )
    base.update(kw)
    return BenchmarkSpec(**base)


class TestRentMachinery:
    def test_leaf_assignment_contiguous(self):
        leaf_of, members = assign_cells_to_leaves(100, 4, 2)
        assert len(members) == 16
        assert (np.diff(leaf_of) >= 0).all()
        assert sum(len(m) for m in members) == 100

    def test_leaf_module_path(self):
        assert leaf_module_path(0, 4, 2) == "top/m0/m0"
        assert leaf_module_path(5, 4, 2) == "top/m1/m1"

    def test_levels_distribution(self):
        rng = np.random.default_rng(0)
        levels = sample_net_levels(rng, 5000, depth=3, locality=0.8)
        shares = [(levels == l).mean() for l in range(4)]
        # deeper (more local) levels are monotonically more likely
        assert shares == sorted(shares)
        assert shares[3] > 0.25
        assert levels.min() >= 0 and levels.max() <= 3

    def test_levels_validates(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_net_levels(rng, 10, 2, 1.5)

    def test_degrees_range(self):
        rng = np.random.default_rng(0)
        deg = sample_net_degrees(rng, 5000, avg_degree=3.6, max_degree=24)
        assert deg.min() >= 2 and deg.max() <= 24
        assert 2.5 < deg.mean() < 5.0

    def test_subtree_cells(self):
        _, members = assign_cells_to_leaves(64, 4, 2)
        all_cells = subtree_cells(members, leaf=5, level=0, branching=4, depth=2)
        assert len(all_cells) == 64
        leaf_cells = subtree_cells(members, leaf=5, level=2, branching=4, depth=2)
        assert np.array_equal(leaf_cells, members[5])


class TestGenerator:
    def test_deterministic(self):
        d1 = make_benchmark(small_spec())
        d2 = make_benchmark(small_spec())
        assert d1.hpwl() == d2.hpwl()
        assert [n.name for n in d1.nodes] == [n.name for n in d2.nodes]

    def test_counts_match_spec(self):
        spec = small_spec()
        d = make_benchmark(spec)
        stats = compute_stats(d)
        assert stats.num_cells == spec.num_cells
        assert stats.num_macros == spec.num_macros
        assert stats.num_fixed == spec.num_fixed_macros
        assert stats.num_terminals == spec.num_terminals

    def test_validates(self):
        d = make_benchmark(small_spec())
        assert d.validate() == []

    def test_macro_area_fraction(self):
        spec = small_spec(macro_area_fraction=0.3)
        d = make_benchmark(spec)
        stats = compute_stats(d)
        assert stats.macro_area_fraction == pytest.approx(0.3, abs=0.08)

    def test_utilization_near_target(self):
        spec = small_spec(utilization=0.6)
        d = make_benchmark(spec)
        assert d.utilization() == pytest.approx(0.6, abs=0.1)

    def test_rows_cover_core(self):
        d = make_benchmark(small_spec())
        assert len(d.rows) > 0
        assert d.core.height == pytest.approx(len(d.rows) * d.row_height)

    def test_terminals_on_boundary(self):
        d = make_benchmark(small_spec())
        core = d.core
        for n in d.nodes:
            if n.kind is NodeKind.TERMINAL_NI:
                on_edge = (
                    abs(n.x - core.xl) < 1e-6
                    or abs(n.x - core.xh) < 1e-6
                    or abs(n.y - core.yl) < 1e-6
                    or abs(n.y - core.yh) < 1e-6
                )
                assert on_edge

    def test_cells_have_modules(self):
        d = make_benchmark(small_spec())
        for n in d.nodes:
            if n.kind is NodeKind.CELL:
                assert n.module and n.module.startswith("top")

    def test_routing_spec_present(self):
        spec = small_spec(route_tiles=16)
        d = make_benchmark(spec)
        assert d.routing.grid.nx == 16

    def test_congested_band_reduces_capacity(self):
        d0 = make_benchmark(small_spec(congested_band=0.0))
        d1 = make_benchmark(small_spec(congested_band=0.5))
        assert d1.routing.hcap.min() < d0.routing.hcap.min()

    def test_fences_disjoint_and_snapped(self):
        spec = small_spec(num_fences=3, fence_level=1, num_cells=600)
        d = make_benchmark(spec)
        rects = [r for region in d.regions for r in region.rects]
        assert len(rects) >= 1
        for i in range(len(rects)):
            for j in range(i + 1, len(rects)):
                assert not rects[i].intersects(rects[j])
            assert rects[i].yl == pytest.approx(round(rects[i].yl))
            assert rects[i].yh == pytest.approx(round(rects[i].yh))

    def test_fence_members_assigned(self):
        spec = small_spec(num_fences=1, fence_level=1, num_cells=400)
        d = make_benchmark(spec)
        fenced = [n for n in d.nodes if n.region is not None]
        assert fenced
        # all fenced cells share the fenced module prefix
        module = d.hierarchy.modules()
        for n in fenced:
            if n.kind is NodeKind.CELL:
                assert n.module is not None

    def test_fence_capacity_sufficient(self):
        spec = small_spec(num_fences=2, fence_level=1, num_cells=600)
        d = make_benchmark(spec)
        for region in d.regions:
            demand = sum(
                d.nodes[i].area
                for i in range(len(d.nodes))
                if d.nodes[i].region == region.index
            )
            assert demand <= region.area + 1e-6


class TestSuite:
    def test_suite_names(self):
        assert sorted(SUITE) == ["rh01", "rh02", "rh03", "rh04", "rh05", "rh06"]

    def test_make_suite_design_small(self):
        d = make_suite_design("rh01")
        assert d.name == "rh01"
        assert d.validate() == []
