"""Tests for GP components: initial placement, inflation, orientation,
clustering."""

import numpy as np
import pytest

from repro.benchgen import BenchmarkSpec, make_benchmark
from repro.db import Design, Net, Node, NodeKind, Pin
from repro.geometry import Orientation, Rect
from repro.gp import (
    CongestionInflator,
    cluster_design,
    initial_placement,
    optimize_macro_orientations,
)


def bench(seed=11, **kw):
    spec = BenchmarkSpec(
        name="t", num_cells=200, num_macros=2, num_fixed_macros=1,
        num_terminals=8, seed=seed, **kw,
    )
    return make_benchmark(spec)


class TestInitialPlacement:
    def test_all_inside_core(self):
        d = bench()
        initial_placement(d)
        core = d.core
        for n in d.nodes:
            if n.is_movable:
                assert core.contains_rect(n.rect.inflated(-1e-9))

    def test_fenced_cells_start_in_fence(self):
        d = bench(num_fences=1, fence_level=1)
        initial_placement(d)
        for n in d.nodes:
            if n.region is not None and n.kind is NodeKind.CELL:
                region = d.regions[n.region]
                assert region.contains_point(n.rect.center)

    def test_deterministic(self):
        d1, d2 = bench(), bench()
        initial_placement(d1, seed=3)
        initial_placement(d2, seed=3)
        assert all(
            a.x == b.x and a.y == b.y for a, b in zip(d1.nodes, d2.nodes)
        )

    def test_macros_spread_apart(self):
        d = bench()
        initial_placement(d)
        macros = [n for n in d.nodes if n.kind is NodeKind.MACRO]
        assert len(macros) == 2
        c0, c1 = macros[0].rect.center, macros[1].rect.center
        assert (c0 - c1).norm() > 1.0


class TestInflation:
    def test_requires_routing(self):
        d = Design("t", core=Rect(0, 0, 10, 10))
        d.add_node(Node("a", 1, 1))
        with pytest.raises(ValueError):
            CongestionInflator(d)

    def test_factors_start_at_one(self):
        d = bench()
        inf = CongestionInflator(d)
        assert (inf.factors == 1.0).all()

    def test_update_monotone_ratchet(self):
        d = bench(cap_factor=0.4)  # starved -> congestion
        initial_placement(d)
        inf = CongestionInflator(d)
        arrays = d.pin_arrays()
        cx, cy = d.pull_centers()
        a1 = inf.update(arrays, cx, cy, d.movable_mask()).copy()
        f1 = inf.factors.copy()
        inf.update(arrays, cx, cy, d.movable_mask())
        assert (inf.factors >= f1 - 1e-12).all()

    def test_total_budget_respected(self):
        d = bench(cap_factor=0.05)  # absurdly starved
        initial_placement(d)
        inf = CongestionInflator(d, total_max=1.2)
        arrays = d.pin_arrays()
        cx, cy = d.pull_centers()
        areas = inf.update(arrays, cx, cy, d.movable_mask())
        mask = d.movable_mask()
        assert areas[mask].sum() <= 1.2 * inf.base_areas[mask].sum() + 1e-6

    def test_per_cell_cap(self):
        d = bench(cap_factor=0.05)
        initial_placement(d)
        inf = CongestionInflator(d, max_inflation=2.0, total_max=100.0)
        arrays = d.pin_arrays()
        cx, cy = d.pull_centers()
        inf.update(arrays, cx, cy, d.movable_mask())
        assert (inf.factors <= 2.0 + 1e-9).all()

    def test_uncongested_no_inflation(self):
        d = bench(cap_factor=50.0)  # practically infinite supply
        # a *spread* placement: clumped initial placements are locally
        # congested no matter the capacity
        rng = np.random.default_rng(1)
        core = d.core
        for n in d.nodes:
            if n.is_movable:
                n.move_center_to(
                    float(rng.uniform(core.xl + 2, core.xh - 2)),
                    float(rng.uniform(core.yl + 2, core.yh - 2)),
                )
        inf = CongestionInflator(d, threshold=0.8)
        arrays = d.pin_arrays()
        cx, cy = d.pull_centers()
        inf.update(arrays, cx, cy, d.movable_mask())
        assert inf.mean_inflation == pytest.approx(1.0, abs=0.05)

    def test_congestion_map_shape(self):
        d = bench()
        initial_placement(d)
        inf = CongestionInflator(d)
        cmap = inf.congestion_map(d.pin_arrays(), *d.pull_centers())
        grid = d.routing.grid
        assert cmap.shape == (grid.nx, grid.ny)
        assert (cmap >= 0).all()


class TestOrientation:
    def build(self):
        d = Design("t", core=Rect(0, 0, 40, 40))
        m = d.add_node(Node("mac", 10, 4, kind=NodeKind.MACRO, x=10, y=10))
        t = d.add_node(Node("pad", 0, 0, kind=NodeKind.TERMINAL_NI, x=15, y=40))
        # pin on the macro's right edge; terminal above the macro centre:
        # rotating W moves the pin toward the terminal
        d.add_net(Net("n", pins=[Pin(node=m.index, dx=5.0, dy=0.0), Pin(node=t.index)]))
        return d, m

    def test_rotation_improves(self):
        d, m = self.build()
        before = d.hpwl()
        changed = optimize_macro_orientations(d)
        assert changed == 1
        assert d.hpwl() < before

    def test_respects_rotation_flag(self):
        d, m = self.build()
        changed = optimize_macro_orientations(d, allow_rotation=False, allow_flip=False)
        assert changed == 0
        assert m.orientation is Orientation.N

    def test_idempotent(self):
        d, m = self.build()
        optimize_macro_orientations(d)
        assert optimize_macro_orientations(d) == 0

    def test_ignores_cells(self):
        d = Design("t", core=Rect(0, 0, 10, 10))
        d.add_node(Node("c", 2, 1))
        assert optimize_macro_orientations(d) == 0


class TestClustering:
    def test_reduction_ratio(self):
        d = bench()
        cd = cluster_design(d, ratio=0.4)
        n_cells = sum(1 for n in d.nodes if n.kind is NodeKind.CELL)
        n_coarse = sum(1 for n in cd.coarse.nodes if n.kind is NodeKind.CELL)
        assert n_coarse <= max(1, int(n_cells * 0.55))  # near target

    def test_area_preserved(self):
        d = bench()
        cd = cluster_design(d)
        orig = sum(n.area for n in d.nodes if n.kind is NodeKind.CELL)
        coarse = sum(n.area for n in cd.coarse.nodes if n.kind is NodeKind.CELL)
        assert coarse == pytest.approx(orig, rel=1e-9)

    def test_non_cells_carried_over(self):
        d = bench()
        cd = cluster_design(d)
        for kind in (NodeKind.MACRO, NodeKind.FIXED, NodeKind.TERMINAL_NI):
            assert sum(1 for n in d.nodes if n.kind is kind) == sum(
                1 for n in cd.coarse.nodes if n.kind is kind
            )

    def test_hierarchy_respected(self):
        d = bench()
        cd = cluster_design(d)
        for node in cd.coarse.nodes:
            if node.kind is not NodeKind.CELL or not node.name.startswith("clu_"):
                continue
            members = np.flatnonzero(cd.assignment == node.index)
            modules = {d.nodes[int(m)].module for m in members}
            assert len(modules) == 1

    def test_no_empty_or_degree1_nets(self):
        d = bench()
        cd = cluster_design(d)
        assert all(len({p.node for p in net.pins}) >= 2 for net in cd.coarse.nets)

    def test_transfer_positions(self):
        d = bench()
        cd = cluster_design(d)
        rng = np.random.default_rng(0)
        for n in cd.coarse.nodes:
            if n.is_movable:
                n.move_center_to(float(rng.uniform(5, 30)), float(rng.uniform(5, 30)))
        cd.transfer_positions()
        for node in d.nodes:
            if node.is_movable:
                coarse = cd.coarse.nodes[int(cd.assignment[node.index])]
                assert node.cx == pytest.approx(coarse.cx)
                assert node.cy == pytest.approx(coarse.cy)

    def test_coarse_validates(self):
        d = bench()
        cd = cluster_design(d)
        assert cd.coarse.validate() == []
