"""Tests for macro legalization, Tetris, Abacus and the legality audit."""

import numpy as np
import pytest

from repro.db import Design, Node, NodeKind, Region, Row
from repro.geometry import Rect
from repro.gp import GlobalPlacer, GPConfig
from repro.legal import (
    Legalizer,
    abacus_refine,
    check_legal,
    legalize_macros,
    tetris_legalize,
)


def grid_design(n_cells=30, n_rows=10, sites=80, seed=0, util_pad=1.0):
    rng = np.random.default_rng(seed)
    d = Design("t")
    for r in range(n_rows):
        d.add_row(Row(y=float(r), height=1.0, site_width=0.25, x_min=0.0, num_sites=sites))
    for i in range(n_cells):
        w = 0.25 * int(rng.integers(2, 8))
        d.add_node(
            Node(
                f"c{i}", w, 1.0,
                x=float(rng.uniform(0, sites * 0.25 - w)),
                y=float(rng.uniform(0, n_rows - 1)),
            )
        )
    return d


class TestMacroLegal:
    def test_overlapping_macros_separated(self):
        d = grid_design(n_cells=0)
        d.add_node(Node("m1", 4.0, 3.0, kind=NodeKind.MACRO, x=5.0, y=4.0))
        d.add_node(Node("m2", 4.0, 3.0, kind=NodeKind.MACRO, x=6.0, y=4.5))
        legalize_macros(d)
        m1, m2 = d.node("m1").rect, d.node("m2").rect
        assert not m1.intersects(m2)

    def test_macro_clamped_into_core(self):
        d = grid_design(n_cells=0)
        d.add_node(Node("m1", 4.0, 3.0, kind=NodeKind.MACRO, x=18.0, y=9.0))
        legalize_macros(d)
        assert d.core.contains_rect(d.node("m1").rect)

    def test_avoids_fixed(self):
        d = grid_design(n_cells=0)
        d.add_node(Node("blk", 6.0, 4.0, kind=NodeKind.FIXED, x=5.0, y=3.0))
        d.add_node(Node("m1", 4.0, 3.0, kind=NodeKind.MACRO, x=6.0, y=3.5))
        legalize_macros(d)
        assert not d.node("m1").rect.intersects(d.node("blk").rect)

    def test_avoids_foreign_fence(self):
        d = grid_design(n_cells=0)
        d.add_region(Region("f", rects=[Rect(4.0, 2.0, 14.0, 8.0)]))
        d.add_node(Node("m1", 4.0, 3.0, kind=NodeKind.MACRO, x=7.0, y=4.0))
        legalize_macros(d)
        assert d.node("m1").rect.overlap_area(Rect(4.0, 2.0, 14.0, 8.0)) == 0.0

    def test_grid_alignment(self):
        d = grid_design(n_cells=0)
        d.add_node(Node("m1", 4.0, 3.0, kind=NodeKind.MACRO, x=5.13, y=4.7))
        legalize_macros(d)
        m = d.node("m1")
        assert abs(m.y - round(m.y)) < 1e-9
        phase = m.x / 0.25
        assert abs(phase - round(phase)) < 1e-9

    def test_channel_clearance(self):
        d = grid_design(n_cells=0)
        d.add_node(Node("m1", 4.0, 3.0, kind=NodeKind.MACRO, x=5.0, y=4.0))
        d.add_node(Node("m2", 4.0, 3.0, kind=NodeKind.MACRO, x=5.5, y=4.0))
        legalize_macros(d, channel=1.0)
        m1, m2 = d.node("m1").rect, d.node("m2").rect
        assert not m1.inflated(0.99).intersects(m2)


class TestTetris:
    def test_all_cells_row_aligned(self):
        d = grid_design()
        tetris_legalize(d)
        for n in d.nodes:
            if n.kind is NodeKind.CELL:
                assert n.y == pytest.approx(round(n.y))

    def test_no_overlaps_after(self):
        d = grid_design(n_cells=60, seed=2)
        tetris_legalize(d)
        assert check_legal(d).ok

    def test_respects_fence_domains(self):
        d = grid_design(n_cells=10, seed=3)
        region = d.add_region(Region("f", rects=[Rect(0.0, 0.0, 20.0, 3.0)]))
        for i in range(5):
            d.nodes[i].region = region.index
        tetris_legalize(d)
        for i in range(5):
            assert region.contains_rect(d.nodes[i].rect)
        for i in range(5, 10):
            assert d.nodes[i].rect.overlap_area(region.rects[0]) == pytest.approx(0.0)

    def test_capacity_exhaustion_raises(self):
        d = grid_design(n_cells=0, n_rows=1, sites=8)  # 2.0 wide row
        for i in range(6):
            d.add_node(Node(f"w{i}", 0.5, 1.0, x=0.0, y=0.0))
        with pytest.raises(RuntimeError):
            tetris_legalize(d)

    def test_no_subrows_for_region_raises(self):
        d = grid_design(n_cells=1)
        d.add_region(Region("far", rects=[Rect(0, 20, 1, 21)]))  # outside rows
        d.nodes[0].region = 0
        with pytest.raises(RuntimeError):
            tetris_legalize(d)


class TestAbacus:
    def test_moves_cells_toward_targets(self):
        d = grid_design(n_cells=12, seed=4)
        desired = {n.index: n.x for n in d.nodes if n.is_movable}
        sm = tetris_legalize(d)
        disp_before = sum(abs(n.x - desired[n.index]) for n in d.nodes if n.is_movable)
        abacus_refine(d, sm, desired)
        disp_after = sum(abs(n.x - desired[n.index]) for n in d.nodes if n.is_movable)
        assert disp_after <= disp_before + 1e-9
        assert check_legal(d).ok

    def test_keeps_subrow_bounds(self):
        d = grid_design(n_cells=40, seed=5)
        sm = tetris_legalize(d)
        abacus_refine(d, sm, {n.index: 0.0 for n in d.nodes})  # all pull left
        for sr in sm.subrows:
            for i in sr.cells:
                node = d.nodes[i]
                assert node.x >= sr.x_min - 1e-9
                assert node.x + node.placed_width <= sr.x_max + 1e-9
        assert check_legal(d).ok


class TestLegalizerEndToEnd:
    def test_after_gp_is_legal(self):
        d = grid_design(n_cells=80, n_rows=12, sites=100, seed=6)
        # random netlist so GP has something to chew
        from repro.db import Net, Pin

        rng = np.random.default_rng(0)
        for j in range(40):
            k = int(rng.integers(2, 5))
            members = rng.choice(80, size=k, replace=False)
            d.add_net(Net(f"n{j}", pins=[Pin(node=int(m)) for m in members]))
        GlobalPlacer(GPConfig(clustering=False, routability=False, max_outer_iterations=12)).place(d)
        res = Legalizer().legalize(d)
        assert res.ok, res.report.summary()
        assert res.total_displacement >= 0

    def test_check_legal_flags_overlap(self):
        d = grid_design(n_cells=0)
        d.add_node(Node("a", 1.0, 1.0, x=0.0, y=0.0))
        d.add_node(Node("b", 1.0, 1.0, x=0.5, y=0.0))
        rep = check_legal(d)
        assert not rep.ok
        assert any("overlap" in v for v in rep.violations)

    def test_check_legal_flags_outside_core(self):
        d = grid_design(n_cells=0)
        d.add_node(Node("a", 1.0, 1.0, x=-5.0, y=0.0))
        rep = check_legal(d)
        assert any("outside core" in v for v in rep.violations)

    def test_check_legal_flags_misalignment(self):
        d = grid_design(n_cells=0)
        d.add_node(Node("a", 1.0, 1.0, x=0.1, y=0.0))
        rep = check_legal(d)
        assert any("site-aligned" in v for v in rep.violations)

    def test_check_legal_flags_fence_violation(self):
        d = grid_design(n_cells=0)
        region = d.add_region(Region("f", rects=[Rect(0.0, 0.0, 5.0, 2.0)]))
        d.add_node(Node("a", 1.0, 1.0, x=10.0, y=0.0, region=region.index))
        rep = check_legal(d)
        assert any("outside fence" in v for v in rep.violations)

    def test_check_legal_flags_fence_intrusion(self):
        d = grid_design(n_cells=0)
        d.add_region(Region("f", rects=[Rect(0.0, 0.0, 5.0, 2.0)]))
        d.add_node(Node("a", 1.0, 1.0, x=1.0, y=1.0))  # unfenced inside fence
        rep = check_legal(d)
        assert any("intrudes" in v for v in rep.violations)
