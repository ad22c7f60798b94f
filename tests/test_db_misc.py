"""Tests for db odds and ends: stats, pins, rows, regions, node kinds."""

import pytest

from repro.benchgen import BenchmarkSpec, make_benchmark
from repro.db import (
    Design,
    Net,
    Node,
    NodeKind,
    Pin,
    PinDirection,
    Region,
    Row,
    compute_stats,
)
from repro.geometry import Orientation, Point, Rect


class TestNodeKind:
    @pytest.mark.parametrize("kind", [NodeKind.CELL, NodeKind.MACRO])
    def test_movable_kinds(self, kind):
        assert kind.is_movable and not kind.is_fixed

    @pytest.mark.parametrize(
        "kind", [NodeKind.FIXED, NodeKind.TERMINAL, NodeKind.TERMINAL_NI]
    )
    def test_fixed_kinds(self, kind):
        assert kind.is_fixed and not kind.is_movable

    def test_terminal_ni_does_not_block(self):
        assert not NodeKind.TERMINAL_NI.blocks_placement
        assert NodeKind.TERMINAL.blocks_placement


class TestNodeGeometry:
    def test_placed_dims_rotate(self):
        n = Node("a", 4, 2, orientation=Orientation.E)
        assert (n.placed_width, n.placed_height) == (2, 4)

    def test_rect_and_centres(self):
        n = Node("a", 4, 2, x=1, y=1)
        assert n.rect == Rect(1, 1, 5, 3)
        assert (n.cx, n.cy) == (3, 2)

    def test_move_center_to(self):
        n = Node("a", 4, 2)
        n.move_center_to(10, 10)
        assert (n.x, n.y) == (8, 9)

    def test_is_macro(self):
        assert Node("m", 1, 1, kind=NodeKind.MACRO).is_macro
        assert Node("f", 1, 1, kind=NodeKind.FIXED).is_macro
        assert not Node("c", 1, 1).is_macro


class TestPinDirection:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("I", PinDirection.INPUT),
            ("input", PinDirection.INPUT),
            ("O:", PinDirection.OUTPUT),
            ("B", PinDirection.BIDIR),
            ("InOut", PinDirection.BIDIR),
        ],
    )
    def test_parse(self, text, expected):
        assert PinDirection.from_string(text) is expected

    def test_bad_raises(self):
        with pytest.raises(ValueError):
            PinDirection.from_string("Z")


class TestRow:
    def test_extent(self):
        r = Row(y=2, height=1, site_width=0.5, x_min=1.0, num_sites=10)
        assert r.x_max == 6.0
        assert r.rect == Rect(1.0, 2, 6.0, 3)

    def test_snap_x(self):
        r = Row(y=0, height=1, site_width=0.5, x_min=1.0, num_sites=10)
        assert r.snap_x(2.3) == pytest.approx(2.5)
        assert r.snap_x(-5) == 1.0
        assert r.snap_x(100) == 6.0


class TestRegion:
    def region(self):
        return Region("r", rects=[Rect(0, 0, 4, 4), Rect(10, 0, 14, 4)])

    def test_area_and_bbox(self):
        r = self.region()
        assert r.area == 32
        assert r.bounding_box == Rect(0, 0, 14, 4)

    def test_contains_point(self):
        r = self.region()
        assert r.contains_point(Point(2, 2))
        assert not r.contains_point(Point(7, 2))

    def test_contains_rect_single_member(self):
        r = self.region()
        assert r.contains_rect(Rect(11, 1, 13, 3))
        assert not r.contains_rect(Rect(3, 0, 11, 4))  # straddles the gap

    def test_clamp_point(self):
        r = self.region()
        p = r.clamp_point(Point(7, 2))
        assert p.x in (4, 10)

    def test_clamp_rect_origin(self):
        r = self.region()
        origin = r.clamp_rect_origin(Rect(6, 1, 8, 3))
        assert origin.x in (2.0, 10.0)

    def test_empty_region_raises(self):
        with pytest.raises(ValueError):
            Region("e").bounding_box


class TestStats:
    def test_stats_fields(self):
        d = make_benchmark(
            BenchmarkSpec(
                name="s", num_cells=100, num_macros=2, num_fixed_macros=1,
                num_terminals=4, num_fences=1, fence_level=1, seed=8,
            )
        )
        stats = compute_stats(d)
        assert stats.num_cells == 100
        assert stats.num_macros == 2
        assert stats.num_regions == 1
        assert stats.avg_net_degree >= 2
        assert 0 < stats.utilization < 1.2
        row = stats.as_row()
        assert row["design"] == "s"
        assert row["#fences"] == 1

    def test_stats_empty_design(self):
        d = Design("e", core=Rect(0, 0, 10, 10))
        stats = compute_stats(d)
        assert stats.num_cells == 0
        assert stats.avg_net_degree == 0.0
        assert stats.max_net_degree == 0


class TestPinArraysEdge:
    def test_empty_nets_in_csr(self):
        d = Design("t", core=Rect(0, 0, 10, 10))
        d.add_node(Node("a", 1, 1))
        d.add_node(Node("b", 1, 1))
        d.add_net(Net("n1", pins=[Pin(node=0), Pin(node=1)]))
        arrays = d.pin_arrays()
        assert arrays.num_nets == 1
        px, py = arrays.pin_positions(*d.pull_centers())
        assert len(px) == 2
