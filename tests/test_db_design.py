"""Tests for the design database container."""

import numpy as np
import pytest

from repro.db import Design, Net, Node, NodeKind, Pin, Region, Row
from repro.geometry import Orientation, Rect, transform_offset


def small_design():
    d = Design("t", core=Rect(0, 0, 100, 100))
    a = d.add_node(Node("a", 2, 1, x=10, y=10))
    b = d.add_node(Node("b", 4, 1, x=20, y=20))
    c = d.add_node(Node("c", 6, 6, kind=NodeKind.FIXED, x=50, y=50))
    d.add_net(Net("n1", pins=[Pin(node=a.index, dx=1), Pin(node=b.index, dx=-2)]))
    d.add_net(Net("n2", pins=[Pin(node=b.index), Pin(node=c.index)], weight=2.0))
    return d


class TestConstruction:
    def test_duplicate_node_raises(self):
        d = Design("t")
        d.add_node(Node("a", 1, 1))
        with pytest.raises(ValueError):
            d.add_node(Node("a", 2, 2))

    def test_duplicate_net_raises(self):
        d = small_design()
        with pytest.raises(ValueError):
            d.add_net(Net("n1", pins=[Pin(node=0), Pin(node=1)]))

    def test_net_pin_validates_node(self):
        d = Design("t")
        d.add_node(Node("a", 1, 1))
        with pytest.raises(ValueError):
            d.add_net(Net("bad", pins=[Pin(node=5)]))

    def test_node_lookup(self):
        d = small_design()
        assert d.node("b").width == 4
        assert d.has_node("a") and not d.has_node("zz")

    def test_counts(self):
        d = small_design()
        assert d.num_nodes == 3
        assert d.num_nets == 2
        assert d.num_pins == 4

    def test_node_pins_backref(self):
        d = small_design()
        assert len(d.node("b").pins) == 2

    def test_connect_appends_pin(self):
        d = small_design()
        net = d.net("n1")
        d.connect(net, d.node("c"), dx=0.5)
        assert net.degree == 3
        assert d.num_pins == 5

    def test_module_assignment_registers_in_hierarchy(self):
        d = Design("t", core=Rect(0, 0, 10, 10))
        n = d.add_node(Node("a", 1, 1, module="top/u1"))
        assert n.index in d.hierarchy.get("top/u1").cells


class TestGeometryViews:
    def test_core_from_rows(self):
        d = Design("t")
        d.add_row(Row(y=0, height=1, site_width=0.5, x_min=0, num_sites=20))
        d.add_row(Row(y=1, height=1, site_width=0.5, x_min=0, num_sites=20))
        core = d.core
        assert core.xh == 10 and core.yh == 2

    def test_core_without_rows_raises(self):
        with pytest.raises(ValueError):
            Design("t").core

    def test_pull_push_centers(self):
        d = small_design()
        cx, cy = d.pull_centers()
        assert cx[0] == pytest.approx(11.0)  # 10 + 2/2
        cx[0] = 30.0
        d.push_centers(cx, cy)
        assert d.node("a").cx == pytest.approx(30.0)
        # fixed node never moves
        cx[2] = 0.0
        d.push_centers(cx, cy)
        assert d.node("c").x == 50

    def test_placed_sizes_follow_orientation(self):
        d = small_design()
        node = d.node("b")
        d.set_orientation(node, Orientation.W)
        w, h = d.placed_sizes()
        assert (w[node.index], h[node.index]) == (1, 4)

    def test_set_orientation_preserves_center(self):
        d = small_design()
        node = d.node("b")
        c0 = (node.cx, node.cy)
        d.set_orientation(node, Orientation.E)
        assert (node.cx, node.cy) == pytest.approx(c0)

    def test_masks(self):
        d = small_design()
        assert d.movable_mask().tolist() == [True, True, False]
        assert d.movable_indices().tolist() == [0, 1]


class TestPinArrays:
    def test_csr_structure(self):
        d = small_design()
        arr = d.pin_arrays()
        assert arr.num_pins == 4
        assert arr.net_ptr.tolist() == [0, 2, 4]
        assert arr.net_weight.tolist() == [1.0, 2.0]

    def test_cache_invalidation_on_orientation(self):
        d = small_design()
        a1 = d.pin_arrays()
        assert d.pin_arrays() is a1  # cached
        d.set_orientation(d.node("b"), Orientation.S)
        a2 = d.pin_arrays()
        assert a2 is not a1

    def test_oriented_offsets(self):
        d = small_design()
        d.set_orientation(d.node("a"), Orientation.S)
        arr = d.pin_arrays()
        # pin on node a had dx=1; S negates it
        assert arr.pin_dx[0] == pytest.approx(-1.0)

    @pytest.mark.parametrize("before", list(Orientation))
    @pytest.mark.parametrize("after", list(Orientation))
    def test_reorient_maps_n_frame_offsets(self, before, after):
        """Offsets follow the new orientation alone, not the one left."""
        d = Design("t", core=Rect(0, 0, 100, 100))
        m = d.add_node(Node("m", 6, 4, kind=NodeKind.MACRO, x=40, y=40))
        c = d.add_node(Node("c", 1, 1, x=10, y=10))
        d.add_net(Net("n", pins=[Pin(node=m.index, dx=2.0, dy=-1.5), Pin(node=c.index)]))
        d.set_orientation(m, before)
        d.pin_arrays()
        d.set_orientation(m, after)
        arr = d.pin_arrays()
        assert (arr.pin_dx[0], arr.pin_dy[0]) == transform_offset(2.0, -1.5, after)

    def test_pin_positions(self):
        d = small_design()
        arr = d.pin_arrays()
        cx, cy = d.pull_centers()
        px, py = arr.pin_positions(cx, cy)
        assert px[0] == pytest.approx(d.node("a").cx + 1)


class TestMetrics:
    def test_hpwl_matches_manual(self):
        d = small_design()
        # n1: pins at (11+1, 10.5) and (22-2, 20.5) -> dx 8, dy 10 -> 18
        # n2: pins at (22, 20.5) and (53, 53) -> (31 + 32.5) * w2 = 127
        assert d.hpwl() == pytest.approx(18 + 2 * 63.5)

    def test_hpwl_empty(self):
        d = Design("t", core=Rect(0, 0, 1, 1))
        assert d.hpwl() == 0.0

    def test_movable_area(self):
        d = small_design()
        assert d.movable_area() == pytest.approx(2 + 4)

    def test_utilization(self):
        d = small_design()
        free = 100 * 100 - 36
        assert d.utilization() == pytest.approx(6 / free)

    def test_validate_clean(self):
        assert small_design().validate() == []

    def test_validate_flags_empty_net(self):
        d = small_design()
        d.nets.append(Net("empty", index=2))
        assert any("no pins" in p for p in d.validate())


class TestNodeColumns:
    def _design(self):
        d = Design("cc", core=Rect(0, 0, 20, 20))
        a = d.add_node(Node("a", 2, 2, x=1, y=1))
        b = d.add_node(Node("b", 2, 4, x=5, y=5))
        return d, a, b

    def test_pull_centers_returns_copies(self):
        d, a, _ = self._design()
        cx, cy = d.pull_centers()
        cx[0] = 123.0
        cx2, _ = d.pull_centers()
        assert cx2[0] == a.cx != 123.0

    def test_direct_attribute_write_is_visible(self):
        d, a, _ = self._design()
        d.pull_centers()
        a.x = 10.0
        assert d.pull_centers()[0][0] == a.cx == 11.0

    def test_move_center_to_is_visible(self):
        d, a, _ = self._design()
        d.pull_centers()
        a.move_center_to(7.0, 8.0)
        cx, cy = d.pull_centers()
        assert (cx[0], cy[0]) == (7.0, 8.0)

    def test_push_centers_is_visible_to_nodes(self):
        d, a, b = self._design()
        d.pull_centers()
        d.push_centers(np.array([3.0, 9.0]), np.array([3.0, 9.0]))
        np.testing.assert_allclose(d.pull_centers()[0], [3.0, 9.0])
        assert (a.cx, b.cy) == (3.0, 9.0)

    def test_orientation_change_reaches_centers_and_pins(self):
        d, _, b = self._design()
        d.add_net(Net("n", pins=[Pin(node=b.index, dx=1.0, dy=2.0)]))
        d.pull_centers()
        arrays = d.pin_arrays()
        d.set_orientation(b, Orientation.W)
        assert d.pin_arrays() is not arrays  # offsets re-oriented
        cx, cy = d.pull_centers()
        assert (cx[1], cy[1]) == (b.cx, b.cy)

    def test_detached_row_survives_add_node(self):
        d = Design("grow", core=Rect(0, 0, 1000, 1000))
        d.add_region(Region("f", [Rect(0, 0, 10, 10)]))
        # Enough nodes to grow the table past its first capacity.
        nodes = [
            Node(f"n{i}", i + 0.5, 2, NodeKind.MACRO, 3 * i, i + 0.25,
                 Orientation.E, 0 if i % 2 else None)
            for i in range(200)
        ]
        for node in nodes:
            d.add_node(node)
        for i, node in enumerate(nodes):
            assert (node.x, node.y, node.width, node.height) == (3 * i, i + 0.25, i + 0.5, 2)
            assert (node.orientation, node.kind) == (Orientation.E, NodeKind.MACRO)
            assert node.region == (0 if i % 2 else None)
        node = nodes[7]
        node.x, node.width, node.region = 1.5, 9.0, None
        node.orientation, node.kind = Orientation.N, NodeKind.CELL
        assert d.pull_centers()[0][7] == 1.5 + 9.0 / 2.0
        assert d.region_ids()[7] == -1
        assert not d.macro_mask()[7] and d.macro_mask()[8]
        assert d.placed_sizes()[0][7] == 9.0
        assert type(nodes[3].x) is float  # given as the int 9
        assert type(node.width) is float
        assert type(nodes[1].region) is int
        assert type(node.orientation) is Orientation and type(node.kind) is NodeKind

    def test_net_weight_write_reaches_hpwl(self):
        d, a, b = self._design()
        net = d.add_net(Net("n", pins=[Pin(node=a.index), Pin(node=b.index)]))
        assert d.hpwl() == 9.0  # centres (2, 2) and (6, 7)
        net.weight = 3.0
        assert d.hpwl() == 27.0

    def test_sanitize_pin_clamp_rebuilds_pin_arrays(self):
        from repro.resilience import validate_design

        d, a, b = self._design()
        d.add_net(Net("n", pins=[Pin(node=a.index, dx=5.0), Pin(node=b.index)]))
        stale = d.pin_arrays()
        validate_design(d, sanitize=True)
        fresh = d.pin_arrays()
        assert fresh is not stale
        assert fresh.pin_dx[0] == 1.0  # clamped to a's half width
