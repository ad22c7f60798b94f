"""Tests for repro.resilience.validate: rules, sanitize repairs, flow gate."""

import math

import pytest

from repro.benchgen import BenchmarkSpec, make_benchmark
from repro.db import Design, Net, Node, NodeKind, Pin, Region, Row
from repro.flow import FlowConfig, NTUplace4H
from repro.geometry import Rect
from repro.resilience import DesignValidationError, validate_design


def rowed_design(rows=8, sites=40, site_w=1.0):
    d = Design("v")
    for r in range(rows):
        d.add_row(
            Row(y=float(r), height=1.0, site_width=site_w, x_min=0.0,
                num_sites=sites)
        )
    return d


def add_net(d, *nodes, name=None):
    net = Net(name=name or f"n{d.num_nets}")
    for n in nodes:
        net.pins.append(Pin(node=n.index, dx=0.0, dy=0.0))
    return d.add_net(net)


class TestRules:
    def test_clean_design(self):
        d = rowed_design()
        a = d.add_node(Node("a", 2, 1, x=1, y=1))
        b = d.add_node(Node("b", 2, 1, x=5, y=3))
        add_net(d, a, b)
        report = validate_design(d)
        assert report.ok and report.clean
        assert report.summary() == "design is clean"

    def test_no_core_is_fatal(self):
        d = Design("bare")
        d.add_node(Node("a", 1, 1))
        report = validate_design(d)
        assert not report.ok
        assert report.fatal[0].code == "design.no_core"

    def test_zero_area_cell_repaired(self):
        d = rowed_design()
        d.add_node(Node("z", 0.0, 1.0, x=1, y=1))
        report = validate_design(d)
        assert report.ok  # warning only
        assert report.issues[0].code == "node.zero_area"
        report = validate_design(d, sanitize=True)
        assert report.issues[0].fixed
        assert d.node("z").width >= d.site_width

    def test_negative_size_is_fatal(self):
        d = rowed_design()
        d.add_node(Node("neg", -2.0, 1.0))
        report = validate_design(d, sanitize=True)
        assert not report.ok
        assert report.fatal[0].code == "node.negative_size"

    def test_nonfinite_position_repaired(self):
        d = rowed_design()
        d.add_node(Node("lost", 2.0, 1.0, x=float("nan"), y=3.0))
        assert not validate_design(d).ok
        report = validate_design(d, sanitize=True)
        assert report.ok
        node = d.node("lost")
        assert math.isfinite(node.x) and math.isfinite(node.y)

    def test_nonfinite_size_stays_fatal(self):
        d = rowed_design()
        d.add_node(Node("bad", float("inf"), 1.0))
        assert not validate_design(d, sanitize=True).ok

    def test_movable_larger_than_core_is_fatal(self):
        d = rowed_design(rows=4, sites=10)
        d.add_node(Node("huge", 100.0, 100.0, kind=NodeKind.MACRO))
        report = validate_design(d)
        assert not report.ok
        assert report.fatal[0].code == "node.larger_than_core"

    def test_off_chip_terminal_clamped(self):
        d = rowed_design()
        d.add_node(Node("t", 2, 1, x=-500.0, y=-500.0, kind=NodeKind.FIXED))
        report = validate_design(d)
        assert report.ok
        assert report.issues[0].code == "terminal.off_chip"
        validate_design(d, sanitize=True)
        node = d.node("t")
        core = d.core
        assert node.x >= core.xl and node.y >= core.yl

    def test_empty_net_removed(self):
        d = rowed_design()
        a = d.add_node(Node("a", 2, 1, x=1, y=1))
        b = d.add_node(Node("b", 2, 1, x=5, y=3))
        add_net(d, a, b)
        d.add_net(Net(name="hollow"))
        report = validate_design(d, sanitize=True)
        assert report.ok
        assert d.num_nets == 1
        assert d.nets[0].index == 0  # survivors reindexed

    def test_single_pin_net_is_info_only(self):
        d = rowed_design()
        a = d.add_node(Node("a", 2, 1, x=1, y=1))
        add_net(d, a)
        report = validate_design(d)
        assert report.ok
        assert report.issues[0].code == "net.single_pin"
        assert not report.warnings  # info, not warning

    def test_pin_unknown_node_is_fatal(self):
        d = rowed_design()
        d.add_node(Node("a", 2, 1, x=1, y=1))
        net = Net(name="dangling")
        net.pins.append(Pin(node=0, dx=0.0, dy=0.0))
        d.add_net(net)
        net.pins.append(Pin(node=99, dx=0.0, dy=0.0))
        report = validate_design(d)
        assert not report.ok
        assert report.fatal[0].code == "pin.unknown_node"

    def test_pin_outside_node_clamped(self):
        d = rowed_design()
        a = d.add_node(Node("a", 2, 1, x=1, y=1))
        net = add_net(d, a)
        net.pins[0].dx = 50.0
        report = validate_design(d, sanitize=True)
        assert report.ok
        assert net.pins[0].dx == pytest.approx(1.0)  # half the width

    def test_fence_outside_core_clipped(self):
        d = rowed_design()
        region = d.add_region(Region("f", rects=[Rect(-10, -10, 4, 4)]))
        d.add_node(Node("a", 2, 1, x=1, y=1, region=region.index))
        report = validate_design(d, sanitize=True)
        assert report.ok
        assert all(d.core.contains_rect(r) for r in region.rects)

    def test_fence_unsatisfiable_is_fatal(self):
        d = rowed_design()
        region = d.add_region(Region("f", rects=[Rect(-20, -20, -10, -10)]))
        d.add_node(Node("a", 2, 1, x=1, y=1, region=region.index))
        report = validate_design(d)
        assert not report.ok
        assert any(i.code == "fence.unsatisfiable" for i in report.fatal)

    def test_fence_overlap_warned(self):
        d = rowed_design()
        d.add_region(Region("f1", rects=[Rect(0, 0, 5, 5)]))
        d.add_region(Region("f2", rects=[Rect(3, 3, 8, 8)]))
        report = validate_design(d)
        assert report.ok
        assert any(i.code == "fence.overlap" for i in report.warnings)


class TestFlowGate:
    def test_flow_refuses_fatal_design(self):
        d = rowed_design()
        d.add_node(Node("neg", -2.0, 1.0))
        with pytest.raises(DesignValidationError) as exc:
            NTUplace4H(FlowConfig()).run(d, route=False)
        assert exc.value.report.fatal

    def test_flow_sanitizes_and_records_report(self):
        spec = BenchmarkSpec(
            name="v", num_cells=120, num_macros=1, num_terminals=8,
            utilization=0.5, seed=5,
        )
        d = make_benchmark(spec)
        d.add_net(Net(name="hollow"))  # fixable: removed by sanitize
        nets_before = d.num_nets
        cfg = FlowConfig()
        cfg.gp.clustering = False
        cfg.gp.max_outer_iterations = 8
        cfg.gp.inner_iterations = 12
        cfg.run_dp = False
        result = NTUplace4H(cfg).run(d, route=False)
        assert result.validation is not None
        assert result.validation.ok and not result.validation.clean
        assert d.num_nets == nets_before - 1
        assert not result.degraded  # a repaired design is not a degraded run
