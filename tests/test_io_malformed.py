"""Malformed-input and degenerate-design tests.

Every corrupted Bookshelf file must fail with a ``ValueError`` naming
the file and line number; degenerate but well-formed designs (empty,
all-macro, fully fenced) must flow end to end without an unhandled
exception.
"""

import math
import os
import re

import pytest

from repro.benchgen import BenchmarkSpec, make_benchmark
from repro.db import Design, Net, Node, NodeKind, Pin, Region, Row
from repro.dp import DPConfig
from repro.flow import FlowConfig, FlowResult, NTUplace4H
from repro.geometry import Rect
from repro.io import read_bookshelf, write_bookshelf
from repro.resilience import validate_design


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    d = make_benchmark(
        BenchmarkSpec(
            name="m", num_cells=40, num_macros=1, num_fences=1,
            num_terminals=6, seed=11,
        )
    )
    out = str(tmp_path_factory.mktemp("bookshelf"))
    write_bookshelf(d, out)
    return out


def corrupted_copy(bench_dir, tmp_path, ext, mutate):
    """Copy the benchmark, run ``mutate`` over one file's lines."""
    import shutil

    dst = str(tmp_path / "bad")
    shutil.copytree(bench_dir, dst)
    path = os.path.join(dst, f"m.{ext}")
    lines = open(path).read().splitlines()
    open(path, "w").write("\n".join(mutate(lines)) + "\n")
    return os.path.join(dst, "m.aux")


def _truncate_node_line(lines):
    # Chop a node line down to its name, as a truncated download would.
    for i, line in enumerate(lines):
        if re.match(r"\s+c\d+ ", line):
            lines[i] = line.split()[0]
            return lines
    raise AssertionError("no node line found")


def _corrupt_node_float(lines):
    for i, line in enumerate(lines):
        if re.match(r"\s+c\d+ ", line):
            parts = line.split()
            parts[1] = "wide"
            lines[i] = " ".join(parts)
            return lines
    raise AssertionError("no node line found")


def _unknown_pin_node(lines):
    for i, line in enumerate(lines):
        if re.match(r"\s+c\d+ [IOB] :", line):
            lines[i] = line.replace(line.split()[0], "ghost", 1)
            return lines
    raise AssertionError("no pin line found")


def _drop_first_netdegree(lines):
    for i, line in enumerate(lines):
        if line.startswith("NetDegree"):
            del lines[i]
            return lines
    raise AssertionError("no NetDegree line found")


def _corrupt_pin_offset(lines):
    for i, line in enumerate(lines):
        if re.match(r"\s+c\d+ [IOB] :", line):
            parts = line.split()
            parts[3] = "left"
            lines[i] = " ".join(parts)
            return lines
    raise AssertionError("no pin line found")


def _corrupt_pl_float(lines):
    for i, line in enumerate(lines):
        if re.match(r"c\d+ ", line):
            parts = line.split()
            parts[1] = "here"
            lines[i] = " ".join(parts)
            return lines
    raise AssertionError("no placement line found")


def _unknown_pl_node(lines):
    for i, line in enumerate(lines):
        if re.match(r"c\d+ ", line):
            lines[i] = "ghost " + line.split(" ", 1)[1]
            return lines
    raise AssertionError("no placement line found")


def _drop_row_coordinate(lines):
    for i, line in enumerate(lines):
        if line.strip().startswith("Coordinate"):
            del lines[i]
            return lines
    raise AssertionError("no Coordinate line found")


class TestMalformedFiles:
    @pytest.mark.parametrize(
        "ext,mutate,match",
        [
            ("nodes", _truncate_node_line, r"m\.nodes:\d+: expected"),
            ("nodes", _corrupt_node_float, r"m\.nodes:\d+: .*wide"),
            ("nets", _unknown_pin_node, r"m\.nets:\d+: pin on unknown node"),
            ("nets", _drop_first_netdegree, r"m\.nets:\d+: pin line before"),
            ("nets", _corrupt_pin_offset, r"m\.nets:\d+: .*left"),
            ("pl", _corrupt_pl_float, r"m\.pl:\d+: .*here"),
            ("pl", _unknown_pl_node, r"m\.pl:\d+: unknown node"),
            ("scl", _drop_row_coordinate, r"m\.scl:\d+: CoreRow missing"),
        ],
        ids=[
            "nodes-truncated", "nodes-bad-float", "nets-unknown-node",
            "nets-pin-before-degree", "nets-bad-offset", "pl-bad-float",
            "pl-unknown-node", "scl-missing-key",
        ],
    )
    def test_error_names_file_and_line(self, bench_dir, tmp_path, ext, mutate, match):
        aux = corrupted_copy(bench_dir, tmp_path, ext, mutate)
        with pytest.raises(ValueError, match=match):
            read_bookshelf(aux)

    def test_clean_roundtrip_still_reads(self, bench_dir):
        design = read_bookshelf(os.path.join(bench_dir, "m.aux"))
        assert design.num_nodes > 0 and design.num_nets > 0


def degenerate_flow_cfg() -> FlowConfig:
    cfg = FlowConfig()
    cfg.gp.clustering = False
    cfg.gp.max_outer_iterations = 8
    cfg.gp.inner_iterations = 10
    cfg.dp = DPConfig(rounds=1, congestion_aware=False)
    return cfg


class TestDegenerateDesigns:
    """Well-formed but extreme designs must never crash the flow."""

    def run_flow(self, design) -> FlowResult:
        result = NTUplace4H(degenerate_flow_cfg()).run(design, route=False)
        assert isinstance(result, FlowResult)
        for entry in result.degradation:
            assert "stage" in entry and "reason" in entry
        return result

    def test_empty_design(self):
        d = Design("empty")
        for r in range(4):
            d.add_row(Row(y=float(r), height=1.0, site_width=1.0, x_min=0.0,
                          num_sites=20))
        result = self.run_flow(d)
        assert result.hpwl_final == 0.0

    def test_no_movable_cells(self):
        d = Design("frozen")
        for r in range(4):
            d.add_row(Row(y=float(r), height=1.0, site_width=1.0, x_min=0.0,
                          num_sites=20))
        a = d.add_node(Node("t0", 2, 1, x=1, y=1, kind=NodeKind.FIXED))
        b = d.add_node(Node("t1", 2, 1, x=10, y=2, kind=NodeKind.FIXED))
        net = Net(name="n0")
        net.pins.append(Pin(node=a.index, dx=0.0, dy=0.0))
        net.pins.append(Pin(node=b.index, dx=0.0, dy=0.0))
        d.add_net(net)
        result = self.run_flow(d)
        assert result.hpwl_final > 0

    def test_all_macro_design(self):
        d = Design("macros")
        for r in range(24):
            d.add_row(Row(y=float(r), height=1.0, site_width=1.0, x_min=0.0,
                          num_sites=48))
        macros = [
            d.add_node(
                Node(f"m{k}", 6.0, 4.0, x=8.0 * k + 1, y=3.0 * k + 1,
                     kind=NodeKind.MACRO)
            )
            for k in range(4)
        ]
        for a, b in zip(macros, macros[1:]):
            net = Net(name=f"n{a.index}")
            net.pins.append(Pin(node=a.index, dx=0.0, dy=0.0))
            net.pins.append(Pin(node=b.index, dx=0.0, dy=0.0))
            d.add_net(net)
        result = self.run_flow(d)
        for m in macros:
            assert math.isfinite(m.x) and math.isfinite(m.y)

    def test_fence_tiled_core(self):
        # The entire core is tiled by two fences and every cell is bound
        # to one of them — no free area at all.
        d = Design("tiled")
        for r in range(12):
            d.add_row(Row(y=float(r), height=1.0, site_width=1.0, x_min=0.0,
                          num_sites=40))
        core = d.core
        mid = core.xl + core.width / 2.0
        left = d.add_region(
            Region("left", rects=[Rect(core.xl, core.yl, mid, core.yh)])
        )
        right = d.add_region(
            Region("right", rects=[Rect(mid, core.yl, core.xh, core.yh)])
        )
        rng_nodes = []
        for k in range(40):
            region = left if k % 2 == 0 else right
            rng_nodes.append(
                d.add_node(
                    Node(f"c{k}", 1.5, 1.0, x=1.0 + k % 30, y=float(k % 10),
                         region=region.index)
                )
            )
        for a, b in zip(rng_nodes, rng_nodes[1:]):
            net = Net(name=f"n{a.index}")
            net.pins.append(Pin(node=a.index, dx=0.0, dy=0.0))
            net.pins.append(Pin(node=b.index, dx=0.0, dy=0.0))
            d.add_net(net)
        assert validate_design(d).ok
        result = self.run_flow(d)
        assert math.isfinite(result.hpwl_final)
