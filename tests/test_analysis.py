"""Tests for placement-quality analytics."""

import numpy as np
import pytest

from repro.analysis import displacement_stats, net_length_stats
from repro.benchgen import BenchmarkSpec, make_benchmark
from repro.db import Design, Net, Node, Pin
from repro.geometry import Rect
from repro.gp import initial_placement


@pytest.fixture
def design():
    d = make_benchmark(
        BenchmarkSpec(name="q", num_cells=150, num_macros=1, num_fixed_macros=1,
                      num_terminals=4, cap_factor=3.0, seed=29)
    )
    initial_placement(d)
    return d


class TestNetLengthStats:
    def test_fields(self, design):
        stats = net_length_stats(design)
        assert stats["count"] > 0
        assert stats["median"] <= stats["p90"] <= stats["p99"] <= stats["max"]
        assert stats["total"] == pytest.approx(design.hpwl(), rel=1e-6)

    def test_empty_design(self):
        d = Design("e", core=Rect(0, 0, 10, 10))
        assert net_length_stats(d) == {"count": 0}

    def test_known_values(self):
        d = Design("k", core=Rect(0, 0, 10, 10))
        a = d.add_node(Node("a", 1, 1, x=0, y=0))
        b = d.add_node(Node("b", 1, 1, x=3, y=4))
        d.add_net(Net("n", pins=[Pin(node=0), Pin(node=1)]))
        stats = net_length_stats(d)
        assert stats["mean"] == pytest.approx(7.0)


class TestDisplacement:
    def test_zero_for_identity(self, design):
        ref = {n.index: (n.x, n.y) for n in design.nodes}
        stats = displacement_stats(design, ref)
        assert stats["total"] == 0.0

    def test_tracks_moves(self, design):
        ref = {n.index: (n.x, n.y) for n in design.nodes}
        design.nodes[0].x += 2.0
        design.nodes[0].y += 1.0
        stats = displacement_stats(design, ref)
        assert stats["max"] == pytest.approx(3.0)

    def test_empty_reference(self, design):
        assert displacement_stats(design, {}) == {"count": 0}
