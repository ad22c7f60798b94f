"""Tests for placement-quality analytics."""

import pytest

from repro.analysis import displacement_stats
from repro.benchgen import BenchmarkSpec, make_benchmark
from repro.gp import initial_placement


@pytest.fixture
def design():
    d = make_benchmark(
        BenchmarkSpec(name="q", num_cells=150, num_macros=1, num_fixed_macros=1,
                      num_terminals=4, cap_factor=3.0, seed=29)
    )
    initial_placement(d)
    return d


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
