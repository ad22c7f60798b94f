"""Tests for ACE / RC / scaled-HPWL congestion metrics."""

import numpy as np
import pytest

from repro.geometry import Rect
from repro.route import GridGraph, RoutingSpec, ace, congestion_metrics, scaled_hpwl


class TestACE:
    def test_uniform(self):
        c = np.full(100, 0.5)
        assert ace(c, 0.02) == pytest.approx(0.5)

    def test_top_fraction(self):
        c = np.concatenate([np.zeros(90), np.full(10, 2.0)])
        assert ace(c, 0.10) == pytest.approx(2.0)
        assert ace(c, 0.20) == pytest.approx(1.0)

    def test_empty(self):
        assert ace(np.zeros(0), 0.01) == 0.0

    def test_clips_infinite(self):
        c = np.array([np.inf, 1.0, 0.5, 0.1])
        assert ace(c, 0.25) <= 10.0

    def test_monotone_in_fraction(self):
        rng = np.random.default_rng(0)
        c = rng.uniform(0, 2, 500)
        vals = [ace(c, f) for f in (0.005, 0.02, 0.1, 0.5)]
        assert vals == sorted(vals, reverse=True)


class TestRC:
    def test_rc_is_mean_of_levels(self):
        g = GridGraph(RoutingSpec.uniform(Rect(0, 0, 8, 8), 4, 4, hcap=2, vcap=2))
        for line in range(4):
            g.add_horizontal_run(line, 0, 3)
            g.add_vertical_run(line, 0, 3)
        # Every edge at half capacity: each ACE level, and so RC, is 0.5.
        assert congestion_metrics(g).rc == pytest.approx(0.5)

    def test_rc_empty(self):
        g = GridGraph(RoutingSpec.uniform(Rect(0, 0, 8, 8), 1, 1))
        assert g.edge_congestion().size == 0
        assert congestion_metrics(g).rc == 0.0


class TestScaledHPWL:
    def test_no_penalty_below_one(self):
        assert scaled_hpwl(1000.0, 0.95) == 1000.0

    def test_penalty_above_one(self):
        # RC 1.10 -> 10 percentage points x 0.03 = +30%
        assert scaled_hpwl(1000.0, 1.10) == pytest.approx(1300.0)

    def test_exactly_one(self):
        assert scaled_hpwl(1000.0, 1.0) == 1000.0

    def test_custom_penalty(self):
        assert scaled_hpwl(1000.0, 1.10, penalty=0.01) == pytest.approx(1100.0)


class TestCongestionMetrics:
    def test_from_graph(self):
        g = GridGraph(RoutingSpec.uniform(Rect(0, 0, 8, 8), 4, 4, hcap=2, vcap=2))
        g.add_horizontal_run(0, 0, 3)
        g.add_horizontal_run(0, 0, 3)
        g.add_horizontal_run(0, 0, 3)  # usage 3 over cap 2
        m = congestion_metrics(g)
        assert m.total_overflow == pytest.approx(3.0)
        assert m.routed_wirelength == pytest.approx(9.0)
        assert m.rc > 0
        assert m.peak_congestion == pytest.approx(1.5)
        row = m.as_row()
        assert "RC" in row and "ACE0.5%" in row

    def test_clean_graph(self):
        g = GridGraph(RoutingSpec.uniform(Rect(0, 0, 8, 8), 4, 4))
        m = congestion_metrics(g)
        assert m.total_overflow == 0
        assert m.rc == 0
