"""Tests for fence-region penalty and projection."""

import numpy as np

from repro.db import Design, Node, Region
from repro.geometry import Rect
from repro.gp import FencePenalty, fence_violation, project_into_fences
from repro.wirelength import finite_difference_gradient


def fenced_design():
    d = Design("t", core=Rect(0, 0, 40, 40))
    region = d.add_region(Region("f", rects=[Rect(5, 5, 15, 15)]))
    d.add_node(Node("in", 1, 1, x=8, y=8, region=region.index))
    d.add_node(Node("out", 1, 1, x=30, y=30, region=region.index))
    d.add_node(Node("free", 1, 1, x=20, y=20))
    return d


class TestFencePenalty:
    def test_inactive_without_regions(self):
        d = Design("t", core=Rect(0, 0, 10, 10))
        d.add_node(Node("a", 1, 1))
        assert not FencePenalty(d).active

    def test_inside_zero_penalty(self):
        d = fenced_design()
        fp = FencePenalty(d)
        cx, cy = d.pull_centers()
        v, gx, gy = fp.value_grad(cx, cy)
        assert gx[0] == 0.0 and gy[0] == 0.0  # "in" feels nothing

    def test_outside_quadratic_pull(self):
        d = fenced_design()
        fp = FencePenalty(d)
        cx, cy = d.pull_centers()
        v, gx, gy = fp.value_grad(cx, cy)
        assert v > 0
        assert gx[1] > 0 and gy[1] > 0  # pulled down-left toward fence

    def test_unfenced_untouched(self):
        d = fenced_design()
        fp = FencePenalty(d)
        cx, cy = d.pull_centers()
        _, gx, gy = fp.value_grad(cx, cy)
        assert gx[2] == 0.0 and gy[2] == 0.0

    def test_gradient_matches_fd(self):
        d = fenced_design()
        fp = FencePenalty(d)
        cx, cy = d.pull_centers()
        _, gx, gy = fp.value_grad(cx, cy)
        fgx, fgy = finite_difference_gradient(fp.value, cx, cy)
        assert np.abs(gx - fgx).max() < 1e-5
        assert np.abs(gy - fgy).max() < 1e-5

    def test_targets_account_for_cell_size(self):
        """The target keeps the *outline* inside, not just the centre."""
        d = Design("t", core=Rect(0, 0, 40, 40))
        region = d.add_region(Region("f", rects=[Rect(5, 5, 15, 15)]))
        d.add_node(Node("wide", 4, 2, x=30, y=30, region=region.index))
        fp = FencePenalty(d)
        cx, cy = d.pull_centers()
        idx, tx, ty = fp.targets(cx, cy)
        assert tx[0] <= 15 - 2  # half-width inset
        assert ty[0] <= 15 - 1

    def test_multi_rect_nearest(self):
        d = Design("t", core=Rect(0, 0, 40, 40))
        region = d.add_region(
            Region("f", rects=[Rect(0, 0, 5, 5), Rect(30, 30, 38, 38)])
        )
        d.add_node(Node("a", 1, 1, x=28, y=28, region=region.index))
        fp = FencePenalty(d)
        cx, cy = d.pull_centers()
        idx, tx, ty = fp.targets(cx, cy)
        assert tx[0] >= 30  # nearer rect chosen


class TestViolationAndProjection:
    def test_violation_counts(self):
        d = fenced_design()
        count, dist = fence_violation(d)
        assert count == 1
        assert dist > 0

    def test_projection_fixes_all(self):
        d = fenced_design()
        moved = project_into_fences(d)
        assert moved == 1
        count, dist = fence_violation(d)
        assert count == 0 and dist == 0.0

    def test_projection_idempotent(self):
        d = fenced_design()
        project_into_fences(d)
        assert project_into_fences(d) == 0

    def test_projection_keeps_outline_inside(self):
        d = Design("t", core=Rect(0, 0, 40, 40))
        region = d.add_region(Region("f", rects=[Rect(5, 5, 15, 15)]))
        d.add_node(Node("big", 6, 4, x=30, y=30, region=region.index))
        project_into_fences(d)
        assert region.contains_rect(d.node("big").rect)
