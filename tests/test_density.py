"""Tests for the bell-shaped density model and the overflow metric."""

import numpy as np
import pytest

from repro.db import Design, Node, NodeKind
from repro.density import BellDensity, bell_kernel, density_overflow
from repro.density.bell import _MAX_WINDOW, row_sums
from repro.geometry import Rect
from repro.grids import BinGrid
from repro.wirelength import finite_difference_gradient
from tests.reference.gp import ReferenceBellDensity


def make_design(n_cells=15, macro=True, seed=0, core=100.0):
    rng = np.random.default_rng(seed)
    d = Design("t", core=Rect(0, 0, core, core))
    for i in range(n_cells):
        d.add_node(
            Node(
                f"c{i}", 2.0, 1.0,
                x=float(rng.uniform(5, core - 10)),
                y=float(rng.uniform(5, core - 10)),
            )
        )
    if macro:
        d.add_node(Node("m", 22.0, 17.0, kind=NodeKind.MACRO, x=40, y=40))
    return d


def model_for(d, nx=16, ny=16, fixed=()):
    grid = BinGrid(d.core, nx, ny)
    w, h = d.placed_sizes()
    return grid, BellDensity(grid, w, h, d.movable_mask(), fixed_rects=fixed)


class TestKernel:
    def test_peak_at_zero(self):
        p, dp = bell_kernel(0.0, 2.0, 1.0)
        assert p == pytest.approx(1.0)
        assert dp == pytest.approx(0.0)

    def test_zero_outside_support(self):
        w, wb = 2.0, 1.0
        p, _ = bell_kernel(w / 2 + 2 * wb + 0.01, w, wb)
        assert p == 0.0

    def test_continuous_at_joints(self):
        w, wb = 3.0, 1.0
        r1 = w / 2 + wb
        p_in, _ = bell_kernel(r1 - 1e-9, w, wb)
        p_out, _ = bell_kernel(r1 + 1e-9, w, wb)
        assert p_in == pytest.approx(p_out, abs=1e-6)

    def test_derivative_continuous_at_joints(self):
        w, wb = 3.0, 1.0
        r1 = w / 2 + wb
        _, d_in = bell_kernel(r1 - 1e-9, w, wb)
        _, d_out = bell_kernel(r1 + 1e-9, w, wb)
        assert d_in == pytest.approx(d_out, abs=1e-6)

    def test_even_function(self):
        p1, d1 = bell_kernel(0.7, 2.0, 1.0)
        p2, d2 = bell_kernel(-0.7, 2.0, 1.0)
        assert p1 == pytest.approx(p2)
        assert d1 == pytest.approx(-d2)

    def test_monotone_decreasing(self):
        ds = np.linspace(0, 3.0, 50)
        p, _ = bell_kernel(ds, 2.0, 1.0)
        assert (np.diff(p) <= 1e-12).all()


class TestPotential:
    def test_mass_conservation(self):
        d = make_design()
        grid, dens = model_for(d)
        cx, cy = d.pull_centers()
        phi, _, _ = dens.potential(cx, cy)
        movable_area = dens.areas[d.movable_mask()].sum()
        assert phi.sum() == pytest.approx(movable_area, rel=1e-9)

    def test_mass_conserved_near_boundary(self):
        """A cell pushed to the die edge keeps its full mass on-grid."""
        d = Design("t", core=Rect(0, 0, 10, 10))
        d.add_node(Node("a", 2.0, 1.0, x=0.0, y=0.0))
        grid, dens = model_for(d, 8, 8)
        cx, cy = d.pull_centers()
        phi, _, _ = dens.potential(cx, cy)
        assert phi.sum() == pytest.approx(2.0, rel=1e-9)

    def test_macro_takes_large_path(self):
        d = make_design(macro=True)
        grid, dens = model_for(d, 32, 32)
        assert len(dens._large) == 1
        assert len(dens._small) == 15

    def test_target_mass_covers_movable_area(self):
        d = make_design()
        _, dens = model_for(d, fixed=[(10, 10, 30, 30)])
        target = dens.target()
        movable = dens.areas[d.movable_mask()].sum()
        assert target.sum() >= movable - 1e-6

    def test_target_zero_under_fixed(self):
        d = make_design(n_cells=3, macro=False)
        grid, dens = model_for(d, 10, 10, fixed=[(0, 0, 10, 10)])
        # fully blocked bin -> zero free capacity -> zero target
        assert dens.target()[0, 0] == pytest.approx(0.0)

    def test_set_areas_changes_mass(self):
        d = make_design(macro=False)
        grid, dens = model_for(d)
        cx, cy = d.pull_centers()
        dens.set_areas(dens.areas * 2.0)
        phi, _, _ = dens.potential(cx, cy)
        assert phi.sum() == pytest.approx(2.0 * 2.0 * 15, rel=1e-9)


class TestGradient:
    def test_matches_finite_difference_cells(self):
        d = make_design(n_cells=10, macro=False, seed=3)
        grid, dens = model_for(d)
        cx, cy = d.pull_centers()
        _, gx, gy = dens.value_grad(cx, cy)
        fgx, fgy = finite_difference_gradient(dens.value, cx, cy, eps=1e-5)
        scale = max(np.abs(fgx).max(), 1.0)
        assert np.abs(gx - fgx).max() / scale < 1e-5
        assert np.abs(gy - fgy).max() / scale < 1e-5

    def test_matches_finite_difference_with_macro(self):
        d = make_design(n_cells=8, macro=True, seed=4)
        grid, dens = model_for(d)
        cx, cy = d.pull_centers()
        _, gx, gy = dens.value_grad(cx, cy)
        fgx, fgy = finite_difference_gradient(dens.value, cx, cy, eps=1e-5)
        scale = max(np.abs(fgx).max(), 1.0)
        assert np.abs(gx - fgx).max() / scale < 1e-5

    def test_fixed_nodes_zero_gradient(self):
        d = make_design(n_cells=5, macro=False)
        d.add_node(Node("blk", 10, 10, kind=NodeKind.FIXED, x=50, y=50))
        grid, dens = model_for(d)
        cx, cy = d.pull_centers()
        _, gx, gy = dens.value_grad(cx, cy)
        assert gx[-1] == 0.0 and gy[-1] == 0.0

    def test_gradient_pushes_apart(self):
        """Two stacked cells must feel opposite forces."""
        d = Design("t", core=Rect(0, 0, 10, 10))
        d.add_node(Node("a", 2, 1, x=4.4, y=5))
        d.add_node(Node("b", 2, 1, x=4.6, y=5))
        grid, dens = model_for(d, 10, 10)
        cx, cy = d.pull_centers()
        _, gx, _ = dens.value_grad(cx, cy)
        # decreasing cost means moving against the gradient: a goes left
        assert gx[0] > 0 or gx[1] < 0 or abs(gx[0] - gx[1]) > 0

    def test_value_decreases_when_spreading(self):
        d = Design("t", core=Rect(0, 0, 20, 20))
        for i in range(8):
            d.add_node(Node(f"c{i}", 2, 1, x=9, y=9))
        grid, dens = model_for(d, 10, 10)
        cx, cy = d.pull_centers()
        v_clumped = dens.value(cx, cy)
        rng = np.random.default_rng(0)
        cx2 = rng.uniform(2, 18, size=len(cx))
        cy2 = rng.uniform(2, 18, size=len(cy))
        assert dens.value(cx2, cy2) < v_clumped


class TestOverflowMetric:
    def test_zero_for_sparse(self):
        d = make_design(n_cells=4, macro=False)
        assert density_overflow(d, nx=8, ny=8) == pytest.approx(0.0, abs=1e-6)

    def test_positive_for_stacked(self):
        d = Design("t", core=Rect(0, 0, 40, 40))
        for i in range(40):
            d.add_node(Node(f"c{i}", 2, 1, x=20, y=20))
        assert density_overflow(d, nx=16, ny=16) > 0.5

    def test_respects_target_density(self):
        d = make_design(n_cells=6, macro=False)
        loose = density_overflow(d, target_density=1.0, nx=8, ny=8)
        tight = density_overflow(d, target_density=0.01, nx=8, ny=8)
        assert tight >= loose

    def test_no_movables(self):
        d = Design("t", core=Rect(0, 0, 10, 10))
        d.add_node(Node("blk", 2, 2, kind=NodeKind.FIXED))
        assert density_overflow(d) == 0.0


def density_pair(grid, widths, heights, fixed=()):
    """``(reference, optimized)`` models over the same nodes."""
    movable = np.ones(len(widths), dtype=bool)
    return tuple(
        cls(grid, widths, heights, movable, fixed_rects=fixed)
        for cls in (ReferenceBellDensity, BellDensity)
    )


def assert_same_value_grad(ref, opt, cx, cy):
    fr, gxr, gyr = ref.value_grad(cx, cy)
    fo, gxo, gyo = opt.value_grad(cx, cy)
    np.testing.assert_array_equal(fo, fr)
    np.testing.assert_array_equal(gxo, gxr)
    np.testing.assert_array_equal(gyo, gyr)


class TestOptimizedMatchesReference:
    """Window sweeps off every grid edge, uneven windows and the probe
    protocol, bit for bit against the golden twin."""

    def test_cells_on_every_edge_and_corner(self):
        core = Rect(0, 0, 80, 60)
        grid = BinGrid(core, 16, 12)
        xs = [0.0, 0.4, 40.0, 79.6, 80.0]
        ys = [0.0, 0.3, 30.0, 59.7, 60.0]
        cx = np.array([x for x in xs for _ in ys])
        cy = np.array([y for _ in xs for y in ys])
        widths = np.full(len(cx), 2.0)
        heights = np.full(len(cx), 1.0)
        ref, opt = density_pair(grid, widths, heights, fixed=[(30, 20, 50, 40)])
        assert opt._kx and not len(opt._large)
        phi_r, _, _ = ref.potential(cx, cy)
        phi_o, _, _ = opt.potential(cx, cy)
        np.testing.assert_array_equal(phi_o, phi_r)
        assert_same_value_grad(ref, opt, cx, cy)

    def test_uneven_windows_up_to_the_window_cap(self):
        # 5 x 10 bins: a 15-wide cell spans exactly _MAX_WINDOW bins in x
        # (and so still takes the window sweep) while every window is at
        # most 6 bins tall, so kx != ky.
        grid = BinGrid(Rect(0, 0, 120, 60), 24, 6)
        rng = np.random.default_rng(5)
        widths = np.concatenate([[15.0], rng.uniform(0.5, 4.0, 40)])
        heights = np.concatenate([[10.0], rng.uniform(1.0, 10.0, 40)])
        cx = rng.uniform(-4.0, 124.0, len(widths))
        cy = rng.uniform(-4.0, 64.0, len(widths))
        ref, opt = density_pair(grid, widths, heights)
        assert opt._kx == _MAX_WINDOW and opt._ky < opt._kx
        assert 0 in opt._small
        assert_same_value_grad(ref, opt, cx, cy)

    def test_finish_grad_belongs_to_the_last_probe(self):
        d = make_design(n_cells=30, seed=8)
        grid = BinGrid(d.core, 16, 16)
        w, h = d.placed_sizes()
        ref, opt = density_pair(grid, w, h)
        cx, cy = d.pull_centers()
        cx2, cy2 = cx + 3.5, cy - 1.25
        opt.value_probe(cx, cy)
        f = opt.value_probe(cx2, cy2)
        gx, gy = opt.finish_grad()
        fr, gxr, gyr = ref.value_grad(cx2, cy2)
        assert f == fr
        np.testing.assert_array_equal(gx, gxr)
        np.testing.assert_array_equal(gy, gyr)

    def test_nan_centre_probe_matches_reference(self):
        # A NaN centre puts the node's whole window off the grid, so it
        # adds nothing to the field; the probe must agree with the
        # reference instead of raising on its window indices.
        d = make_design(n_cells=12, seed=9)
        grid = BinGrid(d.core, 16, 16)
        w, h = d.placed_sizes()
        ref, opt = density_pair(grid, w, h)
        cx, cy = d.pull_centers()
        cx[3] = np.nan
        cy[7] = np.nan
        with np.errstate(invalid="ignore"):
            f = opt.value_probe(cx, cy)
            gx, gy = opt.finish_grad()
            fr, gxr, gyr = ref.value_grad(cx, cy)
        np.testing.assert_array_equal(f, fr)
        np.testing.assert_array_equal(gx, gxr)
        np.testing.assert_array_equal(gy, gyr)


def bits(a):
    """The raw bits of a float64 array, so signed zeros and NaNs count."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


class TestRowSums:
    """``row_sums`` on a node-minor table replays ``ndarray.sum`` of each
    node's contiguous row, bit for bit."""

    @pytest.mark.parametrize("k", range(1, _MAX_WINDOW * _MAX_WINDOW + 1))
    def test_matches_ndarray_sum_bitwise(self, k):
        rng = np.random.default_rng(k)
        n = 40
        table = rng.standard_normal((k, n)) * 10.0 ** rng.integers(-12, 13, (k, n))
        table[:, 0] = -0.0  # an all -0.0 row sums to +0
        table[:, 1] = 0.0
        table[::2, 1] = -0.0
        table[rng.integers(k), 2] = np.inf
        table[rng.integers(k), 3] = -np.inf
        table[rng.integers(k), 4] = np.nan
        table[0, 5] = np.inf
        table[-1, 5] = -np.inf  # inf - inf, or +inf alone when k == 1
        table[:, 6] = rng.choice([-1.0, 1.0], k) * 2.0**60  # cancellation
        table[: k // 2, 7] = -0.0
        table[k // 2 :, 7] = rng.standard_normal(k - k // 2)
        with np.errstate(invalid="ignore"):
            expected = np.ascontiguousarray(table.T).sum(axis=1)
            out = row_sums(table, np.empty(n), np.empty((8, n)))
        np.testing.assert_array_equal(bits(out), bits(expected))
        assert bits(out)[0] == bits(0.0)
