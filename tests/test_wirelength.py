"""Tests for HPWL and the smooth wirelength models.

The key paper claims pinned here:

* both LSE and WA converge to HPWL as gamma -> 0;
* LSE *over*-estimates HPWL, WA *under*-estimates it;
* at equal gamma, WA's absolute error is no larger than LSE's
  (the WA model's theoretical selling point);
* analytic gradients match finite differences to high precision.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Design, Net, Node, Pin
from repro.db.design import PinArrays
from repro.geometry import Rect
from repro.wirelength import (
    LogSumExp,
    WeightedAverage,
    finite_difference_gradient,
    hpwl,
    hpwl_per_net,
    make_model,
    net_bounding_boxes,
)
from tests.reference.gp import make_model_reference


def build_design(positions, nets, weights=None):
    d = Design("t", core=Rect(0, 0, 100, 100))
    for k, (x, y) in enumerate(positions):
        node = d.add_node(Node(f"c{k}", 1.0, 1.0))
        node.move_center_to(x, y)
    for j, members in enumerate(nets):
        w = weights[j] if weights else 1.0
        d.add_net(Net(f"n{j}", pins=[Pin(node=m) for m in members], weight=w))
    return d


def random_design(rng, n_nodes=15, n_nets=8):
    positions = [(rng.uniform(5, 95), rng.uniform(5, 95)) for _ in range(n_nodes)]
    nets = []
    for _ in range(n_nets):
        k = int(rng.integers(2, 6))
        nets.append(list(rng.choice(n_nodes, size=k, replace=False)))
    return build_design(positions, nets)


class TestHPWL:
    def test_two_pin(self):
        d = build_design([(0, 0), (3, 4)], [[0, 1]])
        assert d.hpwl() == pytest.approx(7.0)

    def test_weights(self):
        d = build_design([(0, 0), (3, 4)], [[0, 1]], weights=[2.5])
        assert d.hpwl() == pytest.approx(17.5)

    def test_multi_pin_is_bbox(self):
        d = build_design([(0, 0), (10, 2), (5, 8)], [[0, 1, 2]])
        assert d.hpwl() == pytest.approx(10 + 8)

    def test_single_pin_net_zero(self):
        d = build_design([(4, 4), (9, 9)], [[0]])
        assert d.hpwl() == 0.0

    def test_per_net(self):
        d = build_design([(0, 0), (1, 1), (4, 4)], [[0, 1], [1, 2]])
        arrays = d.pin_arrays()
        cx, cy = d.pull_centers()
        per = hpwl_per_net(arrays, cx, cy)
        assert per.tolist() == pytest.approx([2.0, 6.0])

    def test_bounding_boxes(self):
        d = build_design([(1, 2), (5, 9)], [[0, 1]])
        arrays = d.pin_arrays()
        cx, cy = d.pull_centers()
        xl, yl, xh, yh = net_bounding_boxes(arrays, cx, cy)
        assert (xl[0], yl[0], xh[0], yh[0]) == pytest.approx((1, 2, 5, 9))

    def test_pin_offsets_respected(self):
        d = Design("t", core=Rect(0, 0, 10, 10))
        a = d.add_node(Node("a", 2, 2, x=0, y=0))
        b = d.add_node(Node("b", 2, 2, x=6, y=6))
        d.add_net(Net("n", pins=[Pin(node=0, dx=1.0), Pin(node=1, dx=-1.0)]))
        # centres at (1,1), (7,7); pins at (2,1), (6,7)
        assert d.hpwl() == pytest.approx(4 + 6)


class TestModelBounds:
    @pytest.mark.parametrize("gamma", [0.5, 2.0, 8.0])
    def test_lse_upper_bounds_hpwl(self, gamma):
        rng = np.random.default_rng(1)
        d = random_design(rng)
        arrays = d.pin_arrays()
        cx, cy = d.pull_centers()
        model = LogSumExp(arrays, d.num_nodes, gamma)
        assert model.value(cx, cy) >= hpwl(arrays, cx, cy) - 1e-9

    @pytest.mark.parametrize("gamma", [0.5, 2.0, 8.0])
    def test_wa_lower_bounds_hpwl(self, gamma):
        rng = np.random.default_rng(2)
        d = random_design(rng)
        arrays = d.pin_arrays()
        cx, cy = d.pull_centers()
        model = WeightedAverage(arrays, d.num_nodes, gamma)
        assert model.value(cx, cy) <= hpwl(arrays, cx, cy) + 1e-9

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 3.0])
    def test_wa_worst_case_error_tighter_than_lse(self, gamma):
        """The WA theorem: the worst-case (over placements) absolute
        error of WA is strictly below LSE's at equal gamma.  For a 2-pin
        net the suprema are gamma/e (WA) vs gamma*ln2 (LSE); we verify
        empirically by sweeping the pin separation."""
        wa_max, lse_max = 0.0, 0.0
        for dist in np.linspace(0.0, 20.0 * gamma, 200):
            d = build_design([(0, 0), (dist, 0)], [[0, 1]])
            arrays = d.pin_arrays()
            cx, cy = d.pull_centers()
            exact = hpwl(arrays, cx, cy)
            wa = WeightedAverage(arrays, d.num_nodes, gamma).value(cx, cy)
            lse = LogSumExp(arrays, d.num_nodes, gamma).value(cx, cy)
            wa_max = max(wa_max, abs(wa - exact))
            lse_max = max(lse_max, abs(lse - exact))
        assert wa_max < lse_max
        # Known suprema for a 2-pin net, counting both axes (the y pins
        # coincide, which is exactly where LSE errs most): LSE peaks at
        # 2 * gamma*ln2 per axis, WA's peak is below gamma/e per axis.
        assert wa_max <= 2 * gamma / np.e + 1e-6
        assert lse_max <= 4 * gamma * np.log(2) + 1e-6

    def test_wa_beats_lse_in_clumped_regime(self):
        """Where it matters for optimization — early GP, pins within
        ~gamma of each other — WA tracks HPWL more closely than LSE."""
        wa_err, lse_err = [], []
        gamma = 4.0
        for seed in range(10):
            rng = np.random.default_rng(200 + seed)
            pts = [(50 + rng.uniform(-3, 3), 50 + rng.uniform(-3, 3)) for _ in range(6)]
            d = build_design(pts, [list(range(6))])
            arrays = d.pin_arrays()
            cx, cy = d.pull_centers()
            exact = hpwl(arrays, cx, cy)
            wa_err.append(abs(WeightedAverage(arrays, d.num_nodes, gamma).value(cx, cy) - exact))
            lse_err.append(abs(LogSumExp(arrays, d.num_nodes, gamma).value(cx, cy) - exact))
        assert np.mean(wa_err) < np.mean(lse_err)

    @pytest.mark.parametrize("kind", ["wa", "lse"])
    def test_converges_to_hpwl(self, kind):
        rng = np.random.default_rng(6)
        d = random_design(rng)
        arrays = d.pin_arrays()
        cx, cy = d.pull_centers()
        exact = hpwl(arrays, cx, cy)
        errors = [
            abs(make_model(kind, arrays, d.num_nodes, g).value(cx, cy) - exact)
            for g in (8.0, 2.0, 0.5, 0.1)
        ]
        assert errors[-1] < 0.01 * exact
        assert errors == sorted(errors, reverse=True)


class TestGradients:
    @pytest.mark.parametrize("kind", ["wa", "lse"])
    @pytest.mark.parametrize("gamma", [0.7, 3.0])
    def test_matches_finite_difference(self, kind, gamma):
        rng = np.random.default_rng(7)
        d = random_design(rng, n_nodes=10, n_nets=6)
        arrays = d.pin_arrays()
        cx, cy = d.pull_centers()
        model = make_model(kind, arrays, d.num_nodes, gamma)
        _, gx, gy = model.value_grad(cx, cy)
        fgx, fgy = finite_difference_gradient(model.value, cx, cy)
        assert np.abs(gx - fgx).max() < 1e-5
        assert np.abs(gy - fgy).max() < 1e-5

    @pytest.mark.parametrize("kind", ["wa", "lse"])
    def test_translation_invariant_gradient_sums_to_zero(self, kind):
        """Shifting all cells together leaves WL unchanged, so per-net
        gradient contributions must sum to ~0."""
        rng = np.random.default_rng(8)
        d = random_design(rng)
        arrays = d.pin_arrays()
        cx, cy = d.pull_centers()
        model = make_model(kind, arrays, d.num_nodes, 2.0)
        _, gx, gy = model.value_grad(cx, cy)
        assert abs(gx.sum()) < 1e-8
        assert abs(gy.sum()) < 1e-8

    @pytest.mark.parametrize("kind", ["wa", "lse"])
    def test_stability_huge_coordinates(self, kind):
        """Shifted exponentials must not overflow at real-die magnitudes."""
        d = build_design([(0, 0), (1e7, 1e7)], [[0, 1]])
        arrays = d.pin_arrays()
        cx, cy = d.pull_centers()
        model = make_model(kind, arrays, d.num_nodes, 1.0)
        v, gx, gy = model.value_grad(cx, cy)
        assert np.isfinite(v)
        assert np.isfinite(gx).all() and np.isfinite(gy).all()

    def test_single_pin_nets_ignored(self):
        d = build_design([(4, 4), (9, 9)], [[0], [0, 1]])
        arrays = d.pin_arrays()
        cx, cy = d.pull_centers()
        model = make_model("wa", arrays, d.num_nodes, 1.0)
        v, gx, gy = model.value_grad(cx, cy)
        assert v > 0  # from the 2-pin net only
        assert np.isfinite(gx).all()

    def test_empty_netlist(self):
        d = Design("t", core=Rect(0, 0, 10, 10))
        d.add_node(Node("a", 1, 1))
        arrays = d.pin_arrays()
        model = make_model("wa", arrays, 1, 1.0)
        cx, cy = d.pull_centers()
        v, gx, gy = model.value_grad(cx, cy)
        assert v == 0.0 and gx.tolist() == [0.0]

    @pytest.mark.parametrize("kind", ["wa", "lse"])
    def test_value_matches_reference_bitwise(self, kind):
        rng = np.random.default_rng(11)
        d = random_design(rng, n_nodes=40, n_nets=30)
        arrays = d.pin_arrays()
        cx, cy = d.pull_centers()
        ref = make_model_reference(kind, arrays, d.num_nodes, 2.0)
        opt = make_model(kind, arrays, d.num_nodes, 2.0)
        assert opt.value(cx, cy) == ref.value(cx, cy)
        # value() keeps a pending probe intact for finish_grad().
        opt.value_probe(cx + 1.5, cy)
        assert opt.value(cx - 2.0, cy + 0.5) == ref.value(cx - 2.0, cy + 0.5)
        gx, gy = opt.finish_grad()
        _, gxr, gyr = ref.value_grad(cx + 1.5, cy)
        np.testing.assert_array_equal(gx, gxr)
        np.testing.assert_array_equal(gy, gyr)

    def test_make_model_rejects_unknown(self):
        d = build_design([(0, 0), (1, 1)], [[0, 1]])
        with pytest.raises(ValueError):
            make_model("bozo", d.pin_arrays(), 2, 1.0)

    def test_gamma_positive_required(self):
        d = build_design([(0, 0), (1, 1)], [[0, 1]])
        with pytest.raises(ValueError):
            make_model("wa", d.pin_arrays(), 2, 0.0)


class TestPropertyBased:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(0, 50, allow_nan=False), st.floats(0, 50, allow_nan=False)),
            min_size=3,
            max_size=8,
        )
    )
    def test_wa_between_zero_and_hpwl(self, pts):
        d = build_design(pts, [list(range(len(pts)))])
        arrays = d.pin_arrays()
        cx, cy = d.pull_centers()
        exact = hpwl(arrays, cx, cy)
        wa = WeightedAverage(arrays, d.num_nodes, 1.0).value(cx, cy)
        assert -1e-9 <= wa <= exact + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-40, 40, allow_nan=False), st.floats(-40, 40, allow_nan=False))
    def test_translation_invariance(self, dx, dy):
        d = build_design([(10, 10), (20, 30), (35, 15)], [[0, 1, 2]])
        arrays = d.pin_arrays()
        cx, cy = d.pull_centers()
        model = WeightedAverage(arrays, d.num_nodes, 2.0)
        v0 = model.value(cx, cy)
        v1 = model.value(cx + dx, cy + dy)
        assert v1 == pytest.approx(v0, abs=1e-6)


def bits(a):
    """The raw bits of a float64 array, so signed zeros count."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


class TestDegreeMajorReductions:
    """The degree-major net max, min and sum equal ``np.maximum``,
    ``np.minimum`` and ``np.add`` ``.reduceat`` on the pin table, bit for
    bit, for nets on both sides of the 9 pins where NumPy's sum order
    changes."""

    @staticmethod
    def model_and_pins(counts, rng):
        """A WA model over nets of ``counts`` pins in that order (with
        single-pin and empty nets between them, which the compaction
        drops), and per-pin values in pin-table order."""
        counts = np.asarray(counts)
        sizes = np.insert(counts, rng.integers(0, len(counts), 6), [1, 0, 1, 1, 0, 1])
        net_ptr = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=net_ptr[1:])
        pins = int(net_ptr[-1])
        arrays = PinArrays(
            rng.integers(0, 30, pins).astype(np.int32),
            np.zeros(pins),
            np.zeros(pins),
            net_ptr,
            np.ones(len(sizes)),
        )
        model = WeightedAverage(arrays, 30, 1.0)
        total = int(counts.sum())
        values = rng.standard_normal(total) * 10.0 ** rng.integers(-6, 7, total)
        values[rng.integers(0, total, total // 5)] = 0.0
        values[rng.integers(0, total, total // 5)] = -0.0
        values[rng.integers(0, total, total // 10)] = values[0]  # ties
        return model, values

    def assert_reductions_match(self, counts, seed):
        rng = np.random.default_rng(seed)
        model, values = self.model_and_pins(counts, rng)
        cstarts = model._comp.cstarts
        dm = model._dm
        p = values[dm.sel]
        for mine, ufunc in (
            (model._net_max(p), np.maximum),
            (model._net_min(p), np.minimum),
            (model._net_sum(p), np.add),
        ):
            expected = ufunc.reduceat(values, cstarts)
            np.testing.assert_array_equal(bits(mine[dm.rank]), bits(expected), ufunc.__name__)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_nets_of_2_to_40_pins_in_shuffled_order(self, seed):
        rng = np.random.default_rng(100 + seed)
        counts = rng.permutation(np.repeat(np.arange(2, 41), 3))
        self.assert_reductions_match(counts, seed)

    def test_partial_sum_blocks_and_leftovers(self):
        # after the first pin, 17, 25 and 33 pins leave whole blocks of 8
        # partial sums, 24 pins leave 7 over
        rng = np.random.default_rng(7)
        counts = rng.permutation([17, 24, 25, 33, 17, 24, 25, 33, 2, 3, 8, 9])
        self.assert_reductions_match(counts, 7)

    def test_two_pin_nets_only(self):
        self.assert_reductions_match([2] * 50, 11)

    def test_all_negative_zero_nets(self):
        # reduceat keeps -0.0 for a net of -0.0 pins: the first pin plus
        # the others, summed from -0.0
        rng = np.random.default_rng(3)
        counts = [2, 5, 8, 9, 12]
        model, _ = self.model_and_pins(counts, rng)
        values = np.full(sum(counts), -0.0)
        dm = model._dm
        mine = model._net_sum(values[dm.sel])
        expected = np.add.reduceat(values, model._comp.cstarts)
        np.testing.assert_array_equal(bits(mine[dm.rank]), bits(expected))
