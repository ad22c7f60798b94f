"""Reference-vs-optimized equivalence of the GP hot paths.

Every optimized path introduced by the GP perf overhaul must reproduce
its golden twin in ``tests/reference/`` *bit for bit*: pin-table
compaction, WA/LSE wirelength values and gradients (including the
line-search value/gradient split), bell density values and gradients
(small and large kernels, fixed obstacles, fences), rasterization, full
CG trajectories, and end-to-end placements.  Kernel tests call the twin
directly; the end-to-end tests run the placer under ``use_reference()``,
on small generated designs and on suite designs (rh02 on every push,
rh04 under the ``nightly`` marker), whose quality metrics must also stay
within tolerance of the values committed in :data:`SUITE_QUALITY`.
"""

import numpy as np
import pytest

from repro.benchgen import BenchmarkSpec, make_benchmark, make_suite_design
from repro.db import Design, NodeKind
from repro.density.bell import BellDensity
from repro.geometry import Rect
from repro.gp import GPConfig, GlobalPlacer, optimize_macro_orientations
from repro.grids import BinGrid
from repro.optim import minimize_cg
from repro.wirelength import smooth
from repro.wirelength.smooth import compaction_for, make_model
from tests.quality import assert_quality
from tests.reference import GP_TWINS, use_reference
from tests.reference.gp import (
    ReferenceBellDensity,
    best_orientation,
    compact_pins_reference,
    make_model_reference,
    minimize_cg_reference,
    pin_arrays_reference,
    rasterize_rects_reference,
)


#: ``GPConfig()`` quality per suite design (``hpwl`` is ``design.hpwl()``
#: after placement).
SUITE_QUALITY = {
    "rh02": {
        "hpwl": 40873.43387206107,
        "overflow": 0.14229218454207823,
        "gp_iterations": 40,
    },
    "rh04": {
        "hpwl": 145318.9258797709,
        "overflow": 0.1213357534566375,
        "gp_iterations": 40,
    },
}


def bench(seed=11, cells=200, macros=2, **kw):
    spec = BenchmarkSpec(
        name="t", num_cells=cells, num_macros=macros, num_fixed_macros=1,
        num_terminals=8, seed=seed, **kw,
    )
    return make_benchmark(spec)


def bits(a):
    """The raw bits of float64 values, so signed zeros count."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def assert_same_bits(a, b):
    """Equal value-and-gradient triples, bit for bit."""
    for x, y in zip(a, b):
        np.testing.assert_array_equal(bits(x), bits(y))


def positions(design: Design):
    return (
        np.array([n.cx for n in design.nodes]),
        np.array([n.cy for n in design.nodes]),
        [n.orientation for n in design.nodes],
    )


class TestCompaction:
    @pytest.mark.parametrize("seed", [1, 5, 9])
    def test_vectorized_matches_reference(self, seed):
        arrays = bench(seed=seed).pin_arrays()
        ref = compact_pins_reference(arrays.net_ptr, arrays.net_weight)
        opt = compaction_for(arrays)
        for attr in ("active", "starts", "weights", "pin_sel", "pin_net", "cstarts"):
            assert np.array_equal(getattr(ref, attr), getattr(opt, attr)), attr

    def test_optimized_compaction_is_cached(self):
        arrays = bench().pin_arrays()
        assert compaction_for(arrays) is compaction_for(arrays)


class TestPinArrays:
    @pytest.mark.parametrize("seed", [1, 5, 9])
    def test_reference_and_fast_tables_identical(self, seed):
        d = bench(seed=seed)
        ref = pin_arrays_reference(d)
        d.netlist_changed()  # force a rebuild through the fast path
        opt = d.pin_arrays()
        for attr in ("pin_node", "pin_dx", "pin_dy", "net_ptr", "net_weight"):
            assert np.array_equal(getattr(ref, attr), getattr(opt, attr)), attr

    def test_fast_tables_track_orientation_changes(self):
        d = bench()
        macro = next(n for n in d.nodes if n.kind is NodeKind.MACRO)
        from repro.geometry import Orientation

        d.pin_arrays()
        d.set_orientation(macro, Orientation.W)
        opt = d.pin_arrays()
        d.netlist_changed()
        ref = pin_arrays_reference(d)
        assert np.array_equal(ref.pin_dx, opt.pin_dx)
        assert np.array_equal(ref.pin_dy, opt.pin_dy)


class TestWirelengthEquivalence:
    @pytest.mark.parametrize("kind", ["wa", "lse"])
    @pytest.mark.parametrize("seed", [1, 7])
    def test_value_grad_bitwise(self, kind, seed):
        d = bench(seed=seed, cells=300)
        arrays = d.pin_arrays()
        cx, cy = d.pull_centers()
        ref = make_model_reference(kind, arrays, len(d.nodes), 8.0)
        opt = make_model(kind, arrays, len(d.nodes), 8.0)
        fr, gxr, gyr = ref.value_grad(cx, cy)
        fo, gxo, gyo = opt.value_grad(cx, cy)
        assert fr == fo
        assert np.array_equal(gxr, gxo)
        assert np.array_equal(gyr, gyo)

    @pytest.mark.parametrize("kind", ["wa", "lse"])
    def test_probe_split_matches_value_grad(self, kind):
        d = bench(seed=3, cells=300)
        arrays = d.pin_arrays()
        cx, cy = d.pull_centers()
        opt = make_model(kind, arrays, len(d.nodes), 8.0)
        f, gx, gy = opt.value_grad(cx, cy)
        fp = opt.value_probe(cx, cy)
        gxp, gyp = opt.finish_grad()
        assert f == fp
        assert np.array_equal(gx, gxp)
        assert np.array_equal(gy, gyp)

    def test_second_evaluation_reuses_buffers(self):
        d = bench(seed=3, cells=300)
        arrays = d.pin_arrays()
        cx, cy = d.pull_centers()
        ref = make_model_reference("wa", arrays, len(d.nodes), 8.0)
        opt = make_model("wa", arrays, len(d.nodes), 8.0)
        opt.value_grad(cx, cy)
        f2r, gxr, _ = ref.value_grad(cx + 1.5, cy - 0.5)
        f2o, gxo, _ = opt.value_grad(cx + 1.5, cy - 0.5)
        assert f2r == f2o
        assert np.array_equal(gxr, gxo)

    def test_rebind_keeps_compaction_and_results(self):
        d = bench(seed=3, cells=300)
        arrays = d.pin_arrays()
        cx, cy = d.pull_centers()
        opt = make_model("wa", arrays, len(d.nodes), 8.0)
        comp = opt._comp
        opt.rebind(d.pin_arrays())
        assert opt._comp is comp
        ref = make_model_reference("wa", arrays, len(d.nodes), 8.0)
        fr, gxr, gyr = ref.value_grad(cx, cy)
        fo, gxo, gyo = opt.value_grad(cx, cy)
        assert fr == fo
        assert np.array_equal(gxr, gxo) and np.array_equal(gyr, gyo)

    @pytest.mark.parametrize("kind", ["wa", "lse"])
    def test_rebind_takes_new_net_weights(self, kind):
        # A weight-only change gives a new table that shares ``net_ptr``
        # with the old one, so rebind keeps the topology; the weights
        # must still be the new table's.
        d = bench(seed=3)
        cx, cy = d.pull_centers()
        opt = make_model(kind, d.pin_arrays(), len(d.nodes), 8.0)
        before = opt.value(cx, cy)
        d.nets[0].weight = 5.0
        arrays = d.pin_arrays()
        assert arrays.net_ptr is opt.arrays.net_ptr
        opt.rebind(arrays)
        fresh = make_model(kind, arrays, len(d.nodes), 8.0)
        twin = make_model_reference(kind, arrays, len(d.nodes), 8.0)
        expected = twin.value_grad(cx, cy)
        assert expected[0] != before
        assert_same_bits(opt.value_grad(cx, cy), expected)
        assert_same_bits(fresh.value_grad(cx, cy), expected)
        assert bits(opt.value(cx, cy)) == bits(expected[0])

    @pytest.mark.parametrize("kind", ["wa", "lse"])
    def test_twin_never_touches_degree_major_table(self, kind, monkeypatch):
        # The twin keeps the pin-table layout and reduceat: with every
        # degree-major table replaced by one that raises on use, the
        # optimized model fails and the twin still gives its results.
        class TableRead(Exception):
            pass

        class Untouchable:
            def __init__(self, *args):
                pass

            def __getattr__(self, name):
                raise TableRead(name)

        d = bench(seed=3, cells=300)
        cx, cy = d.pull_centers()
        expected = make_model(kind, d.pin_arrays(), len(d.nodes), 8.0).value_grad(cx, cy)
        monkeypatch.setattr(smooth, "_DegreeMajor", Untouchable)
        d.netlist_changed()  # a fresh pin table, so no cached compaction
        arrays = d.pin_arrays()
        with pytest.raises(TableRead):
            make_model(kind, arrays, len(d.nodes), 8.0)
        twin = make_model_reference(kind, arrays, len(d.nodes), 8.0)
        twin._comp.degree_major = Untouchable()
        assert_same_bits(twin.value_grad(cx, cy), expected)
        f = twin.value_probe(cx, cy)
        assert_same_bits((f, *twin.finish_grad()), expected)
        assert bits(twin.value(cx, cy)) == bits(expected[0])
        twin.rebind(arrays)
        assert_same_bits(twin.value_grad(cx, cy), expected)


def _density_pair(design, grid_bins=256):
    grid = BinGrid(design.core, 16, grid_bins // 16)
    w, h = design.placed_sizes()
    movable = design.movable_mask()
    fixed = [
        (n.rect.xl, n.rect.yl, n.rect.xh, n.rect.yh)
        for n in design.nodes
        if n.kind.is_fixed and n.kind.blocks_placement
    ]
    ref = ReferenceBellDensity(grid, w, h, movable, fixed_rects=fixed)
    opt = BellDensity(grid, w, h, movable, fixed_rects=fixed)
    return ref, opt


class TestDensityEquivalence:
    @pytest.mark.parametrize(
        "kw",
        [
            {"seed": 1},
            {"seed": 5, "macros": 6, "macro_area_fraction": 0.45},  # macro-heavy
            {"seed": 9, "num_fences": 2},
        ],
    )
    def test_value_grad_bitwise(self, kw):
        d = bench(cells=250, **kw)
        cx, cy = d.pull_centers()
        ref, opt = _density_pair(d)
        fr, gxr, gyr = ref.value_grad(cx, cy)
        fo, gxo, gyo = opt.value_grad(cx, cy)
        assert fr == fo
        assert np.array_equal(gxr, gxo)
        assert np.array_equal(gyr, gyo)

    def test_potential_field_bitwise(self):
        d = bench(seed=5, cells=250, macros=6, macro_area_fraction=0.45)
        cx, cy = d.pull_centers()
        ref, opt = _density_pair(d)
        phi_r, _, _ = ref.potential(cx, cy)
        phi_o, _, _ = opt.potential(cx, cy)
        assert np.array_equal(phi_r, phi_o)

    def test_probe_split_matches_value_grad(self):
        d = bench(seed=5, cells=250, macros=6, macro_area_fraction=0.45)
        cx, cy = d.pull_centers()
        ref, opt = _density_pair(d)
        f, gx, gy = ref.value_grad(cx, cy)
        fp = opt.value_probe(cx, cy)
        gxp, gyp = opt.finish_grad()
        assert f == fp
        assert np.array_equal(gx, gxp)
        assert np.array_equal(gy, gyp)

    def test_second_evaluation_reuses_buffers(self):
        d = bench(seed=5, cells=250, macros=6, macro_area_fraction=0.45)
        cx, cy = d.pull_centers()
        ref, opt = _density_pair(d)
        opt.value_grad(cx, cy)
        fr, gxr, gyr = ref.value_grad(cx + 2.0, cy + 1.0)
        fo, gxo, gyo = opt.value_grad(cx + 2.0, cy + 1.0)
        assert fr == fo
        assert np.array_equal(gxr, gxo) and np.array_equal(gyr, gyo)


class TestRasterizeEquivalence:
    def test_mixed_sizes_bitwise(self):
        rng = np.random.default_rng(3)
        grid = BinGrid(Rect(0, 0, 100, 80), 25, 20)
        n = 300
        xl = rng.uniform(-5, 95, n)
        yl = rng.uniform(-5, 75, n)
        xh = xl + rng.uniform(0.5, 30, n)  # cells through macro-sized rects
        yh = yl + rng.uniform(0.5, 24, n)
        vals = rng.uniform(0.1, 2.0, n)
        ref = rasterize_rects_reference(grid, xl, yl, xh, yh, vals)
        opt = grid.rasterize_rects(xl, yl, xh, yh, vals)
        assert np.array_equal(ref, opt)


class TestCGEquivalence:
    def test_trajectory_bitwise_on_rosenbrock(self):
        def vg(x):
            f = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2
            g = np.array(
                [
                    -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1 - x[0]),
                    200.0 * (x[1] - x[0] ** 2),
                ]
            )
            return f, g

        x0 = np.array([-1.2, 1.0])
        ref = minimize_cg_reference(vg, x0, max_iter=60, step_init=0.1, record=True)
        opt = minimize_cg(vg, x0, max_iter=60, step_init=0.1, record=True)
        assert ref.trajectory == opt.trajectory
        assert np.array_equal(ref.x, opt.x)
        assert ref.iterations == opt.iterations

    def test_probe_protocol_matches_plain_objective(self):
        calls = {"probe": 0, "finish": 0}

        def vg(x):
            f = float(np.sum((x - 3.0) ** 4 + 0.5 * x * x))
            g = 4.0 * (x - 3.0) ** 3 + x
            return f, g

        def probed(x):
            return vg(x)

        def probe(x):
            calls["probe"] += 1
            f, g = vg(x)
            probe.grad = g
            return f

        def finish():
            calls["finish"] += 1
            return probe.grad

        probed.probe = probe
        probed.finish_grad = finish
        x0 = np.linspace(-2, 2, 7)
        plain = minimize_cg(vg, x0.copy(), max_iter=40, step_init=0.2, record=True)
        split = minimize_cg(probed, x0.copy(), max_iter=40, step_init=0.2, record=True)
        assert plain.trajectory == split.trajectory
        assert np.array_equal(plain.x, split.x)
        assert calls["probe"] > 0 and calls["finish"] > 0
        assert calls["finish"] <= calls["probe"]  # rejected probes skip gradients


class TestOrientationEquivalence:
    @pytest.mark.parametrize("seed", [2, 6])
    def test_orientation_decisions_identical(self, seed):
        d_ref = bench(seed=seed, macros=4)
        d_opt = bench(seed=seed, macros=4)
        changed_ref = 0
        # optimize_macro_orientations with the original per-pin evaluation
        for node in d_ref.nodes:
            if node.kind is NodeKind.MACRO:
                best, _ = best_orientation(d_ref, node)
                if best is not node.orientation:
                    d_ref.set_orientation(node, best)
                    changed_ref += 1
        changed_opt = optimize_macro_orientations(d_opt)
        assert changed_ref == changed_opt
        assert [n.orientation for n in d_ref.nodes] == [
            n.orientation for n in d_opt.nodes
        ]


class TestEndToEndEquivalence:
    @pytest.mark.parametrize(
        "kw, cfg_kw",
        [
            ({"seed": 11, "cells": 220, "macros": 4}, {}),
            ({"seed": 5, "cells": 160, "macros": 3, "num_fences": 2}, {}),
            ({"seed": 7, "cells": 180, "macros": 2}, {"wirelength_model": "lse"}),
            pytest.param("rh02", {}, id="rh02"),
            pytest.param("rh04", {}, id="rh04", marks=pytest.mark.nightly),
        ],
    )
    def test_final_placements_bitwise(self, kw, cfg_kw):
        def place():
            d = make_suite_design(kw) if isinstance(kw, str) else bench(**kw)
            report = GlobalPlacer(GPConfig(**cfg_kw)).place(d)
            return positions(d), report, d

        opt, report, design = place()
        with use_reference() as calls:
            ref, _, _ = place()
        assert [t for t in GP_TWINS if not calls[t]] == []
        assert np.array_equal(opt[0], ref[0])
        assert np.array_equal(opt[1], ref[1])
        assert opt[2] == ref[2]
        if isinstance(kw, str):
            assert not (
                report.guard_rollbacks or report.guard_exhausted or report.budget_exhausted
            ), "a resilience fallback fired"
            fresh = {
                "hpwl": design.hpwl(),
                "overflow": report.final_overflow,
                "gp_iterations": len(report.iterations),
            }
            assert_quality(fresh, SUITE_QUALITY[kw])
