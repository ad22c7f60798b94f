"""End-to-end tests for the global placer."""

import numpy as np
import pytest

from repro.benchgen import BenchmarkSpec, make_benchmark
from repro.db import Design, NodeKind
from repro.density import density_overflow
from repro.gp import GlobalPlacer, GPConfig, fence_violation
from repro.gp import placer as placer_mod
from repro.geometry import Rect
from repro.obs import Tracer, use_tracer


def bench(seed=21, cells=300, utilization=0.6, **kw):
    spec = BenchmarkSpec(
        name="t", num_cells=cells, num_macros=2, num_fixed_macros=1,
        num_terminals=16, utilization=utilization, seed=seed, **kw,
    )
    return make_benchmark(spec)


def fast_cfg(**kw):
    base = dict(
        clustering=False,
        max_outer_iterations=14,
        inner_iterations=16,
        routability=False,
        optimize_orientations=False,
    )
    base.update(kw)
    return GPConfig(**base)


class TestPlacement:
    def test_overflow_decreases(self):
        d = bench()
        report = GlobalPlacer(fast_cfg()).place(d)
        assert report.num_iterations >= 2
        first = report.iterations[0].overflow
        last = report.iterations[-1].overflow
        assert last < first

    def test_final_positions_inside_core(self):
        d = bench()
        GlobalPlacer(fast_cfg()).place(d)
        core = d.core
        for n in d.nodes:
            if n.is_movable:
                r = n.rect
                assert r.xl >= core.xl - 1e-6 and r.xh <= core.xh + 1e-6
                assert r.yl >= core.yl - 1e-6 and r.yh <= core.yh + 1e-6

    def test_beats_random_hpwl(self):
        d = bench(seed=22)
        GlobalPlacer(fast_cfg()).place(d)
        placed = d.hpwl()
        d2 = bench(seed=22)
        rng = np.random.default_rng(0)
        core = d2.core
        for n in d2.nodes:
            if n.is_movable:
                n.move_center_to(
                    float(rng.uniform(core.xl + 2, core.xh - 2)),
                    float(rng.uniform(core.yl + 2, core.yh - 2)),
                )
        assert placed < 0.7 * d2.hpwl()

    def test_fixed_nodes_untouched(self):
        d = bench(seed=23)
        before = {n.index: (n.x, n.y) for n in d.nodes if not n.is_movable}
        GlobalPlacer(fast_cfg()).place(d)
        for idx, (x, y) in before.items():
            assert (d.nodes[idx].x, d.nodes[idx].y) == (x, y)

    def test_deterministic(self):
        r = []
        for _ in range(2):
            d = bench(seed=24)
            GlobalPlacer(fast_cfg()).place(d)
            r.append(d.hpwl())
        assert r[0] == pytest.approx(r[1])

    def test_empty_design(self):
        d = Design("t", core=Rect(0, 0, 10, 10))
        report = GlobalPlacer(fast_cfg()).place(d)
        assert report.num_iterations == 0

    def test_report_trajectory_monotone_overflow_trend(self):
        d = bench(seed=25)
        report = GlobalPlacer(fast_cfg(max_outer_iterations=20)).place(d)
        ovfl = [it.overflow for it in report.iterations]
        # overall trend must be down (allow local wobble)
        assert ovfl[-1] <= ovfl[0]
        assert min(ovfl) == pytest.approx(ovfl[-1], abs=0.1)


class TestFences:
    def test_fenced_cells_end_inside(self):
        d = bench(seed=26, cells=400, num_fences=1, fence_level=1)
        GlobalPlacer(fast_cfg(max_outer_iterations=18)).place(d)
        count, dist = fence_violation(d)
        assert count == 0

    def test_freeze_macros_keeps_them(self):
        d = bench(seed=27)
        GlobalPlacer(fast_cfg()).place(d)
        macro_pos = {
            n.index: (n.x, n.y) for n in d.nodes if n.kind is NodeKind.MACRO
        }
        # The refine phase holds the macros still; its cap is
        # REFINE_ITERATIONS whatever the budget.
        report = GlobalPlacer(fast_cfg(max_outer_iterations=10)).place(
            d, refine=True
        )
        assert 1 <= report.num_iterations <= placer_mod.REFINE_ITERATIONS
        for idx, (x, y) in macro_pos.items():
            assert (d.nodes[idx].x, d.nodes[idx].y) == pytest.approx((x, y))


class TestRefinePlateau:
    """The refine stops once REFINE_PATIENCE committed iterations have
    not lowered its best overflow; the GP phase keeps its schedule."""

    @staticmethod
    def refined(utilization):
        # GP first, then a refine capped at int(40 * 0.4) = 16.
        d = bench(utilization=utilization)
        GlobalPlacer(fast_cfg()).place(d)
        with use_tracer(Tracer()) as tracer:
            report = GlobalPlacer(fast_cfg(max_outer_iterations=40)).place(
                d, refine=True
            )
        return report, tracer

    def test_stalled_refine_stops_before_its_cap(self):
        # At 80% utilization the refine bottoms out above the target.
        report, _ = self.refined(0.8)
        ovfl = [it.overflow for it in report.iterations]
        patience = placer_mod.REFINE_PATIENCE
        assert patience < len(ovfl) < 16
        assert report.final_overflow > placer_mod.OVERFLOW_TARGET
        best = min(ovfl[:-patience])
        assert all(o >= best for o in ovfl[-patience:])
        # The stop comes exactly REFINE_PATIENCE iterations after the best.
        assert ovfl.index(min(ovfl)) == len(ovfl) - patience - 1

    def test_traced_refine_records_the_plateau(self):
        report, tracer = self.refined(0.8)
        ovfl = [it.overflow for it in report.iterations]
        (evt,) = [e for e in tracer.events() if e.name == "plateau"]
        assert evt.attrs == {
            "outer": report.iterations[-1].outer,
            "best_outer": report.iterations[ovfl.index(min(ovfl))].outer,
            "best_overflow": min(ovfl),
        }
        assert tracer.metrics.snapshot()["counters"] == {"gp.plateau_stops": 1.0}

    def test_refine_meeting_the_target_stops_on_it(self):
        report, tracer = self.refined(0.6)
        ovfl = [it.overflow for it in report.iterations]
        assert len(ovfl) < 16
        assert ovfl[-1] <= placer_mod.OVERFLOW_TARGET < min(ovfl[:-1])
        assert not [e for e in tracer.events() if e.name == "plateau"]
        assert "gp.plateau_stops" not in tracer.metrics.snapshot()["counters"]

    def test_gp_phase_runs_past_its_overflow_plateau(self):
        # refine=False keeps the λ schedule: this design's overflow stops
        # falling long before the cap, and GP still runs to the cap, with
        # short CG solves from its first stall at or below
        # INFLATION_START_OVERFLOW.
        d = bench(utilization=0.8)
        report = GlobalPlacer(fast_cfg(max_outer_iterations=30)).place(d)
        ovfl = [it.overflow for it in report.iterations]
        assert len(ovfl) == 30
        assert ovfl.index(min(ovfl)) + placer_mod.REFINE_PATIENCE < 29
        assert min(ovfl) > placer_mod.OVERFLOW_TARGET
        stall = first_stall(ovfl)
        assert stall < 29
        assert all(
            it.cg_iters <= placer_mod.PLATEAU_INNER_ITERATIONS
            for it in report.iterations[stall + 1:]
        )


def first_stall(ovfl):
    """The first outer iteration at or below INFLATION_START_OVERFLOW
    that does not lower the best overflow before it."""
    return next(
        i
        for i in range(1, len(ovfl))
        if ovfl[i] <= placer_mod.INFLATION_START_OVERFLOW
        and ovfl[i] >= min(ovfl[:i])
    )


def digest(design):
    return [(n.x, n.y, n.orientation) for n in design.nodes]


class TestPlateauCGBudget:
    """From GP's first stall at or below INFLATION_START_OVERFLOW, each
    CG solve runs at most PLATEAU_INNER_ITERATIONS iterations."""

    @staticmethod
    def run(utilization, monkeypatch=None):
        # ``monkeypatch`` given: a plateau budget no lower than the
        # configured one, so no CG solve is ever shortened.
        cfg = fast_cfg(max_outer_iterations=30)
        if monkeypatch is not None:
            monkeypatch.setattr(
                placer_mod, "PLATEAU_INNER_ITERATIONS", cfg.inner_iterations
            )
        d = bench(utilization=utilization)
        with use_tracer(Tracer()) as tracer:
            report = GlobalPlacer(cfg).place(d)
        return d, report, tracer

    def test_iterations_before_the_stall_are_unchanged(self, monkeypatch):
        budget = placer_mod.PLATEAU_INNER_ITERATIONS
        _, short, _ = self.run(0.8)
        _, full, _ = self.run(0.8, monkeypatch)
        ovfl = [it.overflow for it in short.iterations]
        stall = first_stall(ovfl)
        assert short.iterations[: stall + 1] == full.iterations[: stall + 1]
        # Past the stall the configured budget still runs long solves.
        assert max(it.cg_iters for it in full.iterations[stall + 1:]) > budget

    def test_design_without_a_stall_places_bit_identically(self, monkeypatch):
        d_short, short, tracer = self.run(0.6)
        d_full, _, _ = self.run(0.6, monkeypatch)
        ovfl = [it.overflow for it in short.iterations]
        # Overflow falls to the target and never stalls on the way.
        assert ovfl[-1] <= placer_mod.OVERFLOW_TARGET
        assert all(b < a for a, b in zip(ovfl, ovfl[1:]))
        assert digest(d_short) == digest(d_full)
        assert not [e for e in tracer.events() if e.name == "cg_budget"]
        assert "gp.plateau_short_cg" not in tracer.metrics.snapshot()["counters"]

    def test_traced_run_records_the_budget_drop(self):
        _, report, tracer = self.run(0.8)
        ovfl = [it.overflow for it in report.iterations]
        stall = first_stall(ovfl)
        (evt,) = [e for e in tracer.events() if e.name == "cg_budget"]
        assert evt.attrs == {
            "outer": stall,
            "best_outer": ovfl.index(min(ovfl[:stall])),
            "best_overflow": min(ovfl[:stall]),
            "inner": placer_mod.PLATEAU_INNER_ITERATIONS,
        }
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["gp.plateau_short_cg"] == len(ovfl) - stall - 1


class TestWirelengthModels:
    @pytest.mark.parametrize("model", ["wa", "lse"])
    def test_both_models_converge(self, model):
        d = bench(seed=28)
        report = GlobalPlacer(fast_cfg(wirelength_model=model)).place(d)
        assert report.iterations[-1].overflow < report.iterations[0].overflow


class TestRoutabilityMode:
    def test_inflation_engages_on_congested(self):
        d = bench(seed=29, cells=400, cap_factor=1.0, congested_band=0.5)
        cfg = fast_cfg(routability=True, max_outer_iterations=20)
        report = GlobalPlacer(cfg).place(d)
        assert report.iterations[-1].mean_inflation > 1.0

    def test_routability_off_no_inflation(self):
        d = bench(seed=29, cells=400, cap_factor=1.0, congested_band=0.5)
        report = GlobalPlacer(fast_cfg(max_outer_iterations=12)).place(d)
        assert all(it.mean_inflation == 1.0 for it in report.iterations)


class TestClusteredVcycle:
    def test_clustered_run_matches_quality(self, monkeypatch):
        d1 = bench(seed=30, cells=600)
        cfg = fast_cfg(max_outer_iterations=20)
        GlobalPlacer(cfg).place(d1)
        flat_hpwl = d1.hpwl()
        d2 = bench(seed=30, cells=600)
        monkeypatch.setattr(placer_mod, "CLUSTER_MIN_NODES", 100)
        cfg2 = fast_cfg(clustering=True, max_outer_iterations=20)
        report = GlobalPlacer(cfg2).place(d2)
        assert report.coarse_iterations  # V-cycle actually ran
        assert d2.hpwl() < 1.6 * flat_hpwl
        assert density_overflow(d2) < 0.35
