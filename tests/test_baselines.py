"""Tests for the baseline placers."""

import pytest

from repro.baselines import QuadraticConfig, QuadraticPlacer, random_placement, run_baseline_flow
from repro.benchgen import BenchmarkSpec, make_benchmark
from repro.dp import DetailedPlacer
from repro.flow import FlowConfig, NTUplace4H
from repro.obs import RunRegistry, Tracer, use_tracer
from repro.resilience import inject


def bench(seed=41, **kw):
    base = dict(
        name="b", num_cells=250, num_macros=2, num_fixed_macros=1,
        num_terminals=12, utilization=0.55, seed=seed,
    )
    base.update(kw)
    return make_benchmark(BenchmarkSpec(**base))


def no_dp() -> FlowConfig:
    cfg = FlowConfig.wirelength_only()
    cfg.run_dp = False
    return cfg


class TestRandom:
    def test_inside_core(self):
        d = bench()
        random_placement(d, seed=1)
        for n in d.nodes:
            if n.is_movable:
                assert d.core.contains_rect(n.rect)

    def test_fenced_near_fence(self):
        d = bench(num_fences=1, fence_level=1, num_cells=300)
        random_placement(d, seed=1)
        for n in d.nodes:
            if n.region is not None and n.is_movable:
                box = d.regions[n.region].bounding_box
                assert box.inflated(n.placed_width).contains_point(n.rect.center)

    def test_deterministic(self):
        d1, d2 = bench(), bench()
        random_placement(d1, seed=7)
        random_placement(d2, seed=7)
        assert d1.hpwl() == d2.hpwl()


class TestQuadratic:
    def test_beats_random(self):
        d = bench(seed=42)
        QuadraticPlacer().place(d)
        quad = d.hpwl()
        d2 = bench(seed=42)
        random_placement(d2, seed=0)
        assert quad < d2.hpwl()

    def test_spreads_cells(self):
        from repro.density import density_overflow

        d = bench(seed=43)
        QuadraticPlacer().place(d)
        assert density_overflow(d, nx=16, ny=16) < 0.6

    def test_hpwl_history_recorded(self):
        d = bench(seed=44)
        info = QuadraticPlacer(QuadraticConfig(iterations=4)).place(d)
        assert info["iterations"] == 4
        assert len(info["hpwl"]) == 4

    def test_fixed_untouched(self):
        d = bench(seed=45)
        before = {n.index: (n.x, n.y) for n in d.nodes if not n.is_movable}
        QuadraticPlacer().place(d)
        for idx, (x, y) in before.items():
            assert (d.nodes[idx].x, d.nodes[idx].y) == (x, y)

    def test_empty_design(self):
        from repro.db import Design
        from repro.geometry import Rect

        d = Design("e", core=Rect(0, 0, 10, 10))
        info = QuadraticPlacer().place(d)
        assert info["iterations"] == 0


class TestBaselineFlow:
    def test_quadratic_flow_end_to_end(self):
        d = bench(seed=46)
        res = run_baseline_flow(d, "quadratic", config=no_dp(), route=True)
        assert res.legal
        assert res.rc >= 0
        assert res.hpwl_final > 0

    def test_random_flow_end_to_end(self):
        d = bench(seed=47)
        res = run_baseline_flow(d, "random", config=no_dp(), route=False)
        assert res.legal

    def test_unknown_baseline_raises(self):
        d = bench(seed=48)
        with pytest.raises(ValueError):
            run_baseline_flow(d, "martian")

    def test_quadratic_beats_random_flow(self):
        dq = bench(seed=49)
        rq = run_baseline_flow(dq, "quadratic", config=no_dp(), route=False)
        dr = bench(seed=49)
        rr = run_baseline_flow(dr, "random", config=no_dp(), route=False)
        assert rq.hpwl_final < rr.hpwl_final


class TestOneFlow:
    """A baseline runs as the GP stage of the main flow, not a second flow."""

    def test_no_dp_config_runs_no_dp(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            DetailedPlacer, "run", lambda self, *a, **k: calls.append(a)
        )
        res = run_baseline_flow(bench(seed=50), "quadratic", config=no_dp(), route=False)
        assert calls == []
        assert "detailed_place" not in res.stage_seconds
        assert res.gp_report is not None

    def test_legal_fault_falls_back_to_tetris(self):
        with inject("raise.legal"):
            res = run_baseline_flow(bench(seed=51), "quadratic", config=no_dp(), route=False)
        assert res.degraded
        assert ("legal", "tetris_fallback") in [
            (e["stage"], e["reason"]) for e in res.degradation
        ]
        assert res.legal

    def test_stage_spans(self):
        with use_tracer(Tracer()) as tracer:
            run_baseline_flow(bench(seed=52), "random", config=no_dp())
        paths = {s.path for s in tracer.finished_spans()}
        assert {"flow/gp", "flow/macro_legal_refine", "flow/legal", "flow/route"} <= paths

    def test_run_records_name_the_placer(self, tmp_path):
        runs = str(tmp_path / "runs")
        cfg = no_dp()
        cfg.runs_dir = runs
        quadratic = run_baseline_flow(bench(seed=53), "quadratic", config=cfg, route=False)
        cfg = no_dp()
        cfg.runs_dir = runs
        cfg.gp.clustering = False
        cfg.gp.max_outer_iterations = 4
        main_flow = NTUplace4H(cfg).run(bench(seed=53), route=False)
        registry = RunRegistry(runs)
        assert registry.get(quadratic.run_id)["flow"] == "quadratic"
        assert registry.get(main_flow.run_id)["flow"] == "ntuplace4h"
