"""End-to-end tests for the NTUplace4h flow."""

import pytest

from repro.benchgen import BenchmarkSpec, make_benchmark
from repro.dp import DetailedPlacer, DPConfig
from repro.flow import FlowConfig, NTUplace4H, wirelength_driven_flow
from repro.gp.placer import REFINE_ITERATIONS, REFINE_PATIENCE
from repro.legal import Legalizer, check_legal
from repro.obs import Tracer, use_tracer


def bench(seed=61, **kw):
    base = dict(
        name="f", num_cells=250, num_macros=2, num_fixed_macros=1,
        num_terminals=12, utilization=0.55, cap_factor=4.0, seed=seed,
    )
    base.update(kw)
    return make_benchmark(BenchmarkSpec(**base))


def fast_flow(routability=True) -> FlowConfig:
    cfg = FlowConfig() if routability else FlowConfig.wirelength_only()
    cfg.gp.clustering = False
    cfg.gp.max_outer_iterations = 14
    cfg.gp.inner_iterations = 16
    cfg.dp = DPConfig(rounds=1, congestion_aware=routability)
    return cfg


class TestFlow:
    def test_end_to_end_legal_and_routed(self):
        d = bench()
        res = NTUplace4H(fast_flow()).run(d)
        assert res.legal
        assert check_legal(d).ok
        assert res.rc > 0
        assert res.scaled_hpwl >= res.hpwl_final
        assert res.hpwl_gp > 0 and res.hpwl_legal > 0

    def test_stage_times_recorded(self):
        d = bench(seed=62)
        res = NTUplace4H(fast_flow()).run(d)
        for stage in ("global_place", "macro_legal_refine", "legalize", "detailed_place", "route"):
            assert stage in res.stage_seconds
        assert res.runtime_seconds > 0

    def test_no_route_mode(self):
        d = bench(seed=63)
        res = NTUplace4H(fast_flow()).run(d, route=False)
        assert res.rc == 0.0
        assert res.scaled_hpwl == res.hpwl_final

    def test_dp_improves_hpwl(self):
        d = bench(seed=64)
        res = NTUplace4H(fast_flow()).run(d, route=False)
        assert res.hpwl_final <= res.hpwl_legal + 1e-6

    def test_as_row_fields(self):
        d = bench(seed=65)
        res = NTUplace4H(fast_flow()).run(d)
        row = res.as_row()
        for key in ("design", "HPWL", "RC", "sHPWL", "legal", "time_s"):
            assert key in row

    def test_refine_takes_its_share_of_the_gp_budget(self):
        # The post-macro refine's cap is REFINE_ITERATIONS whatever
        # max_outer_iterations is, so a 10-iteration budget's refine may
        # run past int(10 * 0.4) = 4; its plateau stop or the target
        # ends it before the cap.
        d = bench(utilization=0.8)
        cfg = fast_flow()
        cfg.gp.max_outer_iterations = 10
        cfg.run_dp = False
        with use_tracer(Tracer()) as tracer:
            NTUplace4H(cfg).run(d, route=False)
        assert len(tracer.metrics.samples("gp.hpwl")) == 10
        assert 4 < len(tracer.metrics.samples("gp.refine.hpwl")) <= REFINE_ITERATIONS

    def test_refine_stops_at_its_overflow_plateau(self):
        # This dense design's refine overflow bottoms out above the
        # target and stops REFINE_PATIENCE iterations later, before 10
        # of its REFINE_ITERATIONS.  GP keeps its budget of 25.
        d = bench(utilization=0.8)
        cfg = fast_flow()
        cfg.gp.max_outer_iterations = 25
        cfg.run_dp = False
        with use_tracer(Tracer()) as tracer:
            NTUplace4H(cfg).run(d, route=False)
        assert len(tracer.metrics.samples("gp.hpwl")) == 25
        ovfl = [v for _, v in tracer.metrics.series("gp.refine.overflow")]
        assert len(ovfl) < 10
        (evt,) = [e for e in tracer.events() if e.name == "plateau"]
        assert evt.path == "flow/macro_legal_refine/refine"
        assert evt.attrs["outer"] == len(ovfl) - 1
        assert evt.attrs["best_overflow"] == min(ovfl)
        assert evt.attrs["best_outer"] == len(ovfl) - 1 - REFINE_PATIENCE
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["gp.refine.plateau_stops"] == 1

    def test_wirelength_only_factory(self):
        flow = wirelength_driven_flow()
        assert flow.config.gp.routability is False
        assert flow.config.dp.congestion_aware is False

    def test_fenced_flow_legal(self):
        d = bench(seed=66, num_cells=400, num_fences=1, fence_level=1)
        res = NTUplace4H(fast_flow()).run(d, route=False)
        assert res.legal, res.legal_result.report.summary()

    def test_flow_result_runtime_sum(self):
        d = bench(seed=67)
        res = NTUplace4H(fast_flow()).run(d)
        assert res.runtime_seconds == pytest.approx(sum(res.stage_seconds.values()))

    def test_weight_mutation_does_not_corrupt_reported_hpwl(self):
        """Flows that upweight nets must still score with original weights."""
        d1 = bench(seed=71, cap_factor=1.2, congested_band=0.5)
        cfg = fast_flow()
        cfg.net_weighting = True
        res = NTUplace4H(cfg).run(d1, route=False)
        # recompute with weights forced back to 1 (generator weights are 1)
        for net in d1.nets:
            net.weight = 1.0
        assert res.hpwl_final == pytest.approx(d1.hpwl(), rel=1e-9)

    def test_timing_weighting_flag(self):
        d = bench(seed=72)
        cfg = fast_flow(routability=False)
        cfg.timing_weighting = True
        res = NTUplace4H(cfg).run(d, route=False)
        assert res.legal

    def test_net_weighting_flag(self):
        d = bench(seed=69, cap_factor=1.2, congested_band=0.5)
        cfg = fast_flow()
        cfg.net_weighting = True
        res = NTUplace4H(cfg).run(d, route=False)
        assert res.legal
        assert max(net.weight for net in d.nets) > 1.0  # some nets upweighted

    def test_whitespace_reservation_off(self):
        d = bench(seed=70, congested_band=0.5)
        cfg = fast_flow()
        cfg.gp.whitespace_reservation = False
        res = NTUplace4H(cfg).run(d, route=False)
        assert res.legal


class TestFlowEndAudit:
    """The flow audits its final placement itself: a stage that breaks
    a legal placement leaves the result illegal and degraded."""

    @staticmethod
    def corrupt_after(monkeypatch, stage_cls, method, corrupt):
        # Run the real stage, then break its placement before the audit.
        original = getattr(stage_cls, method)

        def wrapped(self, design, *args, **kwargs):
            out = original(self, design, *args, **kwargs)
            corrupt(design)
            return out

        monkeypatch.setattr(stage_cls, method, wrapped)

    def test_overlap_after_dp_degrades(self, monkeypatch):
        def overlap(design):
            # Stack the second cell of the lowest row onto the first.
            cells = sorted(
                (n for n in design.nodes if n.is_movable and n.region is None),
                key=lambda n: (n.y, n.x),
            )
            a, b = cells[0], cells[1]
            assert a.y == b.y
            b.x = a.x

        self.corrupt_after(monkeypatch, DetailedPlacer, "run", overlap)
        d = bench(seed=64)
        res = NTUplace4H(fast_flow()).run(d, route=False)
        assert not res.legal and res.degraded
        (entry,) = [e for e in res.degradation if e["reason"] == "illegal_result"]
        assert entry["stage"] == "dp"
        assert entry["violations"] == len(check_legal(d).violations) >= 1
        assert entry["first"][0].startswith("overlap:")

    def test_fence_escape_after_legalization_degrades(self, monkeypatch):
        def escape(design):
            # Move one fenced cell to the core's lower-left site, which
            # lies outside its fence.
            cell = next(n for n in design.nodes if n.is_movable and n.region is not None)
            region = design.regions[cell.region]
            core = design.core
            cell.x, cell.y = core.xl, design.rows[0].y
            assert not region.contains_rect(cell.rect)

        self.corrupt_after(monkeypatch, Legalizer, "legalize", escape)
        d = bench(seed=66, num_cells=400, num_fences=1, fence_level=1)
        cfg = fast_flow()
        cfg.run_dp = False
        res = NTUplace4H(cfg).run(d, route=False)
        assert not res.legal and res.degraded
        (entry,) = [e for e in res.degradation if e["reason"] == "illegal_result"]
        assert entry["stage"] == "legal"
        assert any("outside fence" in v for v in entry["first"])

    def test_legal_result_is_audited_once(self, monkeypatch):
        from repro.flow import ntuplace4h

        audits = []

        def counted(design):
            audits.append(design.name)
            return check_legal(design)

        monkeypatch.setattr(ntuplace4h, "check_legal", counted)
        res = NTUplace4H(fast_flow()).run(bench(seed=62), route=False)
        assert res.legal and not res.degraded
        assert audits == ["f"]


class TestMetricsReport:
    def test_comparison_table(self):
        from repro.metrics import comparison_table

        d1 = bench(seed=68)
        r1 = NTUplace4H(fast_flow()).run(d1)
        d2 = bench(seed=68)
        r2 = NTUplace4H(fast_flow(routability=False)).run(d2)
        table = comparison_table({"4h": {"f": r1}, "wl": {"f": r2}}, title="T")
        assert "4h.sHPWL" in table and "wl.sHPWL" in table
        assert "ratio/gmean" in table

    def test_format_table_alignment(self):
        from repro.metrics import format_table

        out = format_table([{"a": 1, "b": 2.5}, {"a": 100, "b": 0.125}])
        lines = out.splitlines()
        assert len(lines) == 4

    def test_format_table_empty(self):
        from repro.metrics import format_table

        assert "(no rows)" in format_table([])

    def test_geometric_mean(self):
        from repro.metrics import geometric_mean

        assert geometric_mean([1, 4]) == pytest.approx(2.0)
        assert geometric_mean([]) != geometric_mean([])  # nan

    def test_normalize_rows(self):
        from repro.metrics import normalize_rows

        rows = [
            {"design": "a", "flow": "base", "hpwl": 100.0},
            {"design": "a", "flow": "new", "hpwl": 90.0},
        ]
        out = normalize_rows(rows, "hpwl", "base")
        assert out[1]["hpwl_ratio"] == pytest.approx(0.9)
