"""Tests for the observability subsystem (repro.obs)."""

import json
import logging
import os
import threading
import time

import pytest

from repro.benchgen import BenchmarkSpec, make_benchmark
from repro.dp import DPConfig
from repro.flow import FlowConfig, NTUplace4H
from repro.obs import (
    NULL_REGISTRY,
    NULL_TRACER,
    SCHEMA_VERSION,
    Histogram,
    MetricsRegistry,
    Tracer,
    configure_logging,
    format_trace_summary,
    get_logger,
    get_tracer,
    read_jsonl,
    set_tracer,
    span_rows,
    use_tracer,
    write_jsonl,
)


class TestSpanNesting:
    def test_paths_and_depths(self):
        t = Tracer()
        with t.span("flow"):
            with t.span("gp"):
                with t.span("iter[0]"):
                    pass
                with t.span("iter[1]"):
                    pass
            with t.span("legal"):
                pass
        paths = [s.path for s in t.finished_spans()]
        assert paths == [
            "flow/gp/iter[0]",
            "flow/gp/iter[1]",
            "flow/gp",
            "flow/legal",
            "flow",
        ]
        depths = {s.path: s.depth for s in t.finished_spans()}
        assert depths["flow"] == 0
        assert depths["flow/gp"] == 1
        assert depths["flow/gp/iter[1]"] == 2

    def test_durations_and_attrs(self):
        t = Tracer()
        with t.span("work", design="rh01") as span:
            time.sleep(0.01)
        assert span.duration >= 0.009
        assert span.attrs == {"design": "rh01"}
        parent = t.finished_spans()[0]
        assert parent.duration >= parent.start - parent.start  # non-negative

    def test_exception_marks_span(self):
        t = Tracer()
        with pytest.raises(ValueError):
            with t.span("boom"):
                raise ValueError("x")
        (span,) = t.finished_spans()
        assert span.error == "ValueError"

    def test_events_carry_current_path(self):
        t = Tracer()
        with t.span("flow"):
            t.event("milestone", k=1)
        (evt,) = t.events()
        assert evt.path == "flow"
        assert evt.attrs == {"k": 1}

    def test_threads_nest_independently(self):
        t = Tracer()

        def worker(name):
            with t.span(name):
                with t.span("inner"):
                    time.sleep(0.005)

        threads = [threading.Thread(target=worker, args=(f"w{i}",)) for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        paths = sorted(s.path for s in t.finished_spans())
        assert sorted(f"w{i}" for i in range(4)) == [p for p in paths if "/" not in p]
        assert all(f"w{i}/inner" in paths for i in range(4))


class TestDisabledTracer:
    def test_default_tracer_is_noop(self):
        assert get_tracer() is NULL_TRACER
        assert not get_tracer().enabled

    def test_null_span_is_shared_singleton(self):
        # The disabled path must not allocate: every span() call hands
        # back the same reusable context manager.
        a = NULL_TRACER.span("gp", design="x")
        b = NULL_TRACER.span("legal")
        assert a is b
        with a:
            pass
        assert NULL_TRACER.finished_spans() == []
        assert NULL_TRACER.current_path() == ""

    def test_null_metrics_accept_everything(self):
        NULL_REGISTRY.counter("c").inc()
        NULL_REGISTRY.gauge("g").set(3.0)
        NULL_REGISTRY.histogram("h").observe(1.0)
        NULL_REGISTRY.record("m", 0, 1.0)
        assert NULL_REGISTRY.samples() == []
        assert NULL_REGISTRY.snapshot()["counters"] == {}

    def test_disabled_overhead_is_tiny(self):
        # 100k disabled span entries/exits + metric records should be
        # well under a second on any machine (each is ~a method call).
        tracer = NULL_TRACER
        t0 = time.perf_counter()
        for i in range(100_000):
            with tracer.span("hot"):
                tracer.metrics.record("m", i, 1.0)
        assert time.perf_counter() - t0 < 1.0

    def test_use_tracer_restores_previous(self):
        t = Tracer()
        with use_tracer(t):
            assert get_tracer() is t
            with use_tracer(None):
                assert get_tracer() is NULL_TRACER
            assert get_tracer() is t
        assert get_tracer() is NULL_TRACER

    def test_set_tracer_none_resets(self):
        t = Tracer()
        set_tracer(t)
        try:
            assert get_tracer() is t
        finally:
            set_tracer(None)
        assert get_tracer() is NULL_TRACER


class TestMetrics:
    def test_counter_and_gauge(self):
        reg = MetricsRegistry()
        reg.counter("moves").inc()
        reg.counter("moves").inc(4)
        reg.gauge("lam").set(2.5)
        snap = reg.snapshot()
        assert snap["counters"]["moves"] == 5
        assert snap["gauges"]["lam"] == 2.5

    def test_histogram_bucketing(self):
        h = Histogram("t", buckets=(1.0, 2.0, 5.0))
        for v in (0.5, 1.0, 1.5, 4.0, 100.0):
            h.observe(v)
        # <=1: 0.5, 1.0 | <=2: 1.5 | <=5: 4.0 | overflow: 100.0
        assert h.counts == [2, 1, 1, 1]
        assert h.count == 5
        assert h.mean == pytest.approx(107.0 / 5)

    def test_histogram_buckets_sorted(self):
        h = Histogram("t", buckets=(5.0, 1.0))
        h.observe(2.0)
        assert h.buckets == (1.0, 5.0)
        assert h.counts == [0, 1, 0]

    def test_series_recording(self):
        reg = MetricsRegistry()
        for step, value in enumerate([10.0, 9.0, 8.5]):
            reg.record("gp.hpwl", step, value)
        reg.record("gp.overflow", 0, 0.9)
        assert reg.series("gp.hpwl") == [(0, 10.0), (1, 9.0), (2, 8.5)]
        assert len(reg.samples()) == 4
        assert [s.metric for s in reg.samples("gp.overflow")] == ["gp.overflow"]


class TestJsonlRoundTrip:
    def test_round_trip(self, tmp_path):
        t = Tracer()
        with t.span("flow", design="d"):
            with t.span("gp"):
                t.metrics.record("gp.hpwl", 0, 123.0)
                t.metrics.counter("gp.iters").inc(3)
            t.event("log", level="INFO", message="hello")
        path = tmp_path / "trace.jsonl"
        count = write_jsonl(t, path, meta={"design": "d"})
        records = read_jsonl(path)
        assert len(records) == count
        assert records[0]["type"] == "meta"
        assert records[0]["schema"] == SCHEMA_VERSION
        assert records[0]["design"] == "d"
        by_type = {}
        for rec in records:
            by_type.setdefault(rec["type"], []).append(rec)
        span_paths = {r["path"] for r in by_type["span"]}
        assert span_paths == {"flow", "flow/gp"}
        (sample,) = by_type["sample"]
        assert sample == {"type": "sample", "metric": "gp.hpwl", "step": 0, "value": 123.0}
        (evt,) = by_type["event"]
        assert evt["attrs"]["message"] == "hello"
        (metrics,) = by_type["metrics"]
        assert metrics["counters"]["gp.iters"] == 3

    def test_every_line_is_json(self, tmp_path):
        t = Tracer()
        with t.span("a"):
            pass
        path = tmp_path / "t.jsonl"
        write_jsonl(t, path)
        with open(path) as fh:
            for line in fh:
                json.loads(line)


class TestSummary:
    def _tracer(self):
        t = Tracer()
        with t.span("flow"):
            with t.span("gp"):
                with t.span("iter[0]"):
                    pass
            with t.span("route"):
                pass
        t.metrics.record("gp.hpwl", 0, 10.0)
        return t

    def test_rows_aggregate_and_indent(self):
        rows = span_rows(self._tracer())
        names = [r["span"].strip() for r in rows]
        assert names == ["flow", "gp", "iter[0]", "route"]
        assert rows[0]["share"] == "100.0%"

    def test_max_depth_filters(self):
        rows = span_rows(self._tracer(), max_depth=1)
        assert [r["span"].strip() for r in rows] == ["flow", "gp", "route"]

    def test_format_trace_summary(self):
        out = format_trace_summary(self._tracer())
        assert "trace summary" in out
        assert "gp" in out and "route" in out
        assert "metric series" in out
        assert "gp.hpwl" in out


class TestSummaryEdgeCases:
    def test_empty_trace_is_well_formed(self):
        t = Tracer()
        assert span_rows(t) == []
        out = format_trace_summary(t)
        assert "no spans recorded" in out

    def test_out_of_order_close_via_exception(self):
        # An exception unwinding through nested spans closes children
        # and parents in one sweep; the summary must still nest cleanly.
        t = Tracer()
        with pytest.raises(RuntimeError):
            with t.span("flow"):
                with t.span("gp"):
                    with t.span("iter[0]"):
                        raise RuntimeError("boom")
        rows = span_rows(t)
        assert [r["span"].strip() for r in rows] == ["flow", "gp", "iter[0]"]
        assert rows[0]["share"] == "100.0%"

    def test_orphan_span_without_finished_parent(self):
        # A child finished while its parent is still open (export taken
        # mid-run, or a crash) must appear, not vanish.
        t = Tracer()
        handle = t.span("flow")
        handle.__enter__()
        with t.span("gp"):
            pass
        rows = span_rows(t)
        assert [r["span"].strip() for r in rows] == ["gp"]
        assert rows[0]["share"] == "-"  # no finished roots -> no total
        handle.__exit__(None, None, None)

    def test_duplicate_paths_at_different_depths_collapse(self):
        # Simulate a corrupted stack: the same path recorded at two
        # depths aggregates onto one row at the shallowest depth.
        t = Tracer()
        with t.span("flow"):
            with t.span("gp"):
                pass
        for span in t.finished_spans():
            if span.path == "flow/gp":
                dup = type(span)(
                    name="gp", path="flow/gp", start=span.start,
                    duration=0.1, depth=2,
                )
                t._spans.append(dup)
        rows = span_rows(t)
        names = [r["span"].strip() for r in rows]
        assert names == ["flow", "gp"]
        assert rows[1]["calls"] == 2

    def test_duplicate_names_same_depth_distinct_parents(self):
        t = Tracer()
        with t.span("flow"):
            with t.span("gp"):
                with t.span("cg"):
                    pass
            with t.span("refine"):
                with t.span("cg"):
                    pass
        rows = span_rows(t, max_depth=None)
        names = [r["span"].strip() for r in rows]
        # Each "cg" stays under its own parent.
        assert names == ["flow", "gp", "cg", "refine", "cg"]


class TestMetricsIsolation:
    def test_reset_clears_everything(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(1.0)
        reg.record("m", 0, 1.0)
        reg.reset()
        assert reg.samples() == []
        snap = reg.snapshot()
        assert snap["counters"] == {} and snap["gauges"] == {}

    def test_fresh_metrics_swaps_registry(self):
        t = Tracer()
        t.metrics.record("m", 0, 1.0)
        old = t.metrics
        new = t.fresh_metrics()
        assert new is t.metrics and new is not old
        assert new.samples() == []
        assert old.samples()  # the old registry is untouched

    def test_back_to_back_flow_runs_do_not_accumulate(self):
        # Two runs under ONE tracer: the second run's series must not
        # contain the first run's samples (fresh registry per run()).
        tracer = Tracer()
        cfg = _fast_cfg()
        cfg.gp.max_outer_iterations = 4
        cfg.run_dp = False
        with use_tracer(tracer):
            NTUplace4H(cfg).run(_bench(), route=False)
            first = [s.step for s in tracer.metrics.samples("gp.hpwl")]
            NTUplace4H(cfg).run(_bench(), route=False)
        second = [s.step for s in tracer.metrics.samples("gp.hpwl")]
        assert first, "first run must record gp.hpwl"
        assert second == first  # identical seeded run, NOT doubled
        assert len(set(second)) == len(second)


class TestLoggingBridge:
    def test_logger_namespace(self):
        assert get_logger("gp").name == "repro.gp"
        assert get_logger("repro.gp").name == "repro.gp"
        assert get_logger("repro").name == "repro"

    def test_log_records_become_trace_events(self):
        configure_logging(logging.INFO, force=True)
        t = Tracer()
        with use_tracer(t):
            get_logger("gp").info("hpwl=%d", 42)
        events = [e for e in t.events() if e.name == "log"]
        assert events, "log record should be bridged into the tracer"
        assert events[-1].attrs["message"] == "hpwl=42"
        assert events[-1].attrs["logger"] == "repro.gp"
        assert events[-1].attrs["level"] == "INFO"

    def test_no_events_without_tracer(self):
        configure_logging(logging.INFO, force=True)
        get_logger("gp").info("dropped")  # must not raise with NULL_TRACER


def _fast_cfg() -> FlowConfig:
    cfg = FlowConfig()
    cfg.gp.clustering = False
    cfg.gp.max_outer_iterations = 12
    cfg.gp.inner_iterations = 16
    cfg.dp = DPConfig(rounds=1)
    return cfg


def _bench(seed=61):
    return make_benchmark(
        BenchmarkSpec(
            name="obsflow", num_cells=250, num_macros=2, num_fixed_macros=1,
            num_terminals=12, utilization=0.55, cap_factor=4.0, seed=seed,
        )
    )


class TestEndToEndFlow:
    @pytest.fixture(scope="class")
    def traced_run(self):
        tracer = Tracer()
        with use_tracer(tracer):
            result = NTUplace4H(_fast_cfg()).run(_bench())
        return tracer, result

    def test_all_five_stages_have_spans(self, traced_run):
        tracer, _ = traced_run
        paths = {s.path for s in tracer.finished_spans()}
        for stage in ("gp", "macro_legal_refine", "legal", "dp", "route"):
            assert f"flow/{stage}" in paths, f"missing span for stage {stage}"

    def test_gp_iteration_spans_nest_under_flow(self, traced_run):
        tracer, _ = traced_run
        paths = {s.path for s in tracer.finished_spans()}
        assert "flow/gp/iter[0]" in paths
        assert "flow/gp/iter[0]/cg" in paths
        assert "flow/gp/iter[0]/gradient" in paths

    def test_gp_telemetry_monotone_in_iteration(self, traced_run):
        tracer, result = traced_run
        for metric in ("gp.hpwl", "gp.overflow", "gp.lam", "gp.gamma",
                       "gp.step", "gp.cg_iters"):
            steps = [s.step for s in tracer.metrics.samples(metric)]
            assert steps, f"no samples for {metric}"
            assert steps == sorted(steps)
            assert len(set(steps)) == len(steps), f"{metric} steps must be unique"
        # The registry series and the report's telemetry agree.
        tele = result.gp_report.telemetry
        assert [v for _, v in tracer.metrics.series("gp.hpwl")] == tele["hpwl"]
        assert tele["outer"] == sorted(tele["outer"])

    def test_route_overflow_per_round_recorded(self, traced_run):
        tracer, result = traced_run
        rounds = result.route_result.overflow_per_round
        assert rounds, "router must record at least the initial round"
        assert tracer.metrics.series("route.overflow") == list(enumerate(rounds))

    def test_dp_telemetry(self, traced_run):
        _, result = traced_run
        tele = result.dp_report.telemetry
        assert tele["pass"]
        assert len(tele["pass"]) == len(tele["accepted"]) == len(tele["hpwl_delta"])

    def test_flow_result_telemetry_aggregate(self, traced_run):
        _, result = traced_run
        tele = result.telemetry
        assert set(tele) == {"stage_seconds", "gp", "dp", "route", "resilience"}
        assert all(v >= 0 for v in tele["stage_seconds"].values())

    def test_stage_seconds_nonnegative_perf_counter(self, traced_run):
        _, result = traced_run
        for stage, seconds in result.stage_seconds.items():
            assert seconds >= 0, stage
        assert result.runtime_seconds > 0


class TestCliTracing:
    def test_place_trace_flags(self, tmp_path, capsys):
        from repro.cli import main

        bench = str(tmp_path / "bench")
        assert main(
            ["generate", "--name", "obscli", "--cells", "150", "--macros", "1",
             "--seed", "3", "--out", bench]
        ) == 0
        trace = str(tmp_path / "trace.jsonl")
        capsys.readouterr()
        rc = main(
            ["place", "--aux", os.path.join(bench, "obscli.aux"),
             "--trace", trace, "--trace-summary"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace summary" in out
        assert "flow result" in out
        records = read_jsonl(trace)
        span_paths = {r["path"] for r in records if r["type"] == "span"}
        for stage in ("gp", "legal", "dp", "route"):
            assert f"flow/{stage}" in span_paths
        assert any(p.startswith("flow/gp/iter[") for p in span_paths)
        gp_samples = [
            r for r in records
            if r["type"] == "sample" and r["metric"].startswith("gp.")
        ]
        assert gp_samples, "trace must contain per-iteration GP samples"

    def test_place_without_trace_uses_null_tracer(self, tmp_path, capsys):
        from repro.cli import main

        bench = str(tmp_path / "bench")
        main(["generate", "--name", "plain", "--cells", "120", "--seed", "5",
              "--out", bench])
        rc = main(
            ["place", "--aux", os.path.join(bench, "plain.aux"),
             "--no-dp", "--no-route", "--wirelength-only"]
        )
        assert rc == 0
        assert get_tracer() is NULL_TRACER
