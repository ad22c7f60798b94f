"""Tests for resource profiling (repro.obs.profile)."""

import threading
import time
import tracemalloc

import pytest

from repro.obs import SamplingProfiler, Tracer, format_trace_summary, span_rows
from repro.obs.profile import (
    _function_key,
    _stage_key,
    capture_resources,
    finish_resources,
    rss_kb,
)


class TestSpanResources:
    def test_rss_kb_positive(self):
        assert rss_kb() > 0

    def test_capture_finish_roundtrip(self):
        entry = capture_resources()
        deadline = time.process_time() + 0.02
        while time.process_time() < deadline:
            pass  # burn a little CPU
        out = finish_resources(entry)
        assert out["cpu_s"] >= 0.015
        assert "rss_delta_kb" in out
        assert "tracemalloc_peak_kb" not in out  # not tracing

    def test_tracemalloc_peak_when_tracing(self):
        tracemalloc.start()
        try:
            entry = capture_resources()
            blob = [bytearray(512 * 1024)]  # ~512 KiB Python heap
            out = finish_resources(entry)
            del blob
        finally:
            tracemalloc.stop()
        assert out["tracemalloc_peak_kb"] >= 400.0

    def test_tracer_records_span_resources(self):
        t = Tracer(profile_resources=True)
        with t.span("flow"):
            with t.span("gp"):
                deadline = time.process_time() + 0.01
                while time.process_time() < deadline:
                    pass
        for span in t.finished_spans():
            assert span.resources is not None
            assert span.resources["cpu_s"] >= 0.0
            rec = span.as_record()
            assert rec["resources"] == span.resources

    def test_resources_off_by_default(self):
        t = Tracer()
        with t.span("flow"):
            pass
        (span,) = t.finished_spans()
        assert span.resources is None
        assert "resources" not in span.as_record()

    def test_cpu_column_in_summary(self):
        t = Tracer(profile_resources=True)
        with t.span("flow"):
            pass
        rows = span_rows(t)
        assert "cpu_s" in rows[0]
        assert "cpu_s" in format_trace_summary(t)


class TestKeyHelpers:
    def test_stage_key_truncates(self):
        assert _stage_key("flow/gp/iter[3]/cg") == "flow/gp"
        assert _stage_key("flow") == "flow"
        assert _stage_key("") == "(no span)"

    def test_function_key_shortens_src_paths(self):
        frame = sys_frame()
        key = _function_key(frame)
        assert key.endswith(":sys_frame")
        assert "/root/" not in key


def sys_frame():
    import sys

    return sys._getframe()


class TestSamplingProfiler:
    def test_attributes_busy_thread_to_stage(self):
        tracer = Tracer()
        prof = SamplingProfiler(tracer, interval=0.001)
        stop = threading.Event()

        def busy():
            with tracer.span("flow"):
                with tracer.span("gp"):
                    while not stop.wait(0):
                        sum(range(500))

        worker = threading.Thread(target=busy)
        with prof:
            worker.start()
            time.sleep(0.15)
            stop.set()
            worker.join()
        assert prof.samples > 10
        rows = prof.report()
        assert rows, "expected sampled rows"
        stages = {r["stage"] for r in rows}
        assert "flow/gp" in stages
        total_share = sum(
            float(r["share"].rstrip("%")) for r in rows if r["share"] != "-"
        )
        assert total_share <= 100.5

    def test_wall_time_and_top_rows(self):
        prof = SamplingProfiler(interval=0.001)
        with prof:
            time.sleep(0.02)
        assert prof.wall_s > 0
        assert len(prof.report(top=3)) <= 3

    def test_summary_appends_profile_table(self):
        tracer = Tracer()
        prof = SamplingProfiler(tracer, interval=0.001)
        with prof:
            with tracer.span("flow"):
                time.sleep(0.05)
        out = format_trace_summary(tracer, profile=prof)
        assert "sampling profile" in out

    def test_restart_guard_and_validation(self):
        prof = SamplingProfiler(interval=0.001)
        prof.start()
        with pytest.raises(RuntimeError):
            prof.start()
        prof.stop()
        prof.stop()  # idempotent
        with pytest.raises(ValueError):
            SamplingProfiler(interval=0.0)

    def test_zero_overhead_when_not_started(self):
        prof = SamplingProfiler(interval=0.001)
        assert prof.samples == 0
        assert prof.report() == []
        assert threading.active_count() == threading.active_count()


class TestOverheadBench:
    @pytest.fixture(scope="class")
    def bench(self):
        import os
        import sys

        sys.path.insert(
            0,
            os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks"),
        )
        try:
            import bench_obs_overhead
        finally:
            sys.path.pop(0)
        return bench_obs_overhead

    def test_stub_transform_strips_instrumentation(self, bench):
        module, stripper = bench.build_stubbed_placer()
        assert stripper.stripped_spans >= 5
        assert stripper.stripped_calls >= 5
        src = open(module.__file__, encoding="utf-8").read()
        assert "tracer.span" in src  # the real module keeps its obs
        assert hasattr(module, "GlobalPlacer")
        assert module.GlobalPlacer is not None

    def test_stub_matches_instrumented_and_gate_passes(self, bench):
        record = bench.run_bench("rh01", repeats=1)
        assert record["identical_placements"]
        assert record["call_volume"]["spans"] > 0
        assert record["call_volume"]["samples"] > 0
        # The attributed disabled-tracing overhead is what CI gates at
        # 1%; in practice it is orders of magnitude below that.
        assert record["overhead_pct"] < 1.0
