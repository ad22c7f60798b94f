"""Tests for the live telemetry bus (repro.obs.bus).

Covers the PR's streaming acceptance criteria: concurrent producers,
tail-style partial reads of an in-flight JSONL stream, mid-run
visibility of closed GP-iteration spans during a real flow run,
stream/batch parity, flight-recorder dumps on injected faults, and the
heartbeat sink with an injectable clock.
"""

import json
import threading

import pytest

from repro.benchgen import BenchmarkSpec, make_benchmark
from repro.dp import DPConfig
from repro.flow import FlowConfig, NTUplace4H
from repro.obs import (
    CallbackSink,
    FlightRecorder,
    HeartbeatSink,
    JsonlStreamSink,
    Tracer,
    dumps_record,
    read_jsonl,
    use_tracer,
    validate_trace_records,
    write_jsonl,
)
from repro.resilience.faults import inject


def _stream_and_batch(tracer, tmp_path, sink, meta=None):
    """Close the stream, batch-export the same tracer, return both paths."""
    tracer.close_sinks()
    batch = tmp_path / "batch.jsonl"
    write_jsonl(tracer, batch, meta)
    return sink.path, str(batch)


def _sorted_lines(path):
    with open(path, encoding="utf-8") as fh:
        return sorted(line for line in fh.read().splitlines() if line)


class TestStreamBatchParity:
    def test_single_thread_parity(self, tmp_path):
        tracer = Tracer()
        sink = JsonlStreamSink(tmp_path / "stream.jsonl")
        tracer.add_sink(sink)
        with tracer.span("flow"):
            with tracer.span("gp"):
                tracer.metrics.record("gp.hpwl", 0, 12.5)
            tracer.event("milestone", phase="gp")
        stream, batch = _stream_and_batch(tracer, tmp_path, sink)
        assert _sorted_lines(stream) == _sorted_lines(batch)
        validate_trace_records(read_jsonl(stream))

    def test_two_threads_concurrent_nested_spans(self, tmp_path):
        """Two producers stream interleaved records; every span from
        both threads lands in the file and parity with batch holds."""
        tracer = Tracer()
        sink = JsonlStreamSink(tmp_path / "stream.jsonl")
        tracer.add_sink(sink)
        barrier = threading.Barrier(2)

        def worker(name):
            barrier.wait()
            for i in range(20):
                with tracer.span(name):
                    with tracer.span(f"iter[{i}]"):
                        tracer.metrics.record(f"{name}.m", i, float(i))

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in ("a", "b")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stream, batch = _stream_and_batch(tracer, tmp_path, sink)
        assert _sorted_lines(stream) == _sorted_lines(batch)
        records = read_jsonl(stream)
        validate_trace_records(records)
        spans = [r for r in records if r["type"] == "span"]
        # 20 iteration spans + 20 wrappers per thread, nothing dropped.
        assert len(spans) == 80
        paths = {r["path"] for r in spans}
        assert "a/iter[19]" in paths and "b/iter[19]" in paths
        # Thread-local stacks: no cross-thread nesting like "a/b/...".
        assert not any(p.startswith("a/b") or p.startswith("b/a")
                       for p in paths)

    def test_include_open_streams_span_open(self, tmp_path):
        tracer = Tracer()
        sink = JsonlStreamSink(tmp_path / "s.jsonl", include_open=True)
        tracer.add_sink(sink)
        with tracer.span("flow"):
            pass
        tracer.close_sinks()
        types = [r["type"] for r in read_jsonl(sink.path)]
        assert types == ["meta", "span_open", "span", "metrics"]


class TestTailStyleReads:
    def test_partial_read_mid_stream(self, tmp_path):
        """The file is valid after every flushed record, before close."""
        tracer = Tracer()
        sink = JsonlStreamSink(tmp_path / "s.jsonl")
        tracer.add_sink(sink)
        with tracer.span("flow"):
            with tracer.span("gp"):
                pass
            # Mid-run: "flow" is still open, but "flow/gp" has closed
            # and must already be on disk.
            records = read_jsonl(sink.path)
        assert records[0]["type"] == "meta"
        assert [r["path"] for r in records if r["type"] == "span"] == [
            "flow/gp"
        ]
        tracer.close_sinks()

    def test_trailing_partial_line_is_ignored(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumps_record({"type": "meta", "schema": 2}) + "\n")
            fh.write(dumps_record({"type": "span", "name": "gp",
                                   "path": "gp", "start": 0.0,
                                   "duration": 1.0, "depth": 0}) + "\n")
            fh.write('{"type": "sam')  # caught mid-write
        records = read_jsonl(path)
        assert [r["type"] for r in records] == ["meta", "span"]

    def test_corrupt_interior_line_still_raises(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"broken\n')
            fh.write(dumps_record({"type": "meta", "schema": 2}) + "\n")
        with pytest.raises(json.JSONDecodeError):
            read_jsonl(path)


def _fast_cfg() -> FlowConfig:
    cfg = FlowConfig()
    cfg.gp.clustering = False
    cfg.gp.max_outer_iterations = 10
    cfg.gp.inner_iterations = 16
    cfg.dp = DPConfig(rounds=1)
    return cfg


def _bench(seed=77):
    return make_benchmark(
        BenchmarkSpec(
            name="streamflow", num_cells=220, num_macros=2,
            num_fixed_macros=1, num_terminals=10, utilization=0.55,
            cap_factor=4.0, seed=seed,
        )
    )


class TestFlowStreaming:
    def test_mid_gp_read_sees_closed_iteration_spans(self, tmp_path):
        """Acceptance: while GP is still running, the streaming file
        already contains closed ``flow/gp/iter[...]`` spans, and the
        final file round-trips + validates and matches batch export."""
        tracer = Tracer()
        sink = JsonlStreamSink(tmp_path / "trace.jsonl")
        tracer.add_sink(sink, meta={"design": "streamflow"})
        mid_run: dict = {}

        def on_record(record):
            # Fires inside GP, the moment an iteration span closes.
            if mid_run or not record["path"].startswith("flow/gp/iter["):
                return
            if record["path"].count("/") != 2:  # the iter span itself
                return
            if int(record["path"].split("[")[1].rstrip("]")) < 2:
                return  # let a couple of iterations land first
            mid_run["records"] = read_jsonl(sink.path)

        tracer.add_sink(CallbackSink(on_record, types={"span"}))
        with use_tracer(tracer):
            NTUplace4H(_fast_cfg()).run(_bench(), route=False)
        stream, batch = _stream_and_batch(
            tracer, tmp_path, sink, meta={"design": "streamflow"}
        )

        # Mid-run snapshot: header present, GP iteration spans closed,
        # flow/gp itself still open (absent).
        snap = mid_run["records"]
        assert snap[0]["type"] == "meta" and snap[0]["design"] == "streamflow"
        snap_paths = [r["path"] for r in snap if r["type"] == "span"]
        assert any(p.startswith("flow/gp/iter[") and p.count("/") == 2
                   for p in snap_paths)
        assert "flow/gp" not in snap_paths and "flow" not in snap_paths
        # Metric samples stream live too.
        assert any(r["type"] == "sample" and r["metric"] == "gp.hpwl"
                   for r in snap)

        # Final file: bit-for-bit parity with batch export (same lines,
        # interleaving aside) and schema-valid end to end.
        assert _sorted_lines(stream) == _sorted_lines(batch)
        records = read_jsonl(stream)
        validate_trace_records(records)
        # A healthy run has no degradation events; spans + samples must
        # be there, bracketed by the meta header and metrics snapshot.
        assert {r["type"] for r in records} >= {"meta", "span", "sample",
                                                "metrics"}

    def test_flight_recorder_dumps_on_injected_fault(self, tmp_path):
        """``raise.legal`` degrades the flow; the attached flight
        recorder must dump its ring buffer with the degradation reason."""
        tracer = Tracer()
        recorder = FlightRecorder(capacity=64,
                                  path=tmp_path / "flight.jsonl")
        tracer.add_sink(recorder)
        cfg = _fast_cfg()
        cfg.gp.max_outer_iterations = 4
        cfg.run_dp = False
        with inject("raise.legal"):
            with use_tracer(tracer):
                result = NTUplace4H(cfg).run(_bench(), route=False)
        assert result.degraded
        dump_path = tmp_path / "flight.jsonl"
        assert dump_path.exists()
        dump = read_jsonl(dump_path)
        assert dump[0]["type"] == "meta"
        assert "legal" in dump[0]["reason"]
        assert dump[0]["buffered"] == len(dump) - 1
        assert len(dump) - 1 <= 64
        # The tail of the run is in the buffer: recent GP spans.
        assert any(r.get("type") == "span" and "gp" in r.get("path", "")
                   for r in dump)


class TestFlightRecorder:
    def test_ring_buffer_keeps_last_n(self, tmp_path):
        tracer = Tracer()
        recorder = FlightRecorder(capacity=5)
        tracer.add_sink(recorder)
        for i in range(20):
            with tracer.span(f"iter[{i}]"):
                pass
        kept = recorder.records()
        assert len(kept) == 5
        # span_open + span pairs; the newest close is iter[19].
        closes = [r for r in kept if r["type"] == "span"]
        assert closes[-1]["path"] == "iter[19]"

    def test_repeat_dumps_never_overwrite(self, tmp_path):
        recorder = FlightRecorder(capacity=4,
                                  path=tmp_path / "flight.jsonl")
        recorder.handle({"type": "event", "name": "x", "path": "",
                         "time": 0.0})
        p1 = recorder.dump(reason="first")
        p2 = recorder.dump(reason="second")
        assert p1 != p2
        assert p1.endswith("flight.jsonl")
        assert p2.endswith("flight-2.jsonl")
        assert read_jsonl(p1)[0]["reason"] == "first"
        assert read_jsonl(p2)[0]["reason"] == "second"

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


class TestHeartbeatSink:
    def test_beats_at_cadence_with_fake_clock(self):
        now = [0.0]
        beats = []
        sink = HeartbeatSink(interval=5.0, emit=beats.append,
                             clock=lambda: now[0])
        tracer = Tracer()
        tracer.add_sink(sink)
        for i in range(10):
            now[0] += 2.0  # 2s per iteration -> a beat every 3rd record
            with tracer.span(f"iter[{i}]"):
                pass
        assert sink.beats == len(beats)
        # 2s per iteration, 5s interval: beats land on iterations 2, 5, 8.
        assert [b["iteration"] for b in beats] == [2, 5, 8]
        assert beats[-1]["elapsed_s"] == pytest.approx(18.0)
        assert all(b["records"] > 0 for b in beats)

    def test_stage_tracks_open_and_close(self):
        now = [0.0]
        beats = []
        sink = HeartbeatSink(interval=0.0, emit=beats.append,
                             clock=lambda: now[0])
        tracer = Tracer()
        tracer.add_sink(sink)

        def tick():
            now[0] += 1.0

        with tracer.span("flow"):
            tick()
            with tracer.span("gp"):
                tick()
        # After flow/gp opened the stage is the full path; after it
        # closed the stage backs out to the parent.
        stages = [b["stage"] for b in beats]
        assert "flow/gp" in stages
        assert stages[-1] == ""  # flow itself closed last

    def test_writes_line_to_stream(self):
        import io

        now = [0.0]
        buf = io.StringIO()
        sink = HeartbeatSink(interval=0.0, stream=buf,
                             clock=lambda: now[0])
        tracer = Tracer()
        tracer.add_sink(sink)
        now[0] = 1.5
        with tracer.span("gp"):
            with tracer.span("iter[3]"):
                now[0] = 2.0
        out = buf.getvalue()
        assert "[heartbeat]" in out
        assert "iter=3" in out


class TestSinkResilience:
    def test_failing_sink_is_detached_not_fatal(self):
        class Exploding(CallbackSink):
            def __init__(self):
                super().__init__(self._boom)
                self.calls = 0

            def _boom(self, record):
                self.calls += 1
                raise RuntimeError("sink bug")

        tracer = Tracer()
        bad = Exploding()
        good = []
        tracer.add_sink(bad)
        tracer.add_sink(CallbackSink(good.append))
        for i in range(10):
            with tracer.span(f"iter[{i}]"):
                pass
        # The broken sink was detached after repeated failures; the
        # healthy one kept receiving and the run never raised.
        assert bad not in tracer.sinks()
        assert bad.calls == 3  # MAX_SINK_FAILURES
        assert len(good) == 20  # 10 opens + 10 closes

    def test_remove_sink(self):
        tracer = Tracer()
        seen = []
        sink = CallbackSink(seen.append)
        tracer.add_sink(sink)
        with tracer.span("a"):
            pass
        tracer.remove_sink(sink)
        with tracer.span("b"):
            pass
        assert all("a" in r.get("path", "") for r in seen)
