"""Tests for the placement-as-a-service job engine (``repro.serve``).

Covers the store's transactional semantics (the claim, attempt-scoped
write guards, bounded requeues), the job-record schema, the per-job
flow config, and the supervisor's crash/cancel reliability loop end to
end —
including the two failure drills the engine exists for: a worker
killed mid-flow whose job resumes bit-identically from its checkpoint,
and a cancel during routing that leaves no shared-memory segment
behind.
"""

from __future__ import annotations

import glob
import json
import os
import signal
import threading
import time

import pytest

from repro.benchgen import BenchmarkSpec, make_benchmark
from repro.serve import (
    JobStore,
    JobStoreError,
    ServeSettings,
    WorkerSupervisor,
)
from repro.serve.schema import (
    JOB_SCHEMA_VERSION,
    SchemaError,
    build_job_schema,
    new_job_record,
    validate_job_record,
)
from repro.serve.worker import build_flow_config

SPEC = {"name": "servetest", "num_cells": 40, "seed": 11}


def fast_settings(**overrides) -> ServeSettings:
    base = dict(
        workers=1,
        poll_interval=0.02,
        heartbeat_interval=0.1,
        monitor_interval=0.1,
        stale_timeout=30.0,
        cancel_grace=2.0,
        default_max_retries=2,
    )
    base.update(overrides)
    return ServeSettings(**base)


def wait_for(predicate, *, timeout: float = 60.0, poll: float = 0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(poll)
    raise AssertionError(f"timed out after {timeout}s waiting for {predicate}")


class TestJobSchema:
    def test_new_record_validates(self):
        record = new_job_record({"spec": SPEC})
        validate_job_record(record)
        assert record["state"] == "queued"
        assert record["attempts"] == 0
        assert record["schema"] == JOB_SCHEMA_VERSION

    def test_design_needs_exactly_one_source(self):
        with pytest.raises(SchemaError):
            new_job_record({})
        with pytest.raises(SchemaError):
            new_job_record({"spec": SPEC, "suite": "small"})

    def test_rejects_unknown_fields(self):
        record = new_job_record({"spec": SPEC})
        record["surprise"] = 1
        with pytest.raises(SchemaError, match="surprise"):
            validate_job_record(record)

    def test_rejects_bad_state(self):
        record = new_job_record({"spec": SPEC})
        record["state"] = "pondering"
        with pytest.raises(SchemaError, match="state"):
            validate_job_record(record)

    def test_committed_schema_matches_builder(self):
        path = os.path.join(
            os.path.dirname(__file__), os.pardir, "docs", "schemas",
            f"job-record-v{JOB_SCHEMA_VERSION}.schema.json",
        )
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh) == build_job_schema()


class TestJobStore:
    def _store(self, tmp_path) -> JobStore:
        return JobStore(tmp_path / "serve")

    def test_claim_orders_by_priority_then_fifo(self, tmp_path):
        store = self._store(tmp_path)
        low = store.submit({"spec": SPEC}, priority=0)
        high = store.submit({"spec": SPEC}, priority=5)
        low2 = store.submit({"spec": SPEC}, priority=0)
        order = [store.claim(1)["job_id"] for _ in range(3)]
        assert order == [high["job_id"], low["job_id"], low2["job_id"]]
        assert store.claim(1) is None

    def test_claim_stamps_lease(self, tmp_path):
        store = self._store(tmp_path)
        store.submit({"spec": SPEC})
        record = store.claim(4242)
        assert record["state"] == "running"
        assert record["attempts"] == 1
        assert record["worker"] == 4242
        assert record["started"] is not None
        assert record["heartbeat"] is not None

    def test_heartbeat_statuses(self, tmp_path):
        store = self._store(tmp_path)
        job_id = store.submit({"spec": SPEC})["job_id"]
        store.claim(1)
        assert store.heartbeat(job_id, attempt=1, stage="flow/gp") == "ok"
        assert store.get(job_id)["stage"] == "flow/gp"
        # A stale attempt may not write anything.
        before = store.get(job_id)["heartbeat"]
        assert store.heartbeat(job_id, attempt=2, now=before + 99) == "superseded"
        assert store.get(job_id)["heartbeat"] == before
        store.request_cancel(job_id)
        assert store.heartbeat(job_id, attempt=1) == "cancel"

    def test_set_paths_guarded_by_attempt(self, tmp_path):
        store = self._store(tmp_path)
        job_id = store.submit({"spec": SPEC})["job_id"]
        store.claim(1)
        assert store.set_paths(job_id, attempt=2, job_dir="/stale") is False
        assert store.get(job_id)["job_dir"] is None
        assert store.set_paths(job_id, attempt=1, job_dir="/live") is True
        assert store.get(job_id)["job_dir"] == "/live"

    def test_zombie_attempt_cannot_finish(self, tmp_path):
        # The exact race behind a once-observed double-run: job requeued
        # and re-claimed while the first attempt's process is still
        # alive.  The stale attempt's terminal write must be refused.
        store = self._store(tmp_path)
        job_id = store.submit({"spec": SPEC})["job_id"]
        store.claim(111)
        store.requeue(job_id, "worker_lost", expect_worker=111)
        store.claim(222)  # attempt 2 owns the job now
        stale = store.finish(job_id, {"hpwl_final": 1.0}, attempt=1)
        assert stale["state"] == "running"
        assert stale.get("result") is None
        live = store.finish(job_id, {"hpwl_final": 2.0}, attempt=2)
        assert live["state"] == "done"
        assert live["result"]["hpwl_final"] == 2.0

    def test_requeue_guarded_by_observed_worker(self, tmp_path):
        # The supervisor's poll snapshot is stale by construction; a
        # requeue naming a pid that no longer owns the job is a no-op.
        store = self._store(tmp_path)
        job_id = store.submit({"spec": SPEC})["job_id"]
        store.claim(111)
        refused = store.requeue(job_id, "worker_lost", expect_worker=999)
        assert refused["state"] == "running"
        assert refused["requeues"] == []

    def test_requeue_bounded_by_max_retries(self, tmp_path):
        store = self._store(tmp_path)
        job_id = store.submit({"spec": SPEC}, max_retries=1)["job_id"]
        store.claim(1)
        assert store.requeue(job_id, "worker_lost")["state"] == "queued"
        store.claim(1)
        final = store.requeue(job_id, "worker_lost")
        assert final["state"] == "failed"
        assert "retries exhausted" in final["error"]
        assert [e["reason"] for e in final["requeues"]] == ["worker_lost"] * 2

    def test_requeue_refund_does_not_burn_attempt(self, tmp_path):
        store = self._store(tmp_path)
        job_id = store.submit({"spec": SPEC}, max_retries=0)["job_id"]
        store.claim(1)
        record = store.requeue(job_id, "shutdown", count_attempt=False)
        assert record["state"] == "queued"
        assert record["attempts"] == 0
        assert store.claim(1)["attempts"] == 1

    def test_first_terminal_state_wins(self, tmp_path):
        store = self._store(tmp_path)
        job_id = store.submit({"spec": SPEC})["job_id"]
        store.claim(1)
        store.finish(job_id, {"hpwl_final": 1.0}, attempt=1)
        after = store.fail(job_id, "too late")
        assert after["state"] == "done"
        assert after["error"] is None

    def test_cancel_queued_is_immediate(self, tmp_path):
        store = self._store(tmp_path)
        job_id = store.submit({"spec": SPEC})["job_id"]
        record = store.request_cancel(job_id)
        assert record["state"] == "cancelled"
        assert store.claim(1) is None

    def test_cancel_running_sets_flag(self, tmp_path):
        store = self._store(tmp_path)
        job_id = store.submit({"spec": SPEC})["job_id"]
        store.claim(1)
        record = store.request_cancel(job_id)
        assert record["state"] == "running"
        assert record["cancel_requested"] is True

    def test_get_by_unique_prefix(self, tmp_path):
        store = self._store(tmp_path)
        job_id = store.submit({"spec": SPEC})["job_id"]
        assert store.get(job_id[:12])["job_id"] == job_id
        with pytest.raises(JobStoreError, match="no job"):
            store.get("nope")

    def test_counts_and_idle(self, tmp_path):
        store = self._store(tmp_path)
        store.submit({"spec": SPEC})
        assert store.counts() == {"queued": 1}
        assert not store.idle()
        store.claim(1)
        job_id = store.list(state="running")[0]["job_id"]
        store.finish(job_id, {"hpwl_final": 0.0}, attempt=1)
        assert store.idle()

    def test_list_state_filter_and_pagination(self, tmp_path):
        store = self._store(tmp_path)
        ids = [store.submit({"spec": SPEC})["job_id"] for _ in range(5)]
        store.claim(1)
        store.finish(ids[0], {"hpwl_final": 0.0}, attempt=1)
        assert {r["job_id"] for r in store.list(state="queued")} == set(
            ids[1:]
        )
        assert [r["job_id"] for r in store.list(state="done")] == [ids[0]]
        # Newest first; limit/offset page through without overlap.
        everything = store.list()
        assert [r["job_id"] for r in everything] == list(reversed(ids))
        paged = store.list(limit=2) + store.list(limit=2, offset=2) \
            + store.list(limit=2, offset=4)
        assert [r["job_id"] for r in paged] == list(reversed(ids))

    def test_claim_order_stable_under_concurrent_submitters(self, tmp_path):
        import threading

        store = self._store(tmp_path)
        submitted: list[tuple[int, str]] = []
        lock = threading.Lock()

        def submitter(worker: int):
            # Each thread opens its own handle, like a real client
            # process would; priorities interleave across threads.
            own = JobStore(tmp_path / "serve")
            for i in range(8):
                priority = (worker + i) % 3
                job_id = own.submit(
                    {"spec": SPEC}, priority=priority
                )["job_id"]
                with lock:
                    submitted.append((priority, job_id))

        threads = [
            threading.Thread(target=submitter, args=(w,)) for w in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert store.counts() == {"queued": 32}
        # Draining the queue yields priorities in non-increasing order,
        # and within a priority class the submit order (FIFO) holds
        # per submitter.
        drained = []
        while True:
            record = store.claim(os.getpid())
            if record is None:
                break
            drained.append(record)
            store.finish(record["job_id"], {}, attempt=record["attempts"])
        assert len(drained) == 32
        priorities = [r["priority"] for r in drained]
        assert priorities == sorted(priorities, reverse=True)
        created_by_priority: dict[int, list[float]] = {}
        for record in drained:
            created_by_priority.setdefault(
                record["priority"], []
            ).append(record["created"])
        for stamps in created_by_priority.values():
            assert stamps == sorted(stamps)


class TestBuildFlowConfig:
    def test_flow_run_leaves_stage_configs_untouched(self, tmp_path):
        from dataclasses import asdict

        from repro.flow import NTUplace4H

        cfg = build_flow_config(
            {"run_dp": False, "config": {"gp.max_outer_iterations": 2}},
            job_dir=str(tmp_path),
        )
        assert cfg.checkpoint_dir == str(tmp_path / "checkpoint")
        before = asdict(cfg)
        NTUplace4H(cfg).run(make_benchmark(BenchmarkSpec(**SPEC)), route=False)
        assert asdict(cfg) == before

    @pytest.mark.parametrize(
        "key",
        [
            "gp.target_density", "gp.overflow_target", "gp.freeze_macros",
            "gp.cluster_min_nodes", "gp.cluster_max_levels",
            "dp.congestion_spread", "dp.spread_threshold",
            "dp.min_gain_per_round", "legal", "legal.tetris_only",
            "refine_outer_iterations", "validate_input", "sanitize",
            "route_sweeps", "route_maze_rounds", "route_max_maze_nets",
            "gp.predict_router_interval", "gp.predict_drift_tol",
        ],
    )
    def test_removed_field_refused(self, tmp_path, key):
        # Constants now: a job naming one fails at once.
        with pytest.raises(ValueError, match="unknown flow-config override"):
            build_flow_config({"config": {key: True}}, job_dir=str(tmp_path))

    @pytest.mark.parametrize(
        "override",
        [
            {"gp.not_a_knob": 1},
            # Removed fields are refused, not silently ignored.
            {"gp.lambda_growth": 2.0},
            {"legal.macro_channel": 1.0},
            # A path must end on a leaf field of a sub-config.
            {"gp": {"max_outer_iterations": 12}},
            {"gp.max_outer_iterations.real": 3},
            # A bool takes only a JSON bool.
            {"gp.routability": "false"},
        ],
        ids=[
            "unknown", "removed-gp", "removed-legal", "sub-config",
            "past-leaf", "bool-from-string",
        ],
    )
    def test_config_override_type_checked(self, tmp_path, override):
        with pytest.raises(ValueError, match="flow-config override"):
            build_flow_config({"config": override}, job_dir=str(tmp_path))
        cfg = build_flow_config(
            {"config": {"gp.max_outer_iterations": 7.0,
                        "gp.routability": False}},
            job_dir=str(tmp_path),
        )
        assert cfg.gp.max_outer_iterations == 7
        assert cfg.gp.routability is False

    @pytest.mark.parametrize(
        "override",
        [
            # A number field takes a finite JSON number; a bool is not one.
            {"dp.rounds": True},
            {"gp.seed": "3"},
            {"macro_channel": False},
            {"timing_weighting_strength": float("nan")},
            # An int field takes an integer; 7.0 counts, 7.9 does not.
            {"gp.max_outer_iterations": 7.9},
            # A string field takes a string, and from a fixed set a member.
            {"gp.predict_model": 12},
            {"gp.congestion_estimator": "bogus"},
            {"gp.wirelength_model": "quadratic"},
            # Not tuning fields: each has its own spelling.
            {"stage_budget": "x"},
            {"checkpoint_dir": "/elsewhere"},
            {"runs_dir": "runs"},
            # The walk follows fields only, never into the class.
            {"gp.__class__.seed": 5},
        ],
        ids=[
            "bool-for-int", "string-for-int", "bool-for-float", "nan",
            "fraction", "int-for-string", "estimator", "wirelength-model",
            "stage-budget", "checkpoint-dir", "runs-dir", "dunder",
        ],
    )
    def test_config_override_strict(self, tmp_path, override):
        with pytest.raises(ValueError, match="flow-config override"):
            build_flow_config({"config": override}, job_dir=str(tmp_path))

    @pytest.mark.parametrize(
        "budget",
        [
            # Only the budgeted stages, each named exactly.
            {"gpp": 1.0},
            {"macro_legal_refine": 1.0},
            # A finite number of seconds, never a string or a bool ...
            {"gp": "abc"},
            {"gp": True},
            {"dp": float("nan")},
            {"route": float("inf")},
            # ... of at least 0.
            {"legal": -1},
            # And a mapping of them.
            "x",
        ],
        ids=[
            "typo", "unbudgeted-stage", "string", "bool", "nan", "inf",
            "negative", "not-a-mapping",
        ],
    )
    def test_stage_budget_strict(self, tmp_path, budget):
        with pytest.raises(ValueError, match="stage budget"):
            build_flow_config({"stage_budget": budget}, job_dir=str(tmp_path))

    def test_stage_budget_takes_numbers_and_null(self, tmp_path):
        cfg = build_flow_config(
            {"stage_budget": {"gp": None, "legal": 0, "dp": 2, "route": 0.5}},
            job_dir=str(tmp_path),
        )
        # null stays None, the flow's "unlimited"; numbers become floats.
        assert cfg.stage_budget == {"gp": None, "legal": 0.0, "dp": 2.0, "route": 0.5}
        assert [type(v) for v in cfg.stage_budget.values()][1:] == [float] * 3

    @pytest.mark.parametrize(
        "budget", [{"gpp": 1.0}, {"gp": True}, {"gp": -1}],
        ids=["typo", "bool", "negative"],
    )
    def test_bad_stage_budget_fails_job_at_once(self, tmp_path, budget):
        # The record schema already refuses a budget that is not an
        # object at submit; the worker refuses what the schema lets by.
        from repro.serve.worker import run_job

        store = JobStore(tmp_path / "serve")
        store.submit({"spec": SPEC}, options={"stage_budget": budget})
        record = store.claim(os.getpid())
        run_job(store, record, settings={})
        final = store.get(record["job_id"])
        assert final["state"] == "failed"
        assert final["requeues"] == []
        assert "stage budget" in final["error"]

    def test_null_stage_budget_runs_unlimited(self, tmp_path):
        from repro.serve.worker import run_job

        store = JobStore(tmp_path / "serve")
        store.submit(
            {"spec": SPEC},
            options={"stage_budget": {"gp": None, "dp": None}, "route": False,
                     "config": {"gp.max_outer_iterations": 3}},
        )
        record = store.claim(os.getpid())
        run_job(store, record, settings={})
        final = store.get(record["job_id"])
        assert final["state"] == "done"
        # No budget ran out.  SPEC's two fixed blocks overlap as
        # generated, so the flow-end audit finds the result illegal.
        assert final["result"]["degradation"] == [
            {"stage": "dp", "reason": "illegal_result", "violations": 1,
             "first": ["overlap: blk1 x blk0"]}
        ]

    @pytest.mark.parametrize(
        "override",
        [{"gp.congestion_estimator": "bogus"}, {"stage_budget": "x"}],
        ids=["estimator", "stage-budget"],
    )
    def test_bad_override_fails_job_at_once(self, tmp_path, override):
        # Before the flow starts: never a degraded "done" from inside GP,
        # never a worker_error requeue from outside every stage.
        from repro.serve.worker import run_job

        store = JobStore(tmp_path / "serve")
        store.submit({"spec": SPEC}, options={"config": override})
        record = store.claim(os.getpid())
        run_job(store, record, settings={})
        final = store.get(record["job_id"])
        assert final["state"] == "failed"
        assert final["requeues"] == []
        assert repr(next(iter(override))) in final["error"]


def _shm_segments() -> set:
    return {
        os.path.basename(p) for p in glob.glob("/dev/shm/repro_*")
    }


class TestServeEngine:
    def test_job_runs_to_done(self, tmp_path):
        store = JobStore(tmp_path / "serve")
        record = store.submit(
            {"spec": SPEC},
            options={"route": False, "run_dp": False,
                     "config": {"gp.max_outer_iterations": 3}},
        )
        with WorkerSupervisor(tmp_path / "serve", fast_settings()):
            final = wait_for(
                lambda: (r := store.get(record["job_id"]))["state"] == "done"
                and r
            )
        assert final["attempts"] == 1
        assert final["result"]["hpwl_final"] > 0
        assert os.path.exists(final["trace_path"])
        assert final["trace_path"].endswith("trace-attempt1.jsonl")

    def test_crash_requeue_resumes_bit_identically(self, tmp_path):
        """A worker hard-killed at stage boundaries converges to the
        same result an uninterrupted run produces, resuming each next
        attempt from the per-stage checkpoint."""
        spec = {"name": "crashdrill", "num_cells": 120, "seed": 3}
        options = {
            "route": False,
            "config": {"gp.max_outer_iterations": 5},
            # Hard os._exit at the 2nd completed flow stage of every
            # attempt: each attempt checkpoints one stage further, so
            # the job converges within max_retries.
            "faults": "serve.worker_exit@2",
        }
        store = JobStore(tmp_path / "serve")
        record = store.submit({"spec": spec}, options=options, max_retries=3)
        with WorkerSupervisor(tmp_path / "serve", fast_settings()) as sup:
            final = wait_for(
                lambda: (r := store.get(record["job_id"]))["state"]
                in ("done", "failed") and r,
                timeout=180,
            )
            assert sup.respawns >= 1
        assert final["state"] == "done"
        assert final["attempts"] > 1
        reasons = {e["reason"] for e in final["requeues"]}
        assert reasons == {"worker_lost"}
        assert final["result"]["resumed_stages"]  # checkpoint was used

        # Uninterrupted reference with the identical per-job config.
        ref_cfg = build_flow_config(
            {k: v for k, v in options.items() if k != "faults"},
            job_dir=str(tmp_path / "ref"),
        )
        from repro.flow import NTUplace4H

        ref = NTUplace4H(ref_cfg).run(
            make_benchmark(BenchmarkSpec(**spec)), route=False
        )
        assert final["result"]["hpwl_final"] == ref.hpwl_final
        assert final["result"]["hpwl_gp"] == ref.hpwl_gp

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="POSIX shared memory fs only"
    )
    def test_cancel_during_route_leaks_no_shared_memory(self, tmp_path):
        spec = {"name": "canceldrill", "num_cells": 900, "seed": 5}
        store = JobStore(tmp_path / "serve")
        before = _shm_segments()
        record = store.submit(
            {"spec": spec},
            options={"route": True, "run_dp": False,
                     "config": {"gp.max_outer_iterations": 4}},
        )
        job_id = record["job_id"]
        with WorkerSupervisor(tmp_path / "serve", fast_settings()):
            wait_for(
                lambda: (store.get(job_id).get("stage") or "").startswith(
                    "flow/route"
                )
                or store.get(job_id)["state"] != "running"
                and store.get(job_id)["state"] != "queued",
                timeout=180,
            )
            assert store.get(job_id)["state"] == "running", (
                "job finished before the cancel could land in route"
            )
            store.request_cancel(job_id)
            final = wait_for(
                lambda: (r := store.get(job_id))["state"] == "cancelled"
                and r,
                timeout=60,
            )
        assert final["state"] == "cancelled"
        time.sleep(0.5)  # let worker finalizers settle
        leaked = _shm_segments() - before
        assert not leaked, f"orphaned shared-memory segments: {leaked}"

    def test_sigkilled_worker_job_resumes(self, tmp_path):
        """External SIGKILL (not a fault point): the supervisor notices
        the dead worker, requeues, and the job still completes with the
        uninterrupted run's result."""
        spec = {"name": "sigkill", "num_cells": 300, "seed": 9}
        store = JobStore(tmp_path / "serve")
        record = store.submit(
            {"spec": spec},
            options={"route": False,
                     "config": {"gp.max_outer_iterations": 8}},
            max_retries=2,
        )
        job_id = record["job_id"]
        with WorkerSupervisor(tmp_path / "serve", fast_settings()) as sup:
            running = wait_for(
                lambda: (r := store.get(job_id))["state"] == "running"
                and r.get("worker") and r,
                timeout=60,
            )
            os.kill(running["worker"], signal.SIGKILL)
            final = wait_for(
                lambda: (r := store.get(job_id))["state"]
                in ("done", "failed") and r,
                timeout=180,
            )
            assert sup.respawns >= 1
        assert final["state"] == "done"
        assert final["attempts"] >= 2
        assert any(
            e["reason"] == "worker_lost" for e in final["requeues"]
        )
        ref_cfg = build_flow_config(
            {"config": {"gp.max_outer_iterations": 8}},
            job_dir=str(tmp_path / "ref"),
        )
        from repro.flow import NTUplace4H

        ref = NTUplace4H(ref_cfg).run(
            make_benchmark(BenchmarkSpec(**spec)), route=False
        )
        assert final["result"]["hpwl_final"] == ref.hpwl_final

    def test_sigint_leaves_worker_to_the_supervisor(self, tmp_path):
        """Ctrl-C on ``repro serve`` reaches its workers too (one process
        group).  A worker ignores it, so the job in flight still
        finishes on its first attempt."""
        store = JobStore(tmp_path / "serve")
        job_id = store.submit(
            {"spec": {"name": "sigint", "num_cells": 300, "seed": 9}},
            options={"route": False, "config": {"gp.max_outer_iterations": 5}},
        )["job_id"]
        with WorkerSupervisor(tmp_path / "serve", fast_settings()) as sup:
            running = wait_for(
                lambda: (r := store.get(job_id))["state"] == "running" and r
            )
            os.kill(running["worker"], signal.SIGINT)
            final = wait_for(
                lambda: (r := store.get(job_id))["state"] in ("done", "failed")
                and r,
                timeout=120,
            )
            assert sup.respawns == 0
        assert final["state"] == "done"
        assert final["attempts"] == 1

    def test_worker_that_cannot_start_respawns_with_backoff(
        self, tmp_path, monkeypatch
    ):
        """A worker slot whose workers die at once backs off: respawns
        wait out a delay that doubles from RESPAWN_DELAY_MIN."""
        from repro.serve import engine

        # ``slice`` takes the worker's three arguments and returns: the
        # spawned process exits as soon as it starts.
        monkeypatch.setattr(engine, "worker_loop", slice)
        with WorkerSupervisor(tmp_path / "serve", fast_settings()) as sup:
            time.sleep(2.0)
            respawns = sup.respawns
        assert 1 <= respawns <= 4

    def test_respawned_workers_start_while_sqlite_is_busy(self, tmp_path):
        """Respawns happen on the monitor thread while other threads of
        the supervisor's process use SQLite (HTTP handlers in ``repro
        serve``).  A worker forked while one of them holds an SQLite
        mutex would hang in its first connect and never claim; every
        respawned worker must claim the job within a fixed bound."""
        from repro.serve import engine

        root = tmp_path / "serve"
        store = JobStore(root)
        # Big enough that no attempt finishes in the ~0.1 s between its
        # claim and the kill below.
        job_id = store.submit(
            {"spec": {"name": "respawn", "num_cells": 2000, "seed": 1}},
            max_retries=20,
        )["job_id"]
        stop = threading.Event()
        errors = []

        def open_and_close_connections():
            try:
                while not stop.is_set():
                    store.get(job_id)
            except Exception as exc:  # asserted below
                errors.append(exc)

        busy = threading.Thread(target=open_and_close_connections, daemon=True)
        with WorkerSupervisor(root, fast_settings()) as sup:
            busy.start()
            try:
                killed = None
                for _ in range(11):
                    claimed = wait_for(
                        lambda: (r := store.get(job_id))["state"] == "running"
                        and r["worker"] != killed and r,
                        timeout=30,
                    )
                    killed = claimed["worker"]
                    # Let the worker outlive its slot's respawn delay, or
                    # the kills would be a crash loop the supervisor
                    # backs off from.
                    time.sleep(engine.RESPAWN_DELAY_MIN + 0.3)
                    os.kill(killed, signal.SIGKILL)
            finally:
                stop.set()
                busy.join(timeout=10)
            assert not busy.is_alive()
            assert sup.respawns >= 10
        assert errors == []

    def test_orphaned_jobs_requeued_on_startup(self, tmp_path):
        store = JobStore(tmp_path / "serve")
        job_id = store.submit({"spec": SPEC})["job_id"]
        store.claim(999999)  # a worker from a "previous server" run
        sup = WorkerSupervisor(
            tmp_path / "serve", fast_settings(workers=0)
        )
        sup.start()
        try:
            record = store.get(job_id)
            assert record["state"] == "queued"
            assert record["attempts"] == 0  # refunded
            assert record["requeues"][0]["reason"] == "orphaned"
        finally:
            sup.close()


class TestResultSummary:
    def test_summary_round_trips_through_record(self, tmp_path):
        cfg = build_flow_config(
            {"run_dp": False, "config": {"gp.max_outer_iterations": 2}},
            job_dir=str(tmp_path),
        )
        from repro.flow import NTUplace4H

        result = NTUplace4H(cfg).run(
            make_benchmark(BenchmarkSpec(**SPEC)), route=False
        )
        summary = result.summary()
        store = JobStore(tmp_path / "serve")
        job_id = store.submit({"spec": SPEC})["job_id"]
        store.claim(1)
        record = store.finish(job_id, summary, attempt=1)
        validate_job_record(record)
        assert record["result"]["design"] == result.design_name
        assert record["result"]["legal"] == result.legal
