"""Graceful-drain and rolling-restart tests for the serve stack.

The drain contract (``docs/serving.md``): a draining engine stops
claiming queued work (the flag lives in the store, so every worker
process sees it), finishes or checkpoints what is in flight within the
deadline, and refuses new submits with 503 + ``Retry-After``; a fresh
engine on the same root clears the flag and resumes.  The
restart-under-load path — drain past its deadline, close, reopen —
must lose no job: in-flight work is requeued with the attempt
refunded and runs to completion on the next engine, with the journal
invariants intact.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.serve import (
    JobServer,
    JobStore,
    ServeAPIError,
    ServeClient,
    ServeSettings,
)
from repro.serve.journal import check_invariants
from repro.serve.worker import build_design, build_flow_config, run_job

SPEC = {"name": "draintest", "num_cells": 40, "seed": 17}
DESIGN = {"spec": SPEC}
FAST_OPTIONS = {
    "route": False,
    "run_dp": False,
    "config": {"gp.max_outer_iterations": 3},
}


def make_server(tmp_path, **overrides) -> JobServer:
    base = dict(
        workers=1,
        poll_interval=0.02,
        heartbeat_interval=0.1,
        monitor_interval=0.1,
        stale_timeout=30.0,
    )
    base.update(overrides)
    return JobServer(tmp_path / "serve", settings=ServeSettings(**base))


def wait_for(predicate, *, timeout: float = 60.0, poll: float = 0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(poll)
    raise AssertionError(f"timed out after {timeout}s waiting for {predicate}")


class TestStoreDrainFlag:
    def test_draining_blocks_claims(self, tmp_path):
        store = JobStore(tmp_path / "serve")
        store.submit(DESIGN)
        store.set_draining(True)
        assert store.draining() is True
        assert store.claim(os.getpid()) is None
        store.set_draining(False)
        assert store.claim(os.getpid()) is not None

    def test_flag_visible_across_handles(self, tmp_path):
        # The flag lives in the database, not the process: a second
        # handle on the same root (another worker) sees it at once.
        store_a = JobStore(tmp_path / "serve")
        store_b = JobStore(tmp_path / "serve")
        store_a.set_draining(True)
        assert store_b.draining() is True


class TestGracefulDrain:
    def test_drain_finishes_in_flight_then_refuses(self, tmp_path):
        with make_server(tmp_path) as server:
            client = ServeClient(server.url, timeout=30.0)
            first = client.submit(DESIGN, options=FAST_OPTIONS)["job_id"]
            wait_for(lambda: client.get(first)["state"] != "queued")
            second = client.submit(DESIGN, options=FAST_OPTIONS)["job_id"]
            summary = client.drain(timeout=120.0)
            assert summary["draining"] is True
            assert summary["drained"] is True
            assert summary["in_flight"] == 0
            # The claimed job ran to completion; the queued one was
            # never claimed — drain stops the pump, it does not flush
            # the queue.  It survives for the next engine.
            assert client.get(first)["state"] == "done"
            assert client.get(second)["state"] == "queued"
            # New submits bounce with the documented 503.
            refused = ServeClient(server.url, timeout=30.0, retries=0)
            with pytest.raises(ServeAPIError) as exc:
                refused.submit(DESIGN, options=FAST_OPTIONS)
            assert exc.value.status == 503
            assert "draining" in exc.value.message
            assert exc.value.retry_after is not None
            assert refused.ready() is False
            assert client.health()["draining"] is True

    def test_restart_clears_drain_flag(self, tmp_path):
        with make_server(tmp_path) as server:
            ServeClient(server.url, timeout=30.0).drain(timeout=30.0)
        assert JobStore(tmp_path / "serve").draining() is True
        # A fresh engine on the same root accepts and runs work again.
        with make_server(tmp_path) as server:
            client = ServeClient(server.url, timeout=30.0)
            assert client.health()["draining"] is False
            job_id = client.submit(DESIGN, options=FAST_OPTIONS)["job_id"]
            final = client.wait(job_id, timeout=120.0)
            assert final["state"] == "done"


class TestRestartUnderLoad:
    def test_refunded_attempt_resumes_from_its_checkpoint(self, tmp_path):
        # A drain or shutdown requeue refunds the attempt, so the next
        # claim is attempt 1 again: the checkpoint the interrupted
        # attempt wrote must still be used.
        from repro.flow import NTUplace4H

        store = JobStore(tmp_path / "serve")
        job_id = store.submit(DESIGN, options=FAST_OPTIONS)["job_id"]
        store.claim(os.getpid())
        cfg = build_flow_config(
            FAST_OPTIONS, job_dir=os.path.join(store.root, "jobs", job_id)
        )
        NTUplace4H(cfg).run(build_design(DESIGN), route=False)
        store.requeue(job_id, "shutdown", count_attempt=False)
        record = store.claim(os.getpid())
        assert record["attempts"] == 1
        run_job(store, record, settings={"heartbeat_interval": 0.1})
        final = store.get(job_id)
        assert final["state"] == "done"
        assert final["result"]["resumed_stages"]

    def test_deadline_hit_checkpoints_and_resumes(self, tmp_path):
        store = JobStore(tmp_path / "serve")
        with make_server(tmp_path) as server:
            client = ServeClient(server.url, timeout=30.0)
            job_id = client.submit(DESIGN, options=FAST_OPTIONS)["job_id"]
            wait_for(lambda: store.get(job_id)["state"] != "queued")
            # An immediate deadline: the drain cannot wait the job out.
            summary = server.drain(timeout=0.01)
            assert summary["draining"] is True
            record = store.get(job_id)
            if record["state"] == "running":
                assert summary["drained"] is False
                assert summary["in_flight"] >= 1
        # Close requeued any survivor with the attempt refunded; the
        # next engine picks it up and runs it to completion.
        assert store.get(job_id)["state"] in ("queued", "done")
        with make_server(tmp_path) as server:
            client = ServeClient(server.url, timeout=30.0)
            final = client.wait(job_id, timeout=120.0)
            assert final["state"] == "done"
        assert check_invariants(store.journal, expect_submitted=1) == []
