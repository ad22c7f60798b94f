"""Placement-as-a-service: a persistent job queue + worker fleet + HTTP API.

``repro.serve`` turns the one-shot :class:`~repro.flow.NTUplace4H` flow
into a long-running service (ROADMAP item: production-scale serving):

* :mod:`repro.serve.schema` — versioned job-record schema and lifecycle
  state machine.
* :mod:`repro.serve.store` — SQLite-backed persistent priority queue
  with atomic multi-process claims, a JSONL mutation journal, and
  degrade-don't-crash failure handling (corruption quarantine +
  journal rebuild, disk-full read-only mode).
* :mod:`repro.serve.journal` — the append-only journal itself plus the
  invariant checker the chaos harness gates on.
* :mod:`repro.serve.worker` — the per-process job runner: builds the
  design, runs the flow, streams progress via a live JSONL trace,
  heartbeats, honours cooperative cancel, and resumes crashed attempts
  from their last stage checkpoint.
* :mod:`repro.serve.engine` — the worker supervisor: crash/stall/
  timeout requeue with bounded retries, cancel escalation, respawn,
  and graceful drain.
* :mod:`repro.serve.ratelimit` — per-client token buckets behind the
  server's admission control.
* :mod:`repro.serve.server` — stdlib HTTP API (submit/status/result/
  cancel/list/trace/drain) with the 429/503 overload contract and
  ``/healthz`` / ``/readyz`` probes.
* :mod:`repro.serve.client` — urllib client used by the CLI, the
  load-test bench, and CI; retries transient failures with backoff +
  jitter and survives server restarts mid-wait.

See ``docs/serving.md`` for the full API, lifecycle, and operations
reference.
"""

from repro.serve.client import ServeAPIError, ServeClient
from repro.serve.engine import ServeSettings, WorkerSupervisor
from repro.serve.journal import JobJournal, check_invariants
from repro.serve.ratelimit import RateLimiter, TokenBucket
from repro.serve.schema import (
    JOB_SCHEMA_VERSION,
    JOB_STATES,
    TERMINAL_STATES,
    build_job_schema,
    new_job_record,
    validate_job_record,
)
from repro.serve.server import JobServer
from repro.serve.store import (
    JobStore,
    JobStoreError,
    JobStoreReadOnly,
    JobStoreWriteError,
)
from repro.serve.worker import run_job, worker_loop

__all__ = [
    "JOB_SCHEMA_VERSION",
    "JOB_STATES",
    "TERMINAL_STATES",
    "JobJournal",
    "JobServer",
    "JobStore",
    "JobStoreError",
    "JobStoreReadOnly",
    "JobStoreWriteError",
    "RateLimiter",
    "ServeAPIError",
    "ServeClient",
    "ServeSettings",
    "TokenBucket",
    "WorkerSupervisor",
    "build_job_schema",
    "check_invariants",
    "new_job_record",
    "run_job",
    "validate_job_record",
    "worker_loop",
]
