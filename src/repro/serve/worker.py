"""One serve worker process: claim jobs, run flows, report back.

A worker is a plain OS process running :func:`worker_loop`, draining a
shared persistent queue.  Each claimed job builds its design (suite
name, inline benchgen spec, or Bookshelf ``.aux``), assembles a per-job
:class:`~repro.flow.config.FlowConfig` (checkpoint dir under the job
directory), and runs :class:`~repro.flow.ntuplace4h.NTUplace4H` under a
dedicated tracer whose sinks provide the serve plumbing:

* a :class:`~repro.obs.bus.JsonlStreamSink` streaming
  ``trace-attempt<N>.jsonl`` into the job directory (tail-f-able live,
  and served by the HTTP ``/jobs/<id>/trace`` endpoint);
* a :class:`~repro.obs.bus.CallbackSink` tracking the innermost open
  span (the job's ``stage`` column) and arming the
  ``serve.worker_exit`` fault point at stage boundaries;
* a beat *thread* stamping the job's heartbeat row at a fixed cadence —
  liveness is decoupled from telemetry volume, so a long silent CG
  solve never looks like a crash.

Cancellation is cooperative and signal-driven: the beat thread (or the
supervisor) notices ``cancel_requested`` and sends the worker
``SIGUSR1``; the handler raises :class:`JobCancelled` — a
``BaseException`` subclass, so it passes straight through the flow's
per-stage ``except Exception`` degradation handlers and unwinds every
``finally`` block on the way out.  ``SIGTERM`` is an orderly shutdown:
the active job is requeued with its attempt refunded, then the loop
exits.

A worker killed outright (``SIGKILL``, OOM, a ``serve.worker_exit``
fault) simply stops heartbeating; the supervisor requeues its job, and
the next attempt resumes from the last per-stage checkpoint
bit-identically.
"""

from __future__ import annotations

import os
import signal
import threading
import time

from repro.obs import (
    CallbackSink,
    JsonlStreamSink,
    Tracer,
    configure_logging,
    get_logger,
    use_tracer,
)
from repro.resilience import DesignValidationError
from repro.resilience.checkpoint import has_checkpoint
from repro.resilience.faults import FaultPlan, check_fault, install_plan, reset_plan
from repro.serve.store import JobStore, JobStoreError

_log = get_logger("serve.worker")

#: Exit code used by the ``serve.worker_exit`` fault point.
FAULT_EXIT_CODE = 86


def _store_write(op, *args, retries: int = 5, delay: float = 0.2, **kwargs):
    """A store mutation with short retries on transient failures.

    Terminal writes (finish/fail/cancel/requeue) must not die to one
    injected ``serve.store_write`` fault or a moment of read-only
    degradation — a computed result would be thrown away and the job
    re-run.  If the store stays broken past the retries the exception
    propagates: the job keeps its stale heartbeat and the supervisor's
    normal machinery requeues it once the store heals.
    """
    for attempt in range(retries):
        try:
            return op(*args, **kwargs)
        except JobStoreError as exc:
            if attempt + 1 >= retries:
                raise
            _log.warning(
                "store write %s failed (%s); retrying",
                getattr(op, "__name__", op), exc,
            )
            time.sleep(delay * (attempt + 1))


class JobCancelled(BaseException):
    """Raised in the worker's main thread to abandon the active job.

    Deliberately a ``BaseException``: the flow's resilience machinery
    catches ``Exception`` to degrade-and-continue, but a cancellation
    must unwind the whole run (through the stages' ``finally`` blocks),
    not be absorbed as a stage fallback.
    """


class WorkerShutdown(BaseException):
    """Raised on SIGTERM: requeue the active job and exit the loop."""


def build_design(design_ref: dict):
    """Materialize a job's design from its ``design`` reference."""
    if "suite" in design_ref:
        from repro.benchgen import make_suite_design

        return make_suite_design(design_ref["suite"])
    if "spec" in design_ref:
        from repro.benchgen import BenchmarkSpec, make_benchmark

        return make_benchmark(BenchmarkSpec(**design_ref["spec"]))
    if "aux" in design_ref:
        from repro.io import read_bookshelf

        return read_bookshelf(design_ref["aux"])
    raise ValueError(f"job design names no source: {design_ref!r}")


def build_flow_config(options: dict, *, job_dir: str,
                      runs_dir: str | None = None):
    """A per-job :class:`FlowConfig` from the job's ``options``."""
    from repro.flow import config_from_overrides, parse_stage_budget

    # ``config`` overrides and budgets come from outside; the parsers
    # refuse a key that names no field or stage, or a value that does
    # not fit it.
    cfg = config_from_overrides(
        {
            "run_dp": bool(options.get("run_dp", True)),
            **(options.get("config") or {}),
        },
        wirelength_only=bool(options.get("wirelength_only")),
    )
    if options.get("stage_budget") is not None:
        cfg.stage_budget = parse_stage_budget(options["stage_budget"])
    cfg.checkpoint_dir = os.path.join(job_dir, "checkpoint")
    cfg.runs_dir = runs_dir
    return cfg


class _WorkerState:
    """Mutable flags shared between the signal handlers and the loop."""

    def __init__(self):
        self.active_job: str | None = None
        self.stop = False
        self.cancel_seen = False


def _install_signal_handlers(state: _WorkerState) -> None:
    def on_cancel(signum, frame):  # noqa: ARG001
        if state.active_job is not None:
            state.cancel_seen = True
            raise JobCancelled(state.active_job)

    def on_term(signum, frame):  # noqa: ARG001
        state.stop = True
        if state.active_job is not None:
            raise WorkerShutdown(state.active_job)

    signal.signal(signal.SIGUSR1, on_cancel)
    signal.signal(signal.SIGTERM, on_term)
    # Ctrl-C reaches the whole process group, workers included; only
    # the supervisor decides when a worker stops (SIGTERM on close,
    # after a drain), so in-flight jobs are not cut short.
    signal.signal(signal.SIGINT, signal.SIG_IGN)


class _BeatThread(threading.Thread):
    """Heartbeats the active job and watches for cancel / parent death."""

    def __init__(self, store: JobStore, job_id: str, *, attempt: int,
                 interval: float, parent_pid: int | None, stage_cell: dict):
        super().__init__(name=f"serve-beat-{job_id}", daemon=True)
        self._store = store
        self._job_id = job_id
        self._attempt = attempt
        self._interval = max(0.05, float(interval))
        self._parent_pid = parent_pid
        self._stage_cell = stage_cell
        self._done = threading.Event()

    def stop(self) -> None:
        self._done.set()
        if self.is_alive():
            self.join(timeout=2.0)

    def run(self) -> None:
        while not self._done.wait(self._interval):
            try:
                status = self._store.heartbeat(
                    self._job_id, attempt=self._attempt,
                    stage=self._stage_cell.get("stage"),
                )
            except Exception:
                continue  # transient DB contention; liveness resumes next beat
            if self._done.is_set():
                # stop() raced the heartbeat: the worker is finishing the
                # job; a signal now could hit its *next* job.
                return
            if status in ("cancel", "superseded"):
                # Cancel requested — or the store moved past our attempt
                # (we are a zombie: the supervisor requeued the job under
                # someone else).  Either way, abandon the flow.
                os.kill(os.getpid(), signal.SIGUSR1)
                return
            if (
                self._parent_pid is not None
                and os.getppid() != self._parent_pid
            ):
                # The supervisor died; wind the job down for requeue.
                os.kill(os.getpid(), signal.SIGTERM)
                return


def _make_progress_sink(stage_cell: dict):
    """Stage tracking + the ``serve.worker_exit`` fault at stage closes."""

    def on_record(record: dict) -> None:
        rtype = record.get("type")
        if rtype == "span_open":
            stage_cell["stage"] = record.get("path", "")
        elif rtype == "span":
            path = record.get("path", "")
            stage_cell["stage"] = path.rsplit("/", 1)[0] if "/" in path else ""
            if record.get("depth") == 1:
                # Stage boundary: the N-th check is the N-th completed
                # flow stage, so REPRO_FAULTS="serve.worker_exit@2"
                # hard-kills this worker right after the second stage —
                # deterministic crash-requeue coverage.
                if check_fault("serve.worker_exit") is not None:
                    os._exit(FAULT_EXIT_CODE)

    return CallbackSink(on_record, types=("span_open", "span"))


def run_job(store: JobStore, record: dict, *, settings: dict,
            state: _WorkerState | None = None) -> None:
    """Execute one claimed job and write its terminal state."""
    from repro.flow import NTUplace4H

    state = state or _WorkerState()
    job_id = record["job_id"]
    options = dict(record.get("options") or {})
    attempt = int(record["attempts"])
    job_dir = os.path.join(store.root, "jobs", job_id)
    os.makedirs(job_dir, exist_ok=True)
    trace_path = os.path.join(job_dir, f"trace-attempt{attempt}.jsonl")
    checkpoint_dir = os.path.join(job_dir, "checkpoint")
    _store_write(
        store.set_paths,
        job_id,
        attempt=attempt,
        job_dir=job_dir,
        trace_path=trace_path,
        checkpoint_dir=checkpoint_dir,
    )
    stage_cell: dict = {"stage": None}
    beat = _BeatThread(
        store,
        job_id,
        attempt=attempt,
        interval=float(settings.get("heartbeat_interval", 0.5)),
        parent_pid=settings.get("parent_pid"),
        stage_cell=stage_cell,
    )
    tracer = Tracer()
    per_job_faults = options.get("faults")
    if per_job_faults:
        install_plan(FaultPlan.parse(per_job_faults))
    try:
        tracer.add_sink(
            JsonlStreamSink(trace_path, include_open=True),
            meta={"job_id": job_id, "attempt": attempt},
        )
        tracer.add_sink(_make_progress_sink(stage_cell))
        cfg = build_flow_config(
            options,
            job_dir=job_dir,
            runs_dir=settings.get("runs_dir"),
        )
        design = build_design(record["design"])
        # Only an earlier attempt of this job writes its checkpoint.  A
        # drain or shutdown requeue refunds that attempt, so the attempt
        # number cannot tell whether one ran.
        resume_from = checkpoint_dir if has_checkpoint(checkpoint_dir) else None
        state.active_job = job_id
        state.cancel_seen = False
        beat.start()
        with use_tracer(tracer):
            result = NTUplace4H(cfg).run(
                design,
                route=bool(options.get("route", True)),
                resume_from=resume_from,
            )
        state.active_job = None
        beat.stop()
        tracer.close_sinks()
        _store_write(store.finish, job_id, result.summary(),
                     attempt=attempt)
    except JobCancelled:
        state.active_job = None
        beat.stop()
        tracer.close_sinks()
        record = _store_write(store.mark_cancelled, job_id, attempt=attempt)
        if record.get("state") == "cancelled":
            _log.info("job %s cancelled", job_id)
        else:
            _log.warning("job %s attempt %d superseded; abandoned",
                         job_id, attempt)
    except WorkerShutdown:
        state.active_job = None
        beat.stop()
        tracer.close_sinks()
        _store_write(store.requeue, job_id, "shutdown",
                     count_attempt=False, attempt=attempt)
        raise
    except (DesignValidationError, ValueError, TypeError) as exc:
        # Deterministic input/config errors: retrying cannot help.
        state.active_job = None
        beat.stop()
        tracer.close_sinks()
        _store_write(store.fail, job_id, f"{type(exc).__name__}: {exc}",
                     attempt=attempt)
        _log.warning("job %s failed: %s", job_id, exc)
    except Exception as exc:
        state.active_job = None
        beat.stop()
        tracer.close_sinks()
        try:
            _store_write(
                store.requeue,
                job_id,
                "worker_error",
                attempt=attempt,
                detail={"error": f"{type(exc).__name__}: {exc}"},
            )
        except JobStoreError as store_exc:
            # The job stays "running" with a stale heartbeat; the
            # supervisor requeues it once the store is back.
            _log.warning("job %s: requeue failed (%s); leaving to the "
                         "supervisor", job_id, store_exc)
        _log.warning("job %s errored (requeued if retries remain): %s",
                     job_id, exc)
    finally:
        state.active_job = None
        if per_job_faults:
            reset_plan()


def worker_loop(root: str, worker_id: int, settings: dict) -> None:
    """Entry point of one serve worker process."""
    if settings.get("log_level") is not None:
        configure_logging(settings["log_level"])
    store = JobStore(root)
    state = _WorkerState()
    _install_signal_handlers(state)
    poll = max(0.02, float(settings.get("poll_interval", 0.1)))
    parent_pid = settings.get("parent_pid")
    _log.info("serve worker %d up (pid %d)", worker_id, os.getpid())
    while not state.stop:
        if parent_pid is not None and os.getppid() != parent_pid:
            break  # orphaned by a dead supervisor
        try:
            record = store.claim(os.getpid())
        except Exception:
            time.sleep(poll)
            continue
        if record is None:
            time.sleep(poll)
            continue
        try:
            run_job(store, record, settings=settings, state=state)
        except WorkerShutdown:
            break
        except JobCancelled:
            # A cancel signal landed between jobs; nothing to abandon.
            continue
        except JobStoreError as exc:
            # run_job's own store writes gave up (store broken past the
            # retry budget); stay alive and poll — the job is requeued
            # by the supervisor when the store heals.
            _log.warning("job %s: store unavailable (%s)",
                         record.get("job_id"), exc)
            time.sleep(poll)
    _log.info("serve worker %d down", worker_id)
