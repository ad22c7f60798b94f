"""The worker supervisor: spawn, watch, requeue, escalate.

:class:`WorkerSupervisor` owns N worker processes (each running
:func:`repro.serve.worker.worker_loop`) plus one monitor thread that
closes the engine's reliability loop:

* **crash recovery** — a running job whose worker process is dead is
  requeued (``worker_lost``); the next attempt resumes from the job's
  last per-stage checkpoint.  Retries are bounded by the job's
  ``max_retries``; exhaustion turns the job ``failed``.
* **stall detection** — a running job whose heartbeat is older than
  ``stale_timeout`` while its worker is still alive gets the worker
  killed and the job requeued (``stalled``).
* **per-job wall timeout** — ``options.timeout`` seconds after
  ``started``, the worker is killed and the job requeued
  (``timeout``).
* **cancel escalation** — a ``cancel_requested`` job normally winds
  down cooperatively (the worker's beat thread raises
  :class:`~repro.serve.worker.JobCancelled`); if it is still running
  after ``cancel_grace`` seconds the supervisor sends ``SIGUSR1``
  itself, and after another grace period it SIGKILLs the worker and
  marks the job cancelled.
* **worker replacement** — dead workers are respawned so capacity is
  constant.  A slot whose workers die young backs off: its next worker
  starts no sooner than its respawn delay after the last one did.  The
  delay starts at ``RESPAWN_DELAY_MIN``, doubles each time a worker
  dies within it (up to ``RESPAWN_DELAY_MAX``), and resets once a
  worker outlives it, so a worker that cannot start does not respawn
  several times a second forever.

On startup, jobs left ``running`` by a previous server process are
requeued with the attempt refunded (``orphaned``).  On close, workers
get ``SIGTERM`` (they requeue their active job with the attempt
refunded), then ``SIGKILL`` after a grace period.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import os
import signal
import threading
import time
from dataclasses import asdict, dataclass

from repro.obs import get_logger
from repro.obs.log import ROOT_LOGGER_NAME
from repro.serve.store import JobStore, JobStoreError
from repro.serve.worker import worker_loop

_log = get_logger("serve.engine")

#: A worker slot's respawn delay, seconds: at first, and at most.
RESPAWN_DELAY_MIN = 0.5
RESPAWN_DELAY_MAX = 30.0


@dataclass
class ServeSettings:
    """Tunables of the job engine (server + supervisor + workers)."""

    #: Worker processes draining the queue.
    workers: int = 2
    #: Idle claim-poll interval inside each worker, seconds.
    poll_interval: float = 0.1
    #: Heartbeat cadence of a worker's beat thread, seconds.
    heartbeat_interval: float = 0.5
    #: A running job is considered lost/stalled past this many seconds
    #: without a heartbeat.
    stale_timeout: float = 15.0
    #: Seconds to wait for cooperative cancel before escalating.
    cancel_grace: float = 5.0
    #: Monitor-thread poll cadence, seconds.
    monitor_interval: float = 0.25
    #: Optional run-registry directory: every completed job also lands
    #: in ``repro runs`` history.
    runs_dir: str | None = None
    #: Default max_retries for submissions that do not specify one.
    default_max_retries: int = 2
    #: Admission control: new submits are refused (503 + Retry-After)
    #: once this many jobs are queued.  ``/readyz`` reports not-ready
    #: at 80% of this (the high-watermark), so load balancers back off
    #: before the hard refusal kicks in.
    max_queue_depth: int = 10_000
    #: Per-client submit rate, requests/second (token bucket; 0 = off).
    rate_limit: float = 0.0
    #: Token-bucket burst for the rate limiter (0 = twice the rate).
    rate_burst: float = 0.0
    #: Default seconds :meth:`WorkerSupervisor.drain` waits for
    #: in-flight jobs before leaving them to checkpoint-requeue.
    drain_timeout: float = 30.0

    def worker_settings(self, parent_pid: int) -> dict:
        out = asdict(self)
        out["parent_pid"] = parent_pid
        # A spawned worker starts with logging unconfigured; it copies
        # this process's ``repro`` logging setup (None: none installed).
        root = logging.getLogger(ROOT_LOGGER_NAME)
        out["log_level"] = root.level if root.handlers else None
        return out


def _alive(pid: int | None) -> bool:
    """Whether ``pid`` names a live process we may signal."""
    if not pid:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


@dataclass
class _CancelWatch:
    first_seen: float
    nudged: bool = False


@dataclass
class _Slot:
    """One worker slot's respawn backoff."""

    started: float  # time.monotonic() its current worker started at
    delay: float = RESPAWN_DELAY_MIN
    outlived: bool = False  # its current worker outlived ``delay``


class WorkerSupervisor:
    """N queue-draining worker processes plus the reliability monitor."""

    def __init__(self, root, settings: ServeSettings | None = None):
        self.root = str(root)
        self.settings = settings or ServeSettings()
        self.store = JobStore(self.root)
        # Workers start with ``spawn``, never ``fork``: respawns run on
        # the monitor thread while other threads (HTTP handlers, pollers)
        # use SQLite, and a child forked while one of them holds an
        # SQLite mutex hangs in its first connect.  ``spawn`` also keeps
        # this process the workers' parent, as their orphan checks need.
        self._ctx = mp.get_context("spawn")
        self._procs: list = []
        self._slots: list[_Slot] = []
        self._monitor: threading.Thread | None = None
        self._stop = threading.Event()
        self._cancels: dict[str, _CancelWatch] = {}
        self._started = False
        self._closed = False
        self._draining = False
        #: Requeues/respawns performed, for bench/health reporting.
        self.requeues = 0
        self.respawns = 0

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._draining = False
        try:
            # A previous process may have died mid-drain; a fresh
            # supervisor serves.
            self.store.set_draining(False)
        except JobStoreError as exc:
            _log.warning("could not clear drain flag on start: %s", exc)
        for record in self.store.running():
            # Leftovers from a previous server process: their workers
            # are gone (or never ours); give the jobs back to the queue
            # without burning a retry.
            self.store.requeue(
                record["job_id"], "orphaned", count_attempt=False
            )
            self.requeues += 1
        for w in range(self.settings.workers):
            self._procs.append(self._spawn(w))
            self._slots.append(_Slot(started=time.monotonic()))
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="serve-monitor", daemon=True
        )
        self._monitor.start()
        _log.info(
            "supervisor up: %d workers on %s", len(self._procs), self.root
        )

    def _spawn(self, worker_id: int):
        proc = self._ctx.Process(
            target=worker_loop,
            args=(
                self.root,
                worker_id,
                self.settings.worker_settings(os.getpid()),
            ),
            name=f"repro-serve-{worker_id}",
            daemon=False,
        )
        proc.start()
        return proc

    def close(self, *, grace: float = 5.0) -> None:
        """Stop the monitor and wind every worker down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=2.0)
        for proc in self._procs:
            if proc.is_alive():
                try:
                    os.kill(proc.pid, signal.SIGTERM)
                except (ProcessLookupError, OSError):
                    pass
        deadline = time.monotonic() + grace
        for proc in self._procs:
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)
        # Anything still marked running belonged to a worker we just
        # killed; refund the attempt and give it back to the queue.
        for record in self.store.running():
            self.store.requeue(
                record["job_id"], "shutdown", count_attempt=False
            )
            self.requeues += 1
        self._procs = []
        self._slots = []

    def drain(self, timeout: float | None = None) -> dict:
        """Graceful drain: stop claiming, wait for in-flight jobs.

        Raises the store's drain flag — workers stop claiming (the flag
        lives in the database, so it reaches every worker *process*)
        and the server starts refusing new submits with 503 — then
        waits up to ``timeout`` seconds for running jobs to finish.
        Jobs still in flight at the deadline are not killed here:
        :meth:`close` SIGTERMs their workers, which checkpoint and
        requeue them with the attempt refunded, so a restarted engine
        resumes them bit-identically.  Idempotent; returns a summary.
        """
        if timeout is None:
            timeout = self.settings.drain_timeout
        self._draining = True
        try:
            self.store.set_draining(True)
        except JobStoreError as exc:
            # Workers will not see the flag, but the in-process server
            # still refuses submits via the ``draining`` property.
            _log.warning("drain: could not raise store flag: %s", exc)
        deadline = time.monotonic() + max(0.0, float(timeout))
        while time.monotonic() < deadline:
            if not self.store.running():
                break
            time.sleep(min(0.1, self.settings.monitor_interval))
        in_flight = len(self.store.running())
        _log.info(
            "drain finished: %d jobs still in flight (timeout %.1fs)",
            in_flight, float(timeout),
        )
        return {
            "draining": True,
            "timeout": float(timeout),
            "in_flight": in_flight,
            "drained": in_flight == 0,
        }

    @property
    def draining(self) -> bool:
        """Whether a drain was requested (here or by another process)."""
        if self._draining:
            return True
        try:
            return self.store.draining()
        except JobStoreError:
            return False

    def __enter__(self) -> "WorkerSupervisor":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- introspection -------------------------------------------------
    def worker_pids(self) -> list[int]:
        return [p.pid for p in self._procs if p.is_alive()]

    def describe(self) -> dict:
        return {
            "workers": [
                {"pid": p.pid, "alive": p.is_alive(), "name": p.name}
                for p in self._procs
            ],
            "requeues": self.requeues,
            "respawns": self.respawns,
            "draining": self._draining,
        }

    # -- the reliability loop ------------------------------------------
    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.settings.monitor_interval):
            try:
                self.poll()
            except Exception as exc:  # monitor must never die
                _log.warning(
                    "supervisor poll error (%s: %s)", type(exc).__name__, exc
                )

    def poll(self, *, now: float | None = None) -> None:
        """One reliability sweep (called by the monitor thread)."""
        now = time.time() if now is None else float(now)
        self._respawn_dead_workers()
        live = set(self.worker_pids())
        for record in self.store.running():
            job_id = record["job_id"]
            pid = record.get("worker")
            options = record.get("options") or {}
            if record.get("cancel_requested"):
                self._escalate_cancel(record, live, now)
                continue
            if pid not in live and not _alive(pid):
                self._requeue(job_id, "worker_lost", pid=pid)
                continue
            timeout = options.get("timeout")
            started = record.get("started") or now
            if timeout and now - started > float(timeout):
                self._kill_worker(pid)
                self._requeue(
                    job_id, "timeout",
                    pid=pid, detail={"elapsed_s": round(now - started, 3)},
                )
                continue
            heartbeat = record.get("heartbeat")
            if heartbeat and now - heartbeat > self.settings.stale_timeout:
                self._kill_worker(pid)
                self._requeue(
                    job_id, "stalled",
                    pid=pid, detail={"silent_s": round(now - heartbeat, 3)},
                )
        # Forget cancel watches for jobs that reached a terminal state.
        running_ids = {r["job_id"] for r in self.store.running()}
        for job_id in list(self._cancels):
            if job_id not in running_ids:
                del self._cancels[job_id]

    def _escalate_cancel(self, record: dict, live: set, now: float) -> None:
        job_id = record["job_id"]
        pid = record.get("worker")
        watch = self._cancels.get(job_id)
        if watch is None:
            self._cancels[job_id] = _CancelWatch(first_seen=now)
            return
        if pid not in live and not _alive(pid):
            # The worker died mid-cancel; the job is as cancelled as it
            # will ever be.
            self.store.mark_cancelled(job_id)
            return
        grace = self.settings.cancel_grace
        if not watch.nudged and now - watch.first_seen > grace:
            watch.nudged = True
            try:
                os.kill(pid, signal.SIGUSR1)
            except (ProcessLookupError, OSError):
                pass
        elif watch.nudged and now - watch.first_seen > 2 * grace:
            self._kill_worker(pid)
            self.store.mark_cancelled(job_id)

    def _requeue(self, job_id: str, reason: str, *, pid: int | None,
                 detail: dict | None = None) -> None:
        detail = dict(detail or ())
        detail["pid"] = pid
        record = self.store.requeue(
            job_id, reason, expect_worker=pid, detail=detail
        )
        entries = record.get("requeues") or []
        if not entries or entries[-1].get("reason") != reason or (
            entries[-1].get("pid") != pid
        ):
            # Refused inside the store transaction: the job moved on
            # (re-claimed, finished) between our poll snapshot and now.
            return
        self.requeues += 1
        _log.warning(
            "job %s %s -> %s (attempt %d/%d)",
            job_id, reason, record["state"], record["attempts"],
            record["max_retries"] + 1,
        )

    @staticmethod
    def _kill_worker(pid: int | None) -> None:
        if not pid:
            return
        try:
            os.kill(pid, signal.SIGKILL)
        except (ProcessLookupError, OSError):
            pass

    def _respawn_dead_workers(self) -> None:
        if self._draining:
            return  # capacity is winding down; do not replace workers
        now = time.monotonic()
        for i, proc in enumerate(self._procs):
            slot = self._slots[i]
            if proc.is_alive():
                if not slot.outlived and now - slot.started >= slot.delay:
                    slot.outlived = True
                    slot.delay = RESPAWN_DELAY_MIN
                continue
            if not slot.outlived and now < slot.started + slot.delay:
                continue  # died young: wait out the slot's delay
            proc.join(timeout=0.1)
            self._procs[i] = self._spawn(i)
            self.respawns += 1
            _log.warning(
                "worker %d (pid %s) died; respawned as pid %d",
                i, proc.pid, self._procs[i].pid,
            )
            if not slot.outlived:
                slot.delay = min(2.0 * slot.delay, RESPAWN_DELAY_MAX)
            slot.started, slot.outlived = time.monotonic(), False
