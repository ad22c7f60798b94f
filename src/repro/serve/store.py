"""The persistent priority job queue backing the serve engine.

Storage follows :class:`repro.obs.runs.RunRegistry`: one SQLite
database under the serve root (``jobs.sqlite``) holding the full JSON
record per job plus mirrored hot columns (state, priority, heartbeat,
worker pid) for queries.  Unlike the run registry the store is written
concurrently by several *processes* — the HTTP server and every worker
— so connections run in WAL mode with a busy timeout, and **every**
mutation (not just the queued->running claim) is a single
``BEGIN IMMEDIATE`` read-modify-write transaction.  A fetch outside
the write transaction would be a lost-update bug: a concurrent
transition (claim, requeue, finish) committed between the fetch and
the write would be silently resurrected by the stale full-record
write — observed in practice as a job claimed twice at the same
attempt number, two processes running it concurrently.

On top of atomicity, writes from workers are *attempt-scoped*: the
worker passes the attempt number it claimed, and the store refuses the
write (``superseded``) when the record has moved on — so a zombie
attempt (a worker the supervisor believed dead, a beat thread that
outlived its join timeout) can never stamp heartbeats, clobber paths,
or overwrite the real attempt's result.  The supervisor's requeue is
likewise guarded by the worker pid it observed, because its poll
snapshot is stale by construction.

``claim`` orders by ``priority DESC, created ASC, job_id`` — higher
priority first, FIFO within a priority band.  A store marked
*draining* (``set_draining``) refuses claims — workers idle out while
in-flight jobs finish, the graceful-shutdown half of the overload
story.

Failure modes degrade, never crash (see ``docs/serving.md``):

* every committed mutation (except heartbeats) is mirrored to an
  append-only JSONL journal (:class:`~repro.serve.journal.JobJournal`);
* a corrupted database — failed ``PRAGMA quick_check`` on open, a
  ``sqlite3.DatabaseError`` on mutation with a failing integrity check
  — is quarantined and the queue rebuilt from the journal
  (:meth:`JobStore.recover`);
* a full disk (``ENOSPC`` / sqlite "disk is full") flips the store
  into **read-only** mode: reads keep working, mutations raise
  :class:`JobStoreReadOnly` (the server answers 503), and every later
  mutation re-probes writability so the store heals itself once space
  frees up.
"""

from __future__ import annotations

import contextlib
import json
import os
import sqlite3
import time

from repro.obs import get_logger
from repro.resilience.faults import check_fault
from repro.serve.journal import JobJournal, entry_for, is_disk_full
from repro.serve.schema import (
    JOB_SCHEMA_VERSION,
    TERMINAL_STATES,
    new_job_record,
    validate_job_record,
)

_log = get_logger("serve.store")


class JobStoreError(RuntimeError):
    """Lookup or storage failure in the job store."""


class JobStoreWriteError(JobStoreError):
    """A mutation failed (transient or post-recovery); safe to retry."""


class JobStoreReadOnly(JobStoreError):
    """The store is degraded to read-only (disk full, failed recovery)."""


class _WriteTxn:
    """One open write transaction plus the journal entries it produced."""

    def __init__(self, con: sqlite3.Connection):
        self.con = con
        self.entries: list[dict] = []

    def execute(self, sql: str, params=()):
        return self.con.execute(sql, params)


class JobStore:
    """SQLite-backed persistent priority job queue (multi-process safe)."""

    DB_NAME = "jobs.sqlite"

    def __init__(self, root):
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)
        self.db_path = os.path.join(self.root, self.DB_NAME)
        self.journal = JobJournal(self.root)
        #: Read-only reason, or ``None`` when writable.
        self._read_only: str | None = None
        #: Journal rebuilds performed by this instance.
        self.recoveries = 0
        try:
            existed = os.path.exists(self.db_path)
            with contextlib.closing(self._connect()) as con, con:
                if existed and not self._quick_check(con):
                    raise sqlite3.DatabaseError("PRAGMA quick_check failed")
                self._create_schema(con)
        except sqlite3.DatabaseError as exc:
            self.recover(f"corrupt database on open: {exc}")

    # -- plumbing ------------------------------------------------------
    def _connect(self) -> sqlite3.Connection:
        con = sqlite3.connect(self.db_path, timeout=30.0)
        con.execute("PRAGMA journal_mode=WAL")
        con.execute("PRAGMA busy_timeout=30000")
        return con

    @staticmethod
    def _create_schema(con: sqlite3.Connection) -> None:
        con.execute(
            "CREATE TABLE IF NOT EXISTS jobs ("
            " job_id TEXT PRIMARY KEY,"
            " created REAL NOT NULL,"
            " priority INTEGER NOT NULL,"
            " state TEXT NOT NULL,"
            " attempts INTEGER NOT NULL,"
            " worker INTEGER,"
            " heartbeat REAL,"
            " cancel_requested INTEGER NOT NULL DEFAULT 0,"
            " seq INTEGER NOT NULL DEFAULT 0,"
            " record TEXT NOT NULL)"
        )
        con.execute(
            "CREATE INDEX IF NOT EXISTS idx_jobs_state_priority"
            " ON jobs(state, priority DESC, created)"
        )
        con.execute(
            "CREATE TABLE IF NOT EXISTS control ("
            " key TEXT PRIMARY KEY, value TEXT NOT NULL)"
        )

    @staticmethod
    def _quick_check(con: sqlite3.Connection) -> bool:
        try:
            row = con.execute("PRAGMA quick_check").fetchone()
        except sqlite3.DatabaseError:
            return False
        return bool(row) and row[0] == "ok"

    @contextlib.contextmanager
    def _txn(self):
        """One ``BEGIN IMMEDIATE`` write transaction on a fresh connection.

        The write lock is taken *before* any read, so a fetch inside the
        block can never go stale under a concurrent writer — the whole
        read-modify-write is atomic.  Commits on success, rolls back on
        any exception, always closes the connection.  After the commit,
        the journal entries collected by :meth:`_put` are appended; a
        sqlite failure is classified by :meth:`_on_write_error` into
        read-only degradation, journal rebuild, or a retryable
        :class:`JobStoreWriteError`.
        """
        self._ensure_writable()
        committed = False
        try:
            con = self._connect()
        except sqlite3.DatabaseError as exc:
            self._on_write_error(exc)
        txn = _WriteTxn(con)
        try:
            try:
                con.isolation_level = None
                con.execute("BEGIN IMMEDIATE")
                try:
                    yield txn
                    if check_fault("serve.store_write") is not None:
                        raise sqlite3.OperationalError(
                            "injected fault: serve.store_write"
                        )
                    if check_fault("serve.disk_full") is not None:
                        raise sqlite3.OperationalError(
                            "database or disk is full "
                            "(injected fault: serve.disk_full)"
                        )
                    con.execute("COMMIT")
                    committed = True
                except BaseException:
                    try:
                        con.execute("ROLLBACK")
                    except sqlite3.Error:
                        pass
                    raise
            except sqlite3.DatabaseError as exc:
                self._on_write_error(exc)
        finally:
            con.close()
        if committed:
            self._journal_entries(txn.entries)

    def _journal_entries(self, entries: list[dict]) -> None:
        for entry in entries:
            try:
                self.journal.append(entry)
            except OSError as exc:
                if is_disk_full(exc):
                    self._degrade(f"journal append hit a full disk: {exc}")
                else:
                    _log.warning("journal append failed: %s", exc)

    @contextlib.contextmanager
    def _read(self):
        """A read-only connection, closed on exit."""
        con = self._connect()
        try:
            yield con
        finally:
            con.close()

    # -- degraded modes and recovery -----------------------------------
    @property
    def read_only(self) -> str | None:
        """The read-only reason, or ``None`` when the store is writable."""
        return self._read_only

    def _degrade(self, reason: str) -> None:
        if self._read_only is None:
            _log.warning("job store degrading to read-only: %s", reason)
        self._read_only = reason

    def _ensure_writable(self) -> None:
        if self._read_only is None:
            return
        # Self-heal: if the probe write goes through (space freed, the
        # transient cleared), leave read-only mode and serve the
        # mutation; otherwise refuse it without touching sqlite.
        if self.writable(probe=True):
            _log.warning(
                "job store writable again (was read-only: %s)",
                self._read_only,
            )
            self._read_only = None
            return
        raise JobStoreReadOnly(
            f"job store is read-only ({self._read_only})"
        )

    def writable(self, *, probe: bool = False) -> bool:
        """Whether mutations would be accepted right now.

        With ``probe=True`` an actual control-row write is attempted —
        the readiness check the server's ``/readyz`` uses.  Fault
        points are deliberately not consulted: the probe reports the
        real state of the disk, not the chaos schedule.
        """
        if self._read_only is not None and not probe:
            return False
        try:
            with contextlib.closing(self._connect()) as con:
                con.isolation_level = None
                con.execute("BEGIN IMMEDIATE")
                con.execute(
                    "INSERT OR REPLACE INTO control (key, value)"
                    " VALUES ('probe', ?)",
                    (repr(time.time()),),
                )
                con.execute("COMMIT")
            return True
        except (sqlite3.DatabaseError, OSError):
            return False

    def _integrity_ok(self) -> bool:
        try:
            with contextlib.closing(self._connect()) as con:
                return self._quick_check(con)
        except sqlite3.DatabaseError:
            return False

    def _on_write_error(self, exc: BaseException) -> None:
        """Classify a sqlite mutation failure; always raises."""
        if is_disk_full(exc):
            self._degrade(f"disk full: {exc}")
            raise JobStoreReadOnly(
                f"job store is read-only (disk full: {exc})"
            ) from exc
        if self._integrity_ok():
            # The database itself is fine — a transient failure (or an
            # injected serve.store_write fault).  The write was rolled
            # back; the caller may retry.
            raise JobStoreWriteError(
                f"job store write failed: {exc}"
            ) from exc
        rebuilt = self.recover(f"corruption detected on write: {exc}")
        raise JobStoreWriteError(
            f"job store was corrupt and has been rebuilt from the journal"
            f" ({rebuilt} jobs); retry: {exc}"
        ) from exc

    def recover(self, reason: str) -> int:
        """Quarantine the database and rebuild it from the journal.

        Returns the number of jobs rebuilt.  Terminal states survive
        exactly; jobs caught ``queued``/``running`` come back as the
        journal last saw them and flow through the supervisor's normal
        orphan/stale requeue machinery.  If even the rebuild cannot be
        written the store degrades to read-only instead of raising.
        """
        _log.warning("job store recovery: %s", reason)
        stamp = int(time.time() * 1000)
        for suffix in ("", "-wal", "-shm"):
            path = self.db_path + suffix
            if os.path.exists(path):
                quarantine = f"{self.db_path}.quarantine-{stamp}{suffix}"
                try:
                    os.replace(path, quarantine)
                except OSError:
                    pass  # a concurrent recover won the rename
        latest = self.journal.latest()
        try:
            with contextlib.closing(self._connect()) as con, con:
                self._create_schema(con)
                for seq, record in latest.values():
                    con.execute(
                        "INSERT OR REPLACE INTO jobs (job_id, created,"
                        " priority, state, attempts, worker, heartbeat,"
                        " cancel_requested, seq, record)"
                        " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                        (
                            record["job_id"],
                            record["created"],
                            record["priority"],
                            record["state"],
                            record["attempts"],
                            record.get("worker"),
                            record.get("heartbeat"),
                            1 if record.get("cancel_requested") else 0,
                            int(seq),
                            self._dump(record),
                        ),
                    )
        except (sqlite3.DatabaseError, OSError) as exc:
            self._degrade(f"rebuild from journal failed: {exc}")
            self.recoveries += 1
            return 0
        self.recoveries += 1
        self._read_only = None
        _log.warning(
            "job store rebuilt from journal: %d jobs restored", len(latest)
        )
        return len(latest)

    # -- draining ------------------------------------------------------
    def set_draining(self, draining: bool) -> None:
        """Flip the drain flag (cross-process: workers stop claiming)."""
        with self._txn() as txn:
            txn.execute(
                "INSERT OR REPLACE INTO control (key, value)"
                " VALUES ('draining', ?)",
                ("1" if draining else "0",),
            )

    def draining(self) -> bool:
        """Whether the store refuses claims (drain in progress)."""
        try:
            with self._read() as con:
                row = con.execute(
                    "SELECT value FROM control WHERE key = 'draining'"
                ).fetchone()
        except sqlite3.DatabaseError:
            return False
        return bool(row) and row[0] == "1"

    @staticmethod
    def _superseded(record: dict, attempt: int | None) -> bool:
        """Whether a worker-side write for ``attempt`` lost its lease."""
        if attempt is None:
            return False
        return (
            record["state"] != "running"
            or int(record["attempts"]) != int(attempt)
        )

    # -- helpers -------------------------------------------------------
    @staticmethod
    def _dump(record: dict) -> str:
        return json.dumps(record, sort_keys=True)

    def _put(self, txn: _WriteTxn, record: dict, op: str, *,
             refund: bool = False) -> None:
        """Write ``record`` plus its mirrored columns (inside a txn).

        Bumps the row's mutation ``seq`` and queues a journal entry —
        except for heartbeats, which carry no lifecycle information
        and would bloat the journal at beat cadence.
        """
        txn.execute(
            "UPDATE jobs SET state = ?, attempts = ?, worker = ?,"
            " heartbeat = ?, cancel_requested = ?, seq = seq + 1,"
            " record = ? WHERE job_id = ?",
            (
                record["state"],
                record["attempts"],
                record["worker"],
                record["heartbeat"],
                1 if record["cancel_requested"] else 0,
                self._dump(record),
                record["job_id"],
            ),
        )
        if op == "heartbeat":
            return
        row = txn.execute(
            "SELECT seq FROM jobs WHERE job_id = ?", (record["job_id"],)
        ).fetchone()
        txn.entries.append(
            entry_for(op, record, seq=row[0] if row else 0,
                      now=time.time(), refund=refund)
        )

    def _fetch(self, txn, job_id: str) -> dict:
        row = txn.execute(
            "SELECT record FROM jobs WHERE job_id = ?", (job_id,)
        ).fetchone()
        if row is None:
            raise JobStoreError(f"no job {job_id!r} in {self.root}")
        return json.loads(row[0])

    # -- submission ----------------------------------------------------
    def submit(
        self,
        design: dict,
        *,
        options: dict | None = None,
        priority: int = 0,
        max_retries: int = 2,
    ) -> dict:
        """Queue one job; returns its (validated) record."""
        record = new_job_record(
            design,
            options=options,
            priority=priority,
            max_retries=max_retries,
        )
        with self._txn() as txn:
            txn.execute(
                "INSERT INTO jobs (job_id, created, priority, state,"
                " attempts, worker, heartbeat, cancel_requested, seq,"
                " record) VALUES (?, ?, ?, ?, ?, ?, ?, 0, 1, ?)",
                (
                    record["job_id"],
                    record["created"],
                    record["priority"],
                    record["state"],
                    record["attempts"],
                    None,
                    None,
                    self._dump(record),
                ),
            )
            txn.entries.append(
                entry_for("submit", record, seq=1, now=time.time())
            )
        return record

    # -- the claim (queued -> running) ---------------------------------
    def claim(self, worker_pid: int, *, now: float | None = None) -> dict | None:
        """Atomically take the best queued job; ``None`` when idle.

        Claiming increments ``attempts`` (attempts counts *starts*) and
        stamps ``started``/``heartbeat``/``worker``.  A draining store
        claims nothing — workers idle while in-flight jobs finish.
        """
        now = time.time() if now is None else float(now)
        with self._txn() as txn:
            drain = txn.execute(
                "SELECT value FROM control WHERE key = 'draining'"
            ).fetchone()
            if drain and drain[0] == "1":
                return None
            row = txn.execute(
                "SELECT job_id, record FROM jobs"
                " WHERE state = 'queued' AND cancel_requested = 0"
                " ORDER BY priority DESC, created ASC, job_id ASC LIMIT 1"
            ).fetchone()
            if row is None:
                return None
            record = json.loads(row[1])
            record["state"] = "running"
            record["attempts"] = int(record["attempts"]) + 1
            record["worker"] = int(worker_pid)
            record["started"] = now
            record["heartbeat"] = now
            record["stage"] = None
            self._put(txn, record, "claim")
            return record

    # -- liveness ------------------------------------------------------
    def heartbeat(
        self, job_id: str, *, attempt: int | None = None,
        stage: str | None = None, now: float | None = None,
    ) -> str:
        """Stamp a running job's heartbeat.

        Returns ``"ok"``, ``"cancel"`` (cancel requested — the worker
        should wind the job down), or ``"superseded"`` (the record
        moved past ``attempt``; the caller no longer owns this job and
        nothing was written).
        """
        now = time.time() if now is None else float(now)
        with self._txn() as txn:
            record = self._fetch(txn, job_id)
            if self._superseded(record, attempt) or (
                attempt is None and record["state"] != "running"
            ):
                return "superseded"
            record["heartbeat"] = now
            if stage is not None:
                record["stage"] = stage
            self._put(txn, record, "heartbeat")
            return "cancel" if record["cancel_requested"] else "ok"

    def set_paths(
        self, job_id: str, *, attempt: int | None = None,
        job_dir: str | None = None, trace_path: str | None = None,
        checkpoint_dir: str | None = None,
    ) -> bool:
        """Attach artifact paths to a job record (``False`` = superseded)."""
        with self._txn() as txn:
            record = self._fetch(txn, job_id)
            if self._superseded(record, attempt):
                return False
            if job_dir is not None:
                record["job_dir"] = str(job_dir)
            if trace_path is not None:
                record["trace_path"] = str(trace_path)
            if checkpoint_dir is not None:
                record["checkpoint_dir"] = str(checkpoint_dir)
            self._put(txn, record, "set_paths")
            return True

    # -- terminal transitions ------------------------------------------
    def finish(self, job_id: str, result: dict, *,
               attempt: int | None = None,
               now: float | None = None) -> dict:
        """running -> done, with the flow-result summary attached."""
        return self._terminal(job_id, "done", now, attempt=attempt,
                              result=result, op="finish")

    def fail(self, job_id: str, error: str, *,
             attempt: int | None = None,
             now: float | None = None) -> dict:
        """running/queued -> failed, with a human-readable reason."""
        return self._terminal(job_id, "failed", now, attempt=attempt,
                              error=error, op="fail")

    def mark_cancelled(self, job_id: str, *, attempt: int | None = None,
                       now: float | None = None) -> dict:
        """running/queued -> cancelled."""
        return self._terminal(job_id, "cancelled", now, attempt=attempt,
                              op="cancel")

    def _terminal(self, job_id: str, state: str, now: float | None,
                  *, attempt: int | None = None,
                  result: dict | None = None,
                  error: str | None = None,
                  op: str = "terminal") -> dict:
        now = time.time() if now is None else float(now)
        with self._txn() as txn:
            record = self._fetch(txn, job_id)
            if record["state"] in TERMINAL_STATES:
                return record  # idempotent: first terminal state wins
            if self._superseded(record, attempt):
                # A zombie attempt must not overwrite the live one's
                # outcome; the caller's view of the job is history.
                return record
            record["state"] = state
            record["finished"] = now
            record["worker"] = None
            if result is not None:
                record["result"] = result
            if error is not None:
                record["error"] = error
            validate_job_record(record)
            self._put(txn, record, op)
            return record

    # -- cancellation --------------------------------------------------
    def request_cancel(self, job_id: str, *,
                       now: float | None = None) -> dict:
        """Cancel a queued job immediately; flag a running one.

        A queued job flips straight to ``cancelled``.  A running job
        gets ``cancel_requested`` set — its worker winds down
        cooperatively at the next telemetry beat and marks it cancelled
        (the supervisor escalates if it doesn't).  Terminal jobs are
        left untouched.
        """
        now = time.time() if now is None else float(now)
        with self._txn() as txn:
            record = self._fetch(txn, job_id)
            if record["state"] == "queued":
                record["state"] = "cancelled"
                record["finished"] = now
                record["cancel_requested"] = True
                self._put(txn, record, "cancel")
            elif record["state"] == "running":
                record["cancel_requested"] = True
                self._put(txn, record, "cancel_requested")
            return record

    # -- requeue (crash / timeout / shutdown recovery) -----------------
    def requeue(
        self,
        job_id: str,
        reason: str,
        *,
        count_attempt: bool = True,
        attempt: int | None = None,
        expect_worker: int | None = None,
        detail: dict | None = None,
        now: float | None = None,
    ) -> dict:
        """running -> queued (bounded) or failed (retries exhausted).

        ``count_attempt=False`` refunds the started attempt — used for
        orderly shutdown, where the interruption is the server's fault,
        not the job's.  Every requeue appends a machine-readable entry
        to the record's ``requeues`` list.

        ``attempt`` (worker callers) and ``expect_worker`` (supervisor
        callers, whose poll snapshot is stale by construction) are
        preconditions checked inside the transaction: when the record
        has already moved on — re-claimed by another worker, finished —
        the requeue is refused and the current record returned
        unchanged.
        """
        now = time.time() if now is None else float(now)
        with self._txn() as txn:
            record = self._fetch(txn, job_id)
            if record["state"] in TERMINAL_STATES:
                return record
            if self._superseded(record, attempt):
                return record
            if (
                expect_worker is not None
                and record.get("worker") != expect_worker
            ):
                return record
            entry = {
                "time": now,
                "reason": reason,
                "attempt": record["attempts"],
            }
            if detail:
                entry.update(detail)
            record["requeues"].append(entry)
            if not count_attempt:
                record["attempts"] = max(0, int(record["attempts"]) - 1)
            record["worker"] = None
            record["heartbeat"] = None
            record["stage"] = None
            if record["attempts"] > record["max_retries"]:
                record["state"] = "failed"
                record["finished"] = now
                record["error"] = (
                    f"retries exhausted after {record['attempts']} attempts"
                    f" (last: {reason})"
                )
            else:
                record["state"] = "queued"
            validate_job_record(record)
            self._put(txn, record, "requeue", refund=not count_attempt)
            return record

    def running(self) -> list[dict]:
        """All currently running jobs."""
        return self.list(state="running")

    # -- reads ---------------------------------------------------------
    def get(self, job_id: str) -> dict:
        """One record by exact id or unique prefix."""
        with self._read() as con:
            row = con.execute(
                "SELECT record FROM jobs WHERE job_id = ?", (job_id,)
            ).fetchone()
            if row is not None:
                return json.loads(row[0])
            rows = con.execute(
                "SELECT record FROM jobs WHERE job_id LIKE ?"
                " ORDER BY created DESC",
                (job_id + "%",),
            ).fetchall()
        if not rows:
            raise JobStoreError(f"no job matching {job_id!r} in {self.root}")
        if len(rows) > 1:
            ids = [json.loads(r[0])["job_id"] for r in rows]
            raise JobStoreError(
                f"ambiguous job id {job_id!r}: matches {', '.join(ids)}"
            )
        return json.loads(rows[0][0])

    def list(self, *, state: str | None = None,
             limit: int | None = None, offset: int = 0) -> list[dict]:
        """Stored records, newest first (optionally one state only).

        ``offset`` skips that many newest records — the pagination
        hook behind ``GET /jobs?offset=N`` (the server clamps ``limit``,
        so clients page instead of asking for everything at once).
        """
        query = "SELECT record FROM jobs"
        params: list = []
        if state is not None:
            query += " WHERE state = ?"
            params.append(state)
        query += " ORDER BY created DESC, job_id DESC"
        if limit is not None or offset:
            query += " LIMIT ? OFFSET ?"
            params.append(-1 if limit is None else int(limit))
            params.append(int(offset))
        with self._read() as con:
            rows = con.execute(query, params).fetchall()
        return [json.loads(r[0]) for r in rows]

    def counts(self) -> dict:
        """``{state: count}`` over every job in the store."""
        with self._read() as con:
            rows = con.execute(
                "SELECT state, COUNT(*) FROM jobs GROUP BY state"
            ).fetchall()
        return {state: int(n) for state, n in rows}

    def idle(self) -> bool:
        """Whether no job is queued or running."""
        counts = self.counts()
        return not (counts.get("queued") or counts.get("running"))


def job_summary_row(record: dict) -> dict:
    """Compact table row for ``repro jobs list``."""
    result = record.get("result") or {}
    return {
        "job_id": record.get("job_id", ""),
        "state": record.get("state", ""),
        "pri": record.get("priority", 0),
        "attempts": record.get("attempts", 0),
        "stage": record.get("stage") or "",
        "HPWL": round(result.get("hpwl_final", 0.0), 0),
        "legal": "yes" if result.get("legal") else "",
        "degraded": "yes" if result.get("degraded") else "",
        "requeues": len(record.get("requeues", [])),
        "schema": record.get("schema", JOB_SCHEMA_VERSION),
    }
