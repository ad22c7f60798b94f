"""Persistent run-history registry: one summary record per flow run.

Every completed flow run can append a compact, schema-versioned record
— design, config hash, git revision, per-stage runtimes, quality
metrics (HPWL/overflow/RC), degradation flags, trace path — to a
registry directory (``FlowConfig.runs_dir``, the CLI's ``--runs-dir``,
or the ``REPRO_RUNS_DIR`` environment variable).  Storage is a SQLite
database (``runs.sqlite``) for queries plus an append-only
``runs.jsonl`` mirror for grepping and CI artifacts.

The CLI exposes the registry as ``repro runs list|show|diff``; *diff*
renders per-stage runtime and quality deltas between two runs and
flags regressions using :data:`TOLERANCES` through
:func:`exceeds_tolerance` — the same rule ``benchmarks/check_regression.py``
gates the chaos and serve records with in CI, and the stage tests hold
their suite-design quality values to, so "regression" means the same
thing on a laptop and in CI.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import time
import uuid
from dataclasses import dataclass, field, is_dataclass

from repro.obs.schema import RUN_SCHEMA_VERSION, validate_run_record

#: Environment variable naming the default registry directory.
ENV_RUNS_DIR = "REPRO_RUNS_DIR"

#: metric name -> (relative tolerance, absolute tolerance); a metric
#: passes if it is within EITHER bound of the baseline value.  This is
#: the one copy: chaos and serve records (``check_regression.py``), flow
#: run records (``repro runs diff``) and the stage tests'
#: suite-design values all read it through :func:`exceeds_tolerance`.
TOLERANCES = {
    "hpwl": (0.02, 0.0),
    "overflow": (0.02, 0.02),
    "rc": (0.02, 0.0),
    "total_overflow": (0.02, 1.0),
    "peak_congestion": (0.02, 0.05),
    "vias": (0.02, 0.0),
    "gp_iterations": (0.0, 0.0),
    # Legalize + detailed placement (tests/test_dp_perf_equiv.py): pass
    # structure and accept counts are exact for a given revision; the
    # continuous quality numbers get the usual drift band.
    "dp_improvement": (0.02, 1e-6),
    "dp_accepted": (0.0, 0.0),
    "dp_pass_count": (0.0, 0.0),
    "legal_ok": (0.0, 0.0),
    "max_displacement": (0.02, 0.0),
    # Flow-level run records.
    "hpwl_gp": (0.02, 0.0),
    "hpwl_legal": (0.02, 0.0),
    "hpwl_final": (0.02, 0.0),
    "scaled_hpwl": (0.02, 0.0),
    # Serve load-test records (BENCH_serve.json).  Job accounting is
    # exact — a lost or failed job is a correctness bug, not drift.
    # Requeue/respawn counts depend on where the kill lands and
    # throughput/latency are machine-dependent; wide-open bands keep
    # them in the record as artifacts without gating on them.
    "jobs_submitted": (0.0, 0.0),
    "jobs_done": (0.0, 0.0),
    "jobs_lost": (0.0, 0.0),
    "jobs_failed": (0.0, 0.0),
    "jobs_cancelled": (0.0, 0.0),
    "jobs_requeued": (1e9, 1e9),
    "worker_respawns": (1e9, 1e9),
    "throughput_jobs_per_s": (1e9, 1e9),
    "latency_p50_s": (1e9, 1e9),
    "latency_p95_s": (1e9, 1e9),
    # Chaos-soak records (BENCH_chaos.json).  The invariant metrics are
    # exact zeros regardless of seed — any non-zero is a correctness
    # bug.  The outcome counts (done/failed/cancelled, kills, faults
    # fired) depend on the seed and the timing of the chaos schedule,
    # so they ride along as artifacts with wide-open bands.
    "chaos_invariant_violations": (0.0, 0.0),
    "chaos_lost_jobs": (0.0, 0.0),
    "chaos_duplicate_terminals": (0.0, 0.0),
    "chaos_attempt_regressions": (0.0, 0.0),
    "chaos_orphaned_shm": (0.0, 0.0),
    "chaos_result_mismatches": (0.0, 0.0),
    "chaos_submitted": (1e9, 1e9),
    "chaos_done": (1e9, 1e9),
    "chaos_failed": (1e9, 1e9),
    "chaos_cancelled": (1e9, 1e9),
    "chaos_requeues": (1e9, 1e9),
    "chaos_worker_kills": (1e9, 1e9),
    "chaos_restarts": (1e9, 1e9),
    "chaos_faults_fired": (1e9, 1e9),
    "chaos_store_recoveries": (1e9, 1e9),
    # Learned congestion predictor (tests/test_predict.py, rh04).  Round
    # counts and fallbacks are exact for a given revision — a fallback
    # firing mid-run or a scheduling change is behaviour drift, not
    # noise.  Drift/MSE get a modest absolute band (retraining is seed-
    # deterministic but numerically sensitive to feature-code changes);
    # the hybrid-vs-router quality deltas are gated on an absolute band
    # around zero.
    "predict_router_rounds": (0.0, 0.0),
    "predict_predictor_rounds": (0.0, 0.0),
    "predict_fallbacks": (0.0, 0.0),
    "predict_train_samples": (0.0, 0.0),
    "predict_final_drift": (0.0, 0.1),
    "predict_val_mse": (0.0, 0.05),
    "predict_hpwl_rel_delta": (0.0, 0.01),
    "predict_overflow_delta": (0.0, 0.02),
}

#: Fallback tolerance for metrics without an explicit entry.
DEFAULT_TOLERANCE = (0.02, 0.0)


def tolerance_for(metric: str) -> tuple[float, float]:
    """The (relative, absolute) drift bounds gating ``metric``."""
    return TOLERANCES.get(metric, DEFAULT_TOLERANCE)


def exceeds_tolerance(metric: str, value: float, baseline: float) -> bool:
    """Whether ``value`` drifted from ``baseline`` beyond BOTH bounds."""
    rel_tol, abs_tol = tolerance_for(metric)
    drift = abs(value - baseline)
    return drift > max(rel_tol * abs(baseline), abs_tol)


# ---------------------------------------------------------------------------
# provenance helpers
# ---------------------------------------------------------------------------

def config_hash(config) -> str:
    """Stable short hash of a (possibly nested) config dataclass."""

    def plain(obj):
        if is_dataclass(obj) and not isinstance(obj, type):
            return {k: plain(v) for k, v in sorted(vars(obj).items())}
        if isinstance(obj, dict):
            return {str(k): plain(v) for k, v in sorted(obj.items())}
        if isinstance(obj, (list, tuple)):
            return [plain(v) for v in obj]
        if isinstance(obj, (str, int, float, bool)) or obj is None:
            return obj
        return repr(obj)

    blob = json.dumps(plain(config), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:12]


def git_revision(start: str = ".") -> str | None:
    """Current git commit hash, resolved by reading ``.git`` directly.

    Walks up from ``start`` to the repository root, follows the
    ``HEAD`` symref through loose and packed refs, and returns ``None``
    when anything is missing — no subprocess, never raises.
    """
    try:
        root = os.path.abspath(start)
        while True:
            git_dir = os.path.join(root, ".git")
            if os.path.isdir(git_dir):
                break
            parent = os.path.dirname(root)
            if parent == root:
                return None
            root = parent
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref:"):
            return head or None
        ref = head.partition(":")[2].strip()
        loose = os.path.join(git_dir, *ref.split("/"))
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip() or None
        packed = os.path.join(git_dir, "packed-refs")
        if os.path.exists(packed):
            with open(packed, encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if line.endswith(ref) and not line.startswith("#"):
                        return line.split()[0]
        return None
    except OSError:
        return None


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

#: FlowResult quality scalars copied into ``RunRecord.metrics``.
_METRIC_FIELDS = (
    "hpwl_gp",
    "hpwl_legal",
    "hpwl_final",
    "rc",
    "scaled_hpwl",
    "total_overflow",
    "peak_congestion",
)


@dataclass
class RunRecord:
    """One flow run's summary row (see ``docs/schemas/run-record-*``)."""

    run_id: str
    created: float               # unix timestamp
    design: str
    flow: str                    # e.g. "ntuplace4h"
    config_hash: str
    git_rev: str | None = None
    legal: bool = False
    degraded: bool = False
    degradation: list = field(default_factory=list)
    stage_seconds: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    trace_path: str | None = None

    def as_record(self) -> dict:
        return {
            "schema": RUN_SCHEMA_VERSION,
            "run_id": self.run_id,
            "created": self.created,
            "design": self.design,
            "flow": self.flow,
            "config_hash": self.config_hash,
            "git_rev": self.git_rev,
            "legal": self.legal,
            "degraded": self.degraded,
            "degradation": [dict(d) for d in self.degradation],
            "stage_seconds": dict(self.stage_seconds),
            "metrics": dict(self.metrics),
            "trace_path": self.trace_path,
        }

    @staticmethod
    def from_flow(result, config, *, flow: str = "ntuplace4h",
                  trace_path: str | None = None) -> "RunRecord":
        """Build a record from a :class:`FlowResult` and its config."""
        metrics = {
            name: float(getattr(result, name, 0.0)) for name in _METRIC_FIELDS
        }
        metrics["legal_ok"] = float(bool(result.legal))
        return RunRecord(
            run_id=new_run_id(result.design_name),
            created=time.time(),
            design=result.design_name,
            flow=flow,
            config_hash=config_hash(config),
            git_rev=git_revision(),
            legal=bool(result.legal),
            degraded=bool(result.degraded),
            degradation=[dict(d) for d in result.degradation],
            stage_seconds={
                k: float(v) for k, v in result.stage_seconds.items()
            },
            metrics=metrics,
            trace_path=trace_path,
        )


def new_run_id(design: str) -> str:
    """``<design>-<utc stamp>-<nonce>`` — sortable, unique, greppable."""
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    return f"{design}-{stamp}-{uuid.uuid4().hex[:6]}"


# ---------------------------------------------------------------------------
# storage
# ---------------------------------------------------------------------------

class RunRegistryError(RuntimeError):
    """Lookup or storage failure in the run registry."""


class RunRegistry:
    """SQLite-backed run store with an append-only JSONL mirror."""

    DB_NAME = "runs.sqlite"
    JSONL_NAME = "runs.jsonl"

    def __init__(self, root):
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)
        self.db_path = os.path.join(self.root, self.DB_NAME)
        self.jsonl_path = os.path.join(self.root, self.JSONL_NAME)
        with self._connect() as con:
            con.execute(
                "CREATE TABLE IF NOT EXISTS runs ("
                " run_id TEXT PRIMARY KEY,"
                " created REAL NOT NULL,"
                " design TEXT NOT NULL,"
                " record TEXT NOT NULL)"
            )
            con.execute(
                "CREATE INDEX IF NOT EXISTS idx_runs_design_created"
                " ON runs(design, created)"
            )

    def _connect(self) -> sqlite3.Connection:
        return sqlite3.connect(self.db_path)

    # -- writes --------------------------------------------------------
    def append(self, record: "RunRecord | dict") -> str:
        """Store one run record; returns its ``run_id``."""
        rec = record.as_record() if isinstance(record, RunRecord) else dict(record)
        rec.setdefault("schema", RUN_SCHEMA_VERSION)
        validate_run_record(rec)
        blob = json.dumps(rec, sort_keys=True)
        with self._connect() as con:
            con.execute(
                "INSERT INTO runs (run_id, created, design, record)"
                " VALUES (?, ?, ?, ?)",
                (rec["run_id"], rec["created"], rec["design"], blob),
            )
        with open(self.jsonl_path, "a", encoding="utf-8") as fh:
            fh.write(blob + "\n")
        return rec["run_id"]

    def set_trace_path(self, run_id: str, trace_path: str) -> None:
        """Attach the exported trace file's path to a stored run."""
        rec = self.get(run_id)
        rec["trace_path"] = str(trace_path)
        with self._connect() as con:
            con.execute(
                "UPDATE runs SET record = ? WHERE run_id = ?",
                (json.dumps(rec, sort_keys=True), rec["run_id"]),
            )

    # -- reads ---------------------------------------------------------
    def list(self, *, design: str | None = None,
             limit: int | None = None) -> list[dict]:
        """Stored records, newest first."""
        query = "SELECT record FROM runs"
        params: list = []
        if design is not None:
            query += " WHERE design = ?"
            params.append(design)
        query += " ORDER BY created DESC, run_id DESC"
        if limit is not None:
            query += " LIMIT ?"
            params.append(int(limit))
        with self._connect() as con:
            rows = con.execute(query, params).fetchall()
        return [json.loads(row[0]) for row in rows]

    def get(self, run_id: str) -> dict:
        """One record by exact id or unique prefix (newest on ties)."""
        with self._connect() as con:
            rows = con.execute(
                "SELECT record FROM runs WHERE run_id = ?", (run_id,)
            ).fetchall()
            if not rows:
                rows = con.execute(
                    "SELECT record FROM runs WHERE run_id LIKE ?"
                    " ORDER BY created DESC",
                    (run_id + "%",),
                ).fetchall()
        if not rows:
            raise RunRegistryError(f"no run matching {run_id!r} in {self.root}")
        if len(rows) > 1:
            ids = [json.loads(r[0])["run_id"] for r in rows]
            raise RunRegistryError(
                f"ambiguous run id {run_id!r}: matches {', '.join(ids)}"
            )
        return json.loads(rows[0][0])

    def count(self) -> int:
        with self._connect() as con:
            return int(con.execute("SELECT COUNT(*) FROM runs").fetchone()[0])


def default_runs_dir(override: str | None = None) -> str | None:
    """The registry directory: explicit override, else ``REPRO_RUNS_DIR``."""
    if override:
        return override
    return os.environ.get(ENV_RUNS_DIR) or None


def record_flow_run(runs_dir, result, config, *, flow: str = "ntuplace4h",
                    trace_path: str | None = None) -> str:
    """Append one flow run to the registry at ``runs_dir``."""
    record = RunRecord.from_flow(
        result, config, flow=flow, trace_path=trace_path
    )
    return RunRegistry(runs_dir).append(record)


# ---------------------------------------------------------------------------
# cross-run analytics
# ---------------------------------------------------------------------------

def diff_runs(a: dict, b: dict) -> dict:
    """Per-stage runtime and quality deltas between two run records.

    Returns ``{"metrics": [...], "stages": [...], "regressions": [...],
    "comparable": bool}``.  A metric row is flagged as a regression when
    its drift (in either direction) exceeds its :data:`TOLERANCES`
    band — runtime rows are reported but never gate, matching CI's
    timing policy.
    """
    metrics_a = a.get("metrics", {})
    metrics_b = b.get("metrics", {})
    metric_rows = []
    regressions = []
    for name in sorted(set(metrics_a) | set(metrics_b)):
        va, vb = metrics_a.get(name), metrics_b.get(name)
        if not isinstance(va, (int, float)) or not isinstance(vb, (int, float)):
            continue
        delta = vb - va
        exceeded = exceeds_tolerance(name, vb, va)
        rel = (delta / va) if va else float("inf") if delta else 0.0
        metric_rows.append(
            {
                "metric": name,
                "a": round(float(va), 6),
                "b": round(float(vb), 6),
                "delta": round(float(delta), 6),
                "rel": f"{100.0 * rel:+.2f}%" if rel != float("inf") else "inf",
                "flag": "REGRESSION" if exceeded else "",
            }
        )
        if exceeded:
            regressions.append(name)
    stages_a = a.get("stage_seconds", {})
    stages_b = b.get("stage_seconds", {})
    stage_rows = []
    for name in sorted(set(stages_a) | set(stages_b)):
        sa = float(stages_a.get(name, 0.0))
        sb = float(stages_b.get(name, 0.0))
        stage_rows.append(
            {
                "stage": name,
                "a_s": round(sa, 3),
                "b_s": round(sb, 3),
                "delta_s": round(sb - sa, 3),
                "rel": f"{100.0 * (sb - sa) / sa:+.1f}%" if sa else "-",
            }
        )
    return {
        "comparable": a.get("design") == b.get("design"),
        "metrics": metric_rows,
        "stages": stage_rows,
        "regressions": regressions,
    }


def run_summary_row(record: dict) -> dict:
    """Compact table row for ``repro runs list``."""
    metrics = record.get("metrics", {})
    total_s = sum(record.get("stage_seconds", {}).values())
    return {
        "run_id": record.get("run_id", ""),
        "when": time.strftime(
            "%Y-%m-%d %H:%M:%S", time.gmtime(record.get("created", 0))
        ),
        "design": record.get("design", ""),
        "flow": record.get("flow", ""),
        "HPWL": round(metrics.get("hpwl_final", 0.0), 0),
        "sHPWL": round(metrics.get("scaled_hpwl", 0.0), 0),
        "RC": round(metrics.get("rc", 0.0), 4),
        "legal": "yes" if record.get("legal") else "NO",
        "degraded": "yes" if record.get("degraded") else "",
        "time_s": round(total_s, 1),
        "rev": (record.get("git_rev") or "")[:10],
    }
