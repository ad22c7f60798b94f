"""Serve load-test harness: hammer the job engine, prove nothing is lost.

Starts an in-process :class:`repro.serve.server.JobServer` with a small
worker fleet, submits hundreds of concurrent tiny benchgen jobs over
the real HTTP API, and — mid-flight — SIGKILLs one worker process to
prove that its in-progress jobs are requeued and resumed from their
checkpoints.  The record (``BENCH_serve.json``) carries:

* **gated** job accounting: ``jobs_submitted`` / ``jobs_done`` /
  ``jobs_lost`` / ``jobs_failed`` / ``jobs_cancelled`` — a lost job is
  a correctness bug, so these are exact against the committed baseline
  (``benchmarks/baselines/BENCH_serve.json``);
* **artifact-only** load numbers: throughput (jobs/s), submit-to-done
  latency p50/p95, requeue and respawn counts — machine-dependent, so
  their tolerances are wide open (see ``repro.obs.runs.TOLERANCES``).

Run directly::

    PYTHONPATH=src python benchmarks/bench_serve.py                # 200 jobs
    PYTHONPATH=src python benchmarks/bench_serve.py \
        --jobs 40 --workers 2 --no-kill --out BENCH_serve.json     # CI smoke
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import random
import signal
import sys
import time

from repro.serve import JobServer, ServeClient, ServeSettings
from repro.serve.store import job_summary_row

#: The tiny-job template: small enough that hundreds finish in minutes,
#: big enough that every flow stage actually runs.
JOB_CELLS = 60
JOB_GP_ITERS = 4


def _percentile(values: list, q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(q * (len(ordered) - 1))))
    return float(ordered[rank])


def submit_wave(client: ServeClient, count: int, *, seed: int,
                concurrency: int = 32) -> list:
    """Submit ``count`` tiny jobs concurrently; returns their records."""
    rng = random.Random(seed)
    seeds = [rng.randrange(1, 10_000_000) for _ in range(count)]

    def one(i: int) -> dict:
        return client.submit(
            {
                "spec": {
                    "name": f"load{i:04d}",
                    "num_cells": JOB_CELLS,
                    "seed": seeds[i],
                }
            },
            options={
                "route": False,
                "run_dp": False,
                "config": {"gp.max_outer_iterations": JOB_GP_ITERS},
            },
            priority=rng.randrange(0, 3),
        )

    with concurrent.futures.ThreadPoolExecutor(concurrency) as pool:
        return list(pool.map(one, range(count)))


def submit_anchors(client: ServeClient, count: int) -> list:
    """Submit ``count`` slower high-priority "anchor" jobs; returns ids.

    Workers claim them before any tiny job, and each runs for seconds
    (1,500 cells, every stage but routing), so a kill or a drain can
    catch one mid-stage once it has a stage checkpoint.
    """
    return [
        client.submit(
            {"spec": {"name": f"anchor{i}", "num_cells": 1500, "seed": 100 + i}},
            options={"route": False},
            priority=10,
            max_retries=3,
        )["job_id"]
        for i in range(count)
    ]


def checkpointed_anchor(client: ServeClient, anchor_ids: list,
                        *, deadline_s: float = 60.0) -> dict | None:
    """Wait until one of the ``anchor_ids`` jobs has a stage checkpoint.

    Returns the record of the first anchor found running inside a stage
    *after* GP: once a later stage span is open, the GP checkpoint has
    been written, so a requeue from here on must resume rather than
    restart.  Returns None if no anchor got there by the deadline.
    """
    later = {"macro_legal_refine", "legal", "dp", "route"}
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        for job_id in anchor_ids:
            record = client.get(job_id)
            # The stage column is the innermost open span path, e.g.
            # "flow/dp/round[0]/global_swap" — the segment after "flow"
            # names the flow stage.
            parts = (record.get("stage") or "").split("/")
            past_gp = len(parts) >= 2 and parts[1] in later
            if record["state"] == "running" and past_gp and record["worker"]:
                return record
        time.sleep(0.05)
    return None


def kill_busy_worker(client: ServeClient, anchor_ids: list,
                     *, deadline_s: float = 60.0) -> int | None:
    """SIGKILL the worker running an anchor job that has checkpointed.

    Returns the killed pid (None if no anchor got past GP).
    """
    record = checkpointed_anchor(client, anchor_ids, deadline_s=deadline_s)
    if record is None:
        return None
    try:
        os.kill(record["worker"], signal.SIGKILL)
    except (ProcessLookupError, OSError):
        return None
    return record["worker"]


def run_bench(args) -> dict:
    settings = ServeSettings(
        workers=args.workers,
        poll_interval=0.05,
        heartbeat_interval=0.25,
        monitor_interval=0.2,
        stale_timeout=args.stale_timeout,
        default_max_retries=3,
    )
    t_start = time.perf_counter()
    with JobServer(args.root, settings=settings) as server:
        client = ServeClient(server.url, timeout=60.0)
        # Two slower high-priority "anchor" jobs: claimed first, they
        # run long enough for the kill to land after their GP
        # checkpoint exists, which forces a genuine resume.
        anchor_ids = [] if args.no_kill else submit_anchors(client, 2)
        records = submit_wave(client, args.jobs - len(anchor_ids),
                              seed=args.seed)
        records = [client.get(j) for j in anchor_ids] + records
        job_ids = [r["job_id"] for r in records]
        submitted_at = {r["job_id"]: r["submitted"] for r in records}
        t_submitted = time.perf_counter()

        killed_pid = None
        if not args.no_kill:
            # Yank the worker out from under a checkpointed anchor job.
            killed_pid = kill_busy_worker(client, anchor_ids)

        finals = client.wait_all(
            job_ids, timeout=args.timeout, poll=0.25
        )
        t_done = time.perf_counter()

        latencies = [
            r["finished"] - submitted_at[jid]
            for jid, r in finals.items()
            if r.get("finished")
        ]
        states: dict = {}
        requeued = 0
        resumed_jobs = 0
        for r in finals.values():
            states[r["state"]] = states.get(r["state"], 0) + 1
            requeued += len(r.get("requeues") or ())
            if (r.get("result") or {}).get("resumed_stages"):
                resumed_jobs += 1
        lost = args.jobs - len(finals)
        respawns = server.supervisor.respawns

        worst = [
            job_summary_row(r)
            for r in finals.values()
            if r["state"] != "done"
        ]

    wall = t_done - t_start
    return {
        "design": "serve-load",
        "workers": args.workers,
        "job_cells": JOB_CELLS,
        "killed_worker_pid": killed_pid,
        "resumed_jobs": resumed_jobs,
        "submit_wall_s": round(t_submitted - t_start, 3),
        "drain_wall_s": round(t_done - t_submitted, 3),
        "wall_s": round(wall, 3),
        "not_done": worst,
        "metrics": {
            "jobs_submitted": args.jobs,
            "jobs_done": states.get("done", 0),
            "jobs_failed": states.get("failed", 0),
            "jobs_cancelled": states.get("cancelled", 0),
            "jobs_lost": lost,
            "jobs_requeued": requeued,
            "worker_respawns": respawns,
            "throughput_jobs_per_s": round(args.jobs / max(wall, 1e-9), 3),
            "latency_p50_s": round(_percentile(latencies, 0.50), 3)
            if latencies else 0.0,
            "latency_p95_s": round(_percentile(latencies, 0.95), 3)
            if latencies else 0.0,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs", type=int, default=200,
        help="concurrent jobs to submit (default: 200)",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="queue-draining worker processes (default: 2)",
    )
    parser.add_argument(
        "--no-kill", action="store_true",
        help="skip the mid-flight worker SIGKILL (pure throughput run)",
    )
    parser.add_argument(
        "--timeout", type=float, default=900.0,
        help="overall drain deadline in seconds",
    )
    parser.add_argument("--stale-timeout", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--root", default="serve_bench_state")
    parser.add_argument("--out", default="BENCH_serve.json")
    args = parser.parse_args(argv)

    record = run_bench(args)
    metrics = record["metrics"]
    # The acceptance bar: every submitted job reaches `done`, none lost,
    # and (when a worker was killed) at least one job resumed from its
    # checkpoint rather than restarting.
    passed = (
        metrics["jobs_done"] == metrics["jobs_submitted"]
        and metrics["jobs_lost"] == 0
        and metrics["jobs_failed"] == 0
        and metrics["jobs_cancelled"] == 0
    )
    if not args.no_kill and record["killed_worker_pid"] is not None:
        passed = passed and record["resumed_jobs"] >= 1
    record["passed"] = passed
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(
        f"{metrics['jobs_done']}/{metrics['jobs_submitted']} jobs done on "
        f"{record['workers']} workers in {record['wall_s']:.1f}s "
        f"({metrics['throughput_jobs_per_s']:.2f} jobs/s)"
    )
    print(
        f"latency p50 {metrics['latency_p50_s']:.2f}s  "
        f"p95 {metrics['latency_p95_s']:.2f}s  "
        f"requeues {metrics['jobs_requeued']}  "
        f"respawns {metrics['worker_respawns']}  "
        f"resumed jobs {record['resumed_jobs']}"
    )
    print(f"wrote {args.out}")
    if not passed:
        print(
            "FAIL: job accounting did not close "
            f"(lost={metrics['jobs_lost']} failed={metrics['jobs_failed']} "
            f"cancelled={metrics['jobs_cancelled']} "
            f"resumed={record['resumed_jobs']})",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
