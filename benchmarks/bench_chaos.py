"""Chaos/soak harness: seeded random failure, provable job accounting.

Drives the serve engine through a *seeded randomized fault schedule*
while submitting a wave of tiny jobs, then gates on invariants audited
over the store's JSONL mutation journal — not on anything the harness
observed while the chaos was running:

* every submitted job reaches a terminal state (none lost at the
  deadline), and the journal shows each reaching it **exactly once**;
* attempt counts never regress except through an explicit refund and
  never jump by more than one;
* no orphaned ``/dev/shm`` segments survive the run;
* every ``done`` job's result is **bit-identical** to a fault-free
  inline reference run of the same spec and flow config.

The chaos itself (all seeded by ``--seed``):

* probabilistic fault injection — ``serve.http_500`` and
  ``serve.client_conn_reset`` armed in the bench process (the server
  handlers and client run here), ``serve.store_write`` /
  ``serve.disk_full`` armed per-job inside the worker processes via
  ``options.faults``;
* random ``SIGKILL`` of busy workers, the first as soon as a worker
  holds a running job;
* random cancels of a subset of jobs;
* random engine restarts mid-load (drain → close → reopen on the same
  root), scheduled from the first kill and fired at the latest when no
  job is left queued, exercising orphan requeue + checkpoint resume.

A soak passes only if the chaos happened: at least one kill, every
restart ``--restarts`` asks for, and at least one requeue.

Two modes::

    PYTHONPATH=src python benchmarks/bench_chaos.py --jobs 24 --seed 7
    PYTHONPATH=src python benchmarks/bench_chaos.py \
        --drill restart --jobs 50           # ISSUE 9 restart-under-load

The restart drill is the acceptance criterion made executable: drain
during a 50-job run (the exact code path ``repro serve`` runs on
SIGTERM) once an anchor job holds a stage checkpoint, restart the
engine on the same root, resume the anchor from its checkpoint, and
finish everything with zero lost or duplicated terminal states and
bit-identical results.  A drill that resumes no job fails.

The record (``BENCH_chaos.json``) carries exact-gated invariant
metrics (all zeros, seed-independent) plus wide-open outcome counts;
see ``chaos_*`` in ``repro.obs.runs.TOLERANCES``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import random
import shutil
import signal
import sys
import tempfile
import time

from repro.resilience.faults import FaultPlan, fault_plan, install_plan
from repro.serve import JobServer, ServeClient, ServeSettings
from repro.serve.journal import JobJournal, check_invariants
from repro.serve.schema import TERMINAL_STATES
from repro.serve.store import JobStore

from bench_serve import checkpointed_anchor, submit_anchors

#: The tiny-job template: small and stage-complete.  The GP budget also
#: caps the refine after macro legalization (40% of it), and a job must
#: run long enough (about 0.5 s here) for the soak's restarts, 1-3 s
#: after its first kill, and the restart drill's 0.5 s drain deadline to
#: find work in flight: 12 outer iterations give 12 GP + 4 refine.
JOB_CELLS = 40
JOB_GP_ITERS = 12

#: Result fields that must be bit-identical to the fault-free reference.
RESULT_FIELDS = (
    "hpwl_gp", "hpwl_legal", "hpwl_final", "rc", "scaled_hpwl",
    "total_overflow", "peak_congestion", "legal",
)


def _settings(args) -> ServeSettings:
    return ServeSettings(
        workers=args.workers,
        poll_interval=0.05,
        heartbeat_interval=0.25,
        monitor_interval=0.2,
        stale_timeout=args.stale_timeout,
        cancel_grace=2.0,
        default_max_retries=5,
        drain_timeout=args.drain_timeout,
    )


def _shm_entries() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except (FileNotFoundError, NotADirectoryError, PermissionError):
        return set()


def _job_options(rng: random.Random, *, seed: int, chaos: bool) -> dict:
    options: dict = {
        "route": False,
        "run_dp": False,
        "config": {"gp.max_outer_iterations": JOB_GP_ITERS},
    }
    if chaos:
        # Worker-side store faults, seeded per job so the whole
        # schedule replays from --seed alone.
        options["faults"] = (
            f"serve.store_write~0.03,serve.disk_full~0.01,"
            f"seed={rng.randrange(1, 1_000_000)}"
        )
    return options


def submit_jobs(client: ServeClient, count: int, rng: random.Random,
                *, chaos: bool) -> list:
    job_ids = []
    for i in range(count):
        record = client.submit(
            {
                "spec": {
                    "name": f"chaos{i:04d}",
                    "num_cells": JOB_CELLS,
                    "seed": rng.randrange(1, 10_000_000),
                }
            },
            options=_job_options(rng, seed=i, chaos=chaos),
            priority=rng.randrange(0, 3),
        )
        job_ids.append(record["job_id"])
    return job_ids


def reference_result(record: dict) -> dict:
    """Fault-free inline run of one job's spec + flow config."""
    from repro.flow import NTUplace4H
    from repro.serve.worker import build_design, build_flow_config

    options = dict(record.get("options") or {})
    options.pop("faults", None)
    job_dir = tempfile.mkdtemp(prefix="chaos-ref-")
    try:
        cfg = build_flow_config(options, job_dir=job_dir, runs_dir=None)
        design = build_design(record["design"])
        result = NTUplace4H(cfg).run(
            design, route=bool(options.get("route", True))
        )
        return result.summary()
    finally:
        shutil.rmtree(job_dir, ignore_errors=True)


def verify_results(finals: list, *, limit: int = 0) -> tuple[int, list]:
    """Count done jobs whose results differ from a fault-free rerun."""
    install_plan(None)  # references must run clean
    done = [r for r in finals if r["state"] == "done"]
    if limit:
        done = done[:limit]
    mismatches = []
    for record in done:
        ref = reference_result(record)
        got = record.get("result") or {}
        diffs = {
            field: (got.get(field), ref.get(field))
            for field in RESULT_FIELDS
            if got.get(field) != ref.get(field)
        }
        if diffs:
            mismatches.append({"job_id": record["job_id"], "diffs": diffs})
    return len(done), mismatches


def audit(root: str, job_ids: list, finals: list,
          *, strict_journal: bool) -> dict:
    """The invariant gate: journal audit + store-level accounting.

    ``strict_journal`` additionally requires the journal itself to show
    every job terminal (the restart drill, where no SIGKILL can eat the
    sub-millisecond commit-to-journal-append window).  The soak audits
    the journal per-job and takes lost-job accounting from the store,
    which is authoritative.
    """
    journal = JobJournal(root)
    violations = check_invariants(
        journal,
        expect_submitted=len(job_ids) if strict_journal else None,
    )
    by_id = {r["job_id"]: r for r in finals}
    lost = [j for j in job_ids if by_id.get(j, {}).get("state")
            not in TERMINAL_STATES]
    duplicate_terminals = sum(
        1 for v in violations if "terminal state" in v and "times" in v
    )
    attempt_regressions = sum(
        1 for v in violations if "regressed" in v or "jumped" in v
    )
    return {
        "violations": violations,
        "lost": lost,
        "duplicate_terminals": duplicate_terminals,
        "attempt_regressions": attempt_regressions,
    }


def _kill_one_busy_worker(store: JobStore, rng: random.Random) -> bool:
    running = [r for r in store.running() if r.get("worker")]
    if not running:
        return False
    victim = rng.choice(running)
    try:
        os.kill(victim["worker"], signal.SIGKILL)
    except (ProcessLookupError, OSError):
        return False
    return True


def run_soak(args) -> dict:
    rng = random.Random(args.seed)
    shm_before = _shm_entries()
    # Bench-process faults: server handlers + client both live here.
    install_plan(FaultPlan.parse(
        f"serve.http_500~{args.http_500_prob},"
        f"serve.client_conn_reset~{args.conn_reset_prob},"
        f"seed={args.seed}"
    ))
    settings = _settings(args)
    t0 = time.perf_counter()
    server = JobServer(args.root, settings=settings).start()
    store = JobStore(args.root)  # read-side handle that survives restarts
    kills = 0
    restarts = 0
    cancelled_req = set()
    try:
        client = ServeClient(server.url, timeout=60.0, client_id="chaos",
                             backoff=0.1)
        job_ids = submit_jobs(client, args.jobs, rng, chaos=True)
        cancel_targets = set(rng.sample(
            job_ids, max(1, len(job_ids) // 10)
        ))
        deadline = time.monotonic() + args.timeout
        # The first kill is tried on every poll until a worker holds a
        # running job; the later kills and the restarts are scheduled
        # from it, so short jobs cannot outrun the chaos.
        next_kill = None
        restart_times = []
        while time.monotonic() < deadline:
            counts = store.counts()
            open_jobs = counts.get("queued", 0) + counts.get("running", 0)
            if open_jobs == 0:
                break
            now = time.monotonic()
            if next_kill is None or now >= next_kill:
                if _kill_one_busy_worker(store, rng):
                    if not kills:
                        restart_times = sorted(
                            now + rng.uniform(1.0, 3.0) * (i + 1)
                            for i in range(args.restarts)
                        )
                    kills += 1
                if kills:
                    next_kill = now + rng.uniform(
                        args.kill_interval * 0.5, args.kill_interval * 1.5
                    )
            for job_id in list(cancel_targets):
                if rng.random() < 0.2:
                    cancel_targets.discard(job_id)
                    cancelled_req.add(job_id)
                    try:
                        client.cancel(job_id)
                    except Exception:
                        cancelled_req.discard(job_id)
            # A restart still pending once nothing is queued fires now,
            # while the last jobs run: workers that start in a quarter
            # of a second can empty the queue before its scheduled time.
            if restart_times and (
                now >= restart_times[0] or counts.get("queued", 0) == 0
            ):
                restart_times.pop(0)
                server.drain(args.drain_timeout)
                server.close()
                restarts += 1
                server = JobServer(args.root, settings=settings).start()
                client = ServeClient(server.url, timeout=60.0,
                                     client_id="chaos", backoff=0.1)
            time.sleep(0.2)
        finals = [store.get(j) for j in job_ids]
        bench_faults = fault_plan().fire_count() if fault_plan() else 0
    finally:
        server.close()
        install_plan(None)
    checked = audit(args.root, job_ids, finals, strict_journal=False)
    verified, mismatches = verify_results(
        finals, limit=args.max_reference
    )
    shm_orphans = sorted(_shm_entries() - shm_before)
    wall = time.perf_counter() - t0
    states: dict = {}
    requeues = 0
    for r in finals:
        states[r["state"]] = states.get(r["state"], 0) + 1
        requeues += len(r.get("requeues") or ())
    recoveries = len(glob.glob(
        os.path.join(args.root, "jobs.sqlite.quarantine-*")
    ))
    return {
        "design": "serve-chaos",
        "mode": "soak",
        "seed": args.seed,
        "workers": args.workers,
        "wall_s": round(wall, 3),
        "violations": checked["violations"],
        "lost_ids": checked["lost"],
        "result_mismatches": mismatches,
        "shm_orphans": shm_orphans,
        "cancel_requested": len(cancelled_req),
        "reference_runs": verified,
        "metrics": {
            "chaos_submitted": args.jobs,
            "chaos_done": states.get("done", 0),
            "chaos_failed": states.get("failed", 0),
            "chaos_cancelled": states.get("cancelled", 0),
            "chaos_requeues": requeues,
            "chaos_worker_kills": kills,
            "chaos_restarts": restarts,
            "chaos_faults_fired": bench_faults,
            "chaos_store_recoveries": recoveries,
            "chaos_invariant_violations": len(checked["violations"]),
            "chaos_lost_jobs": len(checked["lost"]),
            "chaos_duplicate_terminals": checked["duplicate_terminals"],
            "chaos_attempt_regressions": checked["attempt_regressions"],
            "chaos_orphaned_shm": len(shm_orphans),
            "chaos_result_mismatches": len(mismatches),
        },
    }


def run_restart_drill(args) -> dict:
    """Restart under load: drain mid-run, reopen, lose nothing."""
    rng = random.Random(args.seed)
    shm_before = _shm_entries()
    settings = _settings(args)
    t0 = time.perf_counter()
    server = JobServer(args.root, settings=settings).start()
    try:
        client = ServeClient(server.url, timeout=60.0, client_id="drill")
        # One anchor job, claimed first, runs for seconds beside the
        # tiny jobs; the drain waits until it holds a stage checkpoint,
        # so the short drain cuts it off mid-stage and the restarted
        # engine must resume it.
        anchor_ids = submit_anchors(client, 1)
        job_ids = anchor_ids + submit_jobs(client, args.jobs - 1, rng, chaos=False)
        anchored = checkpointed_anchor(client, anchor_ids) is not None
        # The `repro serve` SIGTERM path, inline: drain then close.
        drain_t0 = time.monotonic()
        summary = server.drain(args.drain_timeout)
        drain_wall = time.monotonic() - drain_t0
        drained_within_deadline = drain_wall <= args.drain_timeout + 2.0
        server.close()
        leftover_running = len(JobStore(args.root).running())
    finally:
        server.close()
    # Restart on the same root; the new engine must finish everything.
    server = JobServer(args.root, settings=settings).start()
    try:
        client = ServeClient(server.url, timeout=60.0, client_id="drill")
        finals_map = client.wait_all(job_ids, timeout=args.timeout)
        finals = [finals_map[j] for j in job_ids if j in finals_map]
    finally:
        server.close()
    checked = audit(args.root, job_ids, finals, strict_journal=True)
    verified, mismatches = verify_results(
        finals, limit=args.max_reference
    )
    shm_orphans = sorted(_shm_entries() - shm_before)
    wall = time.perf_counter() - t0
    states: dict = {}
    requeues = 0
    resumed = 0
    for r in finals:
        states[r["state"]] = states.get(r["state"], 0) + 1
        requeues += len(r.get("requeues") or ())
        if (r.get("result") or {}).get("resumed_stages"):
            resumed += 1
    not_done = args.jobs - states.get("done", 0)
    return {
        "design": "serve-chaos",
        "mode": "restart-drill",
        "seed": args.seed,
        "workers": args.workers,
        "wall_s": round(wall, 3),
        "anchor_checkpointed": anchored,
        "drain_summary": summary,
        "drain_wall_s": round(drain_wall, 3),
        "drained_within_deadline": drained_within_deadline,
        "running_after_close": leftover_running,
        "resumed_jobs": resumed,
        "violations": checked["violations"],
        "lost_ids": checked["lost"],
        "result_mismatches": mismatches,
        "shm_orphans": shm_orphans,
        "reference_runs": verified,
        "metrics": {
            "chaos_submitted": args.jobs,
            "chaos_done": states.get("done", 0),
            "chaos_failed": states.get("failed", 0) + not_done,
            "chaos_cancelled": states.get("cancelled", 0),
            "chaos_requeues": requeues,
            "chaos_worker_kills": 0,
            "chaos_restarts": 1,
            "chaos_faults_fired": 0,
            "chaos_store_recoveries": 0,
            "chaos_invariant_violations": len(checked["violations"]),
            "chaos_lost_jobs": len(checked["lost"]),
            "chaos_duplicate_terminals": checked["duplicate_terminals"],
            "chaos_attempt_regressions": checked["attempt_regressions"],
            "chaos_orphaned_shm": len(shm_orphans),
            "chaos_result_mismatches": len(mismatches),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--drill", choices=["soak", "restart"], default="soak",
        help="soak = randomized chaos schedule; restart = the "
        "restart-under-load acceptance drill",
    )
    parser.add_argument("--jobs", type=int, default=24)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--timeout", type=float, default=600.0,
        help="overall deadline for all jobs to go terminal",
    )
    parser.add_argument("--stale-timeout", type=float, default=10.0)
    parser.add_argument("--drain-timeout", type=float, default=30.0)
    parser.add_argument(
        "--kill-interval", type=float, default=4.0,
        help="mean seconds between random worker SIGKILLs (soak)",
    )
    parser.add_argument(
        "--restarts", type=int, default=1,
        help="random engine restarts during the soak",
    )
    parser.add_argument("--http-500-prob", type=float, default=0.05)
    parser.add_argument("--conn-reset-prob", type=float, default=0.05)
    parser.add_argument(
        "--max-reference", type=int, default=0,
        help="cap fault-free reference reruns (0 = verify every done "
        "job)",
    )
    parser.add_argument("--root", default="chaos_bench_state")
    parser.add_argument("--out", default="BENCH_chaos.json")
    args = parser.parse_args(argv)

    if os.path.exists(args.root):
        shutil.rmtree(args.root)

    if args.drill == "restart":
        record = run_restart_drill(args)
    else:
        record = run_soak(args)

    metrics = record["metrics"]
    passed = (
        metrics["chaos_invariant_violations"] == 0
        and metrics["chaos_lost_jobs"] == 0
        and metrics["chaos_duplicate_terminals"] == 0
        and metrics["chaos_attempt_regressions"] == 0
        and metrics["chaos_orphaned_shm"] == 0
        and metrics["chaos_result_mismatches"] == 0
    )
    if args.drill == "restart":
        # A drill whose drain cut no job short proves no resume.
        if record["resumed_jobs"] < 1:
            print(
                "FAIL: the restart drill needs a resumed job (anchor "
                f"checkpointed {record['anchor_checkpointed']}, drain "
                f"{record['drain_summary']}, requeues "
                f"{metrics['chaos_requeues']})",
                file=sys.stderr,
            )
        passed = passed and (
            record["drained_within_deadline"]
            and record["running_after_close"] == 0
            and metrics["chaos_done"] == metrics["chaos_submitted"]
            and record["resumed_jobs"] >= 1
        )
    else:
        # A soak that ran no chaos proves nothing.
        chaos_ran = (
            metrics["chaos_worker_kills"] >= 1
            and metrics["chaos_restarts"] >= args.restarts
            and metrics["chaos_requeues"] >= 1
        )
        if not chaos_ran:
            print(
                "FAIL: the soak needs a kill, every requested restart and "
                f"a requeue (kills {metrics['chaos_worker_kills']}, "
                f"restarts {metrics['chaos_restarts']} of {args.restarts}, "
                f"requeues {metrics['chaos_requeues']})",
                file=sys.stderr,
            )
        passed = passed and chaos_ran
    record["passed"] = passed
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(
        f"[{record['mode']} seed={record['seed']}] "
        f"{metrics['chaos_done']} done / {metrics['chaos_failed']} failed "
        f"/ {metrics['chaos_cancelled']} cancelled of "
        f"{metrics['chaos_submitted']} in {record['wall_s']:.1f}s "
        f"(kills {metrics['chaos_worker_kills']}, restarts "
        f"{metrics['chaos_restarts']}, requeues "
        f"{metrics['chaos_requeues']}, faults fired "
        f"{metrics['chaos_faults_fired']})"
    )
    print(
        f"invariants: {metrics['chaos_invariant_violations']} violations, "
        f"{metrics['chaos_lost_jobs']} lost, "
        f"{metrics['chaos_duplicate_terminals']} duplicate terminals, "
        f"{metrics['chaos_attempt_regressions']} attempt regressions, "
        f"{metrics['chaos_orphaned_shm']} shm orphans, "
        f"{metrics['chaos_result_mismatches']}/{record['reference_runs']} "
        f"reference mismatches"
    )
    print(f"wrote {args.out}")
    if not passed:
        for line in record["violations"][:20]:
            print(f"  - {line}", file=sys.stderr)
        print("FAIL: chaos invariants violated", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
