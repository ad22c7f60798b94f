"""Command-line interface.

The subcommands mirror how the original tools were driven::

    python -m repro generate --suite rh02 --out bench_dir
    python -m repro validate --aux bench_dir/rh02.aux
    python -m repro place    --aux bench_dir/rh02.aux --out placed_dir
    python -m repro route    --aux placed_dir/rh02.aux
    python -m repro stats    --aux bench_dir/rh02.aux

``place`` runs the full NTUplace4h flow (``--wirelength-only`` disables
the routability machinery; ``--baseline quadratic`` runs the quadratic
placer as the GP stage of the same flow; ``--set KEY=VALUE`` sets one
tuning field by its dotted name, as ``submit --set`` does for a served
job) and writes the placed design back in Bookshelf format, plus an
optional SVG.  ``--checkpoint-dir`` makes the flow write a resumable
checkpoint after every stage and ``--resume`` continues from it;
``--strict`` turns a degraded result into a nonzero exit.  On flow
failure, ``place``/``route`` exit nonzero and print the failing stage
plus the last trace event (see docs/robustness.md).

Exit codes: 0 success; 1 flow finished but the placement is not legal
(or, with ``--strict``, the result is degraded); 2 usage or input
error; 3 the flow itself failed.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from repro.baselines import run_baseline_flow
from repro.benchgen import SUITE, BenchmarkSpec, make_benchmark, make_suite_design
from repro.db import compute_stats
from repro.flow import NTUplace4H, config_from_overrides, parse_stage_budget
from repro.io import read_bookshelf, write_bookshelf
from repro.metrics import format_table
from repro.obs import (
    FlightRecorder,
    HeartbeatSink,
    JsonlStreamSink,
    RunRegistry,
    RunRegistryError,
    SamplingProfiler,
    Tracer,
    configure_logging,
    diff_runs,
    format_trace_summary,
    get_logger,
    use_tracer,
)
from repro.obs.runs import default_runs_dir, run_summary_row
from repro.resilience import validate_design
from repro.route import GlobalRouter, scaled_hpwl

_log = get_logger("cli")


def _read_design(args):
    """Load the benchmark, turning parse errors into a (None, code) exit."""
    try:
        return read_bookshelf(args.aux), 0
    except (OSError, ValueError) as exc:
        print(f"error: cannot load {args.aux}: {exc}", file=sys.stderr)
        return None, 2


def _report_flow_failure(tracer, exc) -> None:
    """Print the failing stage and the last trace event to stderr."""
    errored = [s for s in tracer.finished_spans() if s.error]
    # Spans finish children-first, so the first errored span is the
    # innermost frame — its path is the most precise failure location.
    stage = errored[0].path if errored else "(no stage recorded)"
    print(f"error: flow failed in stage {stage}: {exc}", file=sys.stderr)
    events = tracer.events()
    if events:
        last = events[-1]
        where = f" at {last.path}" if last.path else ""
        print(
            f"last trace event: {last.name}{where} {last.attrs}", file=sys.stderr
        )


def _print_degradations(result) -> None:
    for entry in result.degradation:
        detail = {k: v for k, v in entry.items() if k not in ("stage", "reason")}
        suffix = f" {detail}" if detail else ""
        print(
            f"degraded: stage={entry['stage']} reason={entry['reason']}{suffix}",
            file=sys.stderr,
        )


def _cmd_generate(args) -> int:
    if args.suite:
        design = make_suite_design(args.suite)
    else:
        spec = BenchmarkSpec(
            name=args.name,
            num_cells=args.cells,
            num_macros=args.macros,
            num_fences=args.fences,
            seed=args.seed,
        )
        design = make_benchmark(spec)
    aux = write_bookshelf(design, args.out)
    print(f"wrote {aux}")
    print(format_table([compute_stats(design).as_row()]))
    return 0


def _cmd_validate(args) -> int:
    design, code = _read_design(args)
    if design is None:
        return code
    report = validate_design(design, sanitize=args.sanitize)
    if report.issues:
        print(format_table([i.as_row() for i in report.issues], title="validation"))
    print(report.summary())
    if not report.ok:
        print(
            f"error: {len(report.fatal)} fatal issues; the flow would refuse "
            "to run this design",
            file=sys.stderr,
        )
        return 2
    if args.sanitize and args.out:
        aux = write_bookshelf(design, args.out)
        print(f"wrote sanitized benchmark {aux}")
    return 0


def _cmd_place(args) -> int:
    if args.resume and not args.checkpoint_dir:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    if args.baseline and (args.resume or args.checkpoint_dir):
        print(
            "error: --checkpoint-dir/--resume do not apply to --baseline runs",
            file=sys.stderr,
        )
        return 2
    overrides = _parse_overrides(args.set)
    if overrides is None:
        return 2
    # A baseline runs the same flow with its own GP stage, so --no-dp and
    # the overrides apply to it too; the overrides apply last.
    if args.no_dp:
        overrides = {"run_dp": False, **overrides}
    try:
        cfg = config_from_overrides(
            overrides, wirelength_only=args.wirelength_only or bool(args.baseline)
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    design, code = _read_design(args)
    if design is None:
        return code
    cfg.checkpoint_dir = args.checkpoint_dir
    cfg.runs_dir = default_runs_dir(args.runs_dir)
    # Always capture a trace: on failure the failing stage and the last
    # event are reported; --trace/--trace-summary just export it.
    tracer = Tracer(profile_resources=args.profile)
    trace_sink = None
    if args.trace:
        # Streaming sink: the file is written record-by-record, so it
        # is tail -f-able mid-run (and an unwritable path fails fast
        # here, before a minutes-long run).
        try:
            trace_sink = JsonlStreamSink(args.trace)
        except OSError as exc:
            print(f"error: cannot write trace file: {exc}", file=sys.stderr)
            return 2
        tracer.add_sink(
            trace_sink, meta={"command": "place", "design": design.name}
        )
    if args.heartbeat:
        tracer.add_sink(HeartbeatSink(args.heartbeat))
    if args.flight_recorder:
        tracer.add_sink(FlightRecorder(path=args.flight_recorder))
    profiler = SamplingProfiler(tracer) if args.profile else None
    if profiler is not None:
        import tracemalloc

        if not tracemalloc.is_tracing():
            tracemalloc.start()
        profiler.start()
    try:
        with use_tracer(tracer):
            if args.baseline:
                result = run_baseline_flow(
                    design, args.baseline, config=cfg, route=not args.no_route
                )
            else:
                result = NTUplace4H(cfg).run(
                    design,
                    route=not args.no_route,
                    resume_from=args.checkpoint_dir if args.resume else None,
                )
    except Exception as exc:
        dumps = tracer.dump_flight_recorders(reason="crash")
        tracer.close_sinks()
        _report_flow_failure(tracer, exc)
        for path in dumps:
            print(f"flight-recorder dump: {path}", file=sys.stderr)
        return 3
    finally:
        if profiler is not None:
            profiler.stop()
    tracer.close_sinks()
    if trace_sink is not None:
        print(f"wrote {args.trace} ({trace_sink.records_written} records)")
        run_id = getattr(result, "run_id", None)
        if run_id:
            RunRegistry(cfg.runs_dir).set_trace_path(run_id, args.trace)
    if args.trace_summary or args.profile:
        print(format_trace_summary(tracer, profile=profiler))
    print(format_table([result.as_row()], title="flow result"))
    if not result.legal:
        # No legality report when legalization and its fallback both
        # failed; the degradations below say why.
        report = result.legal_result.report if result.legal_result else None
        _log.warning(
            "placement is not legal: %s",
            report.summary() if report is not None else "no legal placement",
        )
    if args.out:
        aux = write_bookshelf(design, args.out)
        print(f"wrote {aux}")
    if args.svg:
        from repro.viz import placement_to_svg

        placement_to_svg(design, args.svg)
        print(f"wrote {args.svg}")
    if result.degraded:
        _print_degradations(result)
        if args.strict:
            print("error: result is degraded and --strict is set", file=sys.stderr)
            return 1
    return 0 if result.legal else 1


def _cmd_route(args) -> int:
    design, code = _read_design(args)
    if design is None:
        return code
    if design.routing is None:
        print("error: benchmark has no .route file", file=sys.stderr)
        return 2
    tracer = Tracer()
    try:
        with use_tracer(tracer):
            rr = GlobalRouter(design.routing).route(design)
    except Exception as exc:
        _report_flow_failure(tracer, exc)
        return 3
    hpwl = design.hpwl()
    row = rr.metrics.as_row()
    row["HPWL"] = round(hpwl, 0)
    row["sHPWL"] = round(scaled_hpwl(hpwl, rr.metrics.rc), 0)
    print(format_table([row], title="routing-based congestion score"))
    if args.map:
        from repro.viz import ascii_heatmap

        print(ascii_heatmap(rr.congestion_map(), vmax=1.5))
    return 0


def _cmd_stats(args) -> int:
    design, code = _read_design(args)
    if design is None:
        return code
    print(format_table([compute_stats(design).as_row()]))
    problems = design.validate()
    if problems:
        print(f"{len(problems)} consistency problems; first: {problems[0]}")
        return 1
    print("design is consistent")
    return 0


def _cmd_predict_train(args) -> int:
    from repro.predict import train_predictor, training_specs
    from repro.predict.model import save_artifact
    from repro.predict.train import default_artifact_path

    specs = training_specs(args.designs, args.seed)
    artifact = train_predictor(
        specs,
        seed=args.seed,
        boost_rounds=args.boost_rounds,
        ridge_alpha=args.ridge_alpha,
    )
    out = args.out or default_artifact_path()
    save_artifact(artifact, out)
    metrics = artifact["metrics"]
    rows = [
        {
            "primary": artifact["primary"],
            "designs": len(specs),
            "samples": artifact["provenance"]["num_samples"],
            **{k: f"{v:.4f}" for k, v in sorted(metrics.items())},
        }
    ]
    print(format_table(rows, title="trained congestion predictor"))
    print(f"wrote {out}")
    return 0


def _cmd_predict_show(args) -> int:
    from repro.predict.model import PredictError, load_artifact
    from repro.predict.train import default_artifact_path

    path = args.model or default_artifact_path()
    try:
        artifact = load_artifact(path)
    except PredictError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    prov = artifact["provenance"]
    rows = [
        {
            "primary": artifact["primary"],
            "models": "/".join(sorted(artifact["models"])),
            "features": len(artifact["feature_names"]),
            "designs": ",".join(prov["designs"]),
            "samples": prov["num_samples"],
            "config_hash": prov["config_hash"][:12],
        }
    ]
    print(format_table(rows, title=f"model artifact {path}"))
    metrics = artifact.get("metrics", {})
    if metrics:
        print(format_table(
            [{k: f"{v:.4f}" for k, v in sorted(metrics.items())}],
            title="training metrics",
        ))
    return 0


def _cmd_serve(args) -> int:
    import signal
    import threading

    from repro.serve import JobServer, ServeSettings

    settings = ServeSettings(
        workers=args.workers,
        stale_timeout=args.stale_timeout,
        cancel_grace=args.cancel_grace,
        default_max_retries=args.max_retries,
        runs_dir=default_runs_dir(args.runs_dir),
        max_queue_depth=args.max_queue_depth,
        rate_limit=args.rate_limit,
        drain_timeout=args.drain_timeout,
    )
    stop = threading.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda *_: stop.set())
    with JobServer(
        args.root, host=args.host, port=args.port, settings=settings
    ) as server:
        print(
            f"serving jobs on {server.url} "
            f"({settings.workers} workers, root {server.root})",
            flush=True,
        )
        stop.wait()
        # SIGTERM/SIGINT = rolling restart: refuse new submits, let
        # in-flight jobs finish (or checkpoint) before closing.  Jobs
        # still running at the deadline are requeued with the attempt
        # refunded on close and resume from checkpoint next start.
        print("draining", file=sys.stderr)
        summary = server.drain(args.drain_timeout)
        print(
            f"shutting down ({summary['in_flight']} jobs still in "
            f"flight)",
            file=sys.stderr,
        )
    return 0


def _submit_design(args):
    """The job's design reference from the submit flags; None on misuse."""
    sources = [bool(args.suite), bool(args.aux), args.cells is not None]
    if sum(sources) != 1:
        print(
            "error: pick exactly one design source: --suite, --aux, or "
            "--cells",
            file=sys.stderr,
        )
        return None
    if args.suite:
        return {"suite": args.suite}
    if args.aux:
        return {"aux": os.path.abspath(args.aux)}
    return {
        "spec": {
            "name": args.name,
            "num_cells": args.cells,
            "num_macros": args.macros,
            "seed": args.seed,
        }
    }


def _parse_assignments(pairs, flag: str):
    """``key=value`` strings -> dict; prints + returns None on misuse."""
    out = {}
    for pair in pairs or ():
        key, sep, value = pair.partition("=")
        if not sep or not key:
            print(f"error: {flag} expects key=value, got {pair!r}",
                  file=sys.stderr)
            return None
        out[key] = value
    return out


def _parse_overrides(pairs, flag: str = "--set"):
    """``KEY=VALUE`` strings -> ``{key: value}``; None on misuse.

    A value is JSON where it parses (``false``, ``12``, ``null``), else
    the raw string (``router``)."""
    import json as _json

    overrides = _parse_assignments(pairs, flag)
    for key, text in (overrides or {}).items():
        try:
            overrides[key] = _json.loads(text)
        except ValueError:
            pass
    return overrides


def _cmd_submit(args) -> int:
    import json as _json

    from repro.serve import ServeAPIError, ServeClient

    design = _submit_design(args)
    if design is None:
        return 2
    overrides = _parse_overrides(args.set)
    budgets = _parse_overrides(args.stage_budget, "--stage-budget")
    if overrides is None or budgets is None:
        return 2
    try:
        budgets = parse_stage_budget(budgets)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    options: dict = {}
    if args.no_route:
        options["route"] = False
    if args.no_dp:
        options["run_dp"] = False
    if args.wirelength_only:
        options["wirelength_only"] = True
    if overrides:
        options["config"] = overrides
    if budgets:
        options["stage_budget"] = budgets
    if args.timeout is not None:
        options["timeout"] = args.timeout
    if args.faults:
        options["faults"] = args.faults
    client = ServeClient(args.url)
    try:
        record = client.submit(
            design,
            options=options or None,
            priority=args.priority,
            max_retries=args.max_retries,
        )
        if args.wait:
            if args.follow:
                for line in client.stream(
                    record["job_id"], timeout=args.wait_timeout
                ):
                    print(line, flush=True)
            record = client.wait(
                record["job_id"], timeout=args.wait_timeout
            )
    except ServeAPIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(_json.dumps(record, indent=2, sort_keys=True))
    else:
        from repro.serve.store import job_summary_row

        print(format_table([job_summary_row(record)], title="job"))
    if args.wait and record["state"] != "done":
        return 1
    return 0


def _cmd_jobs(args) -> int:
    import json as _json

    from repro.serve import ServeAPIError, ServeClient
    from repro.serve.store import job_summary_row

    client = ServeClient(args.url)
    try:
        if args.jobs_command == "list":
            records = client.list(state=args.state, limit=args.limit)
            if not records:
                print("no jobs")
                return 0
            print(
                format_table(
                    [job_summary_row(r) for r in records],
                    title=f"jobs ({args.url})",
                )
            )
        elif args.jobs_command == "show":
            print(
                _json.dumps(
                    client.get(args.job_id), indent=2, sort_keys=True
                )
            )
        elif args.jobs_command == "result":
            print(
                _json.dumps(
                    client.result(args.job_id), indent=2, sort_keys=True
                )
            )
        elif args.jobs_command == "cancel":
            record = client.cancel(args.job_id)
            print(
                f"{record['job_id']}: state={record['state']} "
                f"cancel_requested={record['cancel_requested']}"
            )
        elif args.jobs_command == "trace":
            out = client.tail_trace(args.job_id, offset=args.offset)
            for line in out["lines"]:
                print(line)
            print(
                f"# state={out['state']} next-offset={out['offset']}",
                file=sys.stderr,
            )
        elif args.jobs_command == "drain":
            summary = client.drain(args.timeout)
            drained = "drained" if summary["drained"] else "deadline hit"
            print(
                f"{drained}: {summary['in_flight']} jobs still in "
                f"flight (timeout {summary['timeout']:.0f}s); new "
                f"submits are refused with 503"
            )
            if not summary["drained"]:
                return 1
    except ServeAPIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _open_registry(args):
    """Resolve the registry directory; (None, code) on usage errors."""
    runs_dir = default_runs_dir(args.runs_dir)
    if runs_dir is None:
        print(
            "error: no run registry configured; pass --runs-dir or set "
            "REPRO_RUNS_DIR",
            file=sys.stderr,
        )
        return None, 2
    return RunRegistry(runs_dir), 0


def _cmd_runs_list(args) -> int:
    registry, code = _open_registry(args)
    if registry is None:
        return code
    records = registry.list(design=args.design, limit=args.limit)
    if not records:
        print("no runs recorded")
        return 0
    print(
        format_table(
            [run_summary_row(r) for r in records],
            title=f"run history ({registry.root})",
        )
    )
    return 0


def _cmd_runs_show(args) -> int:
    registry, code = _open_registry(args)
    if registry is None:
        return code
    try:
        record = registry.get(args.run_id)
    except RunRegistryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_table([run_summary_row(record)], title="run"))
    stages = record.get("stage_seconds", {})
    if stages:
        rows = [
            {"stage": name, "seconds": round(seconds, 3)}
            for name, seconds in stages.items()
        ]
        print()
        print(format_table(rows, title="stage runtimes"))
    print()
    import json as _json

    print(_json.dumps(record, indent=2, sort_keys=True))
    return 0


def _cmd_runs_diff(args) -> int:
    registry, code = _open_registry(args)
    if registry is None:
        return code
    try:
        rec_a = registry.get(args.a)
        rec_b = registry.get(args.b)
    except RunRegistryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    diff = diff_runs(rec_a, rec_b)
    print(
        format_table(
            [run_summary_row(rec_a), run_summary_row(rec_b)], title="runs"
        )
    )
    if not diff["comparable"]:
        print(
            f"note: different designs ({rec_a.get('design')} vs "
            f"{rec_b.get('design')}); deltas are not regression-gated",
            file=sys.stderr,
        )
    if diff["metrics"]:
        print()
        print(format_table(diff["metrics"], title="quality deltas (a -> b)"))
    if diff["stages"]:
        print()
        print(format_table(diff["stages"], title="stage runtime deltas (a -> b)"))
    if diff["comparable"] and diff["regressions"]:
        print(
            f"REGRESSION: {', '.join(diff['regressions'])} drifted beyond "
            "tolerance (repro.obs.runs.TOLERANCES)",
            file=sys.stderr,
        )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Routability-driven placement for hierarchical mixed-size designs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic benchmark")
    g.add_argument("--suite", choices=sorted(SUITE), help="named suite design")
    g.add_argument("--name", default="bench")
    g.add_argument("--cells", type=int, default=2000)
    g.add_argument("--macros", type=int, default=4)
    g.add_argument("--fences", type=int, default=0)
    g.add_argument("--seed", type=int, default=1)
    g.add_argument("--out", required=True, help="output directory")
    g.set_defaults(func=_cmd_generate)

    v = sub.add_parser("validate", help="check a benchmark against the flow's rules")
    v.add_argument("--aux", required=True, help="Bookshelf .aux file")
    v.add_argument(
        "--sanitize", action="store_true",
        help="repair fixable issues in place (as the flow itself would)",
    )
    v.add_argument("--out", help="directory for the sanitized benchmark")
    v.set_defaults(func=_cmd_validate)

    p = sub.add_parser("place", help="run the placement flow on a benchmark")
    p.add_argument("--aux", required=True, help="Bookshelf .aux file")
    p.add_argument("--out", help="directory for the placed benchmark")
    p.add_argument("--svg", help="write the placement as SVG")
    p.add_argument("--wirelength-only", action="store_true")
    p.add_argument("--baseline", choices=["quadratic", "random"])
    p.add_argument("--no-dp", action="store_true")
    p.add_argument("--no-route", action="store_true")
    p.add_argument(
        "--trace", metavar="PATH",
        help="stream a hierarchical trace to PATH as JSONL (written "
        "record-by-record; tail -f-able while the flow runs)",
    )
    p.add_argument(
        "--trace-summary", action="store_true",
        help="print the stage-breakdown table of the captured trace",
    )
    p.add_argument(
        "--heartbeat", type=float, metavar="SEC",
        help="print a progress line (stage, iteration, elapsed) to stderr "
        "every SEC seconds",
    )
    p.add_argument(
        "--flight-recorder", metavar="PATH",
        help="keep a ring buffer of the last telemetry records and dump "
        "it to PATH on crash or degradation",
    )
    p.add_argument(
        "--profile", action="store_true",
        help="record per-span CPU/RSS/heap deltas and run the sampling "
        "profiler; prints the top-functions table after the flow",
    )
    p.add_argument(
        "--runs-dir", metavar="DIR",
        help="append a run-history record here (default: $REPRO_RUNS_DIR; "
        "inspect with 'repro runs')",
    )
    p.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="write a resumable checkpoint here after every completed stage",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="resume from the checkpoint in --checkpoint-dir, skipping "
        "completed stages",
    )
    p.add_argument(
        "--strict", action="store_true",
        help="exit nonzero when the flow degrades (fallbacks, budget expiry)",
    )
    p.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="dotted FlowConfig override, e.g. gp.max_outer_iterations=12; "
        "VALUE is JSON where it parses, else a string; applied after "
        "--wirelength-only, --baseline and --no-dp (repeatable)",
    )
    p.set_defaults(func=_cmd_place)

    r = sub.add_parser("route", help="score an existing placement by routing")
    r.add_argument("--aux", required=True)
    r.add_argument("--map", action="store_true", help="print the congestion map")
    r.set_defaults(func=_cmd_route)

    s = sub.add_parser("stats", help="print benchmark statistics")
    s.add_argument("--aux", required=True)
    s.set_defaults(func=_cmd_stats)

    pr = sub.add_parser(
        "predict",
        help="train/inspect the learned congestion predictor "
        "(the hybrid GP estimator's model artifact)",
    )
    prsub = pr.add_subparsers(dest="predict_command", required=True)
    pt = prsub.add_parser(
        "train", help="train the model zoo on seeded benchgen designs"
    )
    pt.add_argument(
        "--designs", type=int, default=3, metavar="N",
        help="number of generated training designs (default 3)",
    )
    pt.add_argument(
        "--seed", type=int, default=0,
        help="seed for design generation (the run is fully deterministic)",
    )
    pt.add_argument(
        "--boost-rounds", type=int, default=150, metavar="N",
        help="gradient-boosting rounds for the stump model",
    )
    pt.add_argument(
        "--ridge-alpha", type=float, default=1.0, metavar="A",
        help="L2 strength for the ridge model",
    )
    pt.add_argument(
        "--out", metavar="PATH",
        help="artifact output path (default: the packaged default artifact)",
    )
    pt.set_defaults(func=_cmd_predict_train)
    ps = prsub.add_parser("show", help="print an artifact's provenance/metrics")
    ps.add_argument(
        "--model", metavar="PATH",
        help="artifact to inspect (default: the packaged default artifact)",
    )
    ps.set_defaults(func=_cmd_predict_show)

    sv = sub.add_parser(
        "serve",
        help="run the placement job server (HTTP API + worker fleet)",
    )
    sv.add_argument(
        "--root", required=True, metavar="DIR",
        help="server state directory (job DB, per-job artifact dirs)",
    )
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument(
        "--port", type=int, default=8180,
        help="listen port (0 = pick a free one; default 8180)",
    )
    sv.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="queue-draining worker processes (default 2)",
    )
    sv.add_argument(
        "--stale-timeout", type=float, default=15.0, metavar="SEC",
        help="requeue a running job after SEC without a heartbeat",
    )
    sv.add_argument(
        "--cancel-grace", type=float, default=5.0, metavar="SEC",
        help="seconds to wait for cooperative cancel before escalating",
    )
    sv.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="default crash/stall requeue budget per job",
    )
    sv.add_argument(
        "--runs-dir", metavar="DIR",
        help="also append finished jobs to this run-history registry",
    )
    sv.add_argument(
        "--max-queue-depth", type=int, default=10_000, metavar="N",
        help="refuse new submits (503 + Retry-After) past N queued jobs",
    )
    sv.add_argument(
        "--rate-limit", type=float, default=0.0, metavar="RPS",
        help="per-client submit rate limit in requests/second "
        "(token bucket, 429 + Retry-After on breach; 0 = off)",
    )
    sv.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="SEC",
        help="on SIGTERM, wait up to SEC for in-flight jobs before "
        "checkpoint-requeueing them",
    )
    sv.set_defaults(func=_cmd_serve)

    sm = sub.add_parser("submit", help="submit a job to a running server")
    sm.add_argument(
        "--url", default="http://127.0.0.1:8180", help="server base URL"
    )
    sm.add_argument("--suite", choices=sorted(SUITE), help="named suite design")
    sm.add_argument("--aux", help="Bookshelf .aux path (server-readable)")
    sm.add_argument(
        "--cells", type=int, metavar="N",
        help="inline benchgen spec with N cells (see --macros/--seed)",
    )
    sm.add_argument("--name", default="bench", help="inline spec name")
    sm.add_argument("--macros", type=int, default=0, help="inline spec macros")
    sm.add_argument("--seed", type=int, default=1, help="inline spec seed")
    sm.add_argument("--priority", type=int, default=0,
                    help="higher claims first")
    sm.add_argument("--no-dp", action="store_true")
    sm.add_argument("--no-route", action="store_true")
    sm.add_argument("--wirelength-only", action="store_true")
    sm.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="dotted FlowConfig override, e.g. gp.max_outer_iterations=12 "
        "(repeatable)",
    )
    sm.add_argument(
        "--stage-budget", action="append", metavar="STAGE=SEC",
        help="soft time budget of gp, legal, dp or route in seconds, or "
        "null for none (repeatable)",
    )
    sm.add_argument(
        "--timeout", type=float, metavar="SEC",
        help="hard wall-clock budget per attempt; the server kills and "
        "requeues past it",
    )
    sm.add_argument(
        "--faults", metavar="SPEC",
        help="REPRO_FAULTS-style fault spec installed for this job only",
    )
    sm.add_argument(
        "--max-retries", type=int, metavar="N",
        help="crash/stall requeue budget for this job",
    )
    sm.add_argument(
        "--wait", action="store_true",
        help="block until the job is terminal; exit 1 unless it is done",
    )
    sm.add_argument(
        "--follow", action="store_true",
        help="with --wait: stream the live trace JSONL to stdout",
    )
    sm.add_argument(
        "--wait-timeout", type=float, default=600.0, metavar="SEC"
    )
    sm.add_argument(
        "--json", action="store_true", help="print the raw job record"
    )
    sm.set_defaults(func=_cmd_submit)

    jb = sub.add_parser("jobs", help="inspect/cancel jobs on a server")
    jb.add_argument(
        "--url", default="http://127.0.0.1:8180", help="server base URL"
    )
    jsub = jb.add_subparsers(dest="jobs_command", required=True)
    jl = jsub.add_parser("list", help="table of jobs, newest first")
    jl.add_argument("--state", choices=["queued", "running", "done",
                                        "failed", "cancelled"])
    jl.add_argument("--limit", type=int, default=50)
    jl.set_defaults(func=_cmd_jobs)
    for name, help_text in (
        ("show", "full record of one job"),
        ("result", "result summary (409 while still running)"),
        ("cancel", "cancel a job (immediate if queued, cooperative if "
                   "running)"),
    ):
        jp = jsub.add_parser(name, help=help_text)
        jp.add_argument("job_id", help="job id (unique prefix accepted)")
        jp.set_defaults(func=_cmd_jobs)
    jt = jsub.add_parser("trace", help="tail a job's live trace")
    jt.add_argument("job_id")
    jt.add_argument("--offset", type=int, default=0,
                    help="byte offset from a previous tail")
    jt.set_defaults(func=_cmd_jobs)
    jd = jsub.add_parser(
        "drain",
        help="drain the server: stop claiming, wait for in-flight "
        "jobs, refuse new submits (exit 1 if the deadline hit)",
    )
    jd.add_argument(
        "--timeout", type=float, default=None, metavar="SEC",
        help="seconds to wait for in-flight jobs (default: the "
        "server's --drain-timeout)",
    )
    jd.set_defaults(func=_cmd_jobs)

    runs = sub.add_parser(
        "runs", help="inspect the persistent run-history registry"
    )
    runs.add_argument(
        "--runs-dir", metavar="DIR",
        help="registry directory (default: $REPRO_RUNS_DIR)",
    )
    rsub = runs.add_subparsers(dest="runs_command", required=True)
    rl = rsub.add_parser("list", help="table of recorded runs, newest first")
    rl.add_argument("--design", help="only runs of this design")
    rl.add_argument("--limit", type=int, default=20)
    rl.set_defaults(func=_cmd_runs_list)
    rs2 = rsub.add_parser("show", help="full record of one run")
    rs2.add_argument("run_id", help="run id (unique prefix accepted)")
    rs2.set_defaults(func=_cmd_runs_show)
    rd = rsub.add_parser(
        "diff",
        help="per-stage runtime and quality deltas between two runs "
        "(exit 1 when a quality metric regresses beyond tolerance)",
    )
    rd.add_argument("a", help="baseline run id")
    rd.add_argument("b", help="fresh run id")
    rd.set_defaults(func=_cmd_runs_diff)
    return parser


def main(argv=None) -> int:
    configure_logging(logging.WARNING)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # ``repro runs show ... | head`` — the reader closed stdout
        # early.  Point stdout at devnull so the interpreter-shutdown
        # flush doesn't raise a second time, and exit clean.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
