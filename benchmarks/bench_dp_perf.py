"""Detailed-placement & legalization perf-regression harness.

Runs legalization + detailed placement on a deterministic pre-DP
placement twice — once on the golden twins of ``tests/reference/`` (the
original per-object Tetris, Abacus, audit, scoring, and spreading loops,
installed by ``use_reference()``) and once on the array-based hot paths
— verifies the two produce *bit-identical* final placements and
identical per-pass trajectories, and writes a machine-readable
``BENCH_dp.json``.

Run directly::

    PYTHONPATH=src python benchmarks/bench_dp_perf.py                  # rh06
    PYTHONPATH=src python benchmarks/bench_dp_perf.py --design rh02 \
        --repeats 1 --out BENCH_dp.json --trace-summary trace.txt

The pre-DP placement is rebuilt fresh for every run (suite design +
``initial_placement`` with a fixed seed), so both modes start from the
same coordinates without sharing mutable state.  Wall time varies run to
run, so each mode is timed ``--repeats`` times in alternating order and
the per-mode *minimum* is compared; the quality numbers (HPWL, accepted
moves, pass count) are mode-independent by construction and are what
``benchmarks/check_regression.py`` gates on.  Result equality is
asserted here, so a CI run fails loudly on any behaviour drift; timing
itself is machine-dependent and not gated, except via the optional
``--min-speedup`` floor used when regenerating the committed record.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from common import host_metadata, reference_leg

from repro.benchgen import SUITE, make_suite_design
from repro.dp import DetailedPlacer, DPConfig
from repro.gp import initial_placement
from repro.legal import Legalizer
from repro.obs import SamplingProfiler, Tracer, format_trace_summary, use_tracer

SEED = 3


def _run_dp(design_name: str, reference: bool, tracer=None):
    """Legalize + detail-place one fresh pre-placed design copy.

    Returns ``(legal_wall, dp_wall, state, legal_result, dp_report,
    design)`` where ``state`` is the final ``(x, y)`` coordinate pair.
    """
    design = make_suite_design(design_name)
    initial_placement(design, seed=SEED)
    legalizer = Legalizer()
    placer = DetailedPlacer(DPConfig())
    if tracer is not None:
        with use_tracer(tracer):
            t0 = time.perf_counter()
            result = legalizer.legalize(design)
            t1 = time.perf_counter()
            report = placer.run(design, result.submap)
            t2 = time.perf_counter()
    elif reference:
        with reference_leg("legal_dp"):
            t0 = time.perf_counter()
            result = legalizer.legalize(design)
            t1 = time.perf_counter()
            report = placer.run(design, result.submap)
            t2 = time.perf_counter()
    else:
        t0 = time.perf_counter()
        result = legalizer.legalize(design)
        t1 = time.perf_counter()
        report = placer.run(design, result.submap)
        t2 = time.perf_counter()
    state = (
        np.array([n.x for n in design.nodes]),
        np.array([n.y for n in design.nodes]),
    )
    return t1 - t0, t2 - t1, state, result, report, design


def _assert_identical(ref_state, opt_state, ref_passes, opt_passes) -> None:
    if not np.array_equal(ref_state[0], opt_state[0]) or not np.array_equal(
        ref_state[1], opt_state[1]
    ):
        raise AssertionError("final placements differ between reference and optimized")
    if ref_passes != opt_passes:
        raise AssertionError(
            "per-pass trajectories differ between reference and optimized"
        )


def _stage_breakdown(tracer: Tracer) -> dict:
    """Aggregate traced span wall time by top-level stage name."""
    stages: dict = {}
    for span in tracer.finished_spans():
        name = span.name.split("[")[0]
        stages[name] = stages.get(name, 0.0) + span.duration
    return {k: round(v, 4) for k, v in sorted(stages.items(), key=lambda kv: -kv[1])}


def run_bench(design_name: str, repeats: int):
    ref_times: list[float] = []
    opt_times: list[float] = []
    ref_state = opt_state = None
    ref_report = report = None
    result = None
    design = None
    for _ in range(repeats):
        lw, dw, opt_state, result, report, design = _run_dp(
            design_name, reference=False
        )
        opt_times.append(lw + dw)
        lw, dw, ref_state, _, ref_report, _ = _run_dp(design_name, reference=True)
        ref_times.append(lw + dw)

    _assert_identical(ref_state, opt_state, ref_report.passes, report.passes)

    tracer = Tracer()
    profiler = SamplingProfiler(tracer)
    with profiler:
        _run_dp(design_name, reference=False, tracer=tracer)

    baseline = min(ref_times)
    optimized = min(opt_times)
    record = {
        "design": design_name,
        "num_nodes": design.num_nodes,
        "seed": SEED,
        "repeats": repeats,
        "baseline_s": round(baseline, 4),
        "baseline_runs_s": [round(t, 4) for t in ref_times],
        "optimized_s": round(optimized, 4),
        "optimized_runs_s": [round(t, 4) for t in opt_times],
        "speedup": round(baseline / optimized, 3),
        "stages_s": _stage_breakdown(tracer),
        "metrics": {
            "hpwl": design.hpwl(),
            "dp_improvement": report.improvement,
            "dp_accepted": sum(p[1] for p in report.passes),
            "dp_pass_count": len(report.passes),
            "legal_ok": int(result.ok),
            "max_displacement": result.max_displacement,
        },
        "identical_placements": True,
        "identical_metrics": True,
        # True when a resilience fallback fired mid-bench; the regression
        # gate refuses degraded records.
        "degraded": bool(report.budget_exhausted or not result.ok),
        # Sampling-profiler attribution of the traced run (top-level on
        # purpose: check_regression only gates keys under "metrics").
        "profile": profiler.as_record(),
        "host": host_metadata(),
    }
    return record, tracer, profiler


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--design", default="rh06", choices=sorted(SUITE),
        help="suite design to legalize and detail-place (default: rh06)",
    )
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument("--out", default="BENCH_dp.json")
    parser.add_argument(
        "--min-speedup", type=float, default=0.0,
        help="fail unless baseline/optimized reaches this ratio "
        "(used when regenerating the committed record; 0 disables)",
    )
    parser.add_argument(
        "--trace-summary", metavar="PATH",
        help="write the traced optimized run's span/counter summary here",
    )
    args = parser.parse_args(argv)

    record, tracer, profiler = run_bench(args.design, max(1, args.repeats))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(
        f"{record['design']}: baseline {record['baseline_s']:.3f}s  "
        f"optimized {record['optimized_s']:.3f}s  "
        f"speedup {record['speedup']:.2f}x  "
        f"hpwl {record['metrics']['hpwl']:.4g}  "
        f"accepted {record['metrics']['dp_accepted']}"
    )
    print(f"wrote {args.out}")

    if args.trace_summary:
        with open(args.trace_summary, "w", encoding="utf-8") as fh:
            fh.write(format_trace_summary(tracer, profile=profiler))
            fh.write("\n")
        print(f"wrote {args.trace_summary}")

    if args.min_speedup > 0 and record["speedup"] < args.min_speedup:
        print(
            f"FAIL: speedup {record['speedup']:.2f}x below the "
            f"--min-speedup floor {args.min_speedup:.2f}x"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
