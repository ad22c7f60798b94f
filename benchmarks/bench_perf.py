"""Router perf-regression harness.

Times :class:`~repro.route.router.GlobalRouter` twice on the same
placement of a generated suite design — once on the golden twins of
``tests/reference/`` (the pre-overhaul per-net/dict/scan
implementations, installed by ``use_reference()``) and once on the
optimized hot paths — verifies the two produce *identical* results, and
writes a machine-readable ``BENCH_route.json``.

Run directly::

    PYTHONPATH=src python benchmarks/bench_perf.py                  # rh06, full
    PYTHONPATH=src python benchmarks/bench_perf.py --design rh02 \
        --repeats 2 --out BENCH_route.json --trace-summary trace.txt

The optimized router is timed both cold (decomposition memo empty) and
warm (repeated route calls, the flow-loop regime); ``speedup`` in the
JSON is baseline-best over optimized-best, with the cold ratio reported
alongside.  Identical metrics are asserted, so a CI run fails loudly on
any behaviour drift; timing itself is machine-dependent and not gated
here.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from common import host_metadata, reference_leg

from repro.baselines.random_place import random_placement
from repro.benchgen import SUITE, make_suite_design
from repro.obs import SamplingProfiler, Tracer, format_trace_summary, use_tracer
from repro.route.router import GlobalRouter
from repro.route.steiner import clear_decompose_cache


def _time_route(router: GlobalRouter, arrays, cx, cy, repeats: int):
    """Wall-times of ``repeats`` route calls plus the last result."""
    times = []
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = router.route(arrays=arrays, cx=cx, cy=cy)
        times.append(time.perf_counter() - t0)
    return times, result


def _assert_identical(ref, opt) -> None:
    if not np.array_equal(ref.graph.use_e, opt.graph.use_e) or not np.array_equal(
        ref.graph.use_n, opt.graph.use_n
    ):
        raise AssertionError("edge usage differs between reference and optimized")
    for attr in ("rc", "total_overflow", "peak_congestion", "vias"):
        a, b = getattr(ref.metrics, attr), getattr(opt.metrics, attr)
        if a != b:
            raise AssertionError(f"metrics.{attr} differs: ref={a} opt={b}")
    if ref.num_segments != opt.num_segments:
        raise AssertionError("segment counts differ")


def run_bench(design_name: str, repeats: int, seed: int) -> dict:
    design = make_suite_design(design_name)
    random_placement(design, seed=seed)
    spec = design.routing
    arrays = design.pin_arrays()
    cx, cy = design.pull_centers()

    with reference_leg("route"):
        ref_times, ref_result = _time_route(GlobalRouter(spec), arrays, cx, cy, repeats)

    clear_decompose_cache()
    opt_router = GlobalRouter(spec)
    cold_times, _ = _time_route(opt_router, arrays, cx, cy, 1)
    warm_times, opt_result = _time_route(opt_router, arrays, cx, cy, repeats)

    _assert_identical(ref_result, opt_result)

    # One traced+profiled optimized route for the "profile" section.
    tracer = Tracer()
    profiler = SamplingProfiler(tracer)
    with use_tracer(tracer), profiler:
        GlobalRouter(spec).route(arrays=arrays, cx=cx, cy=cy)

    baseline = min(ref_times)
    optimized = min(warm_times)
    return {
        "design": design_name,
        "seed": seed,
        "num_nodes": design.num_nodes,
        "num_segments": opt_result.num_segments,
        "repeats": repeats,
        "baseline_s": round(baseline, 4),
        "baseline_runs_s": [round(t, 4) for t in ref_times],
        "optimized_s": round(optimized, 4),
        "optimized_cold_s": round(cold_times[0], 4),
        "optimized_runs_s": [round(t, 4) for t in warm_times],
        "speedup": round(baseline / optimized, 3),
        "speedup_cold": round(baseline / cold_times[0], 3),
        "metrics": {
            "rc": ref_result.metrics.rc,
            "total_overflow": ref_result.metrics.total_overflow,
            "peak_congestion": ref_result.metrics.peak_congestion,
            "vias": ref_result.metrics.vias,
        },
        "identical_metrics": True,
        # The standalone router has no fallback path — it either
        # completes exactly or this bench raises; the field keeps the
        # record schema uniform for the regression gate.
        "degraded": False,
        # Sampling-profiler attribution of the traced run (top-level on
        # purpose: check_regression only gates keys under "metrics").
        "profile": profiler.as_record(),
        "host": host_metadata(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--design", default="rh06", choices=sorted(SUITE),
        help="suite design to route (default: rh06, the largest)",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default="BENCH_route.json")
    parser.add_argument(
        "--trace-summary", metavar="PATH",
        help="write a traced optimized run's span/counter summary here",
    )
    args = parser.parse_args(argv)

    record = run_bench(args.design, max(1, args.repeats), args.seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(
        f"{record['design']}: baseline {record['baseline_s']:.3f}s  "
        f"optimized {record['optimized_s']:.3f}s "
        f"(cold {record['optimized_cold_s']:.3f}s)  "
        f"speedup {record['speedup']:.2f}x"
    )
    print(f"wrote {args.out}")

    if args.trace_summary:
        design = make_suite_design(args.design)
        random_placement(design, seed=args.seed)
        tracer = Tracer()
        with use_tracer(tracer):
            GlobalRouter(design.routing).route(design)
        with open(args.trace_summary, "w", encoding="utf-8") as fh:
            fh.write(format_trace_summary(tracer))
            fh.write("\n")
        print(f"wrote {args.trace_summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
