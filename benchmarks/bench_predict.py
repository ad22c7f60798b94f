"""Learned-congestion-predictor bench: hybrid vs. router inflation.

End-to-end proof of the ``repro.predict`` pipeline: train the model zoo
on three seeded benchgen designs (every byte deterministic), then place
one suite design twice — ``congestion_estimator="router"`` (a real
look-ahead route every inflation round) and ``"hybrid"`` (the trained
predictor every round, the router every K-th round plus a final check) —
and record the quality delta and the inflation-loop speedup in a
machine-readable ``BENCH_predict.json``.

Run directly::

    PYTHONPATH=src python benchmarks/bench_predict.py                 # rh04
    PYTHONPATH=src python benchmarks/bench_predict.py --design rh06 \
        --repeats 1 --out BENCH_predict.json --trace-summary trace.txt

Wall time is machine-dependent and recorded, not gated; the gated
``predict_*`` metrics (round counts, fallbacks, quality deltas, model
validation MSE) are deterministic for a given code revision, so
``benchmarks/check_regression.py`` fails on any behaviour drift — a
fallback firing mid-bench, a scheduling change, or a model regression.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time

import numpy as np

from common import host_metadata

from repro.benchgen import SUITE, make_suite_design
from repro.gp.config import GPConfig
from repro.gp.placer import GlobalPlacer
from repro.obs import Tracer, format_trace_summary, use_tracer
from repro.predict import train_predictor, training_specs
from repro.predict.model import save_artifact
from repro.route.steiner import clear_decompose_cache


def _train_artifact(seed: int, designs: int) -> tuple[str, dict, float]:
    """Train the zoo on seeded benchgen designs; returns (path, artifact, s)."""
    t0 = time.perf_counter()
    artifact = train_predictor(training_specs(designs, seed), seed=seed)
    train_s = time.perf_counter() - t0
    path = tempfile.mktemp(prefix="bench_predict_", suffix=".json")
    save_artifact(artifact, path)
    return path, artifact, train_s


def _run_gp(design_name: str, estimator: str, model_path: str | None):
    """Place one fresh copy of the design; returns (wall, spans, report, design).

    The process-wide MST-decomposition memo is dropped first: it is keyed
    on net pin-tile signatures, so a second placement of the same design
    reuses most entries and its look-ahead routes time ~3x faster than a
    fresh process would.  Each timed leg must pay the cold-cache cost a
    real placement pays (warming *within* the run is part of the flow).
    """
    clear_decompose_cache()
    design = make_suite_design(design_name)
    cfg = GPConfig(
        congestion_estimator=estimator,
        predict_model=model_path,
    )
    tracer = Tracer()
    t0 = time.perf_counter()
    with use_tracer(tracer):
        report = GlobalPlacer(cfg).place(design)
    wall = time.perf_counter() - t0
    spans: dict = {}
    for span in tracer.finished_spans():
        name = span.name.split("[")[0]
        spans[name] = spans.get(name, 0.0) + span.duration
    return wall, spans, report, design, tracer


def _state(design):
    return (
        np.array([n.cx for n in design.nodes]),
        np.array([n.cy for n in design.nodes]),
    )


def run_bench(design_name: str, repeats: int, seed: int, train_designs: int):
    model_path, artifact, train_s = _train_artifact(seed, train_designs)

    legs: dict = {}
    tracer = None
    for estimator in ("router", "hybrid"):
        walls, inflations = [], []
        spans = report = design = None
        for _ in range(repeats):
            model = model_path if estimator == "hybrid" else None
            wall, spans, report, design, leg_tracer = _run_gp(
                design_name, estimator, model
            )
            walls.append(wall)
            inflations.append(spans.get("inflation", 0.0))
            if estimator == "hybrid":
                tracer = leg_tracer
        legs[estimator] = {
            "wall_s": round(min(walls), 4),
            "inflation_s": round(min(inflations), 4),
            "lookahead_s": round(spans.get("lookahead_route", 0.0), 4),
            "predict_s": round(spans.get("predict", 0.0), 4),
            "hpwl": report.final_hpwl,
            "overflow": report.final_overflow,
            "report": report,
            "state": _state(design),
        }

    router = legs["router"]
    hybrid = legs["hybrid"]
    stats = hybrid["report"].inflation
    hybrid_inflation = max(hybrid["inflation_s"], 1e-9)
    speedup = router["inflation_s"] / hybrid_inflation
    record = {
        "design": design_name,
        "repeats": repeats,
        "train_s": round(train_s, 4),
        "artifact": {
            "primary": artifact["primary"],
            "config_hash": artifact["provenance"]["config_hash"],
            "num_samples": artifact["provenance"]["num_samples"],
        },
        "router": {k: v for k, v in router.items() if k not in ("report", "state")},
        "hybrid": {k: v for k, v in hybrid.items() if k not in ("report", "state")},
        "inflation_speedup": round(speedup, 3),
        "metrics": {
            "hpwl": hybrid["hpwl"],
            "overflow": hybrid["overflow"],
            "gp_iterations": len(hybrid["report"].iterations),
            "predict_router_rounds": stats["router_rounds"],
            "predict_predictor_rounds": stats["predictor_rounds"],
            "predict_fallbacks": 0 if stats["fallback_round"] is None else 1,
            "predict_final_drift": stats["final_drift"],
            "predict_val_mse": artifact["metrics"][
                f"val_mse_{artifact['primary']}"
            ],
            "predict_train_samples": artifact["provenance"]["num_samples"],
            "predict_hpwl_rel_delta": (hybrid["hpwl"] - router["hpwl"])
            / router["hpwl"],
            "predict_overflow_delta": hybrid["overflow"] - router["overflow"],
            # Timing ratio: recorded for the artifact, tolerance-exempt.
            "predict_inflation_speedup": round(speedup, 3),
        },
        "degraded": any(
            leg["report"].guard_rollbacks
            or leg["report"].guard_exhausted
            or leg["report"].budget_exhausted
            for leg in legs.values()
        ),
        "host": host_metadata(),
    }
    return record, legs, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--design", default="rh04", choices=sorted(SUITE),
        help="suite design to place (default: rh04)",
    )
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument(
        "--seed", type=int, default=0, help="training-design seed"
    )
    parser.add_argument(
        "--train-designs", type=int, default=3,
        help="number of generated training designs (default 3)",
    )
    parser.add_argument("--out", default="BENCH_predict.json")
    parser.add_argument(
        "--trace-summary", metavar="PATH",
        help="write the traced hybrid run's span/counter summary here",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=0.0,
        help="fail unless the inflation-loop speedup reaches this factor "
        "(timing-based: leave 0 on shared/noisy runners)",
    )
    args = parser.parse_args(argv)

    record, _, tracer = run_bench(
        args.design, max(1, args.repeats), args.seed, args.train_designs
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    m = record["metrics"]
    print(
        f"{record['design']}: inflation router "
        f"{record['router']['inflation_s']:.3f}s  hybrid "
        f"{record['hybrid']['inflation_s']:.3f}s  speedup "
        f"{record['inflation_speedup']:.2f}x  hpwl delta "
        f"{100 * m['predict_hpwl_rel_delta']:+.2f}%  rounds "
        f"{m['predict_router_rounds']}R/{m['predict_predictor_rounds']}P  "
        f"final drift {m['predict_final_drift']:.3f}"
    )
    print(f"wrote {args.out}")

    if args.trace_summary and tracer is not None:
        with open(args.trace_summary, "w", encoding="utf-8") as fh:
            fh.write(format_trace_summary(tracer))
            fh.write("\n")
        print(f"wrote {args.trace_summary}")

    if args.min_speedup > 0 and record["inflation_speedup"] < args.min_speedup:
        print(
            f"ERROR: inflation speedup {record['inflation_speedup']:.2f}x "
            f"below required {args.min_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
