"""Benchmark quality-regression gate.

Compares a freshly produced benchmark record (``BENCH_gp.json`` from
``bench_gp_perf.py``, ``BENCH_dp.json`` from ``bench_dp_perf.py``, or
``BENCH_route.json`` from ``bench_perf.py``)
against a committed baseline under ``benchmarks/baselines/`` and exits
non-zero if any *quality* metric drifts beyond tolerance.  Timing fields
are deliberately ignored — wall time is machine-dependent and belongs in
artifacts, not gates; the gated metrics (HPWL, density overflow, routed
overflow, congestion, vias) are deterministic for a given code revision,
so any drift means behaviour changed.

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py \
        --bench BENCH_gp.json --baseline benchmarks/baselines/BENCH_gp_rh02.json

Drift in *either* direction fails the gate: an improvement is a reason
to re-baseline intentionally (run the bench, inspect, commit the new
JSON — see ``docs/ci.md``), not to let the gate rot.
"""

from __future__ import annotations

import argparse
import json
import sys

# metric name -> (relative tolerance, absolute tolerance); a metric
# passes if it is within EITHER bound of the baseline value.  The table
# lives in repro.obs.runs so that `repro runs diff` flags regressions
# with exactly the bounds CI gates on.
from repro.obs.runs import DEFAULT_TOLERANCE, TOLERANCES

# Flags that must be true in the fresh record for the gate to pass.
# Each is checked only when present.
REQUIRED_FLAGS = (
    "identical_placements",
    "identical_metrics",
)


def compare(fresh: dict, baseline: dict) -> list[str]:
    """Return a list of human-readable failures (empty == pass)."""
    failures: list[str] = []
    if fresh.get("design") != baseline.get("design"):
        failures.append(
            f"design mismatch: fresh={fresh.get('design')!r} "
            f"baseline={baseline.get('design')!r}"
        )
        return failures
    for flag in REQUIRED_FLAGS:
        if flag in fresh and not fresh[flag]:
            failures.append(f"{flag} is false in the fresh record")
    # A degraded record means a resilience fallback fired during the
    # bench run (numerical rollback, watchdog expiry, stage fallback) —
    # its metrics are not comparable and the run itself needs a look.
    if fresh.get("degraded"):
        failures.append(
            "fresh record is degraded (a resilience fallback fired; "
            "see docs/robustness.md)"
        )
    fresh_metrics = fresh.get("metrics", {})
    base_metrics = baseline.get("metrics", {})
    for name, base_value in sorted(base_metrics.items()):
        if not isinstance(base_value, (int, float)):
            continue
        if name not in fresh_metrics:
            failures.append(f"metric {name!r} missing from the fresh record")
            continue
        value = fresh_metrics[name]
        rel_tol, abs_tol = TOLERANCES.get(name, DEFAULT_TOLERANCE)
        drift = abs(value - base_value)
        limit = max(rel_tol * abs(base_value), abs_tol)
        if drift > limit:
            failures.append(
                f"metric {name!r} drifted: fresh={value!r} baseline={base_value!r} "
                f"(|drift|={drift:.6g} > tolerance {limit:.6g})"
            )
    for name in sorted(fresh_metrics):
        if name not in base_metrics:
            failures.append(
                f"metric {name!r} present in the fresh record but not the "
                f"baseline (re-baseline to adopt it)"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", required=True, help="fresh benchmark JSON")
    parser.add_argument("--baseline", required=True, help="committed baseline JSON")
    args = parser.parse_args(argv)

    with open(args.bench, encoding="utf-8") as fh:
        fresh = json.load(fh)
    with open(args.baseline, encoding="utf-8") as fh:
        baseline = json.load(fh)

    failures = compare(fresh, baseline)
    if failures:
        print(f"REGRESSION: {args.bench} vs {args.baseline}")
        for line in failures:
            print(f"  - {line}")
        return 1
    print(
        f"OK: {args.bench} matches {args.baseline} "
        f"({len(baseline.get('metrics', {}))} metrics within tolerance)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
