"""Benchmark quality-regression gate.

Compares a freshly produced serve or chaos record (``BENCH_serve.json``
from ``bench_serve.py``, ``BENCH_chaos.json`` from ``bench_chaos.py``)
against a committed baseline under ``benchmarks/baselines/`` and exits
non-zero if any metric drifts beyond tolerance.  Fields outside
``metrics`` (wall times, paths) are ignored; each metric is held to its
``TOLERANCES`` band through :func:`repro.obs.runs.exceeds_tolerance`,
the rule the stage tests and ``repro runs diff`` use too.

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py \
        --bench BENCH_chaos_s5.json --baseline benchmarks/baselines/BENCH_chaos.json

Drift in *either* direction fails the gate: an improvement is a reason
to re-baseline intentionally (run the bench, inspect, commit the new
JSON — see ``docs/ci.md``), not to let the gate rot.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs.runs import exceeds_tolerance, tolerance_for


def compare(fresh: dict, baseline: dict) -> list[str]:
    """Return a list of human-readable failures (empty == pass)."""
    failures: list[str] = []
    if fresh.get("design") != baseline.get("design"):
        failures.append(
            f"design mismatch: fresh={fresh.get('design')!r} "
            f"baseline={baseline.get('design')!r}"
        )
        return failures
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
        if exceeds_tolerance(name, value, base_value):
            rel_tol, abs_tol = tolerance_for(name)
            failures.append(
                f"metric {name!r} drifted: fresh={value!r} baseline={base_value!r} "
                f"(tolerance {rel_tol:g} relative or {abs_tol:g} absolute)"
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
