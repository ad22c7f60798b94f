"""Compare flowbench records: ``compare.py BASE.json... -- CHANGE.json...``

Each file is a ``run.py --out`` record; every untraced run in it gives
one sample per workload and end-to-end metric (that run's median).  For
each workload, in its own block, and each metric the table shows both
sides' median and quartiles, the relative change, the metric's bound
from BENCHMARK.json, and a verdict:

* ``worse``      the change's median is worse by more than the bound
  (with a spread wider than the bound: only when every change sample is
  worse than every base sample);
* ``improved``   over at least 10 pairs (i-th base sample against i-th
  change sample): better by more than the base's own spread (IQR over
  median), winning at least 9 in 10 pairs (ties count for neither side)
  — or, with a spread wider than the bound, every change sample beats
  every base one;
* ``unresolved`` either side spreads wider than the bound otherwise;
* ``unchanged``  everything else.

Exit status 1 when any verdict is ``worse``.  Run the two sides
alternately (base, change, base, ...) so drift hits both alike.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
#: Pairs a gain needs before it may be claimed.
MIN_PAIRS = 10


def load_bounds(path: Path = BENCHMARK) -> dict:
    """End-to-end metric -> (bound, better) from BENCHMARK.json."""
    spec = json.loads(path.read_text())
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def samples(paths: list) -> dict:
    """{(workload, metric): [values]} of the untraced runs in ``paths``."""
    values: dict = {}
    for path in paths:
        for run in json.loads(Path(path).read_text())["runs"]:
            if run["trace"]:
                continue
            for name, entry in run["metrics"].items():
                values.setdefault((run["workload"], name), []).append(entry["value"])
    return values


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base: list, change: list, bound: float, better: str) -> tuple:
    """(verdict, relative change of the median; positive = worse)."""
    sign = 1.0 if better == "lower" else -1.0
    b_med, c_med = statistics.median(base), statistics.median(change)
    if b_med == 0:
        return ("unchanged" if c_med == 0 else "unresolved"), 0.0
    delta = sign * (c_med - b_med) / abs(b_med)
    pairs = list(zip(base, change))
    all_better = all(sign * (c - b) < 0 for c in change for b in base)
    all_worse = all(sign * (c - b) > 0 for c in change for b in base)
    if max(spread(base), spread(change)) > bound:
        if all_better and len(pairs) >= MIN_PAIRS:
            return "improved", delta
        if all_worse and delta > bound:
            return "worse", delta
        return "unresolved", delta
    if delta > bound:
        return "worse", delta
    wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
    if len(pairs) >= MIN_PAIRS and -delta > spread(base) and wins >= 0.9 * len(pairs):
        return "improved", delta
    return "unchanged", delta


def compare(base_paths: list, change_paths: list, bounds: dict) -> tuple:
    """(report lines, any worse verdict)."""
    base = samples(base_paths)
    change = samples(change_paths)
    lines = []
    worse = False
    for workload in sorted({w for w, _ in base} & {w for w, _ in change}):
        lines.append(workload)
        for name, (bound, better) in bounds.items():
            b, c = base.get((workload, name)), change.get((workload, name))
            if not b or not c:
                continue
            word, delta = verdict(b, c, bound, better)
            worse = worse or word == "worse"
            bq, cq = quartiles(b), quartiles(c)
            lines.append(
                f"  {name:<12} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}] n={len(b)}"
                f"  change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] n={len(c)}"
                f"  {delta * 100:+.2f}% (bound {bound * 100:.0f}%)  {word}"
            )
    return lines, worse


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    split = argv.index("--")
    base_paths, change_paths = argv[:split], argv[split + 1:]
    if not base_paths or not change_paths:
        print("need at least one record on each side of --", file=sys.stderr)
        return 2
    lines, worse = compare(base_paths, change_paths, load_bounds())
    print("\n".join(lines))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
