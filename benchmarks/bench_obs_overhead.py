"""Observability no-op-overhead micro-benchmark.

The placer is instrumented against ``repro.obs`` unconditionally — every
GP iteration enters spans and records metric samples through whatever
tracer is installed.  The design contract is that the default
:data:`~repro.obs.tracer.NULL_TRACER` makes all of that *free*.  This
bench proves that claim three ways:

1. It builds an **obs-stubbed** clone of ``repro.gp.placer`` (an AST
   transform strips every ``with tracer.span(...):`` wrapper and every
   ``tracer.``/``metrics.`` call statement from the source) and runs
   the real instrumented module and the stub on the same suite design
   in alternating order, asserting bit-identical placements.
2. It times both builds (``--repeats`` runs each, per-build minimum)
   and reports the end-to-end wall delta.  Like the other perf benches,
   wall time is machine-dependent and *not* gated — on a loaded CI box
   run-to-run noise dwarfs a sub-0.1% effect.
3. The **gate** is the deterministically *attributed* overhead: one
   traced run counts the exact span/event/sample call volume, a tight
   microbenchmark measures the per-call cost of the disabled
   (``NULL_TRACER``) paths, and ``volume x cost / stub runtime`` must
   stay under ``--max-overhead`` percent (default 1%).  This detects a
   no-op path turning expensive (allocation, locking, clock reads) at
   full sensitivity regardless of machine noise.

Run directly::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py              # rh04
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py \
        --design rh01 --repeats 3 --max-overhead 1.0 --out BENCH_obs.json
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
import time
import types

import numpy as np

import repro.gp.placer as placer_mod
from repro.benchgen import SUITE, make_suite_design
from repro.gp.config import GPConfig
from repro.obs import NULL_TRACER, Tracer, use_tracer


class _StripObs(ast.NodeTransformer):
    """Remove ``repro.obs`` instrumentation from a module's AST.

    * ``with tracer.span(...):`` / ``with get_tracer().span(...):``
      blocks (no ``as`` capture) are unwrapped to their bodies;
    * expression statements calling through a ``tracer``/``metrics``
      name (``metrics.record(...)``, ``tracer.event(...)``,
      ``metrics.counter(...).inc()``) are deleted.

    Assignments like ``tracer = get_tracer()`` stay — they run once per
    call, cost nothing, and keep the stub's line numbers meaningful.
    """

    OBS_ROOTS = frozenset({"tracer", "metrics"})

    def __init__(self):
        self.stripped_spans = 0
        self.stripped_calls = 0

    def _root_name(self, node) -> str | None:
        while isinstance(node, (ast.Attribute, ast.Call)):
            node = node.func if isinstance(node, ast.Call) else node.value
        return node.id if isinstance(node, ast.Name) else None

    def _is_span_item(self, item: ast.withitem) -> bool:
        call = item.context_expr
        return (
            item.optional_vars is None
            and isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "span"
        )

    def visit_With(self, node: ast.With):
        self.generic_visit(node)
        if node.items and all(self._is_span_item(i) for i in node.items):
            self.stripped_spans += len(node.items)
            return node.body
        return node

    def visit_If(self, node: ast.If):
        self.generic_visit(node)
        if not node.body:
            # The branch only recorded telemetry.
            node.body = [ast.Pass()]
        return node

    def visit_Expr(self, node: ast.Expr):
        self.generic_visit(node)
        if (
            isinstance(node.value, ast.Call)
            and self._root_name(node.value) in self.OBS_ROOTS
        ):
            self.stripped_calls += 1
            return None
        return node


def build_stubbed_placer() -> tuple[types.ModuleType, _StripObs]:
    """Exec an obs-stripped clone of ``repro.gp.placer``."""
    src_path = placer_mod.__file__
    with open(src_path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=src_path)
    stripper = _StripObs()
    tree = ast.fix_missing_locations(stripper.visit(tree))
    if not stripper.stripped_spans or not stripper.stripped_calls:
        raise AssertionError(
            "stub transform found no instrumentation to strip — the "
            "placer's obs usage changed; update bench_obs_overhead.py"
        )
    module = types.ModuleType("repro.gp.placer_obs_stub")
    module.__file__ = src_path
    # dataclass machinery resolves string annotations through
    # sys.modules[cls.__module__], so the clone must be registered.
    sys.modules[module.__name__] = module
    code = compile(tree, src_path, "exec")
    exec(code, module.__dict__)
    return module, stripper


def _run_once(placer_cls, design_name: str) -> tuple[float, tuple]:
    design = make_suite_design(design_name)
    placer = placer_cls(GPConfig())
    t0 = time.perf_counter()
    placer.place(design)
    wall = time.perf_counter() - t0
    state = (
        np.array([n.cx for n in design.nodes]),
        np.array([n.cy for n in design.nodes]),
    )
    return wall, state


def null_path_costs(loops: int = 100_000) -> dict:
    """Per-call seconds of the disabled span/record/event paths."""
    tracer = NULL_TRACER
    metrics = tracer.metrics
    t0 = time.perf_counter()
    for i in range(loops):
        with tracer.span(f"iter[{i}]"):  # includes the f-string the
            pass                         # call sites pay for the name
    span_s = (time.perf_counter() - t0) / loops
    t0 = time.perf_counter()
    for i in range(loops):
        metrics.record("gp.hpwl", i, 1.0)
    record_s = (time.perf_counter() - t0) / loops
    t0 = time.perf_counter()
    for i in range(loops):
        tracer.event("watchdog.expired", outer=i)
    event_s = (time.perf_counter() - t0) / loops
    return {"span": span_s, "record": record_s, "event": event_s}


def call_volume(design_name: str) -> dict:
    """Exact obs call counts of one placement, from a real traced run."""
    design = make_suite_design(design_name)
    tracer = Tracer()
    with use_tracer(tracer):
        placer_mod.GlobalPlacer(GPConfig()).place(design)
    return {
        "spans": len(tracer.finished_spans()),
        "events": len(tracer.events()),
        "samples": len(tracer.metrics.samples()),
    }


def run_bench(design_name: str, repeats: int) -> dict:
    stub_mod, stripper = build_stubbed_placer()
    instrumented = placer_mod.GlobalPlacer
    stubbed = stub_mod.GlobalPlacer

    instr_times: list[float] = []
    stub_times: list[float] = []
    instr_state = stub_state = None
    for _ in range(repeats):
        wall, instr_state = _run_once(instrumented, design_name)
        instr_times.append(wall)
        wall, stub_state = _run_once(stubbed, design_name)
        stub_times.append(wall)

    if not np.array_equal(instr_state[0], stub_state[0]) or not np.array_equal(
        instr_state[1], stub_state[1]
    ):
        raise AssertionError(
            "instrumented and obs-stubbed placers produced different "
            "placements — the stub transform altered behaviour"
        )

    instr = min(instr_times)
    stub = min(stub_times)

    volume = call_volume(design_name)
    costs = null_path_costs()
    attributed_s = (
        volume["spans"] * costs["span"]
        + volume["samples"] * costs["record"]
        + volume["events"] * costs["event"]
    )
    return {
        "design": design_name,
        "repeats": repeats,
        "instrumented_s": round(instr, 4),
        "instrumented_runs_s": [round(t, 4) for t in instr_times],
        "stubbed_s": round(stub, 4),
        "stubbed_runs_s": [round(t, 4) for t in stub_times],
        "wall_overhead_pct": round(100.0 * (instr - stub) / stub, 3),
        "call_volume": volume,
        "null_cost_ns": {k: round(v * 1e9, 1) for k, v in costs.items()},
        "attributed_overhead_s": round(attributed_s, 6),
        "overhead_pct": round(100.0 * attributed_s / stub, 4),
        "stripped_spans": stripper.stripped_spans,
        "stripped_calls": stripper.stripped_calls,
        "identical_placements": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--design", default="rh04", choices=sorted(SUITE),
        help="suite design to place (default: rh04)",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--max-overhead", type=float, default=1.0, metavar="PCT",
        help="fail when disabled-tracing overhead exceeds this percent "
        "(default: 1.0)",
    )
    parser.add_argument("--out", default="BENCH_obs.json")
    args = parser.parse_args(argv)

    record = run_bench(args.design, max(1, args.repeats))
    record["max_overhead_pct"] = args.max_overhead
    passed = record["overhead_pct"] <= args.max_overhead
    record["passed"] = passed
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    vol = record["call_volume"]
    print(
        f"{record['design']}: instrumented {record['instrumented_s']:.3f}s  "
        f"stubbed {record['stubbed_s']:.3f}s  "
        f"wall delta {record['wall_overhead_pct']:+.2f}% (not gated)"
    )
    print(
        f"attributed: {vol['spans']} spans + {vol['samples']} samples + "
        f"{vol['events']} events -> {record['attributed_overhead_s'] * 1e3:.3f}ms "
        f"= {record['overhead_pct']:.4f}% of stub runtime "
        f"(gate {args.max_overhead:.2f}%)"
    )
    print(f"wrote {args.out}")
    if not passed:
        print(
            f"FAIL: disabled-tracing overhead {record['overhead_pct']:.2f}% "
            f"exceeds {args.max_overhead:.2f}%",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
