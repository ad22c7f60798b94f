"""Shared machinery for the benchmark harness.

Every ``bench_*.py`` file regenerates one table or figure of the paper's
(reconstructed) evaluation and prints it in the paper's row/series
format.  Absolute numbers differ from the paper — the substrate is a
synthetic suite on a Python router, not the contest testbed — but the
*shape* (who wins, by roughly what factor) is the reproduction target;
EXPERIMENTS.md records both.

Environment:

* ``REPRO_BENCH_FULL=1`` — run the full six-design suite (several
  minutes); default is the three small designs.
* ``REPRO_BENCH_DP=1`` — include detailed placement in flow runs
  (one round for every placer; slower, slightly better HPWL
  everywhere, same comparisons).
* ``REPRO_BENCH_TRACE_DIR=dir`` — capture a hierarchical trace of every
  flow run and write ``<dir>/<design>_<flow>.trace.jsonl``, so the
  runtime tables can be cross-checked against stage-level span
  breakdowns (``repro.obs.format_trace_summary``).
"""

from __future__ import annotations

import os

from repro.benchgen import SUITE, make_suite_design
from repro.dp import DPConfig
from repro.flow import FlowConfig, NTUplace4H
from repro.baselines import run_baseline_flow
from repro.obs import JsonlStreamSink, NULL_TRACER, Tracer, use_tracer

SMALL_SET = ("rh01", "rh02", "rh03")
FULL_SET = tuple(sorted(SUITE))


def bench_designs():
    """The benchmark subset selected by ``REPRO_BENCH_FULL``."""
    if os.environ.get("REPRO_BENCH_FULL"):
        return FULL_SET
    return SMALL_SET


def run_dp() -> bool:
    return bool(os.environ.get("REPRO_BENCH_DP"))


def trace_dir() -> str | None:
    return os.environ.get("REPRO_BENCH_TRACE_DIR") or None


def _traced(label: str, fn):
    """Run ``fn`` under a tracer, streaming a JSONL trace when enabled.

    The trace is written live through a :class:`JsonlStreamSink`, so a
    hung or killed bench run still leaves every completed span on disk
    (and the file can be tailed while the suite runs).
    """
    out = trace_dir()
    if not out:
        with use_tracer(NULL_TRACER):
            return fn()
    os.makedirs(out, exist_ok=True)
    tracer = Tracer()
    sink = JsonlStreamSink(os.path.join(out, f"{label}.trace.jsonl"))
    tracer.add_sink(sink, meta={"bench": label})
    try:
        with use_tracer(tracer):
            return fn()
    finally:
        tracer.close_sinks()


def flow_config(routability: bool) -> FlowConfig:
    cfg = FlowConfig() if routability else FlowConfig.wirelength_only()
    cfg.run_dp = run_dp()
    cfg.dp = DPConfig(rounds=1, congestion_aware=routability)
    return cfg


def run_flow(name: str, routability: bool):
    """Generate a suite design and run one flow over it."""
    design = make_suite_design(name)
    flow_label = "4h" if routability else "wl"
    result = _traced(
        f"{name}_{flow_label}",
        lambda: NTUplace4H(flow_config(routability)).run(design),
    )
    return design, result


def run_quadratic(name: str):
    design = make_suite_design(name)
    result = _traced(
        f"{name}_quadratic",
        lambda: run_baseline_flow(
            design, "quadratic", config=flow_config(routability=False)
        ),
    )
    return design, result


def host_metadata() -> dict:
    """Host facts stamped into bench records: name and the logical CPUs
    this process may run on."""
    import platform

    try:
        cores = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # no affinity API (macOS, Windows)
        cores = os.cpu_count() or 1
    return {"hostname": platform.node(), "logical_cores": cores}


def print_banner(title: str) -> None:
    line = "=" * max(40, len(title) + 4)
    print(f"\n{line}\n  {title}\n{line}")
