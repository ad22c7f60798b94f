"""Subprocess side of flowbench; ``run.py`` starts one per measurement.

Modes:

* ``flow``  — build the design, run the default flow once
  (cache-cold, optionally with the layer wrappers installed), check the
  result, and write a JSON result file;
* ``setup`` — build the design and exit (a set-up time probe).

``flow`` and ``setup`` write ``setup_cpu_s``, the CPU time the process
had used when set-up finished, and ``ready``, the ``time.monotonic()``
reading at that point; the parent subtracts from ``ready`` its own
reading taken just before it started the process.  They also write
``speed``, the host's slowdown against its quiet speed (see
:func:`host_speed`): sampled all through the flow by
:func:`sampling_host_speed`, or, in ``setup`` mode, probed once.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext

import layers
import workloads

# Relative tolerance of the recomputed-metric checks: the benchmark
# recomputes with the same formulas, so anything looser than rounding
# noise is a real mismatch.
CHECK_RTOL = 1e-9

#: Median CPU seconds of one probe round on the reference host (2-core
#: Intel Xeon VM, Python 3.11, NumPy 2) while it is quiet.
PROBE_REF_S = 0.0095
#: Seconds between two probe rounds taken during a flow.
SAMPLE_INTERVAL_S = 0.5


class _Probe:
    """A fixed NumPy and pure-Python work unit, about 10 ms per round.

    It runs none of the program's code, so only the host moves its CPU
    time: on this shared VM the same flow took up to twice its quiet CPU
    time while neighbours were busy, with no steal time.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(12345)
        self._np = np
        self._x = rng.random(100_000)
        self._bins = rng.integers(0, 4096, 100_000)
        self.round()  # untimed: warms caches and allocator

    def round(self) -> float:
        """CPU seconds of one round."""
        np = self._np
        c0 = time.process_time()
        for _ in range(3):
            np.bincount(self._bins, weights=np.exp(-self._x * self._x), minlength=4096)
            np.sort(self._x)
        table: dict = {}
        for i in range(40_000):
            table[i & 1023] = table.get(i & 1023, 0) + i
        return time.process_time() - c0


def probe_cpu_s(rounds: int = 11) -> float:
    """Median CPU seconds of ``rounds`` probe rounds, run now."""
    probe = _Probe()
    return statistics.median(probe.round() for _ in range(rounds))


@contextmanager
def sampling_host_speed():
    """Run one probe round every ``SAMPLE_INTERVAL_S`` during the block.

    Yields the list the rounds' CPU seconds go to; the block's own CPU
    time is its measured CPU time minus their sum.  A probe before and
    after a flow missed how the host changed during it: over 60 repeats
    of one rh03 flow, CPU time divided by the median of the rounds
    spread 4.9% (IQR over median), by the mean of an end probe pair
    14.3%, and raw CPU time 48.7%.
    """
    probe = _Probe()
    rounds: list = []

    def sample(signum, frame):
        rounds.append(probe.round())

    # A wall-clock timer: while a CPU-time timer (ITIMER_PROF) is armed,
    # Linux reads the process CPU clock from its tick-sampled copy, and
    # a 10 ms round then measures in 4 ms steps.
    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    try:
        yield rounds
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)


def host_speed(probe_s: float) -> float:
    """Host slowdown against the quiet reference, from a probe round's
    CPU time; CPU times divided by it read as CPU seconds on the quiet
    host."""
    return probe_s / PROBE_REF_S


def peak_rss_mb() -> float:
    """This process's or its waited-for children's maxrss, the larger."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    scale = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return max(own, children) / scale


def _write(path: str, payload: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


def check_flow(design, result, score_weights) -> list:
    """Correctness failures of one flow result (empty when all hold)."""
    import numpy as np

    from repro.legal.check import check_legal
    from repro.route import scaled_hpwl
    from repro.wirelength import hpwl_per_net

    failures = []
    if not result.legal:
        failures.append("flow reported an illegal placement")
    if result.degraded:
        failures.append(f"flow degraded: {result.degradation}")
    report = check_legal(design)
    if not report.ok:
        failures.append(f"check_legal: {report.summary()}")
    arrays = design.pin_arrays()
    if len(score_weights) != arrays.num_nets:
        failures.append("net count changed during the flow")
    else:
        recomputed = float(
            np.dot(score_weights, hpwl_per_net(arrays, *design.pull_centers()))
        )
        if not math.isclose(recomputed, result.hpwl_final, rel_tol=CHECK_RTOL):
            failures.append(
                f"recomputed HPWL {recomputed!r} != hpwl_final {result.hpwl_final!r}"
            )
    expected = scaled_hpwl(result.hpwl_final, result.rc)
    if not math.isclose(result.scaled_hpwl, expected, rel_tol=CHECK_RTOL):
        failures.append(
            f"scaled_hpwl {result.scaled_hpwl!r} != scaled_hpwl(hpwl, rc) {expected!r}"
        )
    return failures


def run_flow(args) -> None:
    from repro.flow import NTUplace4H

    design, make_s = workloads.make_design(args.design, args.key)
    ready, setup_cpu_s = time.monotonic(), time.process_time()
    score_weights = [net.weight for net in design.nets]

    try:
        from repro.route.steiner import clear_decompose_cache
    except ImportError:  # the cache is gone: every run is cold anyway
        def clear_decompose_cache():
            return None

    recorder = layers.SpanRecorder()
    with sampling_host_speed() as rounds, (
        layers.installed(recorder) if args.trace else nullcontext()
    ):
        clear_decompose_cache()
        t0, c0 = time.perf_counter(), time.process_time()
        result = NTUplace4H().run(design)
        wall_s = time.perf_counter() - t0
        cpu_s = time.process_time() - c0 - sum(rounds)
    # A flow too short for a few rounds (the smoke test's) is probed after.
    speed = host_speed(statistics.median(rounds) if len(rounds) >= 3 else probe_cpu_s())

    out = {
        "ready": ready,
        "setup_cpu_s": setup_cpu_s,
        "speed": speed,
        "probe_rounds": len(rounds),
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "shpwl": float(result.scaled_hpwl),
        "hpwl": float(result.hpwl_final),
        "rc": float(result.rc),
        "rss_mb": peak_rss_mb(),
        "stage_seconds": dict(result.stage_seconds),
        "failures": check_flow(design, result, score_weights),
    }
    if args.trace:
        spans = recorder.spans
        metrics = layers.rollup(spans)
        for stage, name in layers.STAGE_METRICS.items():
            metrics[name] = float(result.stage_seconds.get(stage, 0.0))
        metrics["benchgen.make_s"] = make_s
        own = layers.self_times(spans)
        roots = [i for i, s in enumerate(spans) if s[0] == "flow.run"]
        in_flow = set(roots)
        for i, span in enumerate(spans):
            if span[3] in in_flow:
                in_flow.add(i)
        out["layers"] = metrics
        out["self_sum_frac"] = sum(own[i] for i in in_flow) / wall_s
        out["spans"] = spans
    _write(args.result, out)


def run_setup(args) -> None:
    workloads.make_design(args.design, args.key)
    ready, setup_cpu_s = time.monotonic(), time.process_time()
    _write(args.result, {"ready": ready, "setup_cpu_s": setup_cpu_s,
                         "speed": host_speed(probe_cpu_s())})


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("flow", "setup"))
    parser.add_argument("--design", required=True, help="design name (see workloads.py)")
    parser.add_argument("--key", type=int, default=0,
                        help="relabelling key, 0 = as generated")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    {"flow": run_flow, "setup": run_setup}[args.mode](args)


if __name__ == "__main__":
    main()
