"""flowbench: the end-to-end placement benchmark, with per-layer attribution.

Run from the repository root (no install and no PYTHONPATH needed)::

    python3 benchmarks/flowbench/run.py                      # all workloads
    python3 benchmarks/flowbench/run.py --workload flow-rh03 --seed 3 \\
        --seconds 45 --trace 0
    python3 benchmarks/flowbench/run.py --seed 1 --trace --out results.json

Each workload measures for about ``--seconds`` (always at least one flow
per input), checks every output, and prints each metric with its unit;
the last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Times that are metrics are CPU seconds
scaled to the host's quiet speed by a calibration probe sampled during
each flow (see ``child.sampling_host_speed``): a shared VM host here ran
the same flow at anywhere from 1x to 2x its quiet CPU time.  Raw CPU and
wall-clock times are printed and kept in ``--out`` beside them, not
gated.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` adds one
traced pass with ``layers.py`` installed and reports the per-layer
metrics instead.  Any failed check makes the exit code 1.  ``--out``
writes the full record (medians, quartiles, samples, host) and, when
tracing, ``<out>.spans.jsonl``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
WORK_ROOT = REPO / ".flowbench_work"

#: End-to-end metrics (name, unit); their bounds live in BENCHMARK.json.
END_TO_END = (
    ("ref_cpu_s", "s"),
    ("setup_s", "s"),
    ("shpwl", "dbu"),
    ("hpwl", "dbu"),
    ("rc", "ratio"),
    ("peak_rss_mb", "MB"),
)
#: Raw figures, printed and kept but not gated: on a shared host they
#: move with the neighbours' load.
RAW = (("cpu_s", "s"), ("wall_s", "s"))
UNIT = dict(END_TO_END + RAW)
QUALITY = ("shpwl", "hpwl", "rc")

#: Set-up samples per run; probes top up what the measured jobs give.
SETUP_SAMPLES = 3
#: Every run ends within 180 s: nothing new starts past this budget.
RUN_BUDGET_S = 165.0
#: |sum of traced self times / traced wall - 1| must stay below this.
SELF_SUM_TOL = 0.05
#: Thread pools pinned to one thread in every subprocess, so that a flow
#: keeps one core busy: OpenBLAS's default two threads spent 54 s of CPU
#: on a 34 s rh05 flow here and stalled whenever the other core was taken.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class ChildError(RuntimeError):
    """A benchmark subprocess failed, timed out, or wrote no result."""


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of a child's process group, then reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


class Tally:
    """Operations attempted and failed in one run, with failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)

    def run(self, runner: "Runner", argv: list):
        """One subprocess operation; its result, or None when it failed."""
        self.attempted += 1
        try:
            result = runner.child(argv)
        except ChildError as exc:
            self.fail(str(exc))
            return None
        if result.get("failures"):
            self.fail("; ".join(result["failures"]))
        return result

    def as_dict(self) -> dict:
        return {
            "attempted": max(self.attempted, 1),
            "failed": min(self.failed, max(self.attempted, 1)),
            "failures": self.failures,
        }


class Runner:
    """Starts benchmark subprocesses inside a scratch directory of the checkout."""

    def __init__(self, workdir: Path, budget_s: float):
        self.workdir = workdir
        self.deadline = time.monotonic() + budget_s
        self._count = 0

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def env(self) -> dict:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
        )
        env["TMPDIR"] = str(self.workdir)
        env.update(dict.fromkeys(THREAD_ENV, "1"))
        return env

    def scratch(self, stem: str) -> Path:
        """A fresh path prefix in the work directory."""
        self._count += 1
        return self.workdir / f"{stem}{self._count}"

    def child(self, argv: list) -> dict:
        """Run ``child.py argv`` to completion; its result plus ``setup_wall_s``."""
        base = self.scratch(argv[0])
        result, log = base.with_suffix(".json"), base.with_suffix(".log")
        with open(log, "wb") as fh:
            spawn = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), *argv,
                 "--result", str(result)],
                env=self.env(), cwd=REPO, stdin=subprocess.DEVNULL,
                stdout=fh, stderr=subprocess.STDOUT, start_new_session=True,
            )
            try:
                proc.wait(timeout=max(self.remaining(), 1.0))
            except subprocess.TimeoutExpired:
                raise ChildError(f"{argv[0]} subprocess ran past the run budget")
            finally:
                _stop_group(proc)
        if proc.returncode != 0 or not result.exists():
            tail = log.read_text(errors="replace").strip().splitlines()[-5:]
            raise ChildError(
                f"{argv[0]} subprocess exited {proc.returncode}: " + " | ".join(tail)
            )
        data = json.loads(result.read_text())
        data["setup_wall_s"] = data["ready"] - spawn
        return data


# ----------------------------------------------------------------------
# statistics and output
# ----------------------------------------------------------------------
def summary(name: str, values: list) -> dict:
    """Median, quartiles and sample count of one end-to-end metric."""
    values = [float(v) for v in values]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values), "unit": UNIT[name],
        "q1": q1, "q3": q3, "n": len(values),
    }


# ----------------------------------------------------------------------
# flow workloads
# ----------------------------------------------------------------------
def run_flow_workload(runner: Runner, w, seed: int, seconds: float,
                      trace: bool) -> dict:
    """Flows on ``w``'s inputs, cycling in the seed's order, for about
    ``seconds``.

    Every input runs at least once.  A further flow starts only while at
    least half of it (by the median flow so far) fits into ``seconds``,
    so a run ends within half a flow of ``seconds`` on any host.  An
    input that runs again, and the traced pass on input 0, must repeat
    its first sHPWL/HPWL/RC exactly.  ``ref_cpu_s`` is the mean over
    inputs of each input's median, so which input a run repeats does not
    move it; with mostly one flow per input, the mean spread less than
    the median over inputs (7.7% against 8.3% on rh02, ten runs).
    """
    tally = Tally()
    samples: list = []
    quality: dict = {}  # input -> (sHPWL, HPWL, RC) of its first flow
    durations: list = []

    def flow(j: int, *extra):
        argv = ["flow", "--design", w.design, "--key", str(j), *extra]
        t0 = time.monotonic()
        result = tally.run(runner, argv)
        durations.append(time.monotonic() - t0)
        if result is None:
            return None
        result["input"] = j
        values = tuple(result[k] for k in QUALITY)
        if quality.setdefault(j, values) != values:
            tally.fail(f"input {j} repeated sHPWL/HPWL/RC {list(values)}, "
                       f"first {list(quality[j])}")
        return result

    order = workloads.run_order(seed, w)
    start = time.monotonic()
    while len(durations) < w.inputs or (
        time.monotonic() - start + statistics.median(durations) / 2 <= seconds
        and runner.remaining() > 2 * max(durations)
    ):
        sample = flow(order[len(durations) % w.inputs])
        if sample is not None:
            samples.append(sample)
    traced = flow(0, "--trace") if trace else None

    setups = [s["setup_cpu_s"] / s["speed"] for s in samples + ([traced] if traced else [])]
    while setups and len(setups) < SETUP_SAMPLES and runner.remaining() > 10:
        probe = tally.run(runner, ["setup", "--design", w.design, "--key", "0"])
        if probe is None:
            break
        setups.append(probe["setup_cpu_s"] / probe["speed"])

    per_input: dict = {}  # input -> its flows' CPU s at the quiet host speed
    for s in samples:
        per_input.setdefault(s["input"], []).append(s["cpu_s"] / s["speed"])
    ref_cpu = {j: statistics.median(v) for j, v in per_input.items()}
    metrics: dict = {}
    raw: dict = {}
    if samples:
        metrics["ref_cpu_s"] = dict(summary("ref_cpu_s", list(ref_cpu.values())),
                                    value=statistics.fmean(ref_cpu.values()))
        metrics["setup_s"] = summary("setup_s", setups)
        for idx, name in enumerate(QUALITY):
            metrics[name] = summary(name, [quality[j][idx] for j in sorted(quality)])
        metrics["peak_rss_mb"] = summary("peak_rss_mb", [s["rss_mb"] for s in samples])
        raw["cpu_s"] = summary("cpu_s", [s["cpu_s"] for s in samples])
        raw["wall_s"] = summary("wall_s", [s["wall_s"] for s in samples])
    layer_metrics = None
    spans = None
    if traced is not None:
        layer_metrics = dict(traced["layers"])
        if 0 in ref_cpu:
            layer_metrics["trace.overhead_frac"] = (
                traced["cpu_s"] / traced["speed"] / ref_cpu[0] - 1.0
            )
        if abs(traced["self_sum_frac"] - 1.0) > SELF_SUM_TOL:
            tally.fail(
                f"traced self times cover {traced['self_sum_frac']:.3f} "
                "of the traced wall time"
            )
        spans = traced["spans"]
    return {
        **tally.as_dict(),
        "metrics": metrics,
        "raw": raw,
        "layers": layer_metrics,
        "spans": spans,
        "samples": [
            {k: s[k] for k in ("input", "cpu_s", "speed", "probe_rounds", "wall_s",
                               "setup_cpu_s", "setup_wall_s", "rss_mb", "stage_seconds",
                               *QUALITY)}
            for s in samples
        ],
        "traced_self_sum_frac": traced["self_sum_frac"] if traced else None,
    }


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> dict:
    out = run_flow_workload(Runner(workdir, RUN_BUDGET_S), workloads.WORKLOADS[name],
                            seed, seconds, trace)
    out.update(workload=name, seed=seed, seconds=seconds, trace=trace)
    return out


def reported(record: dict) -> dict:
    """The metrics a run reports: end-to-end untraced, per-layer traced."""
    if record["trace"]:
        values = record["layers"] or {}
        return {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit, _better in layers.PER_LAYER
        }
    return {
        name: {"value": record["metrics"].get(name, {}).get("value", 0.0), "unit": unit}
        for name, unit in END_TO_END
    }


def print_record(record: dict) -> None:
    """Every end-to-end metric with its unit and spread, then the raw
    figures; layers if traced."""
    print(f"{record['workload']}  seed {record['seed']}  "
          f"{record['attempted']} attempted, {record['failed']} failed")
    rows = [(name, unit, record["metrics"].get(name), "") for name, unit in END_TO_END]
    rows += [(name, unit, record["raw"].get(name), "  raw, not gated")
             for name, unit in RAW]
    for name, unit, entry, note in rows:
        if entry is None:
            print(f"  {name:<26} {'-':>14} {unit}{note}")
            continue
        print(f"  {name:<26} {entry['value']:>14.6g} {unit}"
              f"  (q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}, n={entry['n']}){note}")
    if record["trace"]:
        for name, entry in reported(record).items():
            print(f"  {name:<26} {entry['value']:>14.6g} {entry['unit']}")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")


def host_record() -> dict:
    """Host, interpreter and revision stamped into ``--out`` files."""
    try:
        sys.path.insert(0, str(REPO))
        from benchmarks.common import host_metadata

        host = host_metadata()
    except (ImportError, AttributeError):  # the shared harness moved
        host = {"hostname": platform.node(), "logical_cores": os.cpu_count()}
    finally:
        sys.path.remove(str(REPO))
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    return {
        "host": host,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_rev": rev,
    }


def write_out(path: str, records: list) -> None:
    payload = dict(host_record(), benchmark="flowbench", runs=[
        {k: v for k, v in r.items() if k != "spans"} for r in records
    ])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    traced = [r for r in records if r.get("spans")]
    if traced:
        with open(path + ".spans.jsonl", "w", encoding="utf-8") as fh:
            for r in traced:
                for i, (name, start, end, parent, attrs) in enumerate(r["spans"]):
                    fh.write(json.dumps({
                        "workload": r["workload"], "seed": r["seed"], "span": i,
                        "name": name, "start": start, "end": end,
                        "parent": parent, "attrs": attrs,
                    }) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="flowbench: end-to-end placement benchmark (see README.md)"
    )
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=0,
                        help="sets the order in which a run places its inputs")
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="measured time per workload (default 45)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1 = add a traced pass, report layers")
    parser.add_argument("--out", help="write the full record here")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"flowbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Exit through the finally blocks, which stop the running subprocess.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = WORK_ROOT / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        records = [
            run_workload(name, args.seed, args.seconds, bool(args.trace), workdir)
            for name in names
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    for record in records:
        print_record(record)
    if args.out:
        write_out(args.out, records)
    failed = sum(r["failed"] for r in records)
    attempted = sum(r["attempted"] for r in records)
    if len(records) == 1:
        metrics = reported(records[0])
    else:
        metrics = {
            f"{r['workload']}.{name}": entry
            for r in records for name, entry in reported(r).items()
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
