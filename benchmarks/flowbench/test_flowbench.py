"""Tests of the benchmark itself: ``python -m pytest benchmarks/flowbench -q``."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
for path in (str(HERE), str(REPO / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def test_metric_names_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]
    ] == list(layers.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert set(layers.STAGE_METRICS.values()) <= {m["name"] for m in SPEC["per_layer"]}


def _signature(design):
    """Everything about a design except the order of its lists."""
    nodes = {
        n.name: (n.width, n.height, n.kind, n.x, n.y, n.region, n.module)
        for n in design.nodes
    }
    nets = {
        net.name: (
            net.weight,
            sorted((design.nodes[p.node].name, p.dx, p.dy) for p in net.pins),
        )
        for net in design.nets
    }
    fences = {
        m.name: m.region for m in design.hierarchy.modules() if m.region is not None
    }
    regions = [(r.name, r.rects) for r in design.regions]
    routing = (design.routing.hcap.tobytes(), design.routing.vcap.tobytes())
    return nodes, nets, fences, regions, design.rows, routing


def test_key_zero_is_the_suite_design_and_keys_relabel_it():
    from repro.benchgen import SUITE, make_benchmark

    w = workloads.WORKLOADS["flow-rh03"]  # rh03 has fences
    orders = [workloads.run_order(seed, w) for seed in range(10)]
    assert all(sorted(order) == list(range(w.inputs)) for order in orders)
    assert len({tuple(order) for order in orders}) > 1
    assert workloads.run_order(3, w) == orders[3]
    ref = make_benchmark(SUITE["rh03"])
    zero, _ = workloads.make_design("rh03", 0)
    one, _ = workloads.make_design("rh03", w.inputs - 1)
    order = lambda d: ([n.name for n in d.nodes], [net.name for net in d.nets])  # noqa: E731
    assert order(zero) == order(ref)
    assert _signature(zero) == _signature(ref)
    assert order(one) != order(ref)
    assert _signature(one) == _signature(ref)
    assert order(workloads.make_design("rh03", w.inputs - 1)[0]) == order(one)


def _spans_consistent(spans):
    own = layers.self_times(spans)
    for (name, start, end, parent, _attrs), self_s in zip(spans, own):
        assert -1e-9 <= self_s <= end - start + 1e-12, name
        if parent is not None:
            assert spans[parent][1] <= start and end <= spans[parent][2]


def test_traced_flow_restores_every_wrapper():
    from repro.flow import NTUplace4H

    originals = {}
    for module, path, *_ in layers.TARGETS:
        owner, attr = layers._owner(module, path)
        if owner is not None:
            originals[(module, path)] = vars(owner)[attr]
    assert len(originals) == len(layers.TARGETS)
    design, _ = workloads.make_design("tiny", 0)
    recorder = layers.SpanRecorder()
    with layers.installed(recorder):
        for (module, path), original in originals.items():
            owner, attr = layers._owner(module, path)
            assert vars(owner)[attr] is not original
        NTUplace4H().run(design)
    for (module, path), original in originals.items():
        owner, attr = layers._owner(module, path)
        assert vars(owner)[attr] is original, path
    names = {span[0] for span in recorder.spans}
    assert {"flow.run", "gp.place", "optim.cg", "density.value_probe",
            "wirelength.finish_grad", "dp.run", "route.route"} <= names
    _spans_consistent(recorder.spans)


def test_compare_verdicts():
    v = compare.verdict
    steady = [10.0, 10.1, 9.9, 10.05, 9.95] * 2
    assert v(steady, [x * 1.2 for x in steady], 0.1, "lower")[0] == "worse"
    assert v(steady, [x * 1.02 for x in steady], 0.1, "lower")[0] == "unchanged"
    assert v(steady, [x * 0.9 for x in steady], 0.1, "lower")[0] == "improved"
    assert v(steady, [x * 0.9 for x in steady], 0.1, "higher")[0] == "unchanged"
    assert v([4.0] * 3, [3.0] * 3, 0.15, "higher")[0] == "worse"
    assert v(steady[:5], [x * 0.9 for x in steady[:5]], 0.1, "lower")[0] == "unchanged"
    noisy = [8.0, 12.0, 10.0, 9.0, 11.0] * 2
    assert v(noisy, [9.0, 13.0, 10.5, 8.0, 12.0] * 2, 0.1, "lower")[0] == "unresolved"
    assert v(noisy, [5.0, 6.0, 7.0, 6.5, 5.5] * 2, 0.1, "lower")[0] == "improved"
    assert v(noisy, [15.0, 16.0, 17.0], 0.1, "lower")[0] == "worse"
    # Deterministic metrics: any move past the bound counts.
    assert v([100.0] * 2, [103.0] * 2, 0.02, "lower") == ("worse", 0.03)


def _record(path, walls):
    runs = [
        {"workload": w, "seed": i, "trace": False,
         "metrics": {"ref_cpu_s": {"value": wall}, "rc": {"value": 0.9}}}
        for i, wall in enumerate(walls) for w in ("flow-a", "flow-b")
    ]
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_compare_reports_each_workload_and_exits_on_worse(tmp_path, capsys):
    base = _record(tmp_path / "base.json", [6.0, 6.1, 5.9])
    same = _record(tmp_path / "same.json", [6.05, 5.95, 6.0])
    slow = _record(tmp_path / "slow.json", [8.0, 8.1, 7.9])
    assert compare.main([base, "--", same]) == 0
    out = capsys.readouterr().out
    assert out.count("flow-a") == 1 and out.count("flow-b") == 1
    assert compare.main([base, "--", slow]) == 1
    assert "worse" in capsys.readouterr().out


def test_tiny_flow_goes_through_the_runner(tmp_path):
    runner = run.Runner(tmp_path, 120.0)
    smoke = workloads.Workload("smoke", "tiny", 2)
    out = run.run_flow_workload(runner, smoke, 0, 0.0, True)
    assert out["failed"] == 0, out["failures"]
    # One flow per input and the traced pass give every set-up sample.
    assert out["attempted"] == smoke.inputs + 1 == run.SETUP_SAMPLES
    assert sorted(s["input"] for s in out["samples"]) == [0, 1]
    assert set(out["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(entry["value"] > 0 for entry in out["metrics"].values())
    assert out["metrics"]["setup_s"]["n"] == run.SETUP_SAMPLES
    assert out["metrics"]["shpwl"]["n"] == out["metrics"]["ref_cpu_s"]["n"] == smoke.inputs
    assert set(out["layers"]) == {name for name, *_ in layers.PER_LAYER}
    assert out["layers"]["gp.outer_iters"] > 0
    _spans_consistent(out["spans"])
    record = dict(out, workload="smoke", seed=0, seconds=0.0, trace=True)
    assert list(run.reported(record)) == [name for name, *_ in layers.PER_LAYER]

