"""Per-layer attribution for flowbench, measured from outside the program.

:func:`installed` patches the public entry points of each layer
(``repro.gp``, ``optim``, ``density``, ``wirelength``, ``legal``, ``dp``,
``route``, plus the flow itself) with wrappers that record one span per
call: name, start, end, the enclosing wrapper span, and a few
attributes read off the call's return value.  Spans stay
in memory; :func:`rollup` turns them into the per-layer metrics named in
``BENCHMARK.json``.  Nothing under ``src/`` knows about this module.

A target whose module or attribute no longer exists is skipped, so the
benchmark keeps running (with that layer reading zero) after a change
deletes it.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from contextlib import contextmanager

#: Per-layer metrics, in report order: (name, unit, better).  ``*_s``
#: metrics are self times (a span's duration minus its child spans)
#: unless the README says otherwise.
PER_LAYER = (
    ("flow.gp_s", "s", "lower"),
    ("flow.refine_s", "s", "lower"),
    ("flow.legal_s", "s", "lower"),
    ("flow.dp_s", "s", "lower"),
    ("flow.route_s", "s", "lower"),
    ("gp.outer_iters", "count", "lower"),
    ("gp.refine_outer_iters", "count", "lower"),
    ("gp.coarse_outer_iters", "count", "lower"),
    ("gp.at_iter_cap", "bool", "lower"),
    ("gp.final_overflow", "ratio", "lower"),
    ("gp.coarse_s", "s", "lower"),
    ("gp.cluster_s", "s", "lower"),
    ("gp.self_s", "s", "lower"),
    ("gp.inflation_calls", "count", "lower"),
    ("gp.inflation_s", "s", "lower"),
    ("gp.fence_calls", "count", "lower"),
    ("gp.fence_s", "s", "lower"),
    ("optim.cg_calls", "count", "lower"),
    ("optim.cg_inner_iters", "count", "lower"),
    ("optim.cg_self_s", "s", "lower"),
    ("optim.cg_accept_ratio", "ratio", "higher"),
    ("density.probe_calls", "count", "lower"),
    ("density.probe_s", "s", "lower"),
    ("density.grad_calls", "count", "lower"),
    ("density.grad_s", "s", "lower"),
    ("wirelength.probe_calls", "count", "lower"),
    ("wirelength.probe_s", "s", "lower"),
    ("wirelength.grad_calls", "count", "lower"),
    ("wirelength.grad_s", "s", "lower"),
    ("legal.legalize_s", "s", "lower"),
    ("legal.macro_s", "s", "lower"),
    ("dp.run_s", "s", "lower"),
    ("dp.passes", "count", "lower"),
    ("dp.accepted_moves", "count", "higher"),
    ("dp.improvement", "ratio", "higher"),
    ("route.final_s", "s", "lower"),
    ("route.segments", "count", "lower"),
    ("route.maze_rerouted", "count", "lower"),
    ("route.rounds", "count", "lower"),
    ("benchgen.make_s", "s", "lower"),
    ("resilience.validate_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

#: FlowResult.stage_seconds key -> per-layer metric.
STAGE_METRICS = {
    "global_place": "flow.gp_s",
    "macro_legal_refine": "flow.refine_s",
    "legalize": "flow.legal_s",
    "detailed_place": "flow.dp_s",
    "route": "flow.route_s",
}

# Kernel layers whose entry points may call one another (a probe may run
# ``value_grad``): a call made while a span of the same layer is open is
# part of that span.
_FLAT_LAYERS = ("density", "wirelength")


def _gp_span_name(args) -> str:
    prefix = getattr(args[0], "metric_prefix", "gp")
    if "coarse" in prefix:
        return "gp.coarse"
    if prefix.endswith("refine"):
        return "gp.refine"
    return "gp.place"


def _gp_attrs(args, report) -> dict:
    return {
        "iters": len(report.iterations),
        "cap": args[0].config.max_outer_iterations,
        "overflow": float(report.final_overflow),
    }


def _dp_attrs(args, report) -> dict:
    return {
        "passes": len(report.passes),
        "accepted": sum(int(p[1]) for p in report.passes),
        "improvement": float(report.improvement),
    }


def _route_attrs(args, result) -> dict:
    return {
        "segments": int(result.num_segments),
        "maze": int(result.maze_rerouted),
        # overflow_per_round[0] is the initial commit; the rest are
        # rip-up-and-reroute rounds.
        "rounds": max(len(result.overflow_per_round) - 1, 0),
    }


#: (module, attribute path, span name or namer, attrs reader).
TARGETS = (
    ("repro.flow.ntuplace4h", "NTUplace4H.run", "flow.run", None),
    ("repro.flow.ntuplace4h", "validate_design", "resilience.validate", None),
    ("repro.flow.ntuplace4h", "legalize_macros", "legal.macro", None),
    ("repro.legal.legalizer", "legalize_macros", "legal.macro", None),
    ("repro.legal.legalizer", "Legalizer.legalize", "legal.legalize", None),
    ("repro.gp.placer", "GlobalPlacer.place", _gp_span_name, _gp_attrs),
    ("repro.gp.placer", "cluster_design", "gp.cluster", None),
    ("repro.gp.placer", "minimize_cg", "optim.cg",
     lambda args, r: {"iters": int(r.iterations)}),
    ("repro.gp.inflation", "CongestionInflator.update", "gp.inflation", None),
    ("repro.gp.fence", "FencePenalty.value_grad", "gp.fence", None),
    ("repro.gp.fence", "FencePenalty.value", "gp.fence", None),
    ("repro.density.bell", "BellDensity.value_probe", "density.value_probe", None),
    ("repro.density.bell", "BellDensity.finish_grad", "density.finish_grad", None),
    ("repro.density.bell", "BellDensity.value_grad", "density.value_grad", None),
    ("repro.density.bell", "BellDensity.value", "density.value", None),
    ("repro.wirelength.smooth", "SmoothWirelength.value_probe",
     "wirelength.value_probe", None),
    ("repro.wirelength.smooth", "SmoothWirelength.finish_grad",
     "wirelength.finish_grad", None),
    ("repro.wirelength.smooth", "SmoothWirelength.value_grad",
     "wirelength.value_grad", None),
    ("repro.wirelength.smooth", "SmoothWirelength.value", "wirelength.value", None),
    ("repro.dp.engine", "DetailedPlacer.run", "dp.run", _dp_attrs),
    ("repro.route.router", "GlobalRouter.route", "route.route", _route_attrs),
)


class SpanRecorder:
    """In-memory spans ``[name, start, end, parent, attrs]`` of wrapped calls.

    ``parent`` is the index of the innermost wrapper span open in the same
    thread when the call began (``None`` at top level).
    """

    def __init__(self):
        self.spans: list = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, attrs=None):
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span_name = name(args) if callable(name) else name
            layer = span_name.partition(".")[0]
            if (
                stack
                and layer in _FLAT_LAYERS
                and spans[stack[-1]][0].partition(".")[0] == layer
            ):
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            with self._lock:
                index = len(spans)
                spans.append([span_name, time.perf_counter(), None, parent, None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if attrs is not None:
                spans[index][4] = attrs(args, result)
            return result

        return wrapper


def _owner(module_name: str, path: str):
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if attr not in vars(owner):
        return None, None
    return owner, attr


@contextmanager
def installed(recorder: SpanRecorder):
    """Patch every available target for the duration of the block."""
    undo = []
    try:
        for module_name, path, name, attrs in TARGETS:
            owner, attr = _owner(module_name, path)
            if owner is None:
                continue
            original = vars(owner)[attr]
            if isinstance(original, (classmethod, staticmethod)):
                patched = type(original)(
                    recorder.wrap(original.__func__, name, attrs)
                )
            else:
                patched = recorder.wrap(original, name, attrs)
            setattr(owner, attr, patched)
            undo.append((owner, attr, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def self_times(spans: list) -> list:
    """Each span's duration minus the time its direct child spans cover."""
    covered = [0.0] * len(spans)
    for _name, start, end, parent, _attrs in spans:
        if parent is not None:
            covered[parent] += end - start
    return [
        (end - start) - covered[i]
        for i, (_name, start, end, _parent, _attrs) in enumerate(spans)
    ]


def _inside(spans: list, index: int, prefix: str) -> bool:
    """Whether an ancestor of span ``index`` has a name starting ``prefix``."""
    parent = spans[index][3]
    while parent is not None:
        if spans[parent][0].startswith(prefix):
            return True
        parent = spans[parent][3]
    return False


def rollup(spans: list) -> dict:
    """Per-layer metrics of one traced flow run (every PER_LAYER name).

    Metrics the spans cannot give (stage wall times, benchgen, tracing
    overhead) read 0 here; the caller fills them in.
    """
    own = self_times(spans)
    out = {name: 0.0 for name, *_ in PER_LAYER}
    calls: dict = {}
    for i, (name, start, end, _parent, attrs) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        attrs = attrs or {}
        if name in ("gp.place", "gp.refine", "gp.coarse"):
            out["gp.self_s"] += own[i]
        if name == "gp.place":
            out["gp.outer_iters"] += attrs.get("iters", 0)
            out["gp.at_iter_cap"] = float(attrs.get("iters", 0) >= attrs.get("cap", 1))
            out["gp.final_overflow"] = attrs.get("overflow", 0.0)
        elif name == "gp.refine":
            out["gp.refine_outer_iters"] += attrs.get("iters", 0)
        elif name == "gp.coarse":
            out["gp.coarse_outer_iters"] += attrs.get("iters", 0)
            if not _inside(spans, i, "gp.coarse"):
                out["gp.coarse_s"] += end - start
        elif name == "gp.cluster":
            out["gp.cluster_s"] += own[i]
            if not _inside(spans, i, "gp.coarse"):
                out["gp.coarse_s"] += end - start
        elif name == "gp.inflation":
            out["gp.inflation_s"] += own[i]
        elif name == "gp.fence":
            out["gp.fence_s"] += own[i]
        elif name == "optim.cg":
            out["optim.cg_inner_iters"] += attrs.get("iters", 0)
            out["optim.cg_self_s"] += own[i]
        elif name.startswith(("density.", "wirelength.")):
            layer, _, method = name.partition(".")
            kind = "probe" if method in ("value_probe", "value") else "grad"
            out[f"{layer}.{kind}_calls"] += 1
            out[f"{layer}.{kind}_s"] += own[i]
        elif name == "legal.legalize":
            out["legal.legalize_s"] += own[i]
        elif name == "legal.macro":
            out["legal.macro_s"] += own[i]
        elif name == "dp.run":
            out["dp.run_s"] += own[i]
            out["dp.passes"] += attrs.get("passes", 0)
            out["dp.accepted_moves"] += attrs.get("accepted", 0)
            out["dp.improvement"] = attrs.get("improvement", 0.0)
        elif name == "route.route" and not _inside(spans, i, "gp."):
            out["route.final_s"] += own[i]
            out["route.segments"] += attrs.get("segments", 0)
            out["route.maze_rerouted"] += attrs.get("maze", 0)
            out["route.rounds"] += attrs.get("rounds", 0)
        elif name == "resilience.validate":
            out["resilience.validate_s"] += own[i]
    out["gp.inflation_calls"] = calls.get("gp.inflation", 0)
    out["gp.fence_calls"] = calls.get("gp.fence", 0)
    out["optim.cg_calls"] = calls.get("optim.cg", 0)
    probes = calls.get("wirelength.value_probe", 0)
    if probes:
        out["optim.cg_accept_ratio"] = calls.get("wirelength.finish_grad", 0) / probes
    return out

