"""repro — routability-driven placement for hierarchical mixed-size designs.

A from-scratch reproduction of the DAC 2013 NTUplace4h paper: analytical
global placement with the weighted-average wirelength model, bell-shaped
density, congestion-driven cell inflation, fence-region (hierarchy)
constraints and mixed-size macro handling — plus every substrate the
evaluation needs (Bookshelf I/O, a global router for congestion scoring,
synthetic benchmark generation and baseline placers).

Quickstart::

    from repro import NTUplace4H, make_suite_design

    design = make_suite_design("rh02")
    result = NTUplace4H().run(design)
    print(result.as_row())
"""

from repro.db import Design, Net, Node, NodeKind, Pin, Region, Row
from repro.geometry import Orientation, Point, Rect
from repro.benchgen import BenchmarkSpec, make_benchmark, make_suite_design
from repro.flow import FlowConfig, FlowResult, NTUplace4H, wirelength_driven_flow
from repro.gp import GlobalPlacer, GPConfig
from repro.legal import Legalizer, check_legal
from repro.dp import DetailedPlacer, DPConfig
from repro.route import (
    GlobalRouter,
    RoutingSpec,
    congestion_metrics,
    scaled_hpwl,
)
from repro.io import read_bookshelf, write_bookshelf
from repro.baselines import QuadraticPlacer, run_baseline_flow
from repro.obs import (
    MetricsRegistry,
    Tracer,
    format_trace_summary,
    get_tracer,
    use_tracer,
    write_jsonl,
)

__version__ = "1.0.0"

__all__ = [
    "BenchmarkSpec",
    "DPConfig",
    "Design",
    "DetailedPlacer",
    "FlowConfig",
    "FlowResult",
    "GPConfig",
    "GlobalPlacer",
    "GlobalRouter",
    "Legalizer",
    "MetricsRegistry",
    "NTUplace4H",
    "Net",
    "Node",
    "NodeKind",
    "Orientation",
    "Pin",
    "Point",
    "QuadraticPlacer",
    "Rect",
    "Region",
    "Row",
    "RoutingSpec",
    "Tracer",
    "check_legal",
    "congestion_metrics",
    "format_trace_summary",
    "get_tracer",
    "make_benchmark",
    "make_suite_design",
    "read_bookshelf",
    "run_baseline_flow",
    "scaled_hpwl",
    "use_tracer",
    "wirelength_driven_flow",
    "write_bookshelf",
    "write_jsonl",
]
