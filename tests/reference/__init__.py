"""Golden twins: the original implementations of the optimized kernels.

Every hot kernel in ``src/`` (CG, objective assembly, WA/LSE, bell
density, pin table, rasterization, orientation, inflation RUDY, Tetris,
Abacus, legality audit, incremental HPWL, slot index, congestion gate
and spreading, net decomposition, L-route build, offender scan, rip-up
and maze A*) was first written as a straightforward loop.  Those
originals live here, bodies unchanged, as in-process oracles: the
optimized code must reproduce them bit for bit.  The assignment twin is
SciPy's solver, which the in-repo port must reproduce the same way.

Kernel tests call a twin directly.  Stage tests, on small and on suite
designs, run a whole stage on the twins through :func:`use_reference`,
which swaps each twin in for the name its stage looks up, restores the
originals on exit, and counts calls per twin::

    with use_reference() as calls:
        GlobalPlacer(GPConfig()).place(design)
    assert all(calls[twin] for twin in GP_TWINS)

The assertion keeps the comparison honest: if a refactor stops looking
up a swapped name, its twin never runs and the stage test fails instead
of comparing the optimized path with itself.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from contextlib import contextmanager

from . import dp, gp, legal, route

#: (twin, module, attribute path, replacement).  The attribute path is
#: the name the stage looks up: a module global, or a class attribute.
#: A replacement for a static method, or wrapped in ``staticmethod``,
#: is installed static; any other function binds ``self``.
SWAPS = (
    ("cg", "repro.gp.placer", "minimize_cg", gp.minimize_cg_reference),
    ("objective", "repro.gp.placer", "_objective", gp.objective_reference),
    ("wirelength", "repro.gp.placer", "make_model", gp.make_model_reference),
    ("density", "repro.gp.placer", "BellDensity", gp.ReferenceBellDensity),
    ("pin_arrays", "repro.db.design", "Design.pin_arrays", gp.pin_arrays_reference),
    ("rasterize", "repro.grids.bins", "BinGrid.rasterize_rects",
     gp.rasterize_rects_reference),
    ("orientation", "repro.gp.orient", "_best_orientation", gp.best_orientation),
    ("inflation_rudy", "repro.gp.inflation", "CongestionInflator._rudy_map",
     gp.inflator_rudy_map_reference),
    ("tetris", "repro.legal.tetris", "_assign", legal._assign_reference),
    ("abacus", "repro.legal.legalizer", "abacus_refine", legal._refine_reference),
    ("legal_check", "repro.legal.legalizer", "check_legal",
     legal._check_legal_reference),
    ("incremental_hpwl", "repro.dp.engine", "IncrementalHPWL",
     dp.ReferenceIncrementalHPWL),
    ("slot_index", "repro.dp.swap", "_SlotIndex", dp.ReferenceSlotIndex),
    ("assignment", "repro.dp.matching", "linear_sum_assignment",
     dp.linear_sum_assignment_reference),
    ("dp_gate", "repro.dp.engine", "DetailedPlacer._make_gate",
     dp.make_gate_reference),
    ("spread", "repro.dp.spreading", "_spread", dp._spread_reference),
    ("decompose", "repro.route.router", "GlobalRouter._segments",
     route._segments_for_reference),
    ("l_routes", "repro.route.router", "GlobalRouter._build_l_routes",
     route.build_l_routes_reference),
    ("offenders", "repro.route.router", "GlobalRouter._offending_segments",
     staticmethod(route._offending_segments_reference)),
    ("reroute", "repro.route.router", "GlobalRouter._reroute_offenders",
     route.reroute_offenders_reference),
    ("maze", "repro.route.router", "maze_route", route.maze_route_reference),
)

#: The twins each stage runs; its stage tests assert every one ran.
#: Written out rather than read off SWAPS, so a swap dropped from the
#: table fails those tests.
GP_TWINS = (
    "cg", "objective", "wirelength", "density", "pin_arrays", "rasterize",
    "orientation", "inflation_rudy",
)
LEGAL_DP_TWINS = (
    "tetris", "abacus", "legal_check", "incremental_hpwl", "slot_index",
    "assignment", "dp_gate", "spread",
)
ROUTE_TWINS = ("decompose", "l_routes", "offenders", "reroute", "maze")


def _counted(twin, label: str, calls: Counter):
    @functools.wraps(twin, updated=())
    def run(*args, **kwargs):
        calls[label] += 1
        return twin(*args, **kwargs)

    return run


@contextmanager
def use_reference():
    """Run every stage on its golden twins; yields per-twin call counts."""
    calls: Counter = Counter()
    undo = []
    try:
        for label, module, path, twin in SWAPS:
            owner = importlib.import_module(module)
            *parents, name = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = vars(owner)[name]
            static = isinstance(twin, staticmethod)
            run = _counted(twin.__func__ if static else twin, label, calls)
            if static or isinstance(original, staticmethod):
                run = staticmethod(run)
            setattr(owner, name, run)
            undo.append((owner, name, original))
        yield calls
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)
