"""Baseline placers the evaluation compares against.

* :class:`QuadraticPlacer` — a SimPL-lineage quadratic placer: bound-to-
  bound net model solved as a sparse linear system, interleaved with
  grid-warping spreading and anchor pseudo-nets.  Represents the
  force-directed/quadratic school the contest entries came from.
* :func:`random_placement` — the sanity floor: uniform random positions.
* The *wirelength-driven* baseline (the paper's primary comparison) is
  the main flow with routability disabled —
  :func:`repro.flow.wirelength_driven_flow`.

:func:`run_baseline_flow` runs either baseline as the global-placement
stage of :class:`~repro.flow.NTUplace4H`: every later stage, fallback,
fault point and run record is the main flow's, so comparisons isolate
the global-placement algorithm.
"""

from repro.baselines.quadratic import QuadraticPlacer, QuadraticConfig
from repro.baselines.random_place import random_placement
from repro.baselines.runner import run_baseline_flow

__all__ = [
    "QuadraticConfig",
    "QuadraticPlacer",
    "random_placement",
    "run_baseline_flow",
]
