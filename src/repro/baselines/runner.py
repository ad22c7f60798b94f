"""Run a baseline global placer as the GP stage of the main flow.

A baseline flow is :class:`~repro.flow.NTUplace4H` with the baseline
in its global-placement stage, so every placer gets the main flow's
validation, macro and fence-aware legalization (with the Tetris
fallback), detailed placement, router scoring (with the RUDY fallback),
fault points, spans and run records.  Comparisons then isolate the
global-placement algorithm.
"""

from __future__ import annotations

from repro.baselines.quadratic import QuadraticPlacer
from repro.baselines.random_place import random_placement
from repro.db import Design
from repro.flow import FlowConfig, FlowResult, NTUplace4H
from repro.gp import GPReport
from repro.gp.fence import project_into_fences
from repro.legal import legalize_macros

#: Baseline name -> placer(design, seed).
_PLACERS = {
    "quadratic": lambda design, seed: QuadraticPlacer().place(design),
    "random": lambda design, seed: random_placement(design, seed=seed),
}


class _BaselineFlow(NTUplace4H):
    """The main flow with a baseline placer as its GP stage."""

    def __init__(self, kind: str, config: FlowConfig, seed: int):
        super().__init__(config)
        self.name = kind
        self.seed = seed

    def _global_place(self, design: Design, watchdog) -> GPReport:
        _PLACERS[self.name](design, self.seed)
        project_into_fences(design)
        return GPReport()

    def _macro_legal_refine(self, design: Design) -> None:
        # Net weighting and the cell-only refine GP are NTUplace4h's own
        # algorithm; a baseline only gets its macros legalized.
        legalize_macros(design, channel=self.config.macro_channel)


def run_baseline_flow(
    design: Design,
    kind: str = "quadratic",
    *,
    config: FlowConfig | None = None,
    route: bool = True,
    seed: int = 0,
) -> FlowResult:
    """Place ``design`` with the named baseline and score it.

    ``kind``: ``"quadratic"`` or ``"random"``.  ``config`` sets every
    stage after GP; it defaults to :meth:`FlowConfig.wirelength_only`.
    """
    if kind not in _PLACERS:
        raise ValueError(f"unknown baseline {kind!r}")
    flow = _BaselineFlow(kind, config or FlowConfig.wirelength_only(), seed)
    return flow.run(design, route=route)
