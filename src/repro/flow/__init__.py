"""End-to-end placement flows.

``NTUplace4H`` is the paper's flow: hierarchy-aware routability-driven
global placement, mid-flow macro legalization, cell-only refinement,
fence-aware legalization, congestion-gated detailed placement, and
router-based scoring.  ``wirelength_driven_flow`` is the same engine with
every routability lever off — the paper's own primary baseline.
"""

from repro.flow.config import FlowConfig, config_from_overrides, parse_stage_budget
from repro.flow.ntuplace4h import FlowResult, NTUplace4H, wirelength_driven_flow

__all__ = [
    "FlowConfig",
    "FlowResult",
    "NTUplace4H",
    "config_from_overrides",
    "parse_stage_budget",
    "wirelength_driven_flow",
]
