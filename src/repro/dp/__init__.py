"""Detailed placement: legality-preserving local refinement.

Standard passes from the NTUplace lineage, each gated so congestion does
not regress when the flow runs routability-aware:

* **global swap** — exchange same-width cells across the die when that
  reduces HPWL;
* **vertical swap** — a restricted global swap between adjacent rows;
* **local reordering** — optimal permutation of small windows of
  consecutive cells within a sub-row;
* **independent-set matching** — assignment of equal-width cells to
  each other's slots, solved exactly per batch
  (:func:`repro.optim.linear_sum_assignment`).

All passes operate on the legalized placement and keep it legal: moves
only exchange occupied slots of equal footprint or repack within one
sub-row span.
"""

from repro.dp.engine import DetailedPlacer, DPConfig, DPReport
from repro.dp.swap import global_swap_pass, vertical_swap_pass
from repro.dp.reorder import local_reorder_pass
from repro.dp.matching import matching_pass
from repro.dp.hpwl_delta import IncrementalHPWL
from repro.dp.spreading import congestion_spread_pass

__all__ = [
    "DPConfig",
    "DPReport",
    "DetailedPlacer",
    "IncrementalHPWL",
    "congestion_spread_pass",
    "global_swap_pass",
    "local_reorder_pass",
    "matching_pass",
    "vertical_swap_pass",
]
