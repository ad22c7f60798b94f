"""Legalization: from an overlapping global placement to a legal one.

Order of operations (mixed-size, fence-aware):

1. :func:`legalize_macros` — movable macros get non-overlapping,
   row-aligned positions near their global-placement locations.
2. :class:`SubRowMap` — rows are fragmented around macro/fixed footprints
   and partitioned into fence domains.
3. :func:`tetris_legalize` — greedy row assignment of standard cells.
4. :func:`abacus_refine` — per-subrow dynamic-programming refinement
   (Abacus) minimizing total squared displacement.
5. :func:`check_legal` — independent legality audit used by tests and the
   flow.
"""

from repro.legal.subrows import SubRow, SubRowMap
from repro.legal.macro_legal import legalize_macros
from repro.legal.tetris import tetris_legalize
from repro.legal.abacus import abacus_refine
from repro.legal.check import LegalityReport, check_legal
from repro.legal.eco import EcoResult, eco_legalize
from repro.legal.legalizer import LegalConfig, Legalizer

__all__ = [
    "EcoResult",
    "LegalConfig",
    "Legalizer",
    "LegalityReport",
    "eco_legalize",
    "SubRow",
    "SubRowMap",
    "abacus_refine",
    "check_legal",
    "legalize_macros",
    "tetris_legalize",
]
