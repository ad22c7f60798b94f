"""The legalization stage orchestrator."""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.db import Design
from repro.legal.abacus import abacus_refine
from repro.legal.check import LegalityReport, check_legal
from repro.legal.macro_legal import legalize_macros
from repro.legal.subrows import SubRowMap
from repro.legal.tetris import tetris_legalize
from repro.obs import get_tracer


@dataclass
class LegalizeResult:
    """Outcome of :meth:`Legalizer.legalize`."""

    submap: SubRowMap
    macros_moved: int
    total_displacement: float
    max_displacement: float
    runtime_seconds: float
    report: LegalityReport

    @property
    def ok(self) -> bool:
        return self.report.ok


class Legalizer:
    """Macro legalization + Tetris + Abacus, with a legality audit.

    ``macro_channel`` is the clearance reserved around macros (the flow
    passes ``FlowConfig.macro_channel``).  ``tetris_only`` is the
    fallback mode: skip the Abacus refinement and accept the plain Tetris
    result.  The flow switches it on when a full legalization attempt
    fails, trading displacement quality for a placement that is still
    legal.
    """

    def __init__(self, *, macro_channel: float = 0.0, tetris_only: bool = False):
        self.macro_channel = macro_channel
        self.tetris_only = tetris_only

    def legalize(self, design: Design) -> LegalizeResult:
        tracer = get_tracer()
        t0 = time.perf_counter()
        desired = {
            n.index: (n.x, n.y) for n in design.nodes if n.is_movable
        }
        with tracer.span("macro_legal"):
            macros_moved = legalize_macros(design, channel=self.macro_channel)
        with tracer.span("tetris"):
            submap = SubRowMap(design)
            tetris_legalize(design, submap)
        if not self.tetris_only:
            with tracer.span("abacus"):
                abacus_refine(design, submap, {i: xy[0] for i, xy in desired.items()})
        total = 0.0
        worst = 0.0
        for node in design.nodes:
            if not node.is_movable:
                continue
            dx0, dy0 = desired[node.index]
            d = abs(node.x - dx0) + abs(node.y - dy0)
            total += d
            worst = max(worst, d)
        with tracer.span("audit"):
            report = check_legal(design)
        tracer.metrics.gauge("legal.total_displacement").set(total)
        tracer.metrics.gauge("legal.max_displacement").set(worst)
        return LegalizeResult(
            submap=submap,
            macros_moved=macros_moved,
            total_displacement=total,
            max_displacement=worst,
            runtime_seconds=time.perf_counter() - t0,
            report=report,
        )
