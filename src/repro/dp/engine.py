"""The detailed-placement engine: pass scheduling and congestion gating."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from repro.dp.hpwl_delta import IncrementalHPWL
from repro.dp.matching import matching_pass
from repro.dp.reorder import local_reorder_pass
from repro.dp.spreading import congestion_spread_pass
from repro.dp.swap import global_swap_pass, vertical_swap_pass
from repro.obs import get_tracer
from repro.route.rudy import rudy_congestion

# The congestion gate rejects a move whose destination tile's estimated
# congestion exceeds this (and the source tile's by a margin).
CONGESTION_GATE_THRESHOLD = 0.9
# The rounds stop once one gains less than this fraction of the
# starting HPWL.
MIN_GAIN_PER_ROUND = 1e-6


@dataclass
class DPConfig:
    """Knobs of :class:`DetailedPlacer`."""

    rounds: int = 2
    # Congestion awareness (requires design.routing): moves into tiles
    # whose estimated congestion exceeds CONGESTION_GATE_THRESHOLD are
    # rejected, and after the wirelength passes cells are evacuated from
    # hot tiles into cool whitespace (congestion_spread_pass).
    congestion_aware: bool = True


@dataclass
class DPReport:
    """Outcome of detailed placement."""

    hpwl_before: float = 0.0
    hpwl_after: float = 0.0
    passes: list = field(default_factory=list)  # (name, accepted, gain)
    runtime_seconds: float = 0.0
    budget_exhausted: bool = False  # stage watchdog expired between rounds
    # The books disagree: the pass gains do not add up to the HPWL
    # change, or the incremental total is not the from-scratch HPWL.
    hpwl_mismatch: bool = False

    @property
    def improvement(self) -> float:
        if self.hpwl_before <= 0:
            return 0.0
        return (self.hpwl_before - self.hpwl_after) / self.hpwl_before

    @property
    def telemetry(self) -> dict:
        """Column-oriented per-pass series (HPWL deltas + accept counts)."""
        return {
            "pass": [p[0] for p in self.passes],
            "accepted": [p[1] for p in self.passes],
            "hpwl_delta": [-p[2] for p in self.passes],  # negative = improved
        }


class DetailedPlacer:
    """Runs swap / reorder / matching rounds on a legalized design."""

    def __init__(self, config: DPConfig | None = None):
        self.config = config or DPConfig()

    def run(self, design, submap, *, watchdog=None) -> DPReport:
        """Improve ``design`` in place; ``watchdog`` (optional
        :class:`repro.resilience.StageWatchdog`) stops cleanly between
        rounds when the stage budget runs out."""
        cfg = self.config
        tracer = get_tracer()
        t0 = time.perf_counter()
        report = DPReport(hpwl_before=design.hpwl())
        inc = IncrementalHPWL(design)
        gate = self._make_gate(design) if cfg.congestion_aware else None
        pass_t0 = time.perf_counter()

        def note(name: str, accepted: int, gain: float) -> float:
            nonlocal pass_t0
            step = len(report.passes)
            report.passes.append((name, accepted, gain))
            tracer.metrics.record("dp.hpwl_delta", step, -gain)
            tracer.metrics.record("dp.accepted", step, accepted)
            now = time.perf_counter()
            tracer.metrics.record("dp.pass_seconds", step, now - pass_t0)
            pass_t0 = now
            return gain

        for rnd in range(cfg.rounds):
            if watchdog is not None and watchdog.expired():
                report.budget_exhausted = True
                tracer.event("watchdog.expired", round=rnd, **watchdog.describe())
                break
            with tracer.span(f"round[{rnd}]"):
                round_gain = 0.0
                with tracer.span("global_swap"):
                    acc, gain = global_swap_pass(design, inc, gate=gate)
                round_gain += note("global_swap", acc, gain)
                with tracer.span("vertical_swap"):
                    acc, gain = vertical_swap_pass(design, inc, gate=gate)
                round_gain += note("vertical_swap", acc, gain)
                # Swap passes move cells between rows; refresh membership.
                with tracer.span("local_reorder"):
                    submap.rebuild_cells(design)
                    acc, gain = local_reorder_pass(design, inc, submap)
                round_gain += note("local_reorder", acc, gain)
                with tracer.span("matching"):
                    acc, gain = matching_pass(design, inc, gate=gate)
                round_gain += note("matching", acc, gain)
            if round_gain < MIN_GAIN_PER_ROUND * max(report.hpwl_before, 1.0):
                break
        if (
            cfg.congestion_aware
            and design.routing is not None
            and not report.budget_exhausted
        ):
            with tracer.span("congestion_spread"):
                moves, delta = congestion_spread_pass(design, submap, inc)
            note("congestion_spread", moves, -delta)
        report.hpwl_after = design.hpwl()
        claimed = report.hpwl_before - sum(p[2] for p in report.passes)
        report.hpwl_mismatch = not (
            math.isclose(claimed, report.hpwl_after, rel_tol=1e-9)
            and math.isclose(inc.total(), report.hpwl_after, rel_tol=1e-9)
        )
        report.runtime_seconds = time.perf_counter() - t0
        return report

    def _make_gate(self, design):
        """Reject moves whose destination tile is congested (estimated)."""
        if design.routing is None:
            return None
        grid = design.routing.grid
        cong = rudy_congestion(design)
        threshold = CONGESTION_GATE_THRESHOLD
        # Scalar tile lookup: identical arithmetic to BinGrid.index_of
        # (floor + clamp on the same float64 expressions) without the
        # per-move ndarray round trips of the original gate (a golden
        # twin under tests/reference/).
        xl0 = grid.area.xl
        yl0 = grid.area.yl
        bw = grid.bin_w
        bh = grid.bin_h
        nx_hi = grid.nx - 1
        ny_hi = grid.ny - 1
        floor = math.floor
        nodes = design.nodes
        cong_list = cong.tolist()

        def gate(moves) -> bool:
            for idx, nx, ny in moves:
                node = nodes[idx]
                sx = min(max(floor((node.cx - xl0) / bw), 0), nx_hi)
                sy = min(max(floor((node.cy - yl0) / bh), 0), ny_hi)
                dx = min(max(floor((nx - xl0) / bw), 0), nx_hi)
                dy = min(max(floor((ny - yl0) / bh), 0), ny_hi)
                dest = cong_list[dx][dy]
                if dest > threshold and dest > cong_list[sx][sy] + 0.05:
                    return False
            return True

        return gate
