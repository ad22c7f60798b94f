"""Contest-style congestion metrics.

The DAC/ICCAD 2012 routability contests scored a placement by routing it
with a global router and computing **ACE** — the Average Congestion of the
top x% most-congested edges — at several x, combining them into the **RC**
(routing congestion) score, and penalizing HPWL by the amount RC exceeds
100%:

    scaledHPWL = HPWL * (1 + penalty * max(0, RC - 1))

with ``penalty`` 0.03 per percentage point in the contest (0.03 * 100 *
(RC - 1) here since RC is kept as a ratio).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ACE_LEVELS = (0.005, 0.01, 0.02, 0.05)
SCALED_HPWL_PENALTY = 0.03  # per percent of RC over 100%


def ace(congestion: np.ndarray, fraction: float) -> float:
    """Average congestion of the top ``fraction`` of edges.

    ``congestion`` is usage/capacity per edge; infinite entries (usage on
    zero-capacity edges) are clipped to a large finite value so a single
    blocked edge cannot dominate the average unboundedly.
    """
    if congestion.size == 0:
        return 0.0
    c = np.minimum(np.nan_to_num(congestion, posinf=10.0), 10.0)
    k = max(1, int(np.ceil(fraction * c.size)))
    top = np.partition(c, c.size - k)[c.size - k :]
    return float(top.mean())


def scaled_hpwl(hpwl: float, rc: float, penalty: float = SCALED_HPWL_PENALTY) -> float:
    """HPWL scaled by the congestion penalty (the contest objective)."""
    over_percent = max(0.0, (rc - 1.0) * 100.0)
    return hpwl * (1.0 + penalty * over_percent)


@dataclass
class CongestionMetrics:
    """Everything the result tables report about one routed placement."""

    total_overflow: float
    max_overflow: float
    routed_wirelength: float
    ace_levels: dict = field(default_factory=dict)
    rc: float = 0.0
    peak_congestion: float = 0.0
    vias: int = 0  # direction changes + pin-access vias over all routes

    def as_row(self) -> dict:
        row = {
            "overflow": round(self.total_overflow, 1),
            "max_ov": round(self.max_overflow, 2),
            "routed_wl": round(self.routed_wirelength, 1),
            "vias": self.vias,
            "RC": round(self.rc, 4),
            "peak": round(self.peak_congestion, 3),
        }
        for frac, value in sorted(self.ace_levels.items()):
            row[f"ACE{frac * 100:g}%"] = round(value, 4)
        return row


def congestion_metrics(graph) -> CongestionMetrics:
    """Compute :class:`CongestionMetrics` from a routed :class:`GridGraph`."""
    congestion = graph.edge_congestion()
    levels = {f: ace(congestion, f) for f in ACE_LEVELS}
    peak = float(np.minimum(np.nan_to_num(congestion, posinf=10.0), 10.0).max()) if congestion.size else 0.0
    return CongestionMetrics(
        total_overflow=graph.total_overflow(),
        max_overflow=graph.max_overflow(),
        routed_wirelength=graph.wirelength(),
        ace_levels=levels,
        rc=float(np.mean(list(levels.values()))) if levels else 0.0,
        peak_congestion=peak,
    )
