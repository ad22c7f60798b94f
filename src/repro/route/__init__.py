"""Global-routing substrate used both *during* placement (congestion
estimation, cell inflation) and *after* placement (the evaluation router
that produces the contest congestion metrics).

The model is the standard global-routing abstraction: the die is tiled
into a uniform grid; each tile boundary is an edge with a track capacity;
nets are decomposed into two-pin connections routed tile-to-tile.  The
router runs congestion-aware pattern routing (L then Z) with a maze
(A*) fallback inside negotiation-style rip-up-and-reroute rounds.
"""

from repro.route.spec import LayerSpec, RoutingSpec
from repro.route.graph import GridGraph
from repro.route.rudy import pin_density_map, rudy_congestion_metrics, rudy_map
from repro.route.steiner import decompose_net, manhattan_mst
from repro.route.router import GlobalRouter, RouteResult, RouteTimeout
from repro.route.metrics import (
    ace,
    congestion_metrics,
    CongestionMetrics,
    scaled_hpwl,
)

__all__ = [
    "CongestionMetrics",
    "GlobalRouter",
    "GridGraph",
    "LayerSpec",
    "RouteResult",
    "RouteTimeout",
    "RoutingSpec",
    "ace",
    "congestion_metrics",
    "decompose_net",
    "manhattan_mst",
    "pin_density_map",
    "rudy_congestion_metrics",
    "rudy_map",
    "scaled_hpwl",
]
