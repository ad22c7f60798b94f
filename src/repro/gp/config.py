"""Configuration of the global placer."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class GPConfig:
    """All knobs of :class:`repro.gp.GlobalPlacer`.

    Defaults reproduce the paper's flow: WA wirelength, routability
    machinery on, hierarchy-aware clustering on for large designs.  The
    penalty, step and inflation schedule constants live beside their
    reader in :mod:`repro.gp.placer`.
    """

    # Wirelength model: "wa" (paper) or "lse" (baseline for Table 4).
    wirelength_model: str = "wa"

    # Density target per bin; None: average utilization.
    target_density: float | None = None

    # Penalty schedule.
    max_outer_iterations: int = 40
    inner_iterations: int = 24
    overflow_target: float = 0.06  # stop when density overflow falls below

    # Routability.
    routability: bool = True
    # "rudy" (no routing), "router" (look-ahead route every round), or
    # "hybrid" (learned predictor + periodic router, repro.predict).
    congestion_estimator: str = "rudy"
    # Hybrid estimator: model artifact path (None = packaged default),
    # real-router cadence, and the mean |predicted - routed| drift over
    # hot tiles beyond which the loop falls back to the router.  The
    # tolerance sits well above a healthy model's hot-tile error
    # (~0.3-0.5) — it catches gross breakdown (stale artifact,
    # out-of-distribution design), not routine prediction noise.
    predict_model: str | None = None
    predict_router_interval: int = 4
    predict_drift_tol: float = 0.75
    # Whitespace reservation: scale each density bin's target by its
    # relative routing supply, so starved regions attract fewer cells.
    whitespace_reservation: bool = True

    # Mixed-size.
    optimize_orientations: bool = True
    # Treat movable macros as fixed obstacles (the cell-only GP phase run
    # after mid-flow macro legalization).
    freeze_macros: bool = False

    # Clustering (multilevel V-cycle).
    clustering: bool = True
    cluster_min_nodes: int = 3000  # skip clustering below this size
    cluster_max_levels: int = 2  # how deep the V-cycle may recurse

    # Misc.
    seed: int = 7
