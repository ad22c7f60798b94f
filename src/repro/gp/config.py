"""Configuration of the global placer."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class GPConfig:
    """All knobs of :class:`repro.gp.GlobalPlacer`.

    Defaults reproduce the paper's flow: WA wirelength, routability
    machinery on, hierarchy-aware clustering on for large designs.  The
    penalty, step, inflation and phase schedule constants live beside
    their reader in :mod:`repro.gp.placer`.
    """

    # Wirelength model: "wa" (paper) or "lse" (baseline for Table 4).
    wirelength_model: str = "wa"

    # Penalty schedule: the outer-iteration budget every phase (coarse
    # levels, flat level, post-macro refine) takes its share of.
    max_outer_iterations: int = 40
    inner_iterations: int = 24

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

    # Clustering (multilevel V-cycle) on designs large enough for it.
    clustering: bool = True

    # Misc.
    seed: int = 7
