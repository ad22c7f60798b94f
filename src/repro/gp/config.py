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
    # Hybrid estimator: model artifact path (None = packaged default).
    # Its real-router cadence and drift tolerance are the defaults of
    # :class:`repro.gp.CongestionInflator`.
    predict_model: str | None = None
    # Whitespace reservation: scale each density bin's target by its
    # relative routing supply, so starved regions attract fewer cells.
    whitespace_reservation: bool = True

    # Mixed-size.
    optimize_orientations: bool = True

    # Clustering (multilevel V-cycle) on designs large enough for it.
    clustering: bool = True

    # Misc.
    seed: int = 7
