"""Congestion-driven cell inflation.

The paper's routability lever: cells sitting in congested tiles have
their *spreading* area (the area the density model uses — physical sizes
are untouched) multiplied by a factor growing with local congestion, so
the density penalty itself pushes logic out of routing hotspots and
reserves whitespace for wires.

Three congestion estimators feed the loop:

* ``"rudy"`` — RUDY wire demand plus a weighted pin-density term over
  the tile's routing supply; no routing, cheapest, the default.
* ``"router"`` — one pattern-only look-ahead route per round (the
  paper's look-ahead routing); most faithful, dominates GP wall time.
* ``"hybrid"`` — the learned predictor (:mod:`repro.predict`) answers
  every round, the real router only every ``router_interval``-th round
  plus a final check; measured drift between the two beyond
  ``drift_tol`` permanently falls the loop back to the router.
"""

from __future__ import annotations

import numpy as np

from repro.obs import get_tracer
from repro.resilience.faults import check_fault
from repro.route.rudy import pin_density_map, rudy_map

#: Metric namespace for the estimator counters/series below.
_METRIC = "gp.inflation"

#: The congestion estimators :class:`CongestionInflator` accepts.
ESTIMATORS = ("rudy", "router", "hybrid")


class CongestionInflator:
    """Maintains per-node inflated areas across placement iterations."""

    def __init__(
        self,
        design,
        *,
        exponent: float = 1.4,
        max_inflation: float = 2.5,
        total_max: float = 1.25,
        threshold: float = 0.8,
        pin_weight: float = 0.5,
        wire_width: float = 1.0,
        estimator: str = "rudy",
        predict_model: str | None = None,
        # Hybrid: the real-router cadence, and the mean |predicted -
        # routed| drift over hot tiles beyond which the loop falls back
        # to the router.  The tolerance sits well above a healthy
        # model's hot-tile error (~0.3-0.5): it catches gross breakdown
        # (stale artifact, out-of-distribution design), not noise.
        router_interval: int = 4,
        drift_tol: float = 0.75,
    ):
        if design.routing is None:
            raise ValueError("congestion inflation requires design.routing")
        if estimator not in ESTIMATORS:
            raise ValueError(f"unknown congestion estimator {estimator!r}")
        self.design = design
        self.spec = design.routing
        self.exponent = exponent
        self.max_inflation = max_inflation
        self.total_max = total_max
        self.threshold = threshold
        self.pin_weight = pin_weight
        self.wire_width = wire_width
        self.estimator = estimator
        self.predict_model = predict_model
        self.router_interval = max(1, int(router_interval))
        self.drift_tol = float(drift_tol)
        w, h = design.placed_sizes()
        self.base_areas = w * h
        self.factors = np.ones(len(design.nodes))
        self.supply = self.spec.supply_density()
        # Average pin demand contribution, calibrated once per design
        # (only valid for the wire width it was measured with) and
        # shared through ``design.congestion_calibration``: every
        # inflator bound to this design (flat GP, post-macro refinement,
        # net weighting) reuses it, and the flow checkpoints the dict so
        # a resumed run restores the exact double instead of
        # recalibrating at post-resume positions.
        cal = design.congestion_calibration
        if cal is None:
            cal = design.congestion_calibration = {}
        self._pin_norm = None
        if cal.get("pin_norm") is not None and cal.get("wire_width") == wire_width:
            self._pin_norm = float(cal["pin_norm"])
        # Look-ahead router, built lazily and reused across calls so the
        # decomposition memo stays warm between placement iterations.
        self._lookahead_router = None
        # Learned predictor state (estimator="hybrid").
        self._predictor = None
        self._extractor = None
        self._round = 0
        self.hybrid_stats = {
            "predictor_rounds": 0,
            "router_rounds": 0,
            "fallback_round": None,
            "final_drift": None,
        }
        # Reused scratch grids for the RUDY estimate (allocated lazily).
        self._rudy_buf = None
        self._pin_buf = None
        self._pin_term = None
        self._supply_floor = None
        self._supply_zero = None

    # ------------------------------------------------------------------
    # estimators
    # ------------------------------------------------------------------
    def congestion_map(self, arrays, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
        """Estimated demand/supply per routing tile.

        With ``estimator="router"`` a fast pattern-only global route of
        the current positions supplies the map (the paper's look-ahead
        routing); ``"hybrid"`` serves the learned prediction with
        periodic router rounds; the default RUDY estimate is cheaper and
        sufficient on the bundled suite.  The returned array may be a
        reused buffer — treat it as read-only and consumed before the
        next call.
        """
        if self.estimator == "router":
            return self._router_map(arrays, cx, cy)
        if self.estimator == "hybrid":
            return self._hybrid_map(arrays, cx, cy)
        return self._rudy_map(arrays, cx, cy)

    def _rudy_map(self, arrays, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
        grid = self.spec.grid
        if self._rudy_buf is None:
            self._rudy_buf = grid.zeros()
            self._pin_buf = grid.zeros()
            self._pin_term = grid.zeros()
            self._supply_floor = np.maximum(self.supply, 1e-12)
            self._supply_zero = ~(self.supply > 0)
        demand = rudy_map(
            arrays, cx, cy, grid, wire_width=self.wire_width, out=self._rudy_buf
        )
        pins = pin_density_map(arrays, cx, cy, grid, out=self._pin_buf)
        self._calibrate(demand, pins)
        # In-place assembly, term-for-term identical to the original
        # allocating expression (a golden twin under tests/reference/):
        # (scalar * pins) added to demand, then the masked divide by the
        # floored supply.
        np.multiply(pins, self.pin_weight * self._pin_norm, out=self._pin_term)
        demand += self._pin_term
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(demand, self._supply_floor, out=demand)
        np.copyto(demand, 0.0, where=self._supply_zero)
        return demand

    def _calibrate(self, demand: np.ndarray, pins: np.ndarray) -> None:
        if self._pin_norm is not None:
            return
        mean_pin = float(pins.mean())
        mean_demand = float(demand.mean())
        self._pin_norm = mean_demand / mean_pin if mean_pin > 0 else 0.0
        cal = self.design.congestion_calibration
        cal["pin_norm"] = self._pin_norm
        cal["wire_width"] = self.wire_width

    def _router_map(self, arrays, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
        """Look-ahead routing: one pattern-only route, tile congestion."""
        from repro.route.router import GlobalRouter

        if self._lookahead_router is None:
            self._lookahead_router = GlobalRouter(
                self.spec, sweeps=1, z_refine=False, maze_rounds=0
            )
        result = self._lookahead_router.route(arrays=arrays, cx=cx, cy=cy)
        return result.congestion_map()

    # -- hybrid (learned predictor + periodic router) -------------------
    def _predict_map(self, arrays, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
        if self._predictor is None:
            from repro.predict import FeatureExtractor, load_predictor

            self._predictor = load_predictor(self.predict_model)
            self._extractor = FeatureExtractor(
                self.spec, wire_width=self.wire_width
            )
        X = self._extractor.compute(arrays, cx, cy)
        pred = self._predictor.predict(X)
        fault = check_fault("predict.drift")
        if fault is not None:
            # Chaos drill: poison the prediction so the drift detector
            # must notice and fall back (value = added congestion).
            pred = pred + (10.0 if fault.value is None else float(fault.value))
        grid = self.spec.grid
        return pred.reshape(grid.nx, grid.ny)

    def _drift(self, predicted: np.ndarray, routed: np.ndarray) -> float:
        """Mean |predicted - routed| over tiles either map calls hot."""
        hot = (routed >= self.threshold) | (predicted >= self.threshold)
        if not hot.any():
            return 0.0
        return float(np.abs(predicted - routed)[hot].mean())

    @property
    def fallback_active(self) -> bool:
        return self.hybrid_stats["fallback_round"] is not None

    def _hybrid_map(self, arrays, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
        tracer = get_tracer()
        metrics = tracer.metrics
        rnd = self._round
        self._round += 1
        if self.fallback_active:
            self.hybrid_stats["router_rounds"] += 1
            metrics.counter(_METRIC + ".router_rounds").inc()
            with tracer.span("lookahead_route"):
                return self._router_map(arrays, cx, cy)
        if rnd % self.router_interval == 0:
            # Router round: serve the routed truth and measure how far
            # the predictor would have been from it.
            with tracer.span("lookahead_route"):
                routed = self._router_map(arrays, cx, cy)
            with tracer.span("predict"):
                predicted = self._predict_map(arrays, cx, cy)
            drift = self._drift(predicted, routed)
            self.hybrid_stats["router_rounds"] += 1
            metrics.counter(_METRIC + ".router_rounds").inc()
            metrics.record(_METRIC + ".drift", rnd, drift)
            if drift > self.drift_tol:
                self.hybrid_stats["fallback_round"] = rnd
                metrics.counter(_METRIC + ".drift_fallbacks").inc()
                tracer.event(
                    "inflation.drift_fallback",
                    round=rnd,
                    drift=drift,
                    tolerance=self.drift_tol,
                )
            return routed
        with tracer.span("predict"):
            predicted = self._predict_map(arrays, cx, cy)
        self.hybrid_stats["predictor_rounds"] += 1
        metrics.counter(_METRIC + ".predictor_rounds").inc()
        return predicted

    @property
    def wants_final_check(self) -> bool:
        """Whether the placer should run one last router validation."""
        return (
            self.estimator == "hybrid"
            and self.hybrid_stats["predictor_rounds"] > 0
            and not self.fallback_active
        )

    def final_router_check(self, arrays, cx: np.ndarray, cy: np.ndarray) -> float:
        """One real route at the final positions; records residual drift.

        The hybrid loop may have ratcheted on predictions between router
        rounds — this closes the loop with the ground truth so the run
        record carries the realized prediction error.
        """
        tracer = get_tracer()
        with tracer.span("lookahead_route"):
            routed = self._router_map(arrays, cx, cy)
        with tracer.span("predict"):
            predicted = self._predict_map(arrays, cx, cy)
        drift = self._drift(predicted, routed)
        self.hybrid_stats["final_drift"] = drift
        tracer.metrics.record(_METRIC + ".final_drift", self._round, drift)
        tracer.event("inflation.final_check", drift=drift)
        return drift

    # ------------------------------------------------------------------
    def update(self, arrays, cx: np.ndarray, cy: np.ndarray, movable_mask) -> np.ndarray:
        """Recompute inflation factors; returns new spreading areas.

        Factors are monotone non-decreasing across calls (the classic
        ratchet that prevents oscillation), bounded per cell and in total.
        """
        grid = self.spec.grid
        cong = self.congestion_map(arrays, cx, cy)
        local = grid.bilinear_sample(cong, cx, cy)
        over = np.maximum(local / self.threshold, 1.0)
        new_factor = np.minimum(over**self.exponent, self.max_inflation)
        self.factors = np.maximum(self.factors, np.where(movable_mask, new_factor, 1.0))
        # Respect the whitespace budget: scale back excess uniformly.
        base_total = float(self.base_areas[movable_mask].sum())
        inflated_total = float(
            (self.base_areas * self.factors)[movable_mask].sum()
        )
        budget = self.total_max * base_total
        if inflated_total > budget and inflated_total > base_total:
            # Shrink the inflation *excess* to fit the budget.
            excess = self.factors - 1.0
            scale = (budget - base_total) / (inflated_total - base_total)
            self.factors = 1.0 + excess * max(0.0, scale)
        return self.base_areas * self.factors

    @property
    def mean_inflation(self) -> float:
        return float(self.factors.mean())
