"""The NTUplace4h flow orchestrator.

Besides the happy path (GP -> macro legal + refine -> legalization ->
DP -> routing), the flow carries the resilience machinery of
``repro.resilience`` (see ``docs/robustness.md``):

* designs are validated and sanitized at entry;
* every stage is wrapped so failures degrade instead of crash — GP falls
  back to the spread initial placement, legalization retries in
  Tetris-only mode, routing falls back to RUDY-estimated congestion
  metrics — with machine-readable reasons on ``FlowResult.degradation``;
* per-stage soft time budgets (``FlowConfig.stage_budget``) wind stages
  down cooperatively at loop boundaries;
* after each completed stage a checkpoint can be written
  (``FlowConfig.checkpoint_dir``) and a later ``run(resume_from=...)``
  continues bit-identically, skipping completed stages.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

from repro.db import Design
from repro.dp import DetailedPlacer
from repro.flow.config import FlowConfig
from repro.gp import GlobalPlacer, GPReport
from repro.gp.initial import initial_placement
from repro.legal import Legalizer, legalize_macros
from repro.legal.subrows import SubRowMap
from repro.obs import get_logger, get_tracer
from repro.resilience import (
    DesignValidationError,
    FlowCheckpoint,
    StageWatchdog,
    load_checkpoint,
    maybe_raise,
    save_checkpoint,
    validate_design,
)
from repro.route import GlobalRouter, RouteTimeout, scaled_hpwl

_log = get_logger("flow")

#: Stage names in execution order (checkpoints record the completed prefix).
FLOW_STAGES = ("gp", "macro_legal_refine", "legal", "dp", "route")


@dataclass
class FlowResult:
    """Everything the result tables need about one flow run."""

    design_name: str
    hpwl_gp: float = 0.0
    hpwl_legal: float = 0.0
    hpwl_final: float = 0.0
    rc: float = 0.0
    scaled_hpwl: float = 0.0
    total_overflow: float = 0.0
    peak_congestion: float = 0.0
    legal: bool = False
    stage_seconds: dict = field(default_factory=dict)
    gp_report: object = None
    legal_result: object = None
    dp_report: object = None
    route_result: object = None
    # Run-history registry id (set when FlowConfig.runs_dir records it).
    run_id: str | None = None
    # Resilience bookkeeping.
    degraded: bool = False
    degradation: list = field(default_factory=list)  # machine-readable reasons
    validation: object = None        # ValidationReport from flow entry
    resumed_stages: list = field(default_factory=list)  # skipped via resume
    restored_telemetry: dict = field(default_factory=dict)  # from checkpoint

    @property
    def runtime_seconds(self) -> float:
        return sum(self.stage_seconds.values())

    @property
    def telemetry(self) -> dict:
        """Per-stage iteration series gathered from the stage reports.

        On a resumed run the series of skipped stages come from the
        checkpoint (``restored_telemetry``); stages that ran in this
        process overwrite their own sections.
        """
        out = dict(self.restored_telemetry)
        seconds = dict(out.get("stage_seconds", {}))
        seconds.update(self.stage_seconds)
        out["stage_seconds"] = seconds
        if self.gp_report is not None:
            out["gp"] = self.gp_report.telemetry
        if self.dp_report is not None:
            out["dp"] = self.dp_report.telemetry
        if self.route_result is not None:
            out["route"] = {
                "overflow_per_round": list(self.route_result.overflow_per_round)
            }
        resilience = dict(out.get("resilience", {}))
        resilience["degraded"] = self.degraded
        resilience["degradation"] = [dict(d) for d in self.degradation]
        if self.gp_report is not None:
            resilience["guard_rollbacks"] = self.gp_report.guard_rollbacks
            resilience["guard_events"] = list(self.gp_report.guard_events)
        out["resilience"] = resilience
        return out

    def summary(self) -> dict:
        """The one result record: a serve job's ``result``, the
        ``result`` of a checkpoint and the source of a run record."""
        return {
            "design": self.design_name,
            "hpwl_gp": float(self.hpwl_gp),
            "hpwl_legal": float(self.hpwl_legal),
            "hpwl_final": float(self.hpwl_final),
            "rc": float(self.rc),
            "scaled_hpwl": float(self.scaled_hpwl),
            "total_overflow": float(self.total_overflow),
            "peak_congestion": float(self.peak_congestion),
            "legal": bool(self.legal),
            "degraded": bool(self.degraded),
            "degradation": [dict(d) for d in self.degradation],
            "stage_seconds": {
                k: float(v) for k, v in self.stage_seconds.items()
            },
            "resumed_stages": list(self.resumed_stages),
            "run_id": self.run_id,
        }

    def restore(self, summary: dict) -> None:
        """Take back the scalars (the float and bool fields), stage times
        and degradations of a checkpointed :meth:`summary`."""
        for f in fields(self):
            if f.type in ("float", "bool") and f.name in summary:
                setattr(self, f.name, summary[f.name])
        self.stage_seconds.update(summary.get("stage_seconds", {}))
        self.degradation = [dict(d) for d in summary.get("degradation", [])]

    def as_row(self) -> dict:
        return {
            "design": self.design_name,
            "HPWL": round(self.hpwl_final, 0),
            "RC": round(self.rc, 4),
            "sHPWL": round(self.scaled_hpwl, 0),
            "overflow": round(self.total_overflow, 1),
            "peak": round(self.peak_congestion, 2),
            "legal": "yes" if self.legal else "NO",
            "degraded": "yes" if self.degraded else "",
            "time_s": round(self.runtime_seconds, 1),
        }


class NTUplace4H:
    """Routability-driven placement flow for hierarchical mixed-size designs.

    The baseline flows of :mod:`repro.baselines` are subclasses that
    override :meth:`_global_place` and :meth:`_macro_legal_refine`;
    every other stage is this class's.
    """

    #: The placer named in run records.
    name = "ntuplace4h"

    def __init__(self, config: FlowConfig | None = None):
        self.config = config or FlowConfig()

    # ------------------------------------------------------------------
    def run(
        self,
        design: Design,
        *,
        route: bool = True,
        resume_from: str | None = None,
    ) -> FlowResult:
        """Place ``design`` end to end; optionally score it by routing.

        Reported HPWL always uses the design's *original* net weights —
        the flow's own weighting levers (congestion/timing) change the
        optimization objective, not the scoring metric.

        ``resume_from`` names a checkpoint directory (or file) written by
        a previous run with ``FlowConfig.checkpoint_dir`` set; completed
        stages are skipped and the flow continues bit-identically from
        the checkpointed state.
        """
        cfg = self.config
        tracer = get_tracer()
        # One metrics registry per run: back-to-back runs under the same
        # tracer must not accumulate each other's series (streamed
        # samples already forwarded to sinks are unaffected).
        tracer.fresh_metrics()
        result = FlowResult(design_name=design.name)

        # Validation runs before checkpoint restore so a resumed run sees
        # the same (sanitized) topology the checkpoint was written against.
        with tracer.span("validate"):
            vreport = validate_design(design, sanitize=True)
            result.validation = vreport
            if not vreport.ok:
                raise DesignValidationError(vreport)
        if not vreport.clean:
            _log.warning("design %s: %s", design.name, vreport.summary())
            tracer.event("flow.validation", **vreport.counts())

        completed: list = []
        score_weights = [net.weight for net in design.nets]
        if resume_from is not None:
            ckpt = load_checkpoint(resume_from)
            ckpt.apply(design)
            completed = list(ckpt.completed)
            if ckpt.score_weights:
                score_weights = [float(w) for w in ckpt.score_weights]
            result.restore(ckpt.result)
            result.resumed_stages = list(completed)
            result.restored_telemetry = dict(ckpt.telemetry)
            _log.info(
                "resuming %s after stages: %s", design.name, ", ".join(completed)
            )

        def scored_hpwl() -> float:
            from repro.optim import blocked_dot
            from repro.wirelength import hpwl_per_net

            arrays = design.pin_arrays()
            cx, cy = design.pull_centers()
            return blocked_dot(score_weights, hpwl_per_net(arrays, cx, cy))

        def degrade(stage: str, reason: str, **detail) -> None:
            entry = {"stage": stage, "reason": reason}
            entry.update(detail)
            result.degraded = True
            result.degradation.append(entry)
            tracer.event("flow.degraded", **entry)
            # Post-mortem context: any attached flight recorder dumps
            # its last-N records the moment the flow degrades.
            tracer.dump_flight_recorders(reason=f"{stage}:{reason}")
            _log.warning(
                "flow degraded at %s (%s) %s", stage, reason, detail or ""
            )

        def save_stage(stage: str) -> None:
            completed.append(stage)
            if cfg.checkpoint_dir is None:
                return
            ckpt = FlowCheckpoint.capture(
                design,
                completed=completed,
                score_weights=score_weights,
                result=result.summary(),
                telemetry=result.telemetry,
                config=cfg,
            )
            try:
                save_checkpoint(ckpt, cfg.checkpoint_dir)
            except Exception as exc:
                # A checkpoint that cannot be written must not kill the
                # run — resume just won't include this stage.
                degrade(
                    "checkpoint",
                    "io_error",
                    stage_completed=stage,
                    error=f"{type(exc).__name__}: {exc}",
                )

        with tracer.span("flow", design=design.name):
            # -- global placement ---------------------------------------
            if "gp" not in completed:
                t = time.perf_counter()
                watchdog = StageWatchdog("gp", cfg.stage_budget.get("gp"))
                try:
                    maybe_raise("raise.gp")
                    with tracer.span("gp"):
                        gp_report = self._global_place(design, watchdog)
                    result.gp_report = gp_report
                    if gp_report.budget_exhausted:
                        degrade("gp", "budget_exhausted", **watchdog.describe())
                    if gp_report.guard_exhausted:
                        degrade(
                            "gp",
                            "numerical_guard_exhausted",
                            rollbacks=gp_report.guard_rollbacks,
                        )
                    elif gp_report.guard_rollbacks:
                        # Recovered, but the trajectory was perturbed: flag
                        # the result so downstream consumers know.
                        degrade(
                            "gp",
                            "numerical_recovery",
                            rollbacks=gp_report.guard_rollbacks,
                        )
                except Exception as exc:
                    degrade(
                        "gp", "exception", error=f"{type(exc).__name__}: {exc}"
                    )
                    # Fallback: the deterministic spread initial placement
                    # gives legalization something sane to work with.
                    with tracer.span("gp_fallback"):
                        initial_placement(design, seed=cfg.gp.seed)
                result.stage_seconds["global_place"] = time.perf_counter() - t
                result.hpwl_gp = scored_hpwl()
                save_stage("gp")

            # -- macro legalization + cell-only refinement --------------
            if "macro_legal_refine" not in completed:
                t = time.perf_counter()
                try:
                    maybe_raise("raise.refine")
                    with tracer.span("macro_legal_refine"):
                        self._macro_legal_refine(design)
                except Exception as exc:
                    # Keep the GP placement; the legalization stage runs
                    # its own macro pass, so the flow can still finish.
                    degrade(
                        "macro_legal_refine",
                        "exception",
                        error=f"{type(exc).__name__}: {exc}",
                    )
                result.stage_seconds["macro_legal_refine"] = (
                    time.perf_counter() - t
                )
                save_stage("macro_legal_refine")

            # -- legalization -------------------------------------------
            legal_result = None
            if "legal" not in completed:
                t = time.perf_counter()
                watchdog = StageWatchdog("legal", cfg.stage_budget.get("legal"))
                try:
                    maybe_raise("raise.legal")
                    with tracer.span("legal"):
                        legal_result = Legalizer(
                            macro_channel=cfg.macro_channel
                        ).legalize(design)
                except Exception as exc:
                    degrade(
                        "legal",
                        "exception",
                        error=f"{type(exc).__name__}: {exc}",
                    )
                    try:
                        with tracer.span("legal_fallback"):
                            legal_result = Legalizer(
                                macro_channel=cfg.macro_channel,
                                tetris_only=True,
                            ).legalize(design)
                        degrade("legal", "tetris_fallback")
                    except Exception as exc2:
                        degrade(
                            "legal",
                            "fallback_failed",
                            error=f"{type(exc2).__name__}: {exc2}",
                        )
                        legal_result = None
                if watchdog.expired():
                    degrade("legal", "budget_exhausted", **watchdog.describe())
                result.stage_seconds["legalize"] = time.perf_counter() - t
                result.legal_result = legal_result
                result.hpwl_legal = scored_hpwl()
                result.legal = bool(
                    legal_result is not None and legal_result.report.ok
                )
                save_stage("legal")

            # -- detailed placement -------------------------------------
            if cfg.run_dp and "dp" not in completed:
                submap = (
                    legal_result.submap if legal_result is not None else None
                )
                if submap is None and not self._legal_stage_failed(result):
                    # Resumed past legalization: the sub-row map rebuilds
                    # bit-identically from the legalized macro positions.
                    submap = SubRowMap(design)
                if submap is None:
                    degrade("dp", "skipped_no_legal_placement")
                else:
                    t = time.perf_counter()
                    watchdog = StageWatchdog("dp", cfg.stage_budget.get("dp"))
                    try:
                        maybe_raise("raise.dp")
                        with tracer.span("dp"):
                            dp_report = DetailedPlacer(cfg.dp).run(
                                design, submap, watchdog=watchdog
                            )
                        result.dp_report = dp_report
                        if dp_report.budget_exhausted:
                            degrade(
                                "dp", "budget_exhausted", **watchdog.describe()
                            )
                        if dp_report.hpwl_mismatch:
                            degrade(
                                "dp",
                                "hpwl_mismatch",
                                hpwl_after=dp_report.hpwl_after,
                            )
                    except Exception as exc:
                        # Keep the legalized placement.
                        degrade(
                            "dp",
                            "exception",
                            error=f"{type(exc).__name__}: {exc}",
                        )
                    result.stage_seconds["detailed_place"] = (
                        time.perf_counter() - t
                    )
                save_stage("dp")

            # -- routing / scoring --------------------------------------
            if "route" not in completed:
                result.hpwl_final = scored_hpwl()
                if route and design.routing is not None:
                    t = time.perf_counter()
                    watchdog = StageWatchdog(
                        "route", cfg.stage_budget.get("route")
                    )
                    metrics = None
                    try:
                        maybe_raise("raise.route")
                        with tracer.span("route"):
                            rr = GlobalRouter(design.routing).route(
                                design, should_stop=watchdog.expired
                            )
                        result.route_result = rr
                        metrics = rr.metrics
                    except RouteTimeout as exc:
                        degrade(
                            "route",
                            "budget_exhausted",
                            phase=exc.phase,
                            rounds_done=exc.rounds_done,
                            **watchdog.describe(),
                        )
                        metrics = self._estimated_metrics(design, degrade)
                    except Exception as exc:
                        degrade(
                            "route",
                            "exception",
                            error=f"{type(exc).__name__}: {exc}",
                        )
                        metrics = self._estimated_metrics(design, degrade)
                    if metrics is not None:
                        result.rc = metrics.rc
                        result.total_overflow = metrics.total_overflow
                        result.peak_congestion = metrics.peak_congestion
                        result.scaled_hpwl = scaled_hpwl(
                            result.hpwl_final, result.rc
                        )
                    else:
                        result.scaled_hpwl = result.hpwl_final
                    result.stage_seconds["route"] = time.perf_counter() - t
                else:
                    result.scaled_hpwl = result.hpwl_final
                save_stage("route")
        if cfg.runs_dir:
            try:
                from repro.obs.runs import record_flow_run

                result.run_id = record_flow_run(
                    cfg.runs_dir, result, cfg, flow=self.name
                )
            except Exception as exc:
                # A registry that cannot be written must not kill the run.
                _log.warning(
                    "run-history record failed (%s: %s)",
                    type(exc).__name__,
                    exc,
                )
        return result

    # ------------------------------------------------------------------
    def _global_place(self, design: Design, watchdog) -> GPReport:
        """The GP stage's placer (a baseline flow swaps in its own)."""
        return GlobalPlacer(self.config.gp).place(design, watchdog=watchdog)

    def _macro_legal_refine(self, design: Design) -> None:
        """Net weighting, macro legalization, and the cell-only refine GP."""
        cfg = self.config
        tracer = get_tracer()
        if cfg.timing_weighting:
            from repro.timing import apply_timing_net_weights

            apply_timing_net_weights(design, strength=cfg.timing_weighting_strength)
        if cfg.net_weighting and design.routing is not None:
            from repro.gp import (
                CongestionInflator,
                apply_congestion_net_weights,
            )

            estimator = CongestionInflator(design)
            cmap = estimator.congestion_map(
                design.pin_arrays(), *design.pull_centers()
            )
            apply_congestion_net_weights(design, cmap)
        legalize_macros(design, channel=cfg.macro_channel)
        if design.macro_mask().any():
            refiner = GlobalPlacer(cfg.gp)
            refiner.metric_prefix = "gp.refine"
            with tracer.span("refine"):
                refiner.place(design, refine=True)

    @staticmethod
    def _legal_stage_failed(result: FlowResult) -> bool:
        """Whether legalization (including the Tetris fallback) failed."""
        return any(
            d.get("stage") == "legal" and d.get("reason") == "fallback_failed"
            for d in result.degradation
        )

    @staticmethod
    def _estimated_metrics(design: Design, degrade):
        """RUDY-based congestion metrics as the routing fallback."""
        from repro.route import rudy_congestion_metrics

        try:
            with get_tracer().span("route_fallback"):
                return rudy_congestion_metrics(design)
        except Exception as exc:
            degrade(
                "route",
                "fallback_failed",
                error=f"{type(exc).__name__}: {exc}",
            )
            return None


def wirelength_driven_flow() -> NTUplace4H:
    """The flow with all routability machinery disabled (baseline)."""
    return NTUplace4H(FlowConfig.wirelength_only())
