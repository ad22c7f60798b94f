"""The routability-driven analytical global placer (NTUplace4h core loop).

Minimizes ``WL + lambda * density (+ mu * fence)`` by projected nonlinear
conjugate gradient, doubling ``lambda`` each outer iteration until the
density overflow target is met.  Routability-driven cell inflation and
macro orientation passes interleave with the outer iterations; an
optional hierarchy-aware clustering V-cycle accelerates large designs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.db import Design
from repro.density import BellDensity
from repro.gp.clustering import cluster_design
from repro.gp.config import GPConfig
from repro.gp.fence import FencePenalty, project_into_fences
from repro.gp.inflation import CongestionInflator
from repro.gp.initial import initial_placement
from repro.gp.orient import optimize_macro_orientations
from repro.grids import BinGrid
from repro.obs import get_logger, get_tracer
from repro.optim import minimize_cg
from repro.resilience.faults import check_fault, fault_armed
from repro.resilience.guards import NumericalGuard, all_finite
from repro.wirelength import hpwl as exact_hpwl
from repro.wirelength import make_model

_log = get_logger("gp")

# The placement schedule.  The paper runs one schedule, so these are
# constants, not knobs; step and smoothing lengths are in density-bin
# widths.
GAMMA_FACTOR = 4.0  # initial WA/LSE smoothing gamma
GAMMA_DECAY = 0.98  # gamma anneal per outer iteration
LAMBDA_INITIAL_RATIO = 0.12  # lambda0 * |grad D| ~ ratio * |grad WL|
LAMBDA_GROWTH = 1.9
STEP_INIT_BINS = 6.0  # CG line-search step bounds
STEP_MAX_BINS = 12.0
INFLATION_START_OVERFLOW = 0.45  # begin inflating once spread enough
INFLATION_INTERVAL = 2  # outer iterations between congestion updates
RESERVATION_FLOOR = 0.6  # minimum density-target scale over starved bins
FENCE_WEIGHT_INITIAL_RATIO = 0.5  # mu0 * |grad F| ~ ratio * |grad WL|
FENCE_WEIGHT_GROWTH = 1.6
ORIENTATION_INTERVAL = 6  # outer iterations between orientation passes
OVERFLOW_TARGET = 0.06  # stop once density overflow falls below
COARSE_OVERFLOW_TARGET = 0.15  # looser: the fine levels do the precise work
CLUSTER_LEVELS = 2  # how deep the V-cycle may recurse
CLUSTER_MIN_NODES = 3000  # cluster only designs with this many movables
COARSE_ITERATION_FRACTION = 0.5  # a coarse level's share of its parent's cap
REFINE_ITERATIONS = 16  # the post-macro refine's cap, whatever GP's budget
REFINE_PATIENCE = 3  # refine iterations past its best overflow before it stops
PLATEAU_INNER_ITERATIONS = 6  # CG iterations per outer iteration past GP's plateau


@dataclass
class IterationStats:
    """One outer iteration of the GP loop (one row of the Fig-1 curves)."""

    outer: int
    hpwl: float
    overflow: float
    lam: float
    mean_inflation: float
    fence: float = 0.0
    gamma: float = 0.0     # WA/LSE smoothing parameter this iteration
    step: float = 0.0      # last accepted CG line-search step (die units)
    cg_iters: int = 0      # inner CG iterations spent this outer iteration


@dataclass
class GPReport:
    """Outcome of :meth:`GlobalPlacer.place`."""

    iterations: list = field(default_factory=list)
    final_hpwl: float = 0.0
    final_overflow: float = 0.0
    runtime_seconds: float = 0.0
    coarse_iterations: list = field(default_factory=list)
    orientation_changes: int = 0
    fence_projected: int = 0
    guard_rollbacks: int = 0        # numerical-guard recoveries taken
    guard_events: list = field(default_factory=list)  # GuardEvent dicts
    guard_exhausted: bool = False   # retries ran out; kept last-good state
    budget_exhausted: bool = False  # stage watchdog expired mid-descent
    inflation: dict = field(default_factory=dict)  # hybrid-estimator stats

    @property
    def num_iterations(self) -> int:
        return len(self.iterations)

    @property
    def telemetry(self) -> dict:
        """Column-oriented per-outer-iteration series (plot-ready)."""
        its = self.iterations
        return {
            "outer": [s.outer for s in its],
            "hpwl": [s.hpwl for s in its],
            "overflow": [s.overflow for s in its],
            "lam": [s.lam for s in its],
            "gamma": [s.gamma for s in its],
            "step": [s.step for s in its],
            "cg_iters": [s.cg_iters for s in its],
            "mean_inflation": [s.mean_inflation for s in its],
            "fence": [s.fence for s in its],
        }


class GlobalPlacer:
    """Analytical global placement over a :class:`~repro.db.Design`."""

    # Namespace for this placer's metric series ("gp.hpwl", ...).  Coarse
    # levels add ".coarse", and the flow's refine placer is "gp.refine",
    # so the trajectories of one run don't interleave.
    metric_prefix = "gp"

    def __init__(self, config: GPConfig | None = None):
        self.config = config or GPConfig()

    # ------------------------------------------------------------------
    def place(
        self, design: Design, *, refine: bool = False, watchdog=None
    ) -> GPReport:
        """Run global placement, mutating node positions in ``design``.

        ``refine=True`` runs the cells-only phase that follows macro
        legalization: it starts from the current positions, never
        clusters, holds the macros as fixed obstacles, runs no
        orientation pass, and stops after ``REFINE_ITERATIONS``, at the
        overflow target, or once ``REFINE_PATIENCE`` committed
        iterations have not lowered its best overflow (the plateau stop;
        the last iterate is kept).

        Any other phase (the flat level and each coarse level) runs to
        ``max_outer_iterations`` or its overflow target, but from its
        first committed iteration at or below
        ``INFLATION_START_OVERFLOW`` that does not lower its best
        overflow, each CG solve gets at most
        ``PLATEAU_INNER_ITERATIONS``: a late outer iteration only
        follows one λ step from a warm start.

        ``watchdog`` is an optional :class:`repro.resilience.StageWatchdog`;
        when its budget expires the outer loop winds down at the next
        iteration boundary and the report is marked ``budget_exhausted``.
        """
        cfg = self.config
        t0 = time.perf_counter()
        report = GPReport()
        if len(design.movable_indices()) == 0:
            report.runtime_seconds = time.perf_counter() - t0
            return report

        prefix = self.metric_prefix
        if refine:
            flat = self._place_flat(
                design,
                report,
                REFINE_ITERATIONS,
                OVERFLOW_TARGET,
                prefix,
                refine=True,
                watchdog=watchdog,
            )
        else:
            cap = cfg.max_outer_iterations
            flat = self._place_level(
                design, report, CLUSTER_LEVELS, cap, OVERFLOW_TARGET, prefix, watchdog
            )
        report.final_hpwl = design.hpwl()
        report.final_overflow = flat
        report.runtime_seconds = time.perf_counter() - t0
        return report

    def _place_level(
        self, design, report, depth, cap, target, prefix, watchdog=None
    ) -> float:
        """Initial placement, then (``depth`` levels permitting) a clustered
        copy placed by the next level down, then the flat level."""
        cfg = self.config
        tracer = get_tracer()
        with tracer.span("initial"):
            initial_placement(design, seed=cfg.seed)

        if (
            cfg.clustering
            and depth > 0
            and len(design.movable_indices()) >= CLUSTER_MIN_NODES
        ):
            with tracer.span("coarse", level=depth):
                clustered = cluster_design(design)
                coarse = GPReport()
                self._place_level(
                    clustered.coarse,
                    coarse,
                    depth - 1,
                    max(4, int(cap * COARSE_ITERATION_FRACTION)),
                    COARSE_OVERFLOW_TARGET,
                    prefix + ".coarse",
                )
                # Surface the deepest level's trajectory for inspection.
                report.coarse_iterations = (
                    coarse.coarse_iterations or coarse.iterations
                )
                clustered.transfer_positions()

        return self._place_flat(design, report, cap, target, prefix, watchdog=watchdog)

    # ------------------------------------------------------------------
    def _place_flat(
        self, design, report, cap, target, prefix, *, refine=False, watchdog=None
    ) -> float:
        cfg = self.config
        core = design.core
        movable_mask = design.movable_mask()
        if refine:
            # The macros are legalized: they hold still as obstacles.
            movable_mask &= ~design.macro_mask()
        mov = np.flatnonzero(movable_mask)
        m = len(mov)
        if m == 0:
            return self._overflow_design(design)

        grid = self._density_grid(design, len(mov))
        widths, heights = design.placed_sizes()
        # Obstacle outlines in the order BellDensity accumulates them:
        # fixed blockers by node index, then, in the refine, the macros.
        obstacles = np.flatnonzero(design.blockage_mask())
        if refine:
            obstacles = np.concatenate([obstacles, np.flatnonzero(design.macro_mask())])
        xl, yl = design.pull_corners()
        xl, yl = xl[obstacles], yl[obstacles]
        fixed_rects = np.column_stack(
            [xl, yl, xl + widths[obstacles], yl + heights[obstacles]]
        )

        cx, cy = design.pull_centers()
        target_scale = None
        if cfg.routability and cfg.whitespace_reservation and design.routing is not None:
            target_scale = self._reservation_scale(design, grid, RESERVATION_FLOOR)
        density = BellDensity(
            grid,
            widths,
            heights,
            movable_mask,
            fixed_rects=fixed_rects,
            target_scale=target_scale,
        )
        fence = FencePenalty(design)
        inflator = None
        if cfg.routability and design.routing is not None:
            inflator = CongestionInflator(
                design,
                estimator=cfg.congestion_estimator,
                predict_model=cfg.predict_model,
            )

        gamma = GAMMA_FACTOR * max(grid.bin_w, grid.bin_h)
        arrays = design.pin_arrays()
        wl_model = make_model(cfg.wirelength_model, arrays, len(design.nodes), gamma)

        # Bounds for the projection (centre coordinates).
        half_w = widths[mov] / 2.0
        half_h = heights[mov] / 2.0
        lo_x = core.xl + half_w
        hi_x = np.maximum(core.xh - half_w, lo_x)
        lo_y = core.yl + half_h
        hi_y = np.maximum(core.yh - half_h, lo_y)

        state = {"lam": None, "mu": None}

        def pack() -> np.ndarray:
            return np.concatenate([cx[mov], cy[mov]])

        def unpack(v: np.ndarray) -> None:
            cx[mov] = v[:m]
            cy[mov] = v[m:]

        objective, project = _objective(
            wl_model, density, fence, state, cx, cy, mov, (lo_x, hi_x, lo_y, hi_y)
        )

        if fault_armed("gp.nan_gradient"):
            # Deterministic NaN poisoning: the hit index counts full
            # objective evaluations inside the CG.  The wrapper carries no
            # probe/finish_grad attributes, so the CG falls back to full
            # evaluations while the fault is armed — the poison cannot be
            # skipped by the value-only line-search path.
            inner_objective = objective

            def objective(v: np.ndarray):
                f, g = inner_objective(v)
                if check_fault("gp.nan_gradient") is not None:
                    return float("nan"), np.full_like(g, np.nan)
                return f, g

        # NaN/Inf and divergence detection with rollback to the last
        # good iterate.  The guard never perturbs a healthy trajectory;
        # it only decides what to do when an iteration is poisoned.
        guard = NumericalGuard()

        # -- initialize the penalty weights from the gradient balance.
        _, wl_gx, wl_gy = wl_model.value_grad(cx, cy)
        _, d_gx, d_gy = density.value_grad(cx, cy)
        wl_norm = float(np.abs(wl_gx[mov]).sum() + np.abs(wl_gy[mov]).sum())
        d_norm = float(np.abs(d_gx[mov]).sum() + np.abs(d_gy[mov]).sum())
        state["lam"] = LAMBDA_INITIAL_RATIO * wl_norm / max(d_norm, 1e-12)
        if fence.active:
            _, f_gx, f_gy = fence.value_grad(cx, cy)
            f_norm = float(np.abs(f_gx[mov]).sum() + np.abs(f_gy[mov]).sum())
            # When every fenced cell already sits inside its region the
            # fence gradient vanishes; floor the normalizer at the
            # gradient a one-bin displacement of all fenced cells would
            # produce, so mu stays finite and the penalty merely *keeps*
            # cells in rather than walling off the line search.
            n_fenced = sum(len(idx) for _, idx, _, _ in fence.groups)
            floor = 2.0 * max(grid.bin_w, grid.bin_h) * max(n_fenced, 1)
            state["mu"] = FENCE_WEIGHT_INITIAL_RATIO * wl_norm / max(f_norm, floor)
        else:
            state["mu"] = 0.0

        step_init = STEP_INIT_BINS * max(grid.bin_w, grid.bin_h)
        step_max = STEP_MAX_BINS * max(grid.bin_w, grid.bin_h)
        overflow = self._overflow(design, density, cx, cy, widths, heights, mov)
        v = project(pack())
        unpack(v)
        # Seed the rollback target with the pre-descent state so even a
        # poisoned first iteration has somewhere to return to.  The
        # infinite HPWL keeps the divergence tracker disarmed until a real
        # iteration commits.
        guard.commit(
            v,
            gamma=wl_model.gamma,
            step_init=step_init,
            step_max=step_max,
            hpwl=float("inf"),
        )

        tracer = get_tracer()
        metrics = tracer.metrics
        orient = cfg.optimize_orientations and not refine
        # The phase's lowest overflow, where, and how many committed
        # iterations have failed to beat it since: past it the refine
        # stops and any other phase runs short CG solves.
        best_overflow, best_outer, stalled = float("inf"), -1, 0
        inner = cfg.inner_iterations
        for outer in range(cap):
            with tracer.span(f"iter[{outer}]"):
                if (
                    inflator is not None
                    and overflow <= INFLATION_START_OVERFLOW
                    and outer % INFLATION_INTERVAL == 0
                ):
                    with tracer.span("inflation"):
                        areas = inflator.update(arrays, cx, cy, movable_mask)
                        density.set_areas(areas)
                if orient and outer > 0 and outer % ORIENTATION_INTERVAL == 0:
                    with tracer.span("orientation"):
                        changed = self._orientation_pass(design, cx, cy)
                    report.orientation_changes += changed
                    if changed:
                        # Orientation changes swap pin offsets but keep
                        # the topology: reuse the CSR compaction.
                        arrays = design.pin_arrays()
                        wl_model.rebind(arrays)

                if inner < cfg.inner_iterations:
                    metrics.counter(prefix + ".plateau_short_cg").inc()
                with tracer.span("cg"):
                    result = minimize_cg(
                        objective,
                        v,
                        max_iter=inner,
                        step_init=step_init,
                        step_max=step_max,
                        project=project,
                    )
                v = result.x
                unpack(v)
                with tracer.span("gradient"):
                    overflow = self._overflow(
                        design, density, cx, cy, widths, heights, mov
                    )
                    wl_exact = exact_hpwl(arrays, cx, cy)
                poisoned = result.nonfinite or not all_finite(wl_exact, overflow)
                if poisoned or guard.diverged(wl_exact):
                    reason = "nonfinite" if poisoned else "divergence"
                    detail = (
                        f"f={result.value} |g|={result.grad_norm}"
                        if poisoned
                        else f"hpwl={wl_exact}"
                    )
                    snap = guard.recover(outer, reason, detail)
                    metrics.counter(prefix + ".guard.rollbacks").inc()
                    tracer.event(
                        "guard.rollback",
                        outer=outer,
                        reason=reason,
                        recovered=snap is not None,
                    )
                    _log.warning(
                        "[%s %s] outer=%d %s detected; %s",
                        prefix,
                        design.name,
                        outer,
                        reason,
                        "rolling back" if snap is not None else "retries exhausted",
                    )
                    if snap is None:
                        # No snapshot or retries exhausted: keep the
                        # best state we have and stop cleanly.
                        report.guard_exhausted = True
                        if guard.last_good is not None:
                            v = np.array(guard.last_good.v, copy=True)
                            unpack(v)
                            wl_model.gamma = guard.last_good.gamma
                            overflow = self._overflow(
                                design, density, cx, cy, widths, heights, mov
                            )
                        break
                    v = np.array(snap.v, copy=True)
                    unpack(v)
                    step_init = snap.step_init
                    step_max = snap.step_max
                    wl_model.gamma = snap.gamma
                    overflow = self._overflow(
                        design, density, cx, cy, widths, heights, mov
                    )
                    continue  # retry from the snapshot, same lam/mu
                stats = IterationStats(
                    outer=outer,
                    hpwl=wl_exact,
                    overflow=overflow,
                    lam=state["lam"],
                    mean_inflation=inflator.mean_inflation if inflator else 1.0,
                    fence=fence.value(cx, cy) if fence.active else 0.0,
                    gamma=wl_model.gamma,
                    step=result.final_step,
                    cg_iters=result.iterations,
                )
                report.iterations.append(stats)
                metrics.record(prefix + ".hpwl", outer, wl_exact)
                metrics.record(prefix + ".overflow", outer, overflow)
                metrics.record(prefix + ".lam", outer, state["lam"])
                metrics.record(prefix + ".gamma", outer, wl_model.gamma)
                metrics.record(prefix + ".step", outer, result.final_step)
                metrics.record(prefix + ".cg_iters", outer, result.iterations)
                _log.debug(
                    "[%s %s] outer=%3d hpwl=%12.1f ovfl=%6.3f lam=%9.2e",
                    prefix,
                    design.name,
                    outer,
                    wl_exact,
                    overflow,
                    state["lam"],
                )
                guard.commit(
                    v,
                    gamma=wl_model.gamma,
                    step_init=step_init,
                    step_max=step_max,
                    hpwl=wl_exact,
                )
            if watchdog is not None and watchdog.expired():
                report.budget_exhausted = True
                tracer.event("watchdog.expired", outer=outer, **watchdog.describe())
                _log.warning(
                    "[%s %s] stage budget expired after outer=%d; winding down",
                    prefix,
                    design.name,
                    outer,
                )
                break
            if overflow <= target:
                break
            if overflow < best_overflow:
                best_overflow, best_outer, stalled = overflow, outer, 0
            else:
                stalled += 1
                if refine:
                    # Past its overflow minimum the refine only trades
                    # HPWL for overflow it does not win back;
                    # legalization and DP do the local cleanup.
                    if stalled >= REFINE_PATIENCE:
                        metrics.counter(prefix + ".plateau_stops").inc()
                        tracer.event(
                            "plateau",
                            outer=outer,
                            best_outer=best_outer,
                            best_overflow=best_overflow,
                        )
                        break
                elif (
                    overflow <= INFLATION_START_OVERFLOW
                    and inner > PLATEAU_INNER_ITERATIONS
                ):
                    # GP's late iterations still spread inflated cells,
                    # so it keeps going, but each only follows one λ
                    # step: a short solve does.  The overflow gate keeps
                    # a blip while cells first spread from tripping it.
                    inner = PLATEAU_INNER_ITERATIONS
                    tracer.event(
                        "cg_budget",
                        outer=outer,
                        best_outer=best_outer,
                        best_overflow=best_overflow,
                        inner=inner,
                    )
            state["lam"] *= LAMBDA_GROWTH
            if fence.active:
                state["mu"] *= FENCE_WEIGHT_GROWTH
            wl_model.gamma = max(
                wl_model.gamma * GAMMA_DECAY, 0.5 * min(grid.bin_w, grid.bin_h)
            )

        report.guard_rollbacks += guard.rollbacks
        report.guard_events += [e.as_dict() for e in guard.events]
        if inflator is not None:
            if inflator.wants_final_check:
                # Hybrid estimator: close the loop with one real route at
                # the final positions so the run record carries the
                # realized prediction error.
                with tracer.span("inflation"):
                    inflator.final_router_check(arrays, cx, cy)
            if inflator.estimator == "hybrid":
                report.inflation = dict(inflator.hybrid_stats)
        design.push_centers(cx, cy, indices=mov)
        if orient:
            report.orientation_changes += optimize_macro_orientations(design)
        report.fence_projected = project_into_fences(design)
        return overflow

    @staticmethod
    def _overflow_design(design: Design) -> float:
        from repro.density import density_overflow

        return density_overflow(design)

    # ------------------------------------------------------------------
    def _orientation_pass(self, design: Design, cx, cy) -> int:
        """Run an orientation pass at the current (array) positions."""
        design.push_centers(cx, cy)
        changed = optimize_macro_orientations(design)
        if changed:
            ncx, ncy = design.pull_centers()
            cx[:] = ncx
            cy[:] = ncy
        return changed

    @staticmethod
    def _reservation_scale(design: Design, grid: BinGrid, floor: float) -> np.ndarray:
        """Per-density-bin target scale from relative routing supply.

        Bins whose local track supply falls below the die's typical
        supply get proportionally smaller density targets (never below
        ``floor``), reserving whitespace for wires over starved regions —
        the whitespace-reservation mechanism of the paper's stage 1.
        """
        rgrid = design.routing.grid
        supply = design.routing.supply_density()
        median = float(np.median(supply)) if supply.size else 1.0
        if median <= 0:
            return np.ones((grid.nx, grid.ny))
        bx = grid.centers_x()
        by = grid.centers_y()
        xx, yy = np.meshgrid(bx, by, indexing="ij")
        local = rgrid.bilinear_sample(supply, xx.ravel(), yy.ravel()).reshape(
            grid.nx, grid.ny
        )
        # Only clearly starved bins (below 80% of typical supply) give up
        # target capacity; ordinary supply variation is left alone so the
        # reservation does not tax wirelength die-wide.
        scale = np.clip(local / (0.8 * median), floor, 1.0)
        # Feasibility guard: the scaled free space must still hold every
        # movable object with slack, or the density target becomes
        # unsatisfiable and the outer loop can never converge.
        movable = design.movable_area()
        core_area = design.core.area
        fixed = design.fixed_area_in_core()
        free_total = max(core_area - fixed, 1e-12)
        scaled_total = float(scale.mean()) * free_total
        need = 1.1 * movable
        if scaled_total < need and scaled_total > 0:
            # Blend back toward 1 just enough to restore slack.
            deficit = (need - scaled_total) / max(free_total - scaled_total, 1e-12)
            blend = min(1.0, deficit)
            scale = scale + blend * (1.0 - scale)
        return scale

    @staticmethod
    def _density_grid(design: Design, num_movable: int) -> BinGrid:
        # ~ sqrt(n) bins per axis, clamped to a practical range.
        per_axis = int(np.sqrt(max(num_movable, 1)))
        per_axis = max(16, min(per_axis, 96))
        return BinGrid.with_bin_target(design.core, per_axis * per_axis)

    @staticmethod
    def _overflow(design, density: BellDensity, cx, cy, widths, heights, mov) -> float:
        """Exact-overlap density overflow at the current array positions.

        Uses physical (non-inflated) areas against the free capacity of
        the density grid.
        """
        grid = density.grid
        xl = cx[mov] - widths[mov] / 2.0
        xh = cx[mov] + widths[mov] / 2.0
        yl = cy[mov] - heights[mov] / 2.0
        yh = cy[mov] + heights[mov] / 2.0
        usage = grid.rasterize_rects(xl, yl, xh, yh)
        total = float((widths[mov] * heights[mov]).sum())
        if total <= 0:
            return 0.0
        over = np.maximum(usage - density.free, 0.0)
        return float(over.sum() / total)


def _objective(wl_model, density, fence, state, cx, cy, mov, bounds):
    """The CG merit function over the movable centres ``v = [x; y]``.

    Returns ``(objective, project)``.  ``objective(v)`` writes ``v`` into
    ``cx``/``cy`` and returns ``(f, g)`` with ``f = WL + lam * D``
    (``+ mu * F`` with an active fence), the weights read from ``state``
    at call time; ``project`` clips ``v`` in place into ``bounds =
    (lo_x, hi_x, lo_y, hi_y)`` (the CG owns its trial buffers).  The
    movable gradients are gathered straight into one reused output
    vector, term by term as the original allocating assembly (a golden
    twin under ``tests/reference/``) adds them, so values and gradients
    are bit-identical.

    ``objective.probe``/``objective.finish_grad`` split one evaluation
    for the CG line search: rejected trial points only pay for the value
    half, and the gradient of an accepted point is finished from the
    models' stashed tables through the same gather, bit-identical to a
    full evaluation.
    """
    m = len(mov)
    lo_x, hi_x, lo_y, hi_y = bounds
    g_buf = np.empty(2 * m)
    t_mov = np.empty(m)
    fence_grad = [None, None]

    def unpack(v: np.ndarray) -> None:
        cx[mov] = v[:m]
        cy[mov] = v[m:]

    def project(v: np.ndarray) -> np.ndarray:
        np.clip(v[:m], lo_x, hi_x, out=v[:m])
        np.clip(v[m:], lo_y, hi_y, out=v[m:])
        return v

    def gather(wl_gx, wl_gy, d_gx, d_gy, f_gx, f_gy) -> np.ndarray:
        lam = state["lam"]
        gx = g_buf[:m]
        gy = g_buf[m:]
        np.take(wl_gx, mov, out=gx)
        np.take(d_gx, mov, out=t_mov)
        np.multiply(t_mov, lam, out=t_mov)
        gx += t_mov
        np.take(wl_gy, mov, out=gy)
        np.take(d_gy, mov, out=t_mov)
        np.multiply(t_mov, lam, out=t_mov)
        gy += t_mov
        if fence.active:
            mu = state["mu"]
            np.take(f_gx, mov, out=t_mov)
            np.multiply(t_mov, mu, out=t_mov)
            gx += t_mov
            np.take(f_gy, mov, out=t_mov)
            np.multiply(t_mov, mu, out=t_mov)
            gy += t_mov
        return g_buf

    def objective(v: np.ndarray):
        unpack(v)
        wl_v, wl_gx, wl_gy = wl_model.value_grad(cx, cy)
        d_v, d_gx, d_gy = density.value_grad(cx, cy)
        f = wl_v + state["lam"] * d_v
        f_gx = f_gy = None
        if fence.active:
            f_v, f_gx, f_gy = fence.value_grad(cx, cy)
            f += state["mu"] * f_v
        return f, gather(wl_gx, wl_gy, d_gx, d_gy, f_gx, f_gy)

    def probe(v: np.ndarray) -> float:
        unpack(v)
        wl_v = wl_model.value_probe(cx, cy)
        d_v = density.value_probe(cx, cy)
        f = wl_v + state["lam"] * d_v
        if fence.active:
            f_v, fence_grad[0], fence_grad[1] = fence.value_grad(cx, cy)
            f += state["mu"] * f_v
        return f

    def finish_grad() -> np.ndarray:
        wl_gx, wl_gy = wl_model.finish_grad()
        d_gx, d_gy = density.finish_grad()
        return gather(wl_gx, wl_gy, d_gx, d_gy, *fence_grad)

    objective.probe = probe
    objective.finish_grad = finish_grad
    return objective, project


def place(design: Design, config: GPConfig | None = None) -> GPReport:
    """Convenience function: global-place ``design`` with ``config``."""
    return GlobalPlacer(config).place(design)
