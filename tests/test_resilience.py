"""Tests for repro.resilience: faults, guards, watchdogs, degraded flows."""

import math
import os

import numpy as np
import pytest

from repro.benchgen import BenchmarkSpec, make_benchmark
from repro.dp import DPConfig
from repro.flow import FlowConfig, NTUplace4H
from repro.resilience import (
    FAULT_POINTS,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    NumericalGuard,
    StageWatchdog,
    all_finite,
    fault_plan,
    inject,
    maybe_raise,
    reset_clock_skew,
    reset_plan,
)


def bench(seed=61, **kw):
    base = dict(
        name="r", num_cells=250, num_macros=2, num_fixed_macros=1,
        num_terminals=12, utilization=0.55, cap_factor=4.0, seed=seed,
    )
    base.update(kw)
    return make_benchmark(BenchmarkSpec(**base))


def fast_flow(**kw) -> FlowConfig:
    cfg = FlowConfig()
    cfg.gp.clustering = False
    cfg.gp.max_outer_iterations = 14
    cfg.gp.inner_iterations = 16
    cfg.dp = DPConfig(rounds=1, congestion_aware=True)
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg


def reasons(result):
    return [(d["stage"], d["reason"]) for d in result.degradation]


@pytest.fixture(autouse=True)
def _isolated_faults():
    yield
    reset_plan()
    reset_clock_skew()


class TestFaultSpecs:
    def test_parse_point_only(self):
        spec = FaultSpec.parse("raise.dp")
        assert spec.point == "raise.dp" and spec.hit == 1 and spec.value is None

    def test_parse_hit_and_value(self):
        spec = FaultSpec.parse("clock.skew@3=12.5")
        assert spec.point == "clock.skew"
        assert spec.hit == 3
        assert float(spec.value) == 12.5

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            FaultSpec.parse("raise.nonsense")

    def test_registry_documents_every_point(self):
        for point, doc in FAULT_POINTS.items():
            assert isinstance(doc, str) and doc

    def test_docs_table_lists_every_point(self):
        # docs/robustness.md carries the operator-facing fault-point
        # table; a point missing there is an undocumented chaos knob.
        docs = os.path.join(
            os.path.dirname(__file__), "..", "docs", "robustness.md"
        )
        with open(docs, encoding="utf-8") as fh:
            text = fh.read()
        for point in FAULT_POINTS:
            assert f"`{point}`" in text, f"{point} missing from docs"

    def test_parse_probability(self):
        spec = FaultSpec.parse("serve.http_500~0.25")
        assert spec.point == "serve.http_500"
        assert spec.probability == 0.25

    def test_probability_bounds_checked(self):
        with pytest.raises(ValueError, match="probability"):
            FaultSpec.parse("serve.http_500~0")
        with pytest.raises(ValueError, match="probability"):
            FaultSpec.parse("serve.http_500~1.5")

    def test_hit_and_probability_exclusive(self):
        with pytest.raises(ValueError, match="mixes"):
            FaultSpec.parse("serve.http_500@2~0.5")

    def test_probabilistic_plan_seeded_and_reproducible(self):
        text = "serve.http_500~0.3,seed=42"
        counts = []
        for _ in range(2):
            plan = FaultPlan.parse(text)
            fired = sum(
                1 for _ in range(200)
                if plan.check("serve.http_500") is not None
            )
            counts.append((fired, plan.fire_count()))
        # Same seed, same draw stream: identical schedules; and a ~0.3
        # probability over 200 checks fires many times, not once.
        assert counts[0] == counts[1]
        assert 30 < counts[0][0] < 100
        assert counts[0][0] == counts[0][1]

    def test_different_seeds_differ(self):
        def schedule(seed):
            plan = FaultPlan.parse(f"serve.http_500~0.3,seed={seed}")
            return [
                plan.check("serve.http_500") is not None
                for _ in range(100)
            ]

        assert schedule(1) != schedule(2)

    def test_plan_fires_on_nth_hit_once(self):
        plan = FaultPlan.parse("raise.gp@3")
        assert plan.check("raise.gp") is None
        assert plan.check("raise.gp") is None
        assert plan.check("raise.gp") is not None
        # One-shot: later hits never re-fire.
        assert plan.check("raise.gp") is None
        assert len(plan.fired()) == 1

    def test_inject_scopes_and_restores(self):
        before = fault_plan()
        with inject("raise.dp"):
            assert fault_plan().has("raise.dp")
            with pytest.raises(FaultInjected) as exc:
                maybe_raise("raise.dp")
            assert exc.value.point == "raise.dp"
        assert fault_plan() is before

    def test_env_var_parsed_on_first_use(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "raise.route,clock.skew=2")
        reset_plan()
        plan = fault_plan()
        assert plan.has("raise.route") and plan.has("clock.skew")


class TestNumericalGuard:
    def snap(self, guard, hpwl=100.0, gamma=1.0):
        guard.commit(
            np.arange(4.0), gamma=gamma, step_init=1.0, step_max=8.0, hpwl=hpwl
        )

    def test_all_finite(self):
        assert all_finite(1.0, -2.0, 0.0)
        assert not all_finite(1.0, float("nan"))
        assert not all_finite(float("inf"))

    def test_recover_backs_off_snapshot(self):
        guard = NumericalGuard(max_retries=2, backoff=0.5, gamma_inflate=2.0)
        self.snap(guard)
        snap = guard.recover(outer=3, reason="nonfinite")
        assert snap is not None
        assert snap.step_init == 0.5 and snap.step_max == 4.0
        assert snap.gamma == 2.0
        assert guard.rollbacks == 1
        assert guard.events[0].as_dict()["reason"] == "nonfinite"

    def test_retries_bounded(self):
        guard = NumericalGuard(max_retries=1)
        self.snap(guard)
        assert guard.recover(1, "nonfinite") is not None
        assert guard.exhausted
        assert guard.recover(2, "nonfinite") is None
        assert guard.last_good is not None  # caller restores this and stops

    def test_no_snapshot_no_recovery(self):
        guard = NumericalGuard()
        assert not guard.can_recover
        assert guard.recover(0, "nonfinite") is None

    def test_divergence_needs_patience(self):
        guard = NumericalGuard(divergence_ratio=10.0, divergence_patience=2)
        self.snap(guard, hpwl=100.0)
        assert not guard.diverged(5000.0)  # streak 1
        assert guard.diverged(5000.0)      # streak 2 -> fires

    def test_divergence_streak_resets(self):
        guard = NumericalGuard(divergence_ratio=10.0, divergence_patience=2)
        self.snap(guard, hpwl=100.0)
        assert not guard.diverged(5000.0)
        assert not guard.diverged(200.0)   # back in range resets the streak
        assert not guard.diverged(5000.0)

    def test_infinite_baseline_disarms_divergence(self):
        guard = NumericalGuard(divergence_ratio=2.0, divergence_patience=1)
        self.snap(guard, hpwl=math.inf)  # pre-loop snapshot
        assert not guard.diverged(1e12)


class TestStageWatchdog:
    def test_disarmed_is_free(self):
        wd = StageWatchdog("gp")
        assert not wd.expired()
        assert wd.elapsed == 0.0
        assert not wd.tripped

    def test_budget_expiry_via_clock_skew(self):
        # @2: the first clock read is the constructor's start timestamp;
        # the skew must land on the expiry check that follows it.
        with inject("clock.skew@2=1000"):
            wd = StageWatchdog("dp", budget_seconds=60.0)
            assert wd.expired()  # the skew fault jumps the clock forward
        assert wd.tripped
        assert wd.describe()["elapsed_seconds"] > 60.0

    def test_forced_expiry(self):
        with inject("watchdog.expire.gp"):
            wd = StageWatchdog("gp")
            assert wd.expired()
            desc = wd.describe()
        assert desc["forced"] is True
        assert desc["budget_seconds"] is None
        assert "stage" not in desc  # callers attach their own stage label

    def test_expiry_latches(self):
        with inject("watchdog.expire.dp"):
            wd = StageWatchdog("dp")
            assert wd.expired()
        # The fault fired once, but the watchdog stays tripped.
        assert wd.expired()

    def test_within_budget_not_expired(self):
        wd = StageWatchdog("route", budget_seconds=3600.0)
        assert not wd.expired()


class TestFaultInjectedFlows:
    """Acceptance: every fault yields a completed, degraded FlowResult."""

    def test_nan_gradient_recovers_and_flags(self):
        d = bench(seed=71)
        with inject("gp.nan_gradient@1"):
            result = NTUplace4H(fast_flow()).run(d, route=False)
        assert result.degraded
        assert ("gp", "numerical_recovery") in reasons(result)
        assert result.gp_report.guard_rollbacks >= 1
        # Recovery is visible in telemetry.
        resilience = result.telemetry["resilience"]
        assert resilience["degraded"] is True
        assert resilience["guard_events"]
        assert resilience["guard_events"][0]["reason"] == "nonfinite"
        # The flow still finished with a finite placement.
        assert math.isfinite(result.hpwl_final) and result.hpwl_final > 0

    def test_route_watchdog_falls_back_to_rudy(self):
        d = bench(seed=72)
        with inject("watchdog.expire.route"):
            result = NTUplace4H(fast_flow()).run(d)
        assert result.degraded
        assert ("route", "budget_exhausted") in reasons(result)
        # Congestion metrics come from the RUDY estimate, not the router.
        assert result.route_result is None
        assert result.rc > 0
        assert result.scaled_hpwl >= result.hpwl_final

    @pytest.mark.parametrize(
        "point,stage",
        [
            ("raise.gp", "gp"),
            ("raise.refine", "macro_legal_refine"),
            ("raise.legal", "legal"),
            ("raise.dp", "dp"),
            ("raise.route", "route"),
        ],
    )
    def test_stage_exception_degrades_not_crashes(self, point, stage):
        d = bench(seed=73)
        with inject(point):
            result = NTUplace4H(fast_flow()).run(d)
        assert result.degraded
        assert (stage, "exception") in reasons(result)
        for entry in result.degradation:
            assert "stage" in entry and "reason" in entry
        assert math.isfinite(result.hpwl_final)

    def test_legal_exception_uses_tetris_fallback(self):
        d = bench(seed=74)
        with inject("raise.legal"):
            result = NTUplace4H(fast_flow()).run(d, route=False)
        assert ("legal", "tetris_fallback") in reasons(result)
        assert result.legal  # the fallback still legalized the design

    def test_gp_watchdog_budget_exhausted(self):
        d = bench(seed=75)
        with inject("watchdog.expire.gp"):
            result = NTUplace4H(fast_flow()).run(d, route=False)
        assert ("gp", "budget_exhausted") in reasons(result)
        assert result.gp_report.budget_exhausted
        assert result.legal  # downstream stages still ran

    def test_dp_watchdog_budget_exhausted(self):
        d = bench(seed=76)
        with inject("watchdog.expire.dp"):
            result = NTUplace4H(fast_flow()).run(d, route=False)
        assert ("dp", "budget_exhausted") in reasons(result)
        assert result.dp_report.budget_exhausted

    def test_dp_hpwl_mismatch_degrades(self, monkeypatch):
        from repro.dp import engine

        reorder = engine.local_reorder_pass

        def corrupt_then_reorder(design, inc, submap, **kw):
            # The widest net's recorded HPWL grows, so every window
            # moving one of its cells seems to gain.
            net = max(range(len(inc._before)), key=lambda n: inc._ptr[n + 1] - inc._ptr[n])
            inc._before[net] += 1e3
            return reorder(design, inc, submap, **kw)

        monkeypatch.setattr(engine, "local_reorder_pass", corrupt_then_reorder)
        result = NTUplace4H(fast_flow()).run(bench(seed=76), route=False)
        assert ("dp", "hpwl_mismatch") in reasons(result)
        assert result.dp_report.hpwl_mismatch

    def test_happy_path_not_degraded(self):
        d = bench(seed=77)
        result = NTUplace4H(fast_flow()).run(d, route=False)
        assert not result.degraded
        assert result.degradation == []
        assert result.telemetry["resilience"]["degradation"] == []
