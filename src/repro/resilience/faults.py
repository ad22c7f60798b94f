"""Deterministic fault injection for the resilience machinery.

Every recovery path in the flow (numerical rollback, watchdog
degradation, stage fallbacks) is exercised through *fault points*:
named hooks compiled into the pipeline that normally cost one cheap
``None`` check.  A :class:`FaultPlan` arms a subset of them; each armed
fault fires exactly once, on a chosen hit of its point, so tests drive
the failure paths without flaky timing or monkeypatching internals.

Plans come from two places:

* the ``REPRO_FAULTS`` environment variable — a comma-separated list of
  ``point[@hit][=value]`` specs, e.g.
  ``REPRO_FAULTS="raise.route,gp.nan_gradient@3,clock.skew=600"`` —
  parsed lazily on first use (the CI fault-injection job uses this);
* :func:`inject`, a context manager tests use to install a plan for one
  block.

Addressing is fully deterministic: a spec ``point@n`` fires on the
``n``-th time that point is checked (1-based), independent of wall
clock, thread timing, or randomness.  Unknown point names are rejected
at parse time against :data:`FAULT_POINTS` so typos fail loudly.

On top of the deterministic ``@hit`` addressing, a spec may instead
carry a *probability*: ``point~0.05`` fires on roughly 5% of checks of
that point, every time the draw lands (not once).  Probabilistic specs
are what the chaos/soak harness (``benchmarks/bench_chaos.py``) arms:
a whole schedule of them plus a ``seed=<n>`` token makes the draw
stream reproducible — ``"serve.http_500~0.05,serve.store_write~0.02,
seed=7"`` is one seeded randomized fault schedule.
"""

from __future__ import annotations

import os
import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass

#: Registry of every fault point compiled into the pipeline.
#: name -> human description of what firing it does.
FAULT_POINTS = {
    "raise.gp": "raise FaultInjected at global-placement stage entry",
    "raise.refine": "raise FaultInjected at the post-macro refinement pass",
    "raise.legal": "raise FaultInjected at legalization stage entry",
    "raise.dp": "raise FaultInjected at detailed-placement stage entry",
    "raise.route": "raise FaultInjected at routing stage entry",
    "gp.nan_gradient": "poison the GP objective gradient with NaN "
    "(hit = objective evaluation index)",
    "watchdog.expire.gp": "force the GP stage watchdog to report expiry",
    "watchdog.expire.legal": "force the legalization watchdog to report expiry",
    "watchdog.expire.dp": "force the detailed-placement watchdog to report expiry",
    "watchdog.expire.route": "force the routing watchdog to report expiry",
    "clock.skew": "advance the watchdog clock by <value> seconds when checked",
    "checkpoint.io_error": "raise FaultInjected while writing a flow checkpoint",
    "predict.drift": "poison the hybrid-estimator congestion prediction by "
    "+<value> (default 10) so the drift detector must fall back to the "
    "router (hit = prediction index)",
    "serve.worker_exit": "hard-exit a serve worker process (os._exit) at "
    "the <hit>-th completed flow stage (crash/requeue drills)",
    "serve.store_write": "fail a job-store write transaction with a sqlite "
    "DatabaseError (store write-failure and recovery drills)",
    "serve.http_500": "make the job server answer the request with a "
    "500 (client retry drills)",
    "serve.client_conn_reset": "drop a ServeClient request with a simulated "
    "connection reset before it reaches the server (client retry drills)",
    "serve.disk_full": "fail a job-store write with ENOSPC / 'disk is "
    "full' (read-only degradation and recovery drills)",
}

ENV_VAR = "REPRO_FAULTS"


class FaultInjected(RuntimeError):
    """Raised by ``raise.*`` fault points (and checkpoint IO faults)."""

    def __init__(self, point: str):
        super().__init__(f"injected fault at {point!r}")
        self.point = point


@dataclass
class FaultSpec:
    """One armed fault.

    Deterministic form (``probability is None``): fires once, on the
    ``hit``-th check of ``point``.  Probabilistic form: fires on every
    check whose seeded draw lands under ``probability`` — repeatedly,
    for as long as the plan is installed.
    """

    point: str
    hit: int = 1
    value: str | None = None
    probability: float | None = None
    fired: bool = False
    fires: int = 0

    @staticmethod
    def parse(token: str) -> "FaultSpec":
        """Parse one ``point[@hit][~probability][=value]`` token."""
        token = token.strip()
        value: str | None = None
        if "=" in token:
            token, _, value = token.partition("=")
        probability: float | None = None
        if "~" in token:
            token, _, prob_s = token.partition("~")
            try:
                probability = float(prob_s)
            except ValueError as exc:
                raise ValueError(
                    f"bad fault probability in {token + '~' + prob_s!r}"
                ) from exc
            if not 0.0 < probability <= 1.0:
                raise ValueError(
                    f"fault probability must be in (0, 1], got {probability}"
                )
        hit = 1
        if "@" in token:
            if probability is not None:
                raise ValueError(
                    f"fault spec {token!r} mixes @hit with ~probability"
                )
            token, _, hit_s = token.partition("@")
            try:
                hit = int(hit_s)
            except ValueError as exc:
                raise ValueError(f"bad fault hit index in {token + '@' + hit_s!r}") from exc
            if hit < 1:
                raise ValueError(f"fault hit index must be >= 1, got {hit}")
        point = token.strip()
        if point not in FAULT_POINTS:
            known = ", ".join(sorted(FAULT_POINTS))
            raise ValueError(f"unknown fault point {point!r} (known: {known})")
        return FaultSpec(point=point, hit=hit, value=value,
                         probability=probability)


class FaultPlan:
    """A set of armed faults plus per-point hit counters (thread-safe).

    ``seed`` makes probabilistic (``~p``) specs reproducible: the same
    plan checked in the same order draws the same fire/no-fire stream.
    """

    def __init__(self, specs: list[FaultSpec], *, seed: int | None = None):
        self._specs: dict[str, list[FaultSpec]] = {}
        for spec in specs:
            self._specs.setdefault(spec.point, []).append(spec)
        self._hits: dict[str, int] = {}
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    @staticmethod
    def parse(text: str, *, seed: int | None = None) -> "FaultPlan":
        """Build a plan from a ``REPRO_FAULTS``-style spec string.

        A ``seed=<n>`` token inside the text seeds the probabilistic
        draw stream (it wins over the ``seed`` argument), so one string
        carries a whole reproducible randomized schedule.
        """
        specs = []
        for token in text.split(","):
            token = token.strip()
            if not token:
                continue
            if token.startswith("seed="):
                try:
                    seed = int(token[5:])
                except ValueError as exc:
                    raise ValueError(f"bad fault plan seed in {token!r}") from exc
                continue
            specs.append(FaultSpec.parse(token))
        return FaultPlan(specs, seed=seed)

    def has(self, point: str) -> bool:
        """Whether any (fired or unfired) fault is armed at ``point``."""
        return point in self._specs

    def check(self, point: str) -> FaultSpec | None:
        """Count one hit of ``point``; return the spec if a fault fires now."""
        specs = self._specs.get(point)
        if specs is None:
            return None
        with self._lock:
            count = self._hits.get(point, 0) + 1
            self._hits[point] = count
            for spec in specs:
                if spec.probability is not None:
                    if self._rng.random() < spec.probability:
                        spec.fired = True
                        spec.fires += 1
                        return spec
                elif not spec.fired and spec.hit == count:
                    spec.fired = True
                    spec.fires += 1
                    return spec
        return None

    def fired(self) -> list[FaultSpec]:
        """All specs that have fired so far."""
        return [s for specs in self._specs.values() for s in specs if s.fired]

    def fire_count(self) -> int:
        """Total fault firings so far (probabilistic specs count each)."""
        return sum(
            s.fires for specs in self._specs.values() for s in specs
        )


# -- global plan ------------------------------------------------------------
# ``None`` until first use; the sentinel distinguishes "not parsed yet"
# from "parsed, no faults configured" so the disabled path stays one
# attribute load + an ``is None`` test.
_UNSET = object()
_plan: FaultPlan | None | object = _UNSET


def fault_plan() -> FaultPlan | None:
    """The active plan, parsing ``REPRO_FAULTS`` on first call."""
    global _plan
    if _plan is _UNSET:
        text = os.environ.get(ENV_VAR, "")
        _plan = FaultPlan.parse(text) if text.strip() else None
    return _plan  # type: ignore[return-value]


def install_plan(plan: FaultPlan | None) -> None:
    """Install ``plan`` globally (``None`` disables injection)."""
    global _plan
    _plan = plan


def reset_plan() -> None:
    """Forget the active plan; the next use re-reads ``REPRO_FAULTS``."""
    global _plan
    _plan = _UNSET


@contextmanager
def inject(*tokens: str):
    """Scoped plan from spec tokens: ``with inject("raise.route"): ...``."""
    previous = fault_plan()
    plan = FaultPlan([FaultSpec.parse(t) for t in tokens])
    install_plan(plan)
    try:
        yield plan
    finally:
        install_plan(previous)


def check_fault(point: str) -> FaultSpec | None:
    """Count a hit of ``point`` against the active plan, if any."""
    plan = fault_plan()
    if plan is None:
        return None
    return plan.check(point)


def fault_armed(point: str) -> bool:
    """Cheap pre-check for hot paths: is anything armed at ``point``?"""
    plan = fault_plan()
    return plan is not None and plan.has(point)


def maybe_raise(point: str) -> None:
    """Raise :class:`FaultInjected` if a fault fires at ``point``."""
    if check_fault(point) is not None:
        raise FaultInjected(point)
