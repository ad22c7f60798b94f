"""Flow-level configuration, and the one way to set it by name."""

from __future__ import annotations

import sys
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, is_dataclass

from repro.dp import DPConfig
from repro.gp import GPConfig
from repro.gp.inflation import ESTIMATORS
from repro.wirelength.smooth import WIRELENGTH_MODELS


@dataclass
class FlowConfig:
    """Configuration of the full NTUplace4h-style flow."""

    gp: GPConfig = field(default_factory=GPConfig)
    dp: DPConfig = field(default_factory=DPConfig)
    run_dp: bool = True
    macro_channel: float = 0.0  # clearance reserved around macros
    # Congestion-driven net weighting between GP and the refinement pass
    # (extension lever; complements cell inflation).
    net_weighting: bool = False
    # Timing-driven net weighting (extension; repro.timing STA).
    timing_weighting: bool = False
    timing_weighting_strength: float = 2.0

    # Resilience (see docs/robustness.md).  The flow always validates
    # the design at entry, repairs fixable issues and refuses fatal ones.
    # Write a resumable checkpoint.json here after every completed stage.
    checkpoint_dir: str | None = None
    # Soft per-stage time budgets in seconds, keyed by a name in
    # BUDGET_STAGES; missing/None = unlimited.  Stages wind down at
    # their next loop boundary and the flow result is marked degraded.
    # Set from outside through parse_stage_budget.
    stage_budget: dict = field(default_factory=dict)
    # Observability (see docs/observability.md).
    # Append a run-history record here after every run() (the CLI's
    # --runs-dir / the REPRO_RUNS_DIR environment variable feed this).
    runs_dir: str | None = None

    @staticmethod
    def wirelength_only() -> "FlowConfig":
        """The paper's baseline: identical flow, routability levers off."""
        cfg = FlowConfig()
        cfg.gp.routability = False
        cfg.dp.congestion_aware = False
        return cfg


#: The stages a ``stage_budget`` can bound, in flow order.
BUDGET_STAGES = ("gp", "legal", "dp", "route")

#: Fields that are not tuning knobs, and where each is set instead.
NOT_OVERRIDES = {
    "stage_budget": "the stage_budget job option (repro submit --stage-budget)",
    "checkpoint_dir": "--checkpoint-dir (a serve job uses its own directory)",
    "runs_dir": "--runs-dir",
}

#: String fields that take one of a fixed set: the set their consumer
#: accepts.
CHOICES = {
    "gp.congestion_estimator": ESTIMATORS,
    "gp.wirelength_model": tuple(WIRELENGTH_MODELS),
}

#: What a leaf of each annotated type takes, and the test for it.  The
#: config modules postpone annotations, so a field's type is its text.
_TYPE_RULES = {
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    # The bound also refuses NaN, and compares a huge int exactly.
    "float": (
        "a finite number",
        lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
        and abs(v) <= sys.float_info.max,
    ),
    "str": ("a string", lambda v: isinstance(v, str)),
    "str | None": ("a string or null", lambda v: v is None or isinstance(v, str)),
}


def config_from_overrides(
    overrides: Mapping[str, object], *, wirelength_only: bool = False
) -> FlowConfig:
    """A :class:`FlowConfig` with dotted overrides applied.

    The base is :class:`FlowConfig` or, with ``wirelength_only``,
    :meth:`FlowConfig.wirelength_only`.  Each key names one tuning leaf
    of the config or of a sub-config (``"run_dp"``,
    ``"gp.max_outer_iterations"``), and each value must fit its field: a
    bool takes only true or false, an int an integer (``7.0`` counts as
    7), a float any finite number, a string field a string, and a field
    in :data:`CHOICES` one of its values.  Anything else raises
    ``ValueError`` naming the key.
    """
    cfg = FlowConfig.wirelength_only() if wirelength_only else FlowConfig()
    for key, value in overrides.items():
        key = str(key)
        if key in NOT_OVERRIDES:
            raise ValueError(
                f"flow-config override {key!r} is not a tuning field; set it "
                f"with {NOT_OVERRIDES[key]}"
            )
        *path, leaf = key.split(".")
        target = cfg
        for part in path:
            # Walk fields only, so a dunder cannot reach a class.
            target = getattr(target, part) if part in _field_types(target) else None
            if not is_dataclass(target):
                raise ValueError(f"unknown flow-config override {key!r}")
        types = _field_types(target)
        if leaf not in types:
            raise ValueError(f"unknown flow-config override {key!r}")
        if is_dataclass(getattr(target, leaf)):
            raise ValueError(
                f"flow-config override {key!r} names a sub-config; "
                "override its fields one by one"
            )
        setattr(target, leaf, _checked(key, types[leaf], value))
    return cfg


def _field_types(cfg) -> dict:
    return {f.name: f.type for f in fields(cfg)}


def _checked(key: str, kind: str, value):
    """``value`` as a field of type ``kind`` takes it; ValueError if it does not fit."""
    if kind == "int" and isinstance(value, float) and value.is_integer():
        value = int(value)
    what, fits = _TYPE_RULES[kind]
    if not fits(value):
        raise ValueError(f"flow-config override {key!r} takes {what}, got {value!r}")
    choices = CHOICES.get(key)
    if choices is not None and value not in choices:
        raise ValueError(
            f"flow-config override {key!r} takes one of "
            f"{', '.join(map(repr, choices))}, got {value!r}"
        )
    return float(value) if kind == "float" else value


def parse_stage_budget(budgets: Mapping[str, object]) -> dict:
    """``{stage: seconds or None}`` from a budget mapping, checked.

    Each key must name a stage in :data:`BUDGET_STAGES`, and each value
    must be a finite number of seconds of at least 0 (never a bool), or
    None for unlimited.  Anything else raises ``ValueError`` naming the
    key.
    """
    if not isinstance(budgets, Mapping):
        raise ValueError(
            f"stage budgets take a mapping of stage to seconds, got {budgets!r}"
        )
    _, finite = _TYPE_RULES["float"]
    out = {}
    for key, value in budgets.items():
        if key not in BUDGET_STAGES:
            raise ValueError(
                f"stage budget {key!r} names no budgeted stage; use one of "
                f"{', '.join(map(repr, BUDGET_STAGES))}"
            )
        if value is not None and not (finite(value) and value >= 0):
            raise ValueError(
                f"stage budget {key!r} takes a finite number of seconds >= 0, "
                f"or null for unlimited; got {value!r}"
            )
        out[key] = None if value is None else float(value)
    return out
