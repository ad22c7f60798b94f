"""Timing-driven net weighting.

The classical coupling between STA and analytical placement: each net's
weight grows with its *criticality* (how close its slack is to the worst
slack), so the wirelength objective preferentially shortens timing-
critical wires.  Monotone and bounded, like the congestion weighting it
sits beside.
"""

from __future__ import annotations

import numpy as np

from repro.timing.sta import TimingReport, analyze


def criticality(report: TimingReport) -> np.ndarray:
    """Per-net criticality in [0, 1]: 1 = worst slack, 0 = fully relaxed.

    Nets without timing arcs get 0.
    """
    slack = report.net_slack
    finite = np.isfinite(slack)
    out = np.zeros(len(slack))
    if not finite.any():
        return out
    worst = float(slack[finite].min())
    best = float(slack[finite].max())
    span = max(best - worst, 1e-12)
    out[finite] = np.clip((best - slack[finite]) / span, 0.0, 1.0)
    return out


def apply_timing_net_weights(
    design,
    report: TimingReport | None = None,
    *,
    strength: float = 2.0,
    exponent: float = 2.0,
    max_weight: float = 5.0,
    threshold: float = 0.6,
) -> int:
    """Raise net weights by criticality; returns nets touched.

    Only nets with criticality above ``threshold`` are touched (weighting
    the whole netlist just rescales the objective and inflates HPWL);
    within the critical cone,
    ``new_weight = min(max_weight, weight * (1 + strength * c'^exponent))``
    with ``c'`` the criticality renormalized over the cone.
    """
    if report is None:
        report = analyze(design)
    crit = criticality(report)
    touched = 0
    span = max(1.0 - threshold, 1e-12)
    for net, c in zip(design.nets, crit):
        if c < threshold:
            continue
        cc = (c - threshold) / span
        new_weight = min(max_weight, net.weight * (1.0 + strength * cc**exponent))
        if new_weight > net.weight + 1e-12:
            net.weight = new_weight
            touched += 1
    return touched
