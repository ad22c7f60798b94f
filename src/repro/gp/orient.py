"""Macro orientation optimization.

The unified mixed-size placement paper introduces *rotation* and
*flipping* forces that steer each macro toward the orientation its net
connections prefer.  This module implements the discrete equivalent used
at the end of (and periodically during) global placement: for every
movable macro, evaluate the exact HPWL of its incident nets under all
eight orientations about its current centre and commit the best.  With
macros' neighbours fixed, this *is* the optimum of the rotation force's
objective, without the soft-force machinery.
"""

from __future__ import annotations

import numpy as np

from repro.db import Design, NodeKind
from repro.geometry import Orientation, transform_offset


def incident_nets(design: Design, node) -> list:
    """Indices of nets touching ``node``."""
    return sorted({pin.net for pin in node.pins})


def _best_orientation(design: Design, node, candidates):
    """The candidate orientation minimizing incident HPWL, and its cost.

    Pin coordinates of the macro's incident nets are gathered once
    (neighbours do not move between candidates), each candidate only
    refreshes the macro's own pins, and the per-net extrema come from one
    ``reduceat`` pass.  Every per-pin coordinate is produced by the same
    scalar arithmetic as the original per-pin loop (a golden twin under
    ``tests/reference/``), and the cost is accumulated in the same net
    order, so the candidate comparisons see the same values.  Ties keep
    the earliest candidate.
    """
    nets = incident_nets(design, node)
    if not nets:
        # Zero incident cost: the first candidate wins.
        return (candidates[0], 0.0) if candidates else (node.orientation, float("inf"))
    macro_index = node.index
    ucx, ucy = node.cx, node.cy
    starts = []
    weights = []
    fx, fy = [], []
    self_slots = []
    k = 0
    for n in nets:
        net = design.nets[n]
        starts.append(k)
        weights.append(net.weight)
        for pin in net.pins:
            if pin.node == macro_index:
                self_slots.append((k, pin.dx, pin.dy))
                fx.append(0.0)
                fy.append(0.0)
            else:
                other = design.nodes[pin.node]
                dx, dy = transform_offset(pin.dx, pin.dy, other.orientation)
                fx.append(other.cx + dx)
                fy.append(other.cy + dy)
            k += 1
    px = np.array(fx)
    py = np.array(fy)
    starts = np.array(starts, dtype=np.int64)
    num_nets = len(nets)
    best = node.orientation
    best_cost = float("inf")
    for orient in candidates:
        for slot, pdx, pdy in self_slots:
            dx, dy = transform_offset(pdx, pdy, orient)
            px[slot] = ucx + dx
            py[slot] = ucy + dy
        hp = (
            np.maximum.reduceat(px, starts) - np.minimum.reduceat(px, starts)
        ) + (np.maximum.reduceat(py, starts) - np.minimum.reduceat(py, starts))
        cost = 0.0
        for j in range(num_nets):
            cost += weights[j] * float(hp[j])
        if cost < best_cost - 1e-12:
            best_cost = cost
            best = orient
    return best, best_cost


def optimize_macro_orientations(
    design: Design,
    *,
    allow_rotation: bool = True,
    allow_flip: bool = True,
) -> int:
    """One orientation pass over every movable macro.

    Returns the number of macros whose orientation changed.  Rotations
    swap the outline about the centre; the caller re-pulls positions
    afterwards (pin caches invalidate automatically).
    """
    candidates = []
    for orient in Orientation:
        if not allow_rotation and orient.rotation != 0:
            continue
        if not allow_flip and orient.is_flipped:
            continue
        candidates.append(orient)
    changed = 0
    for node in design.nodes:
        if node.kind is not NodeKind.MACRO:
            continue
        best, _ = _best_orientation(design, node, candidates)
        if best is not node.orientation:
            design.set_orientation(node, best)
            changed += 1
    return changed
