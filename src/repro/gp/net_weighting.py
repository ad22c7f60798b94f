"""Congestion-driven net weighting.

A complementary routability lever to cell inflation: nets whose bounding
boxes cross congested tiles get their weights raised, so the wirelength
objective itself preferentially shortens (and thereby re-routes) the
wires feeding hotspots.  Applied between placement passes — weights are
netlist state, so the caller re-runs (or warm-continues) the placer
afterwards.
"""

from __future__ import annotations

import numpy as np

from repro.wirelength.hpwl import net_bounding_boxes


def congestion_over_boxes(design, congestion: np.ndarray) -> np.ndarray:
    """Mean congestion seen by each net's bounding box.

    ``congestion`` is a per-tile map over ``design.routing.grid``.
    Returns one value per net (0 for degenerate nets).
    """
    if design.routing is None:
        raise ValueError("net weighting requires design.routing")
    grid = design.routing.grid
    arrays = design.pin_arrays()
    cx, cy = design.pull_centers()
    xl, yl, xh, yh = net_bounding_boxes(arrays, cx, cy)
    counts = np.diff(arrays.net_ptr)
    out = np.zeros(arrays.num_nets)
    for n in np.flatnonzero(counts >= 2):
        ix0, iy0 = grid.index_of(xl[n], yl[n])
        ix1, iy1 = grid.index_of(xh[n], yh[n])
        window = congestion[int(ix0) : int(ix1) + 1, int(iy0) : int(iy1) + 1]
        if window.size:
            out[n] = float(window.mean())
    return out


def apply_congestion_net_weights(
    design,
    congestion: np.ndarray,
    *,
    threshold: float = 0.8,
    strength: float = 1.0,
    max_weight: float = 4.0,
) -> int:
    """Raise weights of nets over congested tiles; returns nets touched.

    ``new_weight = min(max_weight, weight * (1 + strength * max(0,
    c/threshold - 1)))`` with ``c`` the mean congestion over the net's
    box.  Monotone (weights never decrease), so repeated application
    ratchets like cell inflation.
    """
    levels = congestion_over_boxes(design, congestion)
    touched = 0
    for net, c in zip(design.nets, levels):
        over = max(0.0, c / threshold - 1.0)
        if over <= 0:
            continue
        new_weight = min(max_weight, net.weight * (1.0 + strength * over))
        if new_weight > net.weight:
            net.weight = new_weight
            touched += 1
    return touched
