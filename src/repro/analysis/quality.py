"""Quality analytics over placed designs."""

from __future__ import annotations

import numpy as np

from repro.wirelength.hpwl import hpwl_per_net


def net_length_stats(design) -> dict:
    """Distribution statistics of per-net HPWL (unweighted).

    The long tail is what routability work attacks; the mean tracks the
    placer's core objective.
    """
    arrays = design.pin_arrays()
    cx, cy = design.pull_centers()
    lengths = hpwl_per_net(arrays, cx, cy)
    active = lengths[np.diff(arrays.net_ptr) >= 2]
    if active.size == 0:
        return {"count": 0}
    return {
        "count": int(active.size),
        "total": float(active.sum()),
        "mean": float(active.mean()),
        "median": float(np.median(active)),
        "p90": float(np.percentile(active, 90)),
        "p99": float(np.percentile(active, 99)),
        "max": float(active.max()),
    }


def displacement_stats(design, reference: dict) -> dict:
    """Displacement of every movable node versus ``reference``.

    ``reference`` maps node index to ``(x, y)`` (e.g. a snapshot taken
    before legalization — the shape ``Design.clone_placement`` returns
    also works, orientation entries are ignored).
    """
    disps = []
    for node in design.nodes:
        if not node.is_movable or node.index not in reference:
            continue
        ref = reference[node.index]
        disps.append(abs(node.x - ref[0]) + abs(node.y - ref[1]))
    if not disps:
        return {"count": 0}
    arr = np.asarray(disps)
    return {
        "count": int(arr.size),
        "total": float(arr.sum()),
        "mean": float(arr.mean()),
        "p90": float(np.percentile(arr, 90)),
        "max": float(arr.max()),
    }
