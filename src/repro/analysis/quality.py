"""Quality analytics over placed designs."""

from __future__ import annotations

import numpy as np


def displacement_stats(design, reference: dict) -> dict:
    """Displacement of every movable node versus ``reference``.

    ``reference`` maps node index to ``(x, y)`` (e.g. a snapshot taken
    before legalization); entries past ``(x, y)`` are ignored.
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
