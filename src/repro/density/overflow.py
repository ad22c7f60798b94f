"""The exact-overlap density-overflow report metric."""

from __future__ import annotations

import numpy as np

from repro.grids import BinGrid


def density_overflow(design, target_density: float = 1.0, nx: int = 64, ny: int = 64) -> float:
    """Total density overflow, normalized by total movable area.

    ``sum_b max(0, usage_b - target * free_b) / movable_area`` — the
    convergence criterion of global placement and a column of the result
    tables.  Zero means every bin respects the density target.
    """
    grid = BinGrid(design.core, nx, ny)
    usage = grid.zeros()
    blocked = grid.zeros()
    movable_area = 0.0
    for node in design.nodes:
        r = node.rect
        if node.is_movable:
            grid.add_rect(usage, r)
            movable_area += node.area
        elif node.kind.blocks_placement:
            grid.add_rect(blocked, r)
    if movable_area <= 0:
        return 0.0
    free = np.maximum(grid.bin_area - blocked, 0.0)
    over = np.maximum(usage - target_density * free, 0.0)
    return float(np.sum(over) / movable_area)
