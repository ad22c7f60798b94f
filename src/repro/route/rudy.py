"""RUDY — Rectangular Uniform wire DensitY (Spindler & Johannes, DATE'07).

The fast congestion estimate used *inside* the placement loop: each net
smears a demand of ``HPWL x wire_width`` uniformly over its bounding box.
No routing is performed, so it is cheap enough to refresh every few
placement iterations; the evaluation router provides the accurate
post-placement picture.
"""

from __future__ import annotations

import numpy as np

from repro.grids import BinGrid
from repro.wirelength.hpwl import net_bounding_boxes


def rudy_map(
    arrays,
    cx: np.ndarray,
    cy: np.ndarray,
    grid: BinGrid,
    wire_width: float = 1.0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Wire-demand density per bin.

    For net ``n`` with bounding box ``w x h`` the demand density inside
    the box is ``wire_width * (w + h) / (w * h)`` — integrating to the
    net's HPWL times the wire width.  Degenerate boxes are padded to one
    bin so flat nets still register demand.

    ``out`` supplies a caller-owned ``(nx, ny)`` buffer reused across
    calls (the inflation loop refreshes this map every round); results
    are bit-identical to the allocating path.
    """
    xl, yl, xh, yh = net_bounding_boxes(arrays, cx, cy)
    counts = np.diff(arrays.net_ptr)
    active = counts >= 2
    xl, yl, xh, yh = xl[active], yl[active], xh[active], yh[active]
    pad_x = np.maximum(grid.bin_w - (xh - xl), 0.0) / 2.0
    pad_y = np.maximum(grid.bin_h - (yh - yl), 0.0) / 2.0
    xl -= pad_x
    xh += pad_x
    yl -= pad_y
    yh += pad_y
    demand = wire_width * ((xh - xl) + (yh - yl))
    box_area = np.maximum((xh - xl) * (yh - yl), 1e-12)
    # values are per-unit-area densities; integrating a box recovers its
    # HPWL * wire_width demand.
    grid_map = grid.rasterize_rects(xl, yl, xh, yh, values=demand / box_area, out=out)
    grid_map /= grid.bin_area
    return grid_map


def rudy_congestion(design) -> np.ndarray:
    """RUDY demand over track supply per routing tile (0 where a tile has
    no supply): the congestion estimate of detailed placement's gate and
    spreading."""
    spec = design.routing
    demand = rudy_map(design.pin_arrays(), *design.pull_centers(), spec.grid)
    supply = spec.supply_density()
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(supply > 0, demand / np.maximum(supply, 1e-12), 0.0)


def rudy_congestion_metrics(design, wire_width: float = 1.0):
    """Estimator-based :class:`~repro.route.metrics.CongestionMetrics`.

    The graceful-degradation fallback when the evaluation router cannot
    finish (watchdog expiry, injected fault): per routing tile, RUDY wire
    demand ``L = density * bin_area`` is compared against the track
    supply ``S = hcap * bin_h + vcap * bin_w``, and ACE/RC are computed
    over the ``L/S`` ratios exactly as for routed edge congestion.  No
    routing runs, so the numbers are estimates — the flow marks results
    built this way as degraded.
    """
    from repro.route.metrics import ACE_LEVELS, CongestionMetrics, ace

    spec = design.routing
    if spec is None:
        raise ValueError("design has no routing spec; cannot estimate congestion")
    grid = spec.grid
    arrays = design.pin_arrays()
    cx, cy = design.pull_centers()
    demand = rudy_map(arrays, cx, cy, grid, wire_width=wire_width) * grid.bin_area
    supply = spec.hcap * grid.bin_h + spec.vcap * grid.bin_w
    with np.errstate(divide="ignore", invalid="ignore"):
        congestion = np.where(supply > 0, demand / np.maximum(supply, 1e-12), np.inf)
        congestion = np.where((supply <= 0) & (demand <= 0), 0.0, congestion)
    flat = congestion.ravel()
    overflow = np.maximum(demand - supply, 0.0)
    levels = {f: ace(flat, f) for f in ACE_LEVELS}
    peak = (
        float(np.minimum(np.nan_to_num(flat, posinf=10.0), 10.0).max())
        if flat.size
        else 0.0
    )
    return CongestionMetrics(
        total_overflow=float(overflow.sum()),
        max_overflow=float(overflow.max()) if overflow.size else 0.0,
        routed_wirelength=float(demand.sum()),
        ace_levels=levels,
        rc=float(np.mean(list(levels.values()))) if levels else 0.0,
        peak_congestion=peak,
        vias=0,
    )


def pin_density_map(
    arrays,
    cx: np.ndarray,
    cy: np.ndarray,
    grid: BinGrid,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Pins per bin — a proxy for local-routing demand around dense logic.

    ``out`` supplies a caller-owned ``(nx, ny)`` buffer reused across
    calls; a zeroed buffer matches ``grid.zeros()`` bit-identically.
    """
    px, py = arrays.pin_positions(cx, cy)
    ix, iy = grid.index_of(px, py)
    if out is None:
        out = grid.zeros()
    else:
        if out.shape != (grid.nx, grid.ny):
            raise ValueError(
                f"out has shape {out.shape}, grid is ({grid.nx}, {grid.ny})"
            )
        out.fill(0.0)
    np.add.at(out, (ix, iy), 1.0)
    return out
