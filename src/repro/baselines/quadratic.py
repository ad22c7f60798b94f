"""A SimPL-lineage quadratic baseline placer.

Global placement by alternating two steps:

1. **Bound-to-bound (B2B) quadratic solve** — each net contributes
   springs from its boundary pins to every other pin with the B2B
   weights, making the quadratic optimum match HPWL at the linearization
   point (Spindler et al.).  Solved per axis by conjugate gradients
   (:func:`repro.optim.solve_cg`).
   Anchor pseudo-springs pull toward the previous spread positions.
2. **Grid warping spread** — per-axis cumulative-density equalization
   over a bin grid moves cells out of overfull bins (the Kraftwerk-style
   lookahead that plays the role of SimPL's rough legalization).

The result feeds the shared legalization/DP backend.  No routability
awareness — that is the point of the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.db import Design
from repro.gp.initial import initial_placement
from repro.grids import BinGrid
from repro.optim import solve_cg

ANCHOR_WEIGHT_INITIAL = 0.01  # pseudo-spring weight toward the last spread
ANCHOR_WEIGHT_GROWTH = 1.6  # per iteration
SPREAD_BINS = 24  # warping grid bins per axis
SPREAD_STRENGTH = 0.8  # 1.0 = full CDF equalization per step


@dataclass
class QuadraticConfig:
    """Knobs of :class:`QuadraticPlacer`."""

    iterations: int = 12
    seed: int = 7


class QuadraticPlacer:
    """B2B quadratic global placement with warping-based spreading."""

    def __init__(self, config: QuadraticConfig | None = None):
        self.config = config or QuadraticConfig()

    def place(self, design: Design) -> dict:
        """Run global placement; returns convergence info."""
        cfg = self.config
        initial_placement(design, seed=cfg.seed)
        mov = design.movable_indices()
        if len(mov) == 0:
            return {"iterations": 0}
        mov_pos = {int(i): k for k, i in enumerate(mov)}
        cx, cy = design.pull_centers()
        anchor_w = ANCHOR_WEIGHT_INITIAL
        info = {"iterations": 0, "hpwl": []}
        for it in range(cfg.iterations):
            cx, cy = self._solve_axis_pair(design, cx, cy, mov, mov_pos, anchor_w)
            cx, cy = self._spread(design, cx, cy, mov)
            design.push_centers(cx, cy)
            info["iterations"] = it + 1
            info["hpwl"].append(design.hpwl())
            anchor_w *= ANCHOR_WEIGHT_GROWTH
        return info

    # ------------------------------------------------------------------
    def _solve_axis_pair(self, design, cx, cy, mov, mov_pos, anchor_w):
        new_cx = self._solve_axis(design, cx, mov, mov_pos, anchor_w, axis=0)
        new_cy = self._solve_axis(design, cy, mov, mov_pos, anchor_w, axis=1)
        cx = cx.copy()
        cy = cy.copy()
        cx[mov] = new_cx
        cy[mov] = new_cy
        return cx, cy

    def _solve_axis(self, design, coord, mov, mov_pos, anchor_w, axis):
        """Assemble and solve the B2B system for one axis."""
        # Imported here, by its only user: SciPy's import costs a process
        # about half a second of CPU, and no other stage needs it.
        import scipy.sparse as sp

        m = len(mov)
        rows, cols, vals = [], [], []
        diag = np.zeros(m)
        rhs = np.zeros(m)

        def add_spring(a: int, b: int, w: float, pa: float, pb: float):
            """Spring between nodes a, b with offsets folded into rhs."""
            ia = mov_pos.get(a)
            ib = mov_pos.get(b)
            off_a = pa - coord[a]
            off_b = pb - coord[b]
            if ia is not None:
                diag[ia] += w
                rhs[ia] += w * (off_b - off_a)
            if ib is not None:
                diag[ib] += w
                rhs[ib] += w * (off_a - off_b)
            if ia is not None and ib is not None:
                rows.append(ia)
                cols.append(ib)
                vals.append(-w)
                rows.append(ib)
                cols.append(ia)
                vals.append(-w)
            elif ia is not None:
                rhs[ia] += w * coord[b]
            elif ib is not None:
                rhs[ib] += w * coord[a]

        arrays = design.pin_arrays()
        offs = arrays.pin_dx if axis == 0 else arrays.pin_dy
        for n in range(arrays.num_nets):
            a0, a1 = int(arrays.net_ptr[n]), int(arrays.net_ptr[n + 1])
            k = a1 - a0
            if k < 2:
                continue
            nodes = arrays.pin_node[a0:a1]
            pos = coord[nodes] + offs[a0:a1]
            weight = arrays.net_weight[n]
            lo = int(np.argmin(pos))
            hi = int(np.argmax(pos))
            span = max(pos[hi] - pos[lo], 1e-6)
            base = weight * 2.0 / (k - 1)
            for j in range(k):
                for b in (lo, hi):
                    if j == b or (j == lo and b == hi):
                        continue
                    w = base / max(abs(pos[j] - pos[b]), 0.1 * span, 1e-6)
                    add_spring(
                        int(nodes[j]), int(nodes[b]), w, float(pos[j]), float(pos[b])
                    )
        # Anchors to current positions keep the system well-posed and
        # implement the spreading feedback.
        diag += anchor_w
        target = coord[mov]
        rhs += anchor_w * target
        lap = sp.coo_matrix((vals, (rows, cols)), shape=(m, m)).tocsr()
        lap += sp.diags(diag)
        return solve_cg(lap, rhs, target, rtol=1e-6, maxiter=300)

    # ------------------------------------------------------------------
    def _spread(self, design, cx, cy, mov):
        """One step of per-axis cumulative-density warping."""
        core = design.core
        grid = BinGrid(core, SPREAD_BINS, SPREAD_BINS)
        w, h = design.placed_sizes()
        usage = grid.rasterize_rects(
            cx[mov] - w[mov] / 2,
            cy[mov] - h[mov] / 2,
            cx[mov] + w[mov] / 2,
            cy[mov] + h[mov] / 2,
        )
        cx = cx.copy()
        cy = cy.copy()
        cx[mov] = self._warp_axis(
            cx[mov], usage.sum(axis=1), core.xl, grid.bin_w, SPREAD_STRENGTH
        )
        cy[mov] = self._warp_axis(
            cy[mov], usage.sum(axis=0), core.yl, grid.bin_h, SPREAD_STRENGTH
        )
        # Fenced cells stay near their regions: clamp to fence bounding box.
        for node in design.nodes:
            if node.region is not None and node.is_movable:
                box = design.regions[node.region].bounding_box
                cx[node.index] = min(max(cx[node.index], box.xl), box.xh)
                cy[node.index] = min(max(cy[node.index], box.yl), box.yh)
        return cx, cy

    @staticmethod
    def _warp_axis(pos, density, origin, pitch, strength):
        """Map coordinates through the equalizing CDF of ``density``."""
        n = len(density)
        total = density.sum()
        if total <= 0:
            return pos
        cdf = np.concatenate([[0.0], np.cumsum(density)]) / total
        edges = origin + np.arange(n + 1) * pitch
        # Position -> cdf fraction -> uniform remap.
        frac = np.interp(pos, edges, cdf)
        uniform = origin + frac * n * pitch
        return (1.0 - strength) * pos + strength * uniform
