"""Fence-region handling during and after global placement.

During the analytical phase fenced cells feel a quadratic pull toward the
nearest interior point of their region — a soft constraint whose weight
grows with the density penalty, so cells drift in as the placement
spreads.  After the phase, :func:`project_into_fences` snaps any remaining
offender hard inside (legalization keeps them there).
"""

from __future__ import annotations

import numpy as np

from repro.geometry import Point


class FencePenalty:
    """Quadratic distance-to-fence penalty, vectorized per region."""

    def __init__(self, design):
        self.design = design
        self.num_nodes = len(design.nodes)
        # Per region: member node indices and their half-sizes.
        self.groups = []
        region = design.region_ids()
        fenced = (region >= 0) & design.movable_mask()
        w, h = design.placed_sizes()
        for rid in np.unique(region[fenced]):
            idx = np.flatnonzero(fenced & (region == rid))
            self.groups.append((design.regions[rid], idx, w[idx] / 2, h[idx] / 2))

    @property
    def active(self) -> bool:
        return bool(self.groups)

    def targets(self, cx: np.ndarray, cy: np.ndarray):
        """Nearest in-fence centre for every fenced node.

        Shrinks each member rectangle by the cell's half-size so the
        *outline*, not just the centre, ends up inside.  Returns
        ``(idx, tx, ty)`` concatenated over regions.
        """
        all_idx, all_tx, all_ty = [], [], []
        for region, idx, hw, hh in self.groups:
            tx = np.empty(len(idx))
            ty = np.empty(len(idx))
            best = np.full(len(idx), np.inf)
            for rect in region.rects:
                # Candidate clamp against this member rect, vectorized.
                lo_x = np.minimum(rect.xl + hw, rect.xh - hw)
                hi_x = np.maximum(rect.xl + hw, rect.xh - hw)
                lo_y = np.minimum(rect.yl + hh, rect.yh - hh)
                hi_y = np.maximum(rect.yl + hh, rect.yh - hh)
                cand_x = np.clip(cx[idx], lo_x, hi_x)
                cand_y = np.clip(cy[idx], lo_y, hi_y)
                dist = (cand_x - cx[idx]) ** 2 + (cand_y - cy[idx]) ** 2
                better = dist < best
                tx[better] = cand_x[better]
                ty[better] = cand_y[better]
                best[better] = dist[better]
            all_idx.append(idx)
            all_tx.append(tx)
            all_ty.append(ty)
        return (
            np.concatenate(all_idx),
            np.concatenate(all_tx),
            np.concatenate(all_ty),
        )

    def value_grad(self, cx: np.ndarray, cy: np.ndarray):
        """``sum ||c - t||^2`` over fenced nodes and its gradient."""
        grad_x = np.zeros(self.num_nodes)
        grad_y = np.zeros(self.num_nodes)
        if not self.groups:
            return 0.0, grad_x, grad_y
        idx, tx, ty = self.targets(cx, cy)
        dx = cx[idx] - tx
        dy = cy[idx] - ty
        value = float(np.sum(dx * dx + dy * dy))
        grad_x[idx] = 2.0 * dx
        grad_y[idx] = 2.0 * dy
        return value, grad_x, grad_y

    def value(self, cx: np.ndarray, cy: np.ndarray) -> float:
        return self.value_grad(cx, cy)[0]


def fence_violation(design) -> tuple:
    """(#fenced cells outside their region, total outside distance).

    The compliance metric plotted by the fence figure.
    """
    count = 0
    total = 0.0
    for node in design.nodes:
        if node.region is None or not node.is_movable:
            continue
        region = design.regions[node.region]
        if region.contains_rect(node.rect):
            continue
        count += 1
        p = region.clamp_point(Point(node.cx, node.cy))
        total += (Point(node.cx, node.cy) - p).norm()
    return count, total


def project_into_fences(design) -> int:
    """Hard-snap every fenced movable node inside its region.

    Returns the number of nodes moved.  Uses the member rectangle whose
    clamp displaces the node least.
    """
    moved = 0
    for node in design.nodes:
        if node.region is None or not node.is_movable:
            continue
        region = design.regions[node.region]
        rect = node.rect
        if region.contains_rect(rect):
            continue
        origin = region.clamp_rect_origin(rect)
        node.x, node.y = origin.x, origin.y
        moved += 1
    return moved
