"""The composed global-placement objective against finite differences.

GP minimizes ``WA + lambda * bell density + mu * fence penalty``, with the
density areas inflated by the congestion loop.  Each term's gradient is
checked alone in its own test module; this checks their sum, on a small
fenced design with a movable macro, as the CG sees it.
"""

import numpy as np
import pytest

from repro.db import Design, Net, Node, NodeKind, Pin, Region
from repro.density import BellDensity
from repro.geometry import Rect
from repro.gp import FencePenalty
from repro.grids import BinGrid
from repro.wirelength import finite_difference_gradient, make_model

LAMBDA = 0.8
MU = 0.05
# Largest error allowed, relative to the largest finite-difference
# gradient entry.
RTOL = 1e-6


def fenced_design():
    rng = np.random.default_rng(4)
    d = Design("obj", core=Rect(0, 0, 60, 60))
    fence = d.add_region(Region("f", rects=[Rect(36, 36, 56, 56)]))
    for i in range(24):
        d.add_node(
            Node(
                f"c{i}", float(rng.uniform(1.0, 3.0)), 1.0,
                region=fence.index if i < 6 else None,
            )
        )
    # wider than the window sweeps take: the density walks it per node
    d.add_node(Node("macro", 20.0, 12.0, kind=NodeKind.MACRO))
    d.add_node(Node("blk", 8.0, 8.0, kind=NodeKind.FIXED, x=4.0, y=44.0))
    macro = 24
    for j in range(30):
        members = rng.choice(24, size=int(rng.integers(2, 5)), replace=False)
        pins = [Pin(node=int(m)) for m in members]
        if j % 5 == 0:
            pins.append(Pin(node=macro, dx=float(rng.uniform(-6, 6)), dy=4.0))
        d.add_net(Net(f"n{j}", pins=pins))
    return d


def objective(d):
    grid = BinGrid(d.core, 12, 12)
    w, h = d.placed_sizes()
    fixed = [(n.rect.xl, n.rect.yl, n.rect.xh, n.rect.yh) for n in d.nodes if n.kind.is_fixed]
    density = BellDensity(grid, w, h, d.movable_mask(), fixed_rects=fixed, target_density=0.9)
    inflation = np.where(d.movable_mask(), 1.0 + 0.6 * (np.arange(d.num_nodes) % 4) / 3, 1.0)
    density.set_areas(density.areas * inflation)
    wl = make_model("wa", d.pin_arrays(), d.num_nodes, 2.0)
    fence = FencePenalty(d)

    def value(cx, cy):
        return wl.value(cx, cy) + LAMBDA * density.value(cx, cy) + MU * fence.value(cx, cy)

    def grad(cx, cy):
        _, wgx, wgy = wl.value_grad(cx, cy)
        _, dgx, dgy = density.value_grad(cx, cy)
        _, fgx, fgy = fence.value_grad(cx, cy)
        return wgx + LAMBDA * dgx + MU * fgx, wgy + LAMBDA * dgy + MU * fgy

    return value, grad


@pytest.mark.parametrize("layout", ["spread", "clustered"])
def test_composed_gradient_matches_finite_difference(layout):
    d = fenced_design()
    rng = np.random.default_rng(7)
    cx, cy = d.pull_centers()
    mov = np.flatnonzero(d.movable_mask())
    if layout == "spread":
        cx[mov] = rng.uniform(4.0, 56.0, len(mov))
        cy[mov] = rng.uniform(4.0, 56.0, len(mov))
    else:
        cx[mov] = 30.0 + rng.uniform(-3.0, 3.0, len(mov))
        cy[mov] = 30.0 + rng.uniform(-3.0, 3.0, len(mov))
    value, grad = objective(d)
    gx, gy = grad(cx, cy)
    fgx, fgy = finite_difference_gradient(value, cx, cy, eps=1e-5, indices=mov)
    scale = max(np.abs(fgx).max(), np.abs(fgy).max())
    # every term contributes to the checked gradient
    assert np.abs(fgx).max() > 0 and MU * FencePenalty(d).value(cx, cy) > 0
    assert np.abs(gx[mov] - fgx).max() <= RTOL * scale
    assert np.abs(gy[mov] - fgy).max() <= RTOL * scale
