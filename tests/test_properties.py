"""Cross-module property-based tests (Hypothesis).

These pin the invariants that hold across whole pipelines: legality is
preserved by every detailed-placement pass, routing conserves net
connectivity, density mass is conserved under arbitrary placements, and
HPWL is invariant under the symmetries it should be.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Design, Net, Node, Pin, Row
from repro.density import BellDensity
from repro.geometry import Rect
from repro.grids import BinGrid
from repro.legal import check_legal, tetris_legalize
from repro.route import GlobalRouter, RoutingSpec
from repro.wirelength import WeightedAverage, hpwl


def build(cell_positions, nets, rows=8, sites=80):
    d = Design("p")
    for r in range(rows):
        d.add_row(Row(y=float(r), height=1.0, site_width=0.25, x_min=0.0, num_sites=sites))
    for k, (x, y) in enumerate(cell_positions):
        d.add_node(Node(f"c{k}", 1.0, 1.0, x=float(x), y=float(y)))
    for j, members in enumerate(nets):
        uniq = sorted(set(members))
        if len(uniq) >= 2:
            d.add_net(Net(f"n{j}", pins=[Pin(node=m) for m in uniq]))
    return d


positions = st.lists(
    st.tuples(st.floats(0, 18, allow_nan=False), st.floats(0, 7, allow_nan=False)),
    min_size=4,
    max_size=20,
)


@st.composite
def placed_designs(draw):
    pts = draw(positions)
    n = len(pts)
    n_nets = draw(st.integers(1, 8))
    nets = [
        draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=5))
        for _ in range(n_nets)
    ]
    return build(pts, nets)


class TestLegalizationProperties:
    @settings(max_examples=20, deadline=None)
    @given(placed_designs())
    def test_tetris_always_legalizes(self, design):
        tetris_legalize(design)
        assert check_legal(design).ok

    @settings(max_examples=20, deadline=None)
    @given(placed_designs())
    def test_tetris_preserves_cell_count_per_domain(self, design):
        before = sum(1 for n in design.nodes if n.is_movable)
        tetris_legalize(design)
        after = sum(1 for n in design.nodes if n.is_movable)
        assert before == after


class TestWirelengthProperties:
    @settings(max_examples=20, deadline=None)
    @given(placed_designs(), st.floats(0.2, 8.0, allow_nan=False))
    def test_wa_sandwich(self, design, gamma):
        arrays = design.pin_arrays()
        cx, cy = design.pull_centers()
        exact = hpwl(arrays, cx, cy)
        wa = WeightedAverage(arrays, design.num_nodes, gamma).value(cx, cy)
        assert -1e-9 <= wa <= exact + 1e-9

    @settings(max_examples=20, deadline=None)
    @given(placed_designs())
    def test_hpwl_mirror_invariance(self, design):
        """Mirroring every coordinate about x=9 leaves HPWL unchanged."""
        arrays = design.pin_arrays()
        cx, cy = design.pull_centers()
        base = hpwl(arrays, cx, cy)
        mirrored = hpwl(arrays, 18.0 - cx, cy)
        assert mirrored == pytest.approx(base, rel=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(placed_designs(), st.floats(1.1, 3.0))
    def test_hpwl_scales_linearly(self, design, scale):
        arrays = design.pin_arrays()
        cx, cy = design.pull_centers()
        base = hpwl(arrays, cx, cy)
        # Pin offsets are all zero in these designs, so scaling centres
        # scales HPWL exactly.
        assert hpwl(arrays, cx * scale, cy * scale) == pytest.approx(
            base * scale, rel=1e-9
        )


class TestDensityProperties:
    @settings(max_examples=15, deadline=None)
    @given(positions)
    def test_mass_conservation_any_placement(self, pts):
        d = build(pts, [])
        grid = BinGrid(Rect(0, 0, 20, 8), 10, 8)
        w, h = d.placed_sizes()
        dens = BellDensity(grid, w, h, d.movable_mask())
        cx, cy = d.pull_centers()
        phi, _, _ = dens.potential(cx, cy)
        assert phi.sum() == pytest.approx(float(len(pts)), rel=1e-9)


class TestRouterProperties:
    @settings(max_examples=10, deadline=None)
    @given(placed_designs())
    def test_router_wirelength_lower_bound(self, design):
        """Routed tile length >= sum of tile manhattan distances of the
        decomposed two-pin connections (each route at least spans them)."""
        design.routing = RoutingSpec.uniform(Rect(0, 0, 20, 8), 10, 8, hcap=50, vcap=50)
        router = GlobalRouter(design.routing)
        arrays = design.pin_arrays()
        cx, cy = design.pull_centers()
        i0, j0, i1, j1 = router.segments_for(arrays, cx, cy)
        lower = float(np.abs(i1 - i0).sum() + np.abs(j1 - j0).sum())
        rr = router.route(design)
        assert rr.graph.wirelength() >= lower - 1e-9

    @settings(max_examples=10, deadline=None)
    @given(placed_designs())
    def test_ample_capacity_no_overflow(self, design):
        design.routing = RoutingSpec.uniform(Rect(0, 0, 20, 8), 10, 8, hcap=1e6, vcap=1e6)
        rr = GlobalRouter(design.routing).route(design)
        assert rr.metrics.total_overflow == 0.0
