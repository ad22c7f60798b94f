"""Equivalence tests: optimized router hot paths vs their references.

Every optimized path introduced by the router overhaul (vectorized
decomposition, CSR-incidence offender scan, diff-array commits,
incremental cost refresh, array-based maze A*)
is held against the original implementation (its golden twin in
``tests/reference/``) on the same inputs and must match *exactly* — same
arrays, same tie-breaking, same metrics.  The full-route test also runs
suite designs (rh02 on every push, rh06 under the ``nightly`` marker),
whose metrics must stay within tolerance of the values committed in
:data:`SUITE_QUALITY`.
"""

import numpy as np
import pytest

from repro.benchgen import BenchmarkSpec, make_benchmark, make_suite_design
from repro.baselines.random_place import random_placement
from repro.db import Design, Net, Node, Pin
from repro.geometry import Rect
from repro.route import GlobalRouter, GridGraph, RoutingSpec
from repro.route.maze import maze_route
from repro.route.pattern import prefix_costs
from repro.route.steiner import (
    clear_decompose_cache,
    decompose_all,
    decompose_cache_size,
    decompose_net,
)
from tests.quality import assert_quality
from tests.reference import ROUTE_TWINS, use_reference
from tests.reference.route import _commit_all_reference, commit_all, maze_route_reference


#: Routed metrics per suite design, from ``random_placement(seed=7)``.
SUITE_QUALITY = {
    "rh02": {
        "rc": 4.852401972927887,
        "total_overflow": 15079.708718650252,
        "peak_congestion": 6.092059629344524,
        "vias": 14901,
    },
    "rh06": {
        "rc": 3.2462761207715163,
        "total_overflow": 90492.35858869649,
        "peak_congestion": 4.135649296939615,
        "vias": 81269,
    },
}


def small_routed_design(seed=3, cells=260):
    spec = BenchmarkSpec(
        name=f"eq{seed}", num_cells=cells, num_macros=2, seed=seed
    )
    design = make_benchmark(spec)
    random_placement(design, seed=seed)
    return design


def reference_segments(arrays, tix, tiy):
    seg = []
    ptr = arrays.net_ptr
    for n in range(arrays.num_nets):
        a, b = ptr[n], ptr[n + 1]
        if b - a < 2:
            continue
        seg.extend(decompose_net(tix[a:b], tiy[a:b]))
    return np.asarray(seg, dtype=np.int64).reshape(-1, 4)


class TestDecomposeAll:
    @pytest.mark.parametrize("seed", [1, 2, 5])
    def test_matches_per_net_reference_exactly(self, seed):
        design = small_routed_design(seed=seed)
        arrays = design.pin_arrays()
        cx, cy = design.pull_centers()
        grid = design.routing.grid
        px, py = arrays.pin_positions(cx, cy)
        tix, tiy = grid.index_of(px, py)
        ref = reference_segments(arrays, tix, tiy)
        clear_decompose_cache()
        i0, j0, i1, j1, stats = decompose_all(tix, tiy, arrays.net_ptr)
        got = np.stack([i0, j0, i1, j1], axis=1)
        np.testing.assert_array_equal(got, ref)
        assert stats["deg2"] + stats["deg3"] + stats["mst_misses"] > 0

    def test_mst_memo_hits_on_repeat(self):
        design = small_routed_design(seed=9)
        arrays = design.pin_arrays()
        cx, cy = design.pull_centers()
        grid = design.routing.grid
        px, py = arrays.pin_positions(cx, cy)
        tix, tiy = grid.index_of(px, py)
        clear_decompose_cache()
        *_, first = decompose_all(tix, tiy, arrays.net_ptr)
        assert decompose_cache_size() == first["mst_misses"]
        *_, second = decompose_all(tix, tiy, arrays.net_ptr)
        assert second["mst_misses"] == 0
        assert second["mst_hits"] == first["mst_misses"]

    def test_empty_case_returns_independent_arrays(self):
        # Regression: the empty case must not hand out one aliased array
        # four times — callers append to / reuse them independently.
        for router_arrays in (
            decompose_all(
                np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(1, np.int64)
            )[:4],
        ):
            i0, j0, i1, j1 = router_arrays
            assert all(len(a) == 0 for a in (i0, j0, i1, j1))
            ids = {id(a) for a in (i0, j0, i1, j1)}
            assert len(ids) == 4

    def test_reference_empty_case_independent(self):
        d = Design("empty", core=Rect(0, 0, 8, 8))
        n = d.add_node(Node("a", 1, 1))
        net = Net("n0", pins=[Pin(node=n.index)])
        d.add_net(net)
        d.routing = RoutingSpec.uniform(d.core, 4, 4)
        router = GlobalRouter(d.routing)
        with use_reference() as calls:
            i0, j0, i1, j1 = router.segments_for(d.pin_arrays(), *d.pull_centers())
        assert calls["decompose"] == 1
        assert len({id(a) for a in (i0, j0, i1, j1)}) == 4


class TestMazeEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_grids(self, seed):
        rng = np.random.default_rng(seed)
        nx, ny = int(rng.integers(6, 18)), int(rng.integers(6, 18))
        cost_e = 1.0 + rng.random((nx - 1, ny)) * 4.0
        cost_n = 1.0 + rng.random((nx, ny - 1)) * 4.0
        for _ in range(25):
            s = (int(rng.integers(nx)), int(rng.integers(ny)))
            g = (int(rng.integers(nx)), int(rng.integers(ny)))
            if rng.random() < 0.5:
                lo_i, hi_i = sorted((s[0], g[0]))
                lo_j, hi_j = sorted((s[1], g[1]))
                window = (
                    max(0, lo_i - 2),
                    max(0, lo_j - 2),
                    min(nx - 1, hi_i + 2),
                    min(ny - 1, hi_j + 2),
                )
            else:
                window = None
            c_ref, r_ref = maze_route_reference(cost_e, cost_n, s, g, window)
            c_opt, r_opt = maze_route(cost_e, cost_n, s, g, window)
            assert c_opt == c_ref
            assert r_opt == r_ref

    def test_blocked_window_unreachable(self):
        cost_e = np.full((3, 4), 1.0)
        cost_n = np.full((4, 3), 1.0)
        cost_e[:, :] = np.inf
        cost_n[:, :] = np.inf
        c_ref, r_ref = maze_route_reference(cost_e, cost_n, (0, 0), (3, 2))
        c_opt, r_opt = maze_route(cost_e, cost_n, (0, 0), (3, 2))
        assert np.isinf(c_ref) == np.isinf(c_opt)
        # Both still find a path (inf cost) or both fail identically.
        assert (r_ref is None) == (r_opt is None)


class TestBookkeepingEquivalence:
    def _routes(self, seed=4):
        rng = np.random.default_rng(seed)
        spec = RoutingSpec.uniform(Rect(0, 0, 32, 32), 12, 12, hcap=2, vcap=2)
        routes = []
        for _ in range(60):
            runs = []
            for _ in range(int(rng.integers(0, 4))):
                if rng.random() < 0.5:
                    j = int(rng.integers(12))
                    a, b = sorted(rng.integers(0, 12, size=2).tolist())
                    if b > a:
                        runs.append(("H", j, a, b))
                else:
                    i = int(rng.integers(12))
                    a, b = sorted(rng.integers(0, 12, size=2).tolist())
                    if b > a:
                        runs.append(("V", i, a, b))
            routes.append(runs)
        return spec, routes

    def test_commit_all_matches_reference(self):
        spec, routes = self._routes()
        g1, g2 = GridGraph(spec), GridGraph(spec)
        commit_all(g1, routes)
        _commit_all_reference(g2, routes)
        np.testing.assert_array_equal(g1.use_e, g2.use_e)
        np.testing.assert_array_equal(g1.use_n, g2.use_n)

    def test_offender_scan_matches_reference(self):
        spec, routes = self._routes(seed=11)
        graph = GridGraph(spec)
        commit_all(graph, routes)
        router = GlobalRouter(spec)
        opt = router._offending_segments(graph, routes)
        with use_reference() as calls:
            ref = router._offending_segments(graph, routes)
        assert calls["offenders"] == 1
        assert sorted(np.asarray(opt).tolist()) == sorted(ref)

    def test_refresh_cost_lines_matches_full_rebuild(self):
        spec, routes = self._routes(seed=7)
        graph = GridGraph(spec)
        commit_all(graph, routes)
        graph.bump_history()
        cost_e, cost_n = graph.cost_arrays()
        pe, pn = prefix_costs(cost_e, cost_n)
        # Mutate usage on a few lines, then refresh only those.
        graph.add_horizontal_run(3, 1, 9)
        graph.add_vertical_run(5, 0, 7)
        graph.add_horizontal_run(8, 2, 4, -1.0)
        graph.refresh_cost_lines(cost_e, cost_n, pe, pn, {3, 8}, {5})
        full_e, full_n = graph.cost_arrays()
        fpe, fpn = prefix_costs(full_e, full_n)
        np.testing.assert_array_equal(cost_e, full_e)
        np.testing.assert_array_equal(cost_n, full_n)
        np.testing.assert_array_equal(pe, fpe)
        np.testing.assert_array_equal(pn, fpn)


class TestFullRouteEquivalence:
    @pytest.mark.parametrize(
        "source",
        [
            2,
            8,
            pytest.param("rh02", id="rh02"),
            pytest.param("rh06", id="rh06", marks=pytest.mark.nightly),
        ],
    )
    def test_reference_and_optimized_identical(self, source):
        if isinstance(source, str):
            design = make_suite_design(source)
            random_placement(design, seed=7)
        else:
            design = small_routed_design(seed=source, cells=300)
        clear_decompose_cache()
        router = GlobalRouter(design.routing)
        cold = router.route(design)
        warm = router.route(design)
        with use_reference() as calls:
            ref = GlobalRouter(design.routing).route(design)
        assert [t for t in ROUTE_TWINS if not calls[t]] == []
        for res in (cold, warm):
            np.testing.assert_array_equal(res.graph.use_e, ref.graph.use_e)
            np.testing.assert_array_equal(res.graph.use_n, ref.graph.use_n)
            assert res.metrics.rc == ref.metrics.rc
            assert res.metrics.total_overflow == ref.metrics.total_overflow
            assert res.metrics.peak_congestion == ref.metrics.peak_congestion
            assert res.metrics.vias == ref.metrics.vias
            assert res.num_segments == ref.num_segments
            assert res.overflow_per_round == ref.overflow_per_round
        if isinstance(source, str):
            fresh = {
                "rc": ref.metrics.rc,
                "total_overflow": ref.metrics.total_overflow,
                "peak_congestion": ref.metrics.peak_congestion,
                "vias": ref.metrics.vias,
            }
            assert_quality(fresh, SUITE_QUALITY[source])


# Flags that once copied a config field.  Each flow knob now has one
# spelling, ``place --set``, and the router always refreshes rip-up
# costs incrementally and exactly.
_REMOVED_FLAGS = [
    pytest.param(command, flag, id=f"{command}-{flag[2:]}")
    for command, flags in (
        ("place", ("--route-sweeps", "--maze-rounds", "--max-maze-nets",
                   "--dp-passes", "--estimator", "--predict-model",
                   "--predict-interval", "--predict-drift-tol")),
        ("route", ("--route-sweeps", "--maze-rounds", "--max-maze-nets")),
    )
    for flag in flags
]


class TestKnobPlumbing:
    @pytest.mark.parametrize(
        "command,flag",
        [pytest.param("place", "--cost-refresh", id="place"),
         pytest.param("route", "--cost-refresh", id="route")]
        + _REMOVED_FLAGS,
    )
    def test_cost_refresh_flag_refused(self, command, flag, capsys):
        from repro.cli import build_parser

        parser = build_parser()
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([command, "--aux", "x.aux", flag, "9"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
