"""The evaluation global router.

Three phases, each congestion-aware:

1. **L sweeps** — every two-pin connection gets the cheaper of its two
   one-bend routes; the whole sweep is vectorized with prefix-summed edge
   costs and repeated so later sweeps see earlier demand.
2. **Z refinement** — connections crossing overflowed edges are ripped and
   re-routed with the best two-bend route.
3. **Maze rip-up-and-reroute** — remaining offenders go through A* with
   PathFinder-style history costs, several rounds.

The router is deliberately an *evaluator*: good enough to rank placements
by routability (the contest methodology), not a sign-off router.

Hot-path layout (see ``docs/performance.md``): decomposition runs through
the vectorized, memoized :func:`~repro.route.steiner.decompose_all`;
offender detection flattens every route's runs into edge-interval arrays
and intersects them with prefix-summed overflow masks (the CSR
incidence trick), so a rip-up round costs O(runs) numpy instead of a
Python scan with per-run ``any()``; usage updates are incremental
(rip/commit touch only the changed segment's edges, L-sweep rebuilds
use the diff-array/cumsum commit), and rip-up refreshes only the cost
lines a rip or commit dirtied.  The original per-net/dict/scan
implementations are golden twins under ``tests/reference/``, held
against these paths by ``tests/test_route_perf_equiv.py``, on small
designs and on suite designs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs import get_tracer
from repro.route.graph import GridGraph
from repro.route.maze import maze_route
from repro.route.metrics import CongestionMetrics, congestion_metrics
from repro.route.pattern import best_z_route, l_route_costs, prefix_costs, runs_cost
from repro.route.spec import RoutingSpec
from repro.route.steiner import decompose_all


class RouteTimeout(RuntimeError):
    """Routing was cut short by its stage watchdog.

    Raised cooperatively at round boundaries when the ``should_stop``
    callback passed to :meth:`GlobalRouter.route` returns True; the flow
    catches it and degrades to estimator-based congestion metrics.
    """

    def __init__(self, phase: str, rounds_done: int):
        super().__init__(
            f"routing stopped by watchdog during {phase} "
            f"({rounds_done} rounds completed)"
        )
        self.phase = phase
        self.rounds_done = rounds_done


@dataclass
class RouteResult:
    """Outcome of routing one placement."""

    graph: GridGraph
    metrics: CongestionMetrics
    num_segments: int
    maze_rerouted: int
    # Total overflow after each rip-up/re-route round: index 0 is the
    # initial L-sweep commit, then one entry per Z/maze round that ran.
    overflow_per_round: list = field(default_factory=list)

    @property
    def rc(self) -> float:
        return self.metrics.rc

    def congestion_map(self) -> np.ndarray:
        """Per-tile congestion heat map (usage/capacity)."""
        return self.graph.tile_congestion()


class GlobalRouter:
    """Routes a placed design over a :class:`RoutingSpec`."""

    def __init__(
        self,
        spec: RoutingSpec,
        *,
        sweeps: int = 2,
        z_refine: bool = True,
        maze_rounds: int = 3,
        max_maze_nets: int = 1500,
        maze_window_margin: int = 6,
    ):
        self.spec = spec
        self.sweeps = max(1, sweeps)
        self.z_refine = z_refine
        self.maze_rounds = maze_rounds
        self.max_maze_nets = max_maze_nets
        self.maze_window_margin = maze_window_margin

    # ------------------------------------------------------------------
    def segments_for(self, arrays, cx: np.ndarray, cy: np.ndarray):
        """Two-pin tile connections of every net of the placement."""
        grid = self.spec.grid
        px, py = arrays.pin_positions(cx, cy)
        tix, tiy = grid.index_of(px, py)
        return self._segments(arrays, tix, tiy)

    @staticmethod
    def _segments(arrays, tix, tiy):
        """Two-pin connections of every net, from pin tile indices."""
        i0, j0, i1, j1, stats = decompose_all(tix, tiy, arrays.net_ptr)
        metrics = get_tracer().metrics
        metrics.counter("route.decompose.deg2_batched").inc(stats["deg2"])
        metrics.counter("route.decompose.deg3_batched").inc(stats["deg3"])
        metrics.counter("route.decompose.mst_cache_hits").inc(stats["mst_hits"])
        metrics.counter("route.decompose.mst_cache_misses").inc(stats["mst_misses"])
        return i0, j0, i1, j1

    # ------------------------------------------------------------------
    def route(
        self, design=None, *, arrays=None, cx=None, cy=None, should_stop=None
    ) -> RouteResult:
        """Route ``design`` (or explicit pin arrays + centres).

        ``should_stop`` is an optional zero-argument callable polled at
        phase/round boundaries; when it returns True the router raises
        :class:`RouteTimeout` instead of starting the next phase.
        """
        if design is not None:
            arrays = design.pin_arrays()
            cx, cy = design.pull_centers()
        if arrays is None or cx is None or cy is None:
            raise ValueError("route() needs a design or (arrays, cx, cy)")
        tracer = get_tracer()
        graph = GridGraph(self.spec)
        if should_stop is not None and should_stop():
            raise RouteTimeout("decompose", 0)
        with tracer.span("decompose"):
            i0, j0, i1, j1 = self.segments_for(arrays, cx, cy)
        nseg = len(i0)
        if nseg == 0:
            return RouteResult(graph, congestion_metrics(graph), 0, 0)

        overflow_per_round: list[float] = []

        def note_round(overflow: float) -> float:
            tracer.metrics.record("route.overflow", len(overflow_per_round), overflow)
            overflow_per_round.append(overflow)
            return overflow

        with tracer.span("l_sweeps", sweeps=self.sweeps):
            hv = self._l_sweeps(graph, i0, j0, i1, j1)
            routes = self._build_l_routes(graph, i0, j0, i1, j1, hv)
        overflow = note_round(graph.total_overflow())
        maze_count = 0
        if self.z_refine and overflow > 0:
            if should_stop is not None and should_stop():
                raise RouteTimeout("z_refine", len(overflow_per_round))
            with tracer.span("z_refine"):
                self._reroute_offenders(
                    graph, routes, i0, j0, i1, j1, use_maze=False
                )
            overflow = note_round(graph.total_overflow())
        for rnd in range(self.maze_rounds):
            if overflow <= 0:
                break
            if should_stop is not None and should_stop():
                raise RouteTimeout(f"maze[{rnd}]", len(overflow_per_round))
            with tracer.span(f"maze[{rnd}]"):
                graph.bump_history()
                maze_count += self._reroute_offenders(
                    graph, routes, i0, j0, i1, j1, use_maze=True
                )
            overflow = note_round(graph.total_overflow())
        metrics = congestion_metrics(graph)
        # Via estimate: one via per bend (adjacent runs on H/V layers)
        # plus two pin-access vias per routed connection.
        metrics.vias = sum(max(0, len(r) - 1) for r in routes) + 2 * nseg
        return RouteResult(graph, metrics, nseg, maze_count, overflow_per_round)

    # ------------------------------------------------------------------
    def _l_sweeps(self, graph: GridGraph, i0, j0, i1, j1) -> np.ndarray:
        """Iterated vectorized L routing; returns the HV/VH choice."""
        nseg = len(i0)
        hv = np.ones(nseg, dtype=bool)
        for _ in range(self.sweeps):
            cost_e, cost_n = graph.cost_arrays()
            pe, pn = prefix_costs(cost_e, cost_n)
            chv, cvh = l_route_costs(pe, pn, i0, j0, i1, j1)
            hv = chv <= cvh
            self._commit_l_choices(graph, i0, j0, i1, j1, hv)
        return hv

    @staticmethod
    def _build_l_routes(graph: GridGraph, i0, j0, i1, j1, hv) -> list:
        """Run lists of the chosen L shapes, built batch-wise.

        Same output as mapping :func:`~repro.route.pattern.l_route_runs`
        over the segments (degenerate runs dropped, H before V for HV
        shapes and V before H for VH), but the per-run tuples come out of
        three vectorized passes instead of one Python call per segment.
        ``graph`` already holds these routes' usage (the last sweep
        committed it) and is left untouched; the per-segment golden twin
        under ``tests/reference/`` rebuilds it from the run lists.
        """
        routes: list = [[] for _ in range(len(i0))]
        lo_i = np.minimum(i0, i1)
        hi_i = np.maximum(i0, i1)
        lo_j = np.minimum(j0, j1)
        hi_j = np.maximum(j0, j1)
        h_rows = np.where(hv, j0, j1)
        v_cols = np.where(hv, i1, i0)
        has_h = hi_i > lo_i
        has_v = hi_j > lo_j

        def emit(mask, kind, line, lo, hi):
            for s, ln, a, b in zip(
                np.flatnonzero(mask).tolist(),
                line[mask].tolist(),
                lo[mask].tolist(),
                hi[mask].tolist(),
            ):
                routes[s].append((kind, ln, a, b))

        # HV segments take their H run first, VH their V run first.
        emit(has_h & hv, "H", h_rows, lo_i, hi_i)
        emit(has_v, "V", v_cols, lo_j, hi_j)
        emit(has_h & ~hv, "H", h_rows, lo_i, hi_i)
        return routes

    @staticmethod
    def _commit_l_choices(graph: GridGraph, i0, j0, i1, j1, hv) -> None:
        """Rebuild usage from scratch for the given L choices (diff trick)."""
        nx, ny = graph.nx, graph.ny
        lo_i = np.minimum(i0, i1)
        hi_i = np.maximum(i0, i1)
        lo_j = np.minimum(j0, j1)
        hi_j = np.maximum(j0, j1)
        h_rows = np.where(hv, j0, j1)
        v_cols = np.where(hv, i1, i0)
        de = np.zeros((nx, ny))
        has_h = hi_i > lo_i
        np.add.at(de, (lo_i[has_h], h_rows[has_h]), 1.0)
        np.add.at(de, (hi_i[has_h], h_rows[has_h]), -1.0)
        dn = np.zeros((nx, ny))
        has_v = hi_j > lo_j
        np.add.at(dn, (v_cols[has_v], lo_j[has_v]), 1.0)
        np.add.at(dn, (v_cols[has_v], hi_j[has_v]), -1.0)
        graph.use_e = np.cumsum(de, axis=0)[: nx - 1, :]
        graph.use_n = np.cumsum(dn, axis=1)[:, : ny - 1]

    @staticmethod
    def _flatten_runs(routes):
        """Flat edge-interval arrays of every run of every route.

        Returns ``(seg, is_h, line, lo, hi)`` int64 arrays — the CSR
        incidence view the vectorized offender scan and the diff-array
        commit operate on — or ``None`` when there are no runs.
        """
        flat = [
            (s, kind == "H", line, a, b)
            for s, runs in enumerate(routes)
            for kind, line, a, b in runs
        ]
        if not flat:
            return None
        arr = np.asarray(flat, dtype=np.int64)
        return arr[:, 0], arr[:, 1].astype(bool), arr[:, 2], arr[:, 3], arr[:, 4]

    @staticmethod
    def _rip(graph: GridGraph, runs) -> None:
        for kind, line, a, b in runs:
            if kind == "H":
                graph.add_horizontal_run(line, a, b, -1.0)
            else:
                graph.add_vertical_run(line, a, b, -1.0)

    def _offending_segments(self, graph: GridGraph, routes) -> list:
        """Indices of segments whose route crosses an overflowed edge."""
        over_e = graph.use_e > graph.cap_e
        over_n = graph.use_n > graph.cap_n
        any_over = bool(over_e.any() or over_n.any())
        metrics = get_tracer().metrics
        if not any_over:
            return []
        flat = self._flatten_runs(routes)
        if flat is None:
            return []
        seg, is_h, line, lo, hi = flat
        # Prefix-summed overflow masks: a run crosses an overflowed edge
        # iff the prefix count differs across its interval.
        nx, ny = graph.nx, graph.ny
        pe = np.zeros((nx, ny))
        np.cumsum(over_e, axis=0, out=pe[1:, :])
        pn = np.zeros((nx, ny))
        np.cumsum(over_n, axis=1, out=pn[:, 1:])
        hit = np.zeros(len(seg), dtype=bool)
        hit[is_h] = (pe[hi[is_h], line[is_h]] - pe[lo[is_h], line[is_h]]) > 0
        is_v = ~is_h
        hit[is_v] = (pn[line[is_v], hi[is_v]] - pn[line[is_v], lo[is_v]]) > 0
        offenders = np.unique(seg[hit])
        metrics.counter("route.offenders.candidates").inc(len(routes))
        metrics.counter("route.offenders.skipped").inc(len(routes) - len(offenders))
        return offenders

    def _reroute_offenders(
        self, graph: GridGraph, routes, i0, j0, i1, j1, *, use_maze: bool
    ) -> int:
        """Rip and re-route segments crossing overflow; returns count."""
        offenders = self._offending_segments(graph, routes)
        if len(offenders) == 0:
            return 0
        # Worst (longest) first would hog resources; shortest first frees
        # hotspots fastest — the usual negotiation ordering.
        length = np.abs(i1[offenders] - i0[offenders]) + np.abs(
            j1[offenders] - j0[offenders]
        )
        offenders = offenders[np.argsort(length, kind="stable")]
        offenders = offenders[: self.max_maze_nets].tolist()
        # Costs are maintained incrementally: only the lines touched by a
        # rip/commit are recomputed and re-prefixed, which is bitwise
        # identical to a full rebuild after every rip.
        cost_e, cost_n = graph.cost_arrays()
        pe, pn = prefix_costs(cost_e, cost_n)
        dirty_h: set = set()
        dirty_v: set = set()
        rerouted = 0
        for s in offenders:
            self._rip(graph, routes[s])
            # Fresh costs per reroute (post-rip): identical offenders must
            # see each other's commitments or they all pile into the same
            # detour and the negotiation never converges.  Lines dirtied
            # by the previous commit and by this rip refresh together;
            # consecutive offenders crowd the same hotspots, so the dedup
            # roughly halves the refresh work.
            for kind, line, _a, _b in routes[s]:
                (dirty_h if kind == "H" else dirty_v).add(line)
            graph.refresh_cost_lines(cost_e, cost_n, pe, pn, dirty_h, dirty_v)
            dirty_h.clear()
            dirty_v.clear()
            a, b, c, d = int(i0[s]), int(j0[s]), int(i1[s]), int(j1[s])
            z_cost, z_runs = best_z_route(pe, pn, a, b, c, d)
            new_runs = z_runs
            if use_maze:
                margin = self.maze_window_margin
                window = (
                    max(0, min(a, c) - margin),
                    max(0, min(b, d) - margin),
                    min(graph.nx - 1, max(a, c) + margin),
                    min(graph.ny - 1, max(b, d) + margin),
                )
                m_cost, m_runs = maze_route(cost_e, cost_n, (a, b), (c, d), window)
                if m_runs is not None and m_cost < z_cost:
                    new_runs = m_runs
            # Keep the better of old and new under current costs.
            if runs_cost(pe, pn, routes[s]) < runs_cost(pe, pn, new_runs):
                new_runs = routes[s]
            routes[s] = new_runs
            for kind, line, lo, hi in new_runs:
                if kind == "H":
                    graph.add_horizontal_run(line, lo, hi)
                else:
                    graph.add_vertical_run(line, lo, hi)
            for kind, line, _a, _b in new_runs:
                (dirty_h if kind == "H" else dirty_v).add(line)
            rerouted += 1
        return rerouted
