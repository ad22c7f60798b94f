"""Golden twins of the router kernels.

The original per-net decomposition, the per-segment L-route build with
its per-run usage rebuild, the Python offender scan, the rip-up loop
with a full cost rebuild per reroute, and the dict-of-tuples maze A*,
bodies unchanged.  :func:`commit_all` is the diff-array usage rebuild
the router no longer calls, kept beside its per-run twin.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.route import router
from repro.route.graph import GridGraph
from repro.route.maze import _path_to_runs
from repro.route.pattern import best_z_route, l_route_runs, prefix_costs, runs_cost
from repro.route.steiner import decompose_net


def _segments_for_reference(arrays, tix, tiy):
    """Per-net reference loop over :func:`decompose_net`."""
    seg = []
    ptr = arrays.net_ptr
    for n in range(arrays.num_nets):
        a, b = ptr[n], ptr[n + 1]
        if b - a < 2:
            continue
        for i0, j0, i1, j1 in decompose_net(tix[a:b], tiy[a:b]):
            seg.append((i0, j0, i1, j1))
    if not seg:
        return (
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
        )
    arr = np.asarray(seg, dtype=np.int64)
    return arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]


def build_l_routes_reference(graph: GridGraph, i0, j0, i1, j1, hv) -> list:
    """One :func:`l_route_runs` call per segment, then a usage rebuild."""
    routes = [
        l_route_runs(int(a), int(b), int(c), int(d), bool(h))
        for a, b, c, d, h in zip(i0, j0, i1, j1, hv)
    ]
    # The last sweep's _commit_l_choices already left exactly
    # this usage; the reference path re-derives it from the
    # run lists to anchor the equivalence tests.
    _commit_all_reference(graph, routes)
    return routes


def commit_all(graph: GridGraph, routes) -> None:
    """Rebuild usage from explicit run lists (diff-array/cumsum)."""
    graph.reset_usage()
    flat = router.GlobalRouter._flatten_runs(routes)
    if flat is None:
        return
    _, is_h, line, lo, hi = flat
    nx, ny = graph.nx, graph.ny
    de = np.zeros((nx, ny))
    np.add.at(de, (lo[is_h], line[is_h]), 1.0)
    np.add.at(de, (hi[is_h], line[is_h]), -1.0)
    dn = np.zeros((nx, ny))
    is_v = ~is_h
    np.add.at(dn, (line[is_v], lo[is_v]), 1.0)
    np.add.at(dn, (line[is_v], hi[is_v]), -1.0)
    graph.use_e = np.cumsum(de, axis=0)[: nx - 1, :]
    graph.use_n = np.cumsum(dn, axis=1)[:, : ny - 1]


def _commit_all_reference(graph: GridGraph, routes) -> None:
    """Rebuild usage with the original per-run Python loop."""
    graph.reset_usage()
    for runs in routes:
        for kind, line, a, b in runs:
            if kind == "H":
                graph.add_horizontal_run(line, a, b)
            else:
                graph.add_vertical_run(line, a, b)


def _offending_segments_reference(graph: GridGraph, routes) -> list:
    """The original full Python scan over every route."""
    over_e = graph.use_e > graph.cap_e
    over_n = graph.use_n > graph.cap_n
    out = []
    for idx, runs in enumerate(routes):
        hit = False
        for kind, line, a, b in runs:
            if kind == "H":
                if over_e[a:b, line].any():
                    hit = True
                    break
            else:
                if over_n[line, a:b].any():
                    hit = True
                    break
        if hit:
            out.append(idx)
    return out


def reroute_offenders_reference(
    self, graph: GridGraph, routes, i0, j0, i1, j1, *, use_maze: bool
) -> int:
    """``GlobalRouter._reroute_offenders`` with a full cost rebuild per
    reroute.  The maze search is the router module's ``maze_route``."""
    offenders = self._offending_segments(graph, routes)
    if len(offenders) == 0:
        return 0
    # Worst (longest) first would hog resources; shortest first frees
    # hotspots fastest — the usual negotiation ordering.
    if isinstance(offenders, np.ndarray):
        length = np.abs(i1[offenders] - i0[offenders]) + np.abs(
            j1[offenders] - j0[offenders]
        )
        offenders = offenders[np.argsort(length, kind="stable")]
        offenders = offenders[: self.max_maze_nets].tolist()
    else:
        offenders.sort(
            key=lambda s: abs(int(i1[s]) - int(i0[s]))
            + abs(int(j1[s]) - int(j0[s]))
        )
        offenders = offenders[: self.max_maze_nets]
    maze = router.maze_route
    rerouted = 0
    for s in offenders:
        self._rip(graph, routes[s])
        # Fresh costs per reroute (post-rip): identical offenders must
        # see each other's commitments or they all pile into the same
        # detour and the negotiation never converges.
        cost_e, cost_n = graph.cost_arrays()
        pe, pn = prefix_costs(cost_e, cost_n)
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
            m_cost, m_runs = maze(cost_e, cost_n, (a, b), (c, d), window)
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
        rerouted += 1
    return rerouted


def maze_route_reference(
    cost_e: np.ndarray,
    cost_n: np.ndarray,
    start: tuple,
    goal: tuple,
    window=None,
    bend_cost: float = 0.05,
):
    """Dict-of-tuples A*: the original implementation, kept as reference."""
    nx = cost_n.shape[0]
    ny = cost_e.shape[1]
    if window is None:
        window = (0, 0, nx - 1, ny - 1)
    i_lo, j_lo, i_hi, j_hi = window
    si, sj = start
    gi, gj = goal
    min_edge = 1.0  # admissible heuristic scale: costs are >= ~1

    # State: (f, g, i, j, incoming direction), directions 0=E,1=W,2=N,3=S.
    start_state = (si, sj, -1)
    best = {start_state: 0.0}
    came = {}
    h0 = (abs(gi - si) + abs(gj - sj)) * min_edge
    heap = [(h0, 0.0, si, sj, -1)]
    found = None
    while heap:
        f, g, i, j, d = heapq.heappop(heap)
        if (i, j) == (gi, gj):
            found = (i, j, d)
            break
        if g > best.get((i, j, d), np.inf):
            continue
        moves = []
        if i < i_hi:
            moves.append((i + 1, j, 0, cost_e[i, j]))
        if i > i_lo:
            moves.append((i - 1, j, 1, cost_e[i - 1, j]))
        if j < j_hi:
            moves.append((i, j + 1, 2, cost_n[i, j]))
        if j > j_lo:
            moves.append((i, j - 1, 3, cost_n[i, j - 1]))
        for ni, nj, nd, ec in moves:
            ng = g + float(ec) + (bend_cost if d != -1 and d != nd else 0.0)
            key = (ni, nj, nd)
            if ng < best.get(key, np.inf):
                best[key] = ng
                came[key] = (i, j, d)
                h = (abs(gi - ni) + abs(gj - nj)) * min_edge
                heapq.heappush(heap, (ng + h, ng, ni, nj, nd))
    if found is None:
        return np.inf, None
    # Reconstruct the tile path.
    path = []
    state = found
    while state != start_state:
        path.append((state[0], state[1]))
        state = came[state]
    path.append((si, sj))
    path.reverse()
    return best[found], _path_to_runs(path)
