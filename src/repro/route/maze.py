"""A* maze routing on the tile grid.

The escape hatch for connections pattern routing cannot realize without
overflow: finds the cheapest monotone-or-not path between two tiles under
the current congestion costs, restricted to a search window around the
connection's bounding box.

Search state lives in flat arrays indexed by an integer-encoded
``(i, j, dir)`` state, and the window's edge costs are pulled out once;
only the heapq frontier allocates.  The original dict-of-tuples version
(a golden twin under ``tests/reference/``) shares the algorithm — same
frontier ordering, same expansion order — so both produce identical
paths.
"""

from __future__ import annotations

import heapq

import numpy as np

_INF = float("inf")


def maze_route(
    cost_e: np.ndarray,
    cost_n: np.ndarray,
    start: tuple,
    goal: tuple,
    window=None,
    bend_cost: float = 0.05,
):
    """Cheapest path from ``start`` to ``goal`` tile, as a run list.

    ``window`` is ``(i_lo, j_lo, i_hi, j_hi)`` inclusive bounds on the
    searched tiles; default: whole grid.  ``bend_cost`` mildly prefers
    straighter paths so run lists stay short.  Returns ``(cost, runs)``
    or ``(inf, None)`` when no path exists in the window.
    """
    nx = cost_n.shape[0]
    ny = cost_e.shape[1]
    if window is None:
        window = (0, 0, nx - 1, ny - 1)
    i_lo, j_lo, i_hi, j_hi = window
    si, sj = start
    gi, gj = goal
    if (si, sj) == (gi, gj):
        return 0.0, []
    # The flat state space must contain both endpoints.
    i_lo = min(i_lo, si, gi)
    j_lo = min(j_lo, sj, gj)
    i_hi = max(i_hi, si, gi)
    j_hi = max(j_hi, sj, gj)
    w = i_hi - i_lo + 1
    h = j_hi - j_lo + 1
    # States are ``(tile * 5) + dir`` over window-local tiles, with dir
    # 0 = start (no incoming direction), then 1=E, 2=W, 3=N, 4=S — the
    # encoding is ordered exactly like the reference's (i, j, d) tuples,
    # so heap ties break identically.  Flat lists beat numpy here: the
    # inner loop is all scalar reads/writes.
    best = [_INF] * (w * h * 5)
    came = [-1] * (w * h * 5)
    # Window-local edge costs as nested lists for cheap scalar access:
    # ce[li][lj] is the east edge out of local tile (li, lj), cn likewise
    # for the north edge.
    ce = cost_e[i_lo:i_hi, j_lo : j_hi + 1].tolist() if w > 1 else []
    cn = cost_n[i_lo : i_hi + 1, j_lo:j_hi].tolist() if h > 1 else []
    ls_i = si - i_lo
    ls_j = sj - j_lo
    lg_i = gi - i_lo
    lg_j = gj - j_lo
    start_tile = ls_i * h + ls_j
    best[start_tile * 5] = 0.0
    # Per-tile admissible heuristic (manhattan distance to goal; edge
    # costs are >= ~1), flat-indexed like the tiles.
    hs = (
        np.abs(np.arange(w) - lg_i)[:, None] + np.abs(np.arange(h) - lg_j)
    ).ravel().tolist()
    # Heap entries are (f, g, tile, dir, li, lj): comparison order
    # (f, g, tile, dir) matches the reference's (f, g, i, j, d) tuples,
    # and carrying li/lj/dir avoids divmods in the loop.
    heap = [(float(hs[start_tile]), 0.0, start_tile, 0, ls_i, ls_j)]
    push = heapq.heappush
    pop = heapq.heappop
    found = -1
    goal_tile = lg_i * h + lg_j
    w1 = w - 1
    h1 = h - 1
    while heap:
        f, g, tile, d, li, lj = pop(heap)
        state = tile * 5 + d
        if tile == goal_tile:
            found = state
            break
        if g > best[state]:
            continue
        # Expansion order matches the reference: E, W, N, S.
        if li < w1:
            ng = g + ce[li][lj] + (bend_cost if d != 0 and d != 1 else 0.0)
            ntile = tile + h
            ns = ntile * 5 + 1
            if ng < best[ns]:
                best[ns] = ng
                came[ns] = state
                push(heap, (ng + hs[ntile], ng, ntile, 1, li + 1, lj))
        if li > 0:
            ng = g + ce[li - 1][lj] + (bend_cost if d != 0 and d != 2 else 0.0)
            ntile = tile - h
            ns = ntile * 5 + 2
            if ng < best[ns]:
                best[ns] = ng
                came[ns] = state
                push(heap, (ng + hs[ntile], ng, ntile, 2, li - 1, lj))
        if lj < h1:
            ng = g + cn[li][lj] + (bend_cost if d != 0 and d != 3 else 0.0)
            ntile = tile + 1
            ns = ntile * 5 + 3
            if ng < best[ns]:
                best[ns] = ng
                came[ns] = state
                push(heap, (ng + hs[ntile], ng, ntile, 3, li, lj + 1))
        if lj > 0:
            ng = g + cn[li][lj - 1] + (bend_cost if d != 0 and d != 4 else 0.0)
            ntile = tile - 1
            ns = ntile * 5 + 4
            if ng < best[ns]:
                best[ns] = ng
                came[ns] = state
                push(heap, (ng + hs[ntile], ng, ntile, 4, li, lj - 1))
    if found < 0:
        return np.inf, None
    # Reconstruct the tile path (window-local -> global).
    path = []
    state = found
    while state >= 0:
        tile = state // 5
        li, lj = divmod(tile, h)
        path.append((li + i_lo, lj + j_lo))
        state = came[state]
    path.reverse()
    return best[found], _path_to_runs(path)


def _path_to_runs(path):
    """Merge a tile path into maximal horizontal/vertical runs."""
    runs = []
    k = 0
    n = len(path)
    while k < n - 1:
        i0, j0 = path[k]
        i1, j1 = path[k + 1]
        if j0 == j1:  # horizontal
            m = k + 1
            while m + 1 < n and path[m + 1][1] == j0:
                m += 1
            a = min(path[k][0], path[m][0])
            b = max(path[k][0], path[m][0])
            runs.append(("H", j0, a, b))
            k = m
        else:  # vertical
            m = k + 1
            while m + 1 < n and path[m + 1][0] == i0:
                m += 1
            a = min(path[k][1], path[m][1])
            b = max(path[k][1], path[m][1])
            runs.append(("V", i0, a, b))
            k = m
    return runs
