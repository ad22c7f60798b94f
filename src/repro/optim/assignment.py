"""Exact linear assignment: SciPy's solver, ported for square matrices.

Detailed placement's independent-set matching (:mod:`repro.dp.matching`)
solves one small assignment per batch: at most 24 cells, a few hundred
batches per flow.  :func:`linear_sum_assignment` is a line-for-line
port of the shortest-augmenting-path method that
``scipy.optimize.linear_sum_assignment`` implements (D. F. Crouse, "On
implementing 2D rectangular assignment algorithms", IEEE TAES 2016),
restricted to square, finite matrices.  It keeps SciPy's choices where
several optima tie, so it returns SciPy's assignment bit for bit:

* each row's search lists the free columns in reverse order and drops
  the chosen one by swapping in the last;
* a column wins on a strictly smaller path cost, or on an equal one when
  it is unassigned;
* a reduced cost is ``((min_val + c[i][j]) - u[i]) - v[j]``, summed in
  that order;
* the dual updates use SciPy's operands, and the path augmentation
  runs in SciPy's order.

Pure Python on lists: on matrices this small NumPy's per-call overhead
outweighs its vector speed.  The port is slower than SciPy's compiled
solver, a few tens of milliseconds per flow, and spares every flow
process SciPy's much costlier import (docs/performance.md, "Start-up").
``tests/test_optim.py`` checks it against SciPy.
"""

from __future__ import annotations

import math

import numpy as np


def linear_sum_assignment(cost):
    """Minimum-cost perfect matching of a square cost matrix.

    Returns ``(rows, cols)`` as int arrays: row ``rows[k]`` takes column
    ``cols[k]``, and ``rows`` is ``0 .. n-1``, as SciPy returns them.
    Raises ``ValueError`` unless ``cost`` is a finite ``n x n`` matrix.
    """
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"expected a square cost matrix, got shape {c.shape}")
    if not np.isfinite(c).all():
        raise ValueError("cost matrix holds NaN or infinite entries")
    n = c.shape[0]
    c = c.tolist()
    inf = math.inf
    u = [0.0] * n
    v = [0.0] * n
    path = [-1] * n
    col4row = [-1] * n
    row4col = [-1] * n
    for cur_row in range(n):
        # Shortest augmenting path from cur_row (SciPy's augmenting_path).
        # ``rows`` and ``cols`` list what SciPy marks in SR and SC.
        min_val = 0.0
        remaining = list(range(n - 1, -1, -1))
        rows = []
        cols = []
        costs = [inf] * n
        i = cur_row
        sink = -1
        while sink == -1:
            index = -1
            lowest = inf
            rows.append(i)
            ci = c[i]
            ui = u[i]
            for it, j in enumerate(remaining):
                r = min_val + ci[j] - ui - v[j]
                s = costs[j]
                if r < s:
                    path[j] = i
                    costs[j] = s = r
                # Among equal minima prefer a free column: it ends the path.
                if s < lowest or (s == lowest and row4col[j] == -1):
                    lowest = s
                    index = it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()

        # Update the dual variables.  Each visited row and column is
        # updated once from values the updates do not change, so walking
        # them in visit order writes SciPy's bits.  rows[0] is cur_row.
        u[cur_row] += min_val
        for i in rows[1:]:
            u[i] += min_val - costs[col4row[i]]
        for j in cols:
            v[j] -= min_val - costs[j]

        # Augment the previous solution along the path.
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    return np.arange(n), np.array(col4row, dtype=np.intp)
