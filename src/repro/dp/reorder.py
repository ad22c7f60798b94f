"""Local reordering: optimal permutation of small windows within a sub-row.

A window's permutations all move the same cells, so
:meth:`IncrementalHPWL.score_reorders` prices them in one call that
reduces each net's other pins once.  Positions and placed sizes are read
from the design's columns at pass start into lists; the lists follow the
design because the cells of each committed window are re-read from it.
"""

from __future__ import annotations

from itertools import permutations

from repro.dp.hpwl_delta import IncrementalHPWL


def local_reorder_pass(
    design, inc: IncrementalHPWL, submap, *, window: int = 3
) -> tuple:
    """Slide a ``window``-cell window along every sub-row, trying all
    orders of the windowed cells (packed left, preserving total span).

    Returns ``(#accepted, HPWL gain)``.  Legality is preserved: the
    permuted cells are repacked from the window's original left edge and
    their total width is unchanged.
    """
    x_col, y_col = design.pull_corners()
    xs = x_col.tolist()
    ys = y_col.tolist()
    w, h = design.placed_sizes()
    widths = w.tolist()
    heights = h.tolist()
    nodes = design.nodes
    x_of = xs.__getitem__
    accepted = 0
    gain = 0.0
    for sr in submap.subrows:
        ids = sorted(sr.cells, key=x_of)
        sr.cells = ids
        if len(ids) < 2:
            continue
        for start in range(0, len(ids) - 1):
            group = ids[start : start + window]
            if len(group) < 2:
                continue
            left = min(xs[i] for i in group)
            move_sets = []
            for perm in permutations(group):
                if list(perm) == group:
                    continue
                x = left
                moves = []
                for i in perm:
                    width = widths[i]
                    moves.append((i, x + width / 2.0, ys[i] + heights[i] / 2.0))
                    x += width
                move_sets.append(moves)
            # One pricing of every non-identity permutation; the winner
            # selection walks them in generation order, exactly as the
            # one-at-a-time loop did.
            deltas = inc.score_reorders(move_sets)
            best_delta = 0.0
            best_moves = None
            for moves, delta in zip(move_sets, deltas):
                if delta < best_delta - 1e-9:
                    best_delta = delta
                    best_moves = moves
            if best_moves is not None:
                inc.apply_moves(best_moves)
                accepted += 1
                gain -= best_delta
                for i in group:
                    xs[i] = nodes[i].x
                    ys[i] = nodes[i].y
                # Keep the order list consistent with new x positions.
                ids[start : start + window] = sorted(group, key=x_of)
        sr.cells = sorted(ids, key=x_of)
    return accepted, gain
