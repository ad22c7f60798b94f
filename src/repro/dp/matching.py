"""Independent-set matching: exact batch re-assignment of equal cells.

Classic NTUplace detailed-placement move: collect a *net-independent* set
of same-footprint cells (no two share a net, so their HPWL contributions
are separable), build the cost matrix of every cell in every member's
slot, and solve the assignment exactly with
:func:`repro.optim.linear_sum_assignment` (SciPy's solver, ported bit
for bit).  The result can only improve HPWL, by optimality of the
assignment.  The whole cost matrix of a batch is one
:meth:`IncrementalHPWL.score_relocations` call.
"""

from __future__ import annotations

from repro.db import NodeKind
from repro.dp.hpwl_delta import IncrementalHPWL
from repro.optim import linear_sum_assignment


def _independent_batches(design, inc, cells, batch_size: int):
    """Greedy partition into net-independent batches of equal footprint."""
    by_key = {}
    site = design.site_width
    for idx in cells:
        node = design.nodes[idx]
        # Exact integer site-width key (matches _SlotIndex bucketing).
        key = (round(node.placed_width / site), node.region)
        by_key.setdefault(key, []).append(idx)
    for key, group in by_key.items():
        used_nets = set()
        batch = []
        for idx in group:
            nets = inc.node_nets[idx]
            if any(n in used_nets for n in nets):
                continue
            batch.append(idx)
            used_nets.update(nets)
            if len(batch) == batch_size:
                yield batch
                batch = []
                used_nets = set()
        if len(batch) >= 2:
            yield batch


def matching_pass(
    design, inc: IncrementalHPWL, *, batch_size: int = 24, gate=None
) -> tuple:
    """One matching pass; returns ``(#cells moved, HPWL gain)``."""
    cells = [
        n.index
        for n in design.nodes
        if n.is_movable and n.kind is NodeKind.CELL
    ]
    moved = 0
    gain = 0.0
    for batch in _independent_batches(design, inc, cells, batch_size):
        slots = [
            (design.nodes[i].cx, design.nodes[i].cy) for i in batch
        ]
        cost = inc.score_relocations(batch, slots)
        rows, cols = linear_sum_assignment(cost)
        moves = [
            (batch[a], slots[b][0], slots[b][1])
            for a, b in zip(rows, cols)
            if a != b
        ]
        if not moves:
            continue
        if gate is not None and not gate(moves):
            continue
        # Verify the combined move actually helps (independence makes the
        # per-cell sum exact, but cheap paranoia beats silent regressions).
        delta = inc.delta_for_moves(moves)
        if delta < -1e-9:
            inc.apply_moves(moves)
            moved += len(moves)
            gain -= delta
    return moved, gain
