"""Placement-only exchange: standalone ``.pl`` read/write.

The common experiment loop — generate or load a benchmark once, place it
many ways, compare — needs placements checkpointed without rewriting the
whole benchmark.  ``write_pl``/``apply_pl`` do exactly that, matching
nodes by name so a ``.pl`` from any tool speaking Bookshelf applies.
"""

from __future__ import annotations

import os

from repro.db import Design, NodeKind
from repro.geometry import Orientation


def write_pl(design: Design, path: str) -> None:
    """Write the current placement as a Bookshelf ``.pl`` file."""
    with open(path, "w") as f:
        f.write("UCLA pl 1.0\n\n")
        for n in design.nodes:
            suffix = ""
            if n.kind is NodeKind.TERMINAL_NI:
                suffix = " /FIXED_NI"
            elif n.kind.is_fixed:
                suffix = " /FIXED"
            f.write(
                f"{n.name} {n.x:.6f} {n.y:.6f} : {n.orientation.value}{suffix}\n"
            )


def apply_pl(design: Design, path: str, *, strict: bool = True) -> int:
    """Apply positions/orientations from a ``.pl`` file; returns nodes set.

    With ``strict`` (default) an unknown node name raises
    :class:`ValueError` naming the file, line number, and offending
    line; otherwise the line is skipped (useful for partial
    checkpoints).  Fixed nodes are never moved — their lines are
    validated but ignored.
    """
    applied = 0
    fname = os.path.basename(path)
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line or line.startswith("UCLA"):
                continue
            parts = line.replace(":", " ").split()
            if len(parts) < 3:
                continue
            name = parts[0]
            if not design.has_node(name):
                if strict:
                    raise ValueError(
                        f"{fname}:{lineno}: .pl references unknown node "
                        f"{name!r} (line: {line!r})"
                    )
                continue
            node = design.node(name)
            if not node.is_movable:
                continue
            try:
                node.x = float(parts[1])
                node.y = float(parts[2])
                if len(parts) > 3 and not parts[3].startswith("/"):
                    design.set_orientation(node, Orientation.from_string(parts[3]))
                    node.x = float(parts[1])
                    node.y = float(parts[2])
            except ValueError as exc:
                raise ValueError(
                    f"{fname}:{lineno}: {exc} (line: {line!r})"
                ) from None
            applied += 1
    return applied
