"""Nodes: standard cells, macros, fixed blockages, terminals."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.geometry import Orientation, Rect


class NodeKind(Enum):
    """What a node is, which determines how each stage may treat it."""

    CELL = "cell"  # movable standard cell
    MACRO = "macro"  # movable macro block (placeable, rotatable)
    FIXED = "fixed"  # fixed macro / placement blockage
    TERMINAL = "terminal"  # fixed I/O pad (occupies area)
    TERMINAL_NI = "terminal_ni"  # fixed pin with no placement footprint

    @property
    def is_movable(self) -> bool:
        return self in (NodeKind.CELL, NodeKind.MACRO)

    @property
    def is_fixed(self) -> bool:
        return not self.is_movable

    @property
    def blocks_placement(self) -> bool:
        """Whether the node's footprint excludes other nodes."""
        return self is not NodeKind.TERMINAL_NI


@dataclass
class Node:
    """A placeable (or fixed) rectangular object.

    ``x``/``y`` are the lower-left corner of the *oriented* outline;
    ``width``/``height`` are the dimensions in the ``N`` orientation.  Use
    :attr:`placed_width`/:attr:`placed_height` for the outline actually
    occupied on the die.
    """

    name: str
    width: float
    height: float
    kind: NodeKind = NodeKind.CELL
    x: float = 0.0
    y: float = 0.0
    orientation: Orientation = Orientation.N
    region: int | None = None  # fence region id, if constrained
    module: str | None = None  # hierarchy module path, if any
    index: int = -1  # position in Design.nodes, set on add
    pins: list = field(default_factory=list)  # Pin objects, set by Design

    # Backref to the owning Design (class attribute, not a dataclass
    # field), set by ``Design.add_node``.  Geometry writes notify it so
    # the design's cached array views (``pull_centers``, ``pin_arrays``)
    # invalidate no matter which code path moved the node.
    _design = None

    def __setattr__(self, name: str, value) -> None:
        object.__setattr__(self, name, value)
        if name in ("x", "y", "width", "height"):
            d = self._design
            if d is not None:
                d._positions_version += 1
        elif name == "orientation":
            d = self._design
            if d is not None:
                d._positions_version += 1
                d._topology_version += 1

    @property
    def is_movable(self) -> bool:
        return self.kind.is_movable

    @property
    def is_macro(self) -> bool:
        return self.kind in (NodeKind.MACRO, NodeKind.FIXED)

    @property
    def placed_width(self) -> float:
        """Outline width on the die under the current orientation."""
        if self.orientation.swaps_dimensions:
            return self.height
        return self.width

    @property
    def placed_height(self) -> float:
        """Outline height on the die under the current orientation."""
        if self.orientation.swaps_dimensions:
            return self.width
        return self.height

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def rect(self) -> Rect:
        """Current outline."""
        return Rect.from_size(self.x, self.y, self.placed_width, self.placed_height)

    @property
    def cx(self) -> float:
        """Centre x."""
        return self.x + self.placed_width / 2.0

    @property
    def cy(self) -> float:
        """Centre y."""
        return self.y + self.placed_height / 2.0

    def move_center_to(self, cx: float, cy: float) -> None:
        """Place the node so its centre is at ``(cx, cy)``."""
        self.x = cx - self.placed_width / 2.0
        self.y = cy - self.placed_height / 2.0
