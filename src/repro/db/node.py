"""Nodes: standard cells, macros, fixed blockages, terminals."""

from __future__ import annotations

from enum import Enum

import numpy as np

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


# The node table: one column per geometry attribute, in this order.
# Orientation and kind are stored as their index in enum order, the
# fence region as its id with -1 for none.
X, Y, WIDTH, HEIGHT, ORIENT, KIND, REGION = range(7)
COLUMN_DTYPES = (np.float64,) * 4 + (np.int8, np.int8, np.int32)
ORIENTATIONS = tuple(Orientation)
KINDS = tuple(NodeKind)
SWAPS = tuple(o.swaps_dimensions for o in ORIENTATIONS)
MOVABLE = tuple(k.is_movable for k in KINDS)
BLOCKAGE = tuple(k.is_fixed and k.blocks_placement for k in KINDS)


def _float_column(k: int, doc: str) -> property:
    def get(node):
        return node._cols[k][node._row]

    def set(node, value):
        node._cols[k][node._row] = float(value)

    return property(get, set, doc=doc)


def _enum_column(k: int, members: tuple, doc: str) -> property:
    code = {member: i for i, member in enumerate(members)}

    def get(node):
        return members[node._cols[k][node._row]]

    def set(node, value):
        node._cols[k][node._row] = code[value]

    return property(get, set, doc=doc)


def _get_region(node):
    region = node._cols[REGION][node._row]
    return None if region < 0 else region


def _set_region(node, value):
    node._cols[REGION][node._row] = -1 if value is None else int(value)


class Node:
    """A placeable (or fixed) rectangular object.

    ``x``/``y`` are the lower-left corner of the *oriented* outline;
    ``width``/``height`` are the dimensions in the ``N`` orientation.  Use
    :attr:`placed_width`/:attr:`placed_height` for the outline actually
    occupied on the die.

    The geometry attributes are a view of one row of a column table.  A
    node not yet added to a design owns a one-row table of plain Python
    values; :meth:`Design.add_node` copies the row into the design's
    NumPy columns and re-points the node there.
    """

    __slots__ = ("name", "module", "index", "pins", "_cols", "_row")

    x = _float_column(X, "Lower-left x of the oriented outline.")
    y = _float_column(Y, "Lower-left y of the oriented outline.")
    width = _float_column(WIDTH, "Width in the ``N`` orientation.")
    height = _float_column(HEIGHT, "Height in the ``N`` orientation.")
    orientation = _enum_column(ORIENT, ORIENTATIONS, "Placement orientation.")
    kind = _enum_column(KIND, KINDS, "What the node is.")
    region = property(_get_region, _set_region, doc="Fence region id, or None.")

    def __init__(
        self,
        name: str,
        width: float,
        height: float,
        kind: NodeKind = NodeKind.CELL,
        x: float = 0.0,
        y: float = 0.0,
        orientation: Orientation = Orientation.N,
        region: int | None = None,
        module: str | None = None,  # hierarchy module path, if any
        index: int = -1,  # position in Design.nodes, set on add
        pins: list | None = None,  # Pin objects, set by Design
    ):
        self.name = name
        self.module = module
        self.index = index
        self.pins = [] if pins is None else pins
        self._cols = [[0.0], [0.0], [0.0], [0.0], [0], [0], [-1]]  # detached row
        self._row = 0
        self.x, self.y, self.width, self.height = x, y, width, height
        self.orientation, self.kind, self.region = orientation, kind, region

    def __repr__(self) -> str:
        return (
            f"Node({self.name!r}, {self.width}, {self.height}, {self.kind}, "
            f"x={self.x}, y={self.y}, {self.orientation}, region={self.region})"
        )

    @property
    def is_movable(self) -> bool:
        return MOVABLE[self._cols[KIND][self._row]]

    @property
    def placed_width(self) -> float:
        """Outline width on the die under the current orientation."""
        cols, row = self._cols, self._row
        return cols[HEIGHT if SWAPS[cols[ORIENT][row]] else WIDTH][row]

    @property
    def placed_height(self) -> float:
        """Outline height on the die under the current orientation."""
        cols, row = self._cols, self._row
        return cols[WIDTH if SWAPS[cols[ORIENT][row]] else HEIGHT][row]

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
