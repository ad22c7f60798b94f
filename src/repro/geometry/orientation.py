"""The eight Bookshelf/LEF-DEF placement orientations.

A macro may be rotated by multiples of 90 degrees and optionally mirrored.
The names follow the Bookshelf ``.pl`` convention: ``N`` (north, identity),
``W``/``S``/``E`` are successive 90-degree counter-clockwise rotations, and
``FN``/``FW``/``FS``/``FE`` are those composed with a flip about the y axis
(applied first).

Pin offsets in the design database are stored relative to the node *centre*
in the ``N`` orientation; :func:`transform_offset` maps them to the oriented
frame, so the placer can evaluate candidate rotations without mutating the
netlist.
"""

from __future__ import annotations

from enum import Enum


class Orientation(Enum):
    """Placement orientation of a node."""

    N = "N"
    W = "W"
    S = "S"
    E = "E"
    FN = "FN"
    FW = "FW"
    FS = "FS"
    FE = "FE"

    @property
    def is_flipped(self) -> bool:
        """Whether the orientation includes a mirror about the y axis."""
        return self.value.startswith("F")

    @property
    def rotation(self) -> int:
        """Counter-clockwise rotation in quarter turns (0..3)."""
        return "NWSE".index(self.value[-1])

    @property
    def swaps_dimensions(self) -> bool:
        """Whether width and height exchange under this orientation."""
        return self.rotation % 2 == 1

    @staticmethod
    def from_string(text: str) -> "Orientation":
        """Parse a Bookshelf orientation token (case-insensitive)."""
        try:
            return Orientation(text.strip().upper())
        except ValueError as exc:
            raise ValueError(f"unknown orientation {text!r}") from exc


# The rotation part of each orientation as a 2x2 matrix (row-major a,b,c,d
# for [[a, b], [c, d]]), counter-clockwise.
_ROTATIONS = {
    0: (1.0, 0.0, 0.0, 1.0),
    1: (0.0, -1.0, 1.0, 0.0),
    2: (-1.0, 0.0, 0.0, -1.0),
    3: (0.0, 1.0, -1.0, 0.0),
}


def transform_offset(dx: float, dy: float, orient: Orientation) -> tuple:
    """Map a centre-relative pin offset from ``N`` into ``orient``.

    The flip (about the y axis, i.e. ``x -> -x``) is applied before the
    rotation, matching LEF/DEF semantics.
    """
    if orient.is_flipped:
        dx = -dx
    a, b, c, d = _ROTATIONS[orient.rotation]
    return (a * dx + b * dy, c * dx + d * dy)


def invert(orient: Orientation) -> Orientation:
    """The orientation that undoes ``orient``."""
    if orient.is_flipped:
        return orient  # flips composed with their own rotation self-invert
    name = "NWSE"[(-orient.rotation) % 4]
    return Orientation(name)
