"""Planar geometry primitives shared by every placement subsystem.

The coordinate convention follows Bookshelf: ``x`` grows to the right,
``y`` grows upward, and a node's position is the coordinate of its
lower-left corner.
"""

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.orientation import Orientation, invert, transform_offset

__all__ = [
    "Point",
    "Rect",
    "Orientation",
    "invert",
    "transform_offset",
]
