"""Tests for the eight placement orientations and their transforms."""

import math

import pytest

from repro.db import Node
from repro.geometry import Orientation, invert, transform_offset

ALL = list(Orientation)


class TestParsing:
    @pytest.mark.parametrize("name", ["N", "W", "S", "E", "FN", "FW", "FS", "FE"])
    def test_roundtrip(self, name):
        assert Orientation.from_string(name).value == name

    def test_case_insensitive(self):
        assert Orientation.from_string(" fn ") is Orientation.FN

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            Orientation.from_string("Q")


class TestProperties:
    def test_rotation_quarters(self):
        assert Orientation.N.rotation == 0
        assert Orientation.W.rotation == 1
        assert Orientation.S.rotation == 2
        assert Orientation.E.rotation == 3

    def test_flip_flag(self):
        assert not Orientation.S.is_flipped
        assert Orientation.FS.is_flipped

    def test_swaps_dimensions(self):
        assert Orientation.W.swaps_dimensions
        assert Orientation.E.swaps_dimensions
        assert not Orientation.S.swaps_dimensions
        assert Orientation.FW.swaps_dimensions


class TestTransformOffset:
    def test_identity(self):
        assert transform_offset(1.0, 2.0, Orientation.N) == (1.0, 2.0)

    def test_quarter_turn(self):
        # CCW 90: (1, 0) -> (0, 1)
        dx, dy = transform_offset(1.0, 0.0, Orientation.W)
        assert (dx, dy) == pytest.approx((0.0, 1.0))

    def test_half_turn(self):
        assert transform_offset(1.0, 2.0, Orientation.S) == pytest.approx((-1.0, -2.0))

    def test_flip_only(self):
        assert transform_offset(1.0, 2.0, Orientation.FN) == pytest.approx((-1.0, 2.0))

    def test_flip_then_rotate(self):
        # FW: flip x then rotate CCW: (1,0) -> (-1,0) -> (0,-1)
        assert transform_offset(1.0, 0.0, Orientation.FW) == pytest.approx((0.0, -1.0))

    @pytest.mark.parametrize("orient", ALL)
    def test_preserves_length(self, orient):
        dx, dy = transform_offset(3.0, 4.0, orient)
        assert math.hypot(dx, dy) == pytest.approx(5.0)


class TestPlacedSize:
    """A node's outline on the die under each orientation."""

    def test_n_keeps(self):
        n = Node("m", 3, 2, orientation=Orientation.N)
        assert (n.placed_width, n.placed_height) == (3, 2)

    def test_w_swaps(self):
        n = Node("m", 3, 2, orientation=Orientation.W)
        assert (n.placed_width, n.placed_height) == (2, 3)

    @pytest.mark.parametrize("orient", ALL)
    def test_area_preserved(self, orient):
        n = Node("m", 3, 2, orientation=orient)
        assert n.placed_width * n.placed_height == 6


class TestGroupStructure:
    @pytest.mark.parametrize("orient", ALL)
    def test_invert_is_involution(self, orient):
        assert invert(invert(orient)) is orient

    @pytest.mark.parametrize("orient", ALL)
    def test_inverse(self, orient):
        vec = (1.0, 0.7)
        back = transform_offset(*transform_offset(*vec, orient), invert(orient))
        assert back == pytest.approx(vec)

    def test_eight_distinct_elements(self):
        assert len({o.value for o in ALL}) == 8
