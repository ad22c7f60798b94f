"""Tests for repro.geometry.point."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Point

coords = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


class TestPointAlgebra:
    def test_default_is_origin(self):
        assert Point() == Point(0.0, 0.0)

    def test_add(self):
        assert Point(1, 2) + Point(3, 4) == Point(4, 6)

    def test_sub(self):
        assert Point(5, 7) - Point(2, 3) == Point(3, 4)

    def test_scalar_mul(self):
        assert Point(1.5, -2.0) * 2 == Point(3.0, -4.0)

    def test_rmul(self):
        assert 2 * Point(1, 1) == Point(2, 2)

    def test_neg(self):
        assert -Point(1, -2) == Point(-1, 2)

    def test_iter_unpacking(self):
        x, y = Point(3, 4)
        assert (x, y) == (3, 4)

    def test_as_tuple(self):
        assert Point(1, 2).as_tuple() == (1, 2)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            Point(1, 2).x = 5


class TestPointMetrics:
    def test_dot(self):
        assert Point(1, 2).dot(Point(3, 4)) == 11

    def test_norm_345(self):
        assert Point(3, 4).norm() == pytest.approx(5.0)

    def test_manhattan(self):
        assert Point(0, 0).manhattan(Point(3, -4)) == 7

    @given(coords, coords)
    def test_norm_nonnegative(self, x, y):
        assert Point(x, y).norm() >= 0

    @given(coords, coords, coords, coords)
    def test_manhattan_symmetry(self, ax, ay, bx, by):
        a, b = Point(ax, ay), Point(bx, by)
        assert a.manhattan(b) == pytest.approx(b.manhattan(a))

    @given(coords, coords, coords, coords)
    def test_manhattan_dominates_euclid(self, ax, ay, bx, by):
        a, b = Point(ax, ay), Point(bx, by)
        assert a.manhattan(b) >= (a - b).norm() - 1e-6

    @given(coords, coords)
    def test_add_neg_is_zero(self, x, y):
        p = Point(x, y)
        assert (p + (-p)).norm() == 0
