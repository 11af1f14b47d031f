from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from surface_qp.geometry import (centroid, cross, lerp, orient, pt,
                                 segment_intersection, sub)

frac = st.fractions(min_value=-4, max_value=4, max_denominator=64)
point = st.tuples(frac, frac)


def test_segment_intersection_basic():
    hit = segment_intersection(pt(0, 0), pt(2, 2), pt(0, 2), pt(2, 0))
    assert hit is not None
    t, u, q = hit
    assert (t, u) == (Fraction(1, 2), Fraction(1, 2))
    assert q == (Fraction(1), Fraction(1))


def test_segment_intersection_miss():
    assert segment_intersection(pt(0, 0), pt(1, 0), pt(0, 1), pt(1, 1)) is None


def test_segment_intersection_parallel_disjoint():
    assert segment_intersection(pt(0, 0), pt(1, 0), pt(0, 1), pt(1, 2)) is None


def test_collinear_overlap_raises():
    with pytest.raises(ValueError):
        segment_intersection(pt(0, 0), pt(2, 0), pt(1, 0), pt(3, 0))


@given(point, point, point, point)
def test_intersection_is_symmetric(a, b, c, d):
    try:
        h1 = segment_intersection(a, b, c, d)
        h2 = segment_intersection(c, d, a, b)
    except ValueError:
        return
    if h1 is None or h2 is None:
        assert h1 is None and h2 is None
    else:
        assert h1[2] == h2[2]
        assert (h1[0], h1[1]) == (h2[1], h2[0])


@given(point, point, point)
def test_orient_antisymmetric(a, b, c):
    assert orient(a, b, c) == -orient(b, a, c)


@given(point, point)
def test_cross_antisymmetric(a, b):
    assert cross(a, b) == -cross(b, a)


def test_centroid_and_lerp_exact():
    square = [pt(0, 0), pt(2, 0), pt(2, 2), pt(0, 2)]
    assert centroid(square) == (Fraction(1), Fraction(1))
    assert lerp(pt(0, 0), pt(1, 3), Fraction(1, 3)) == (Fraction(1, 3), Fraction(1))
    assert sub(pt(1, 1), pt(2, 0)) == (Fraction(-1), Fraction(1))
