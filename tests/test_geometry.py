import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from surface_qp.geometry import (centroid, cross, lerp, orient,
                                 segment_intersection, sub)

frac = st.fractions(min_value=-4, max_value=4, max_denominator=64)
point = st.tuples(frac, frac)


def test_segment_intersection_basic():
    hit = segment_intersection((0, 0), (2, 2), (0, 2), (2, 0))
    assert hit is not None
    t, u, q = hit
    assert (t, u) == (Fraction(1, 2), Fraction(1, 2))
    assert q == (Fraction(1), Fraction(1))


def test_segment_intersection_miss():
    assert segment_intersection((0, 0), (1, 0), (0, 1), (1, 1)) is None


def test_segment_intersection_parallel_disjoint():
    assert segment_intersection((0, 0), (1, 0), (0, 1), (1, 2)) is None


@pytest.mark.parametrize("segments", [((0, 0), (2, 0), (1, 0), (3, 0)),
                                      ((0, 0), (4, 4), (2, 2), (6, 6))],
                         ids=["horizontal", "diagonal"])
def test_collinear_overlap_raises(segments):
    with pytest.raises(ValueError):
        segment_intersection(*segments)


@given(point, point, point, point)
def test_int_grid_gives_the_fraction_parameters(a, b, c, d):
    # scaled by the lcm of the denominators the points are ints, and the
    # same (t, u) must come back, with the meeting point scaled
    den = math.lcm(*(x.denominator for p in (a, b, c, d) for x in p))
    ints = [(int(p[0] * den), int(p[1] * den)) for p in (a, b, c, d)]
    try:
        exact = segment_intersection(a, b, c, d)
    except ValueError:
        with pytest.raises(ValueError):
            segment_intersection(*ints)
        return
    scaled = segment_intersection(*ints)
    if exact is None:
        assert scaled is None
    else:
        assert scaled[:2] == exact[:2]
        assert scaled[2] == (exact[2][0] * den, exact[2][1] * den)


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
    # the same points on a grid of 3 units per unit length
    square = [(0, 0), (6, 0), (6, 6), (0, 6)]
    assert centroid(square) == (3, 3)
    assert lerp((0, 0), (3, 9), 1, 3) == (1, 3)
    assert sub((3, 3), (6, 0)) == (-3, 3)
