"""Exact plane geometry for the polygon model.

Points and vectors are pairs of ints on the integer grid of the polygon model
(see surfaces), so every predicate is an integer cross product and no
floating point enters.  Only a hit of segment_intersection is rational: its
parameters and meeting point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

Point = Tuple[int, int]


def sub(a: Point, b: Point) -> Point:
    return (a[0] - b[0], a[1] - b[1])


def lerp(a: Point, b: Point, num: int, den: int) -> Point:
    """a + (b - a)·num/den, for points on a grid where the division is exact."""
    return (a[0] + (b[0] - a[0]) * num // den, a[1] + (b[1] - a[1]) * num // den)


def cross(a: Point, b: Point) -> int:
    return a[0] * b[1] - a[1] * b[0]


def orient(a: Point, b: Point, c: Point) -> int:
    """Sign of the signed area of triangle abc (+1 = counterclockwise)."""
    v = cross(sub(b, a), sub(c, a))
    return (v > 0) - (v < 0)


def segment_intersection(p0: Point, p1: Point, q0: Point, q1: Point
                         ) -> Optional[Tuple[Fraction, Fraction, tuple]]:
    """Intersection of segments [p0,p1] and [q0,q1].

    Returns (t, u, point) with point = p0 + t*(p1-p0) = q0 + u*(q1-q0) and
    0 <= t,u <= 1, or None if the segments do not meet in a single point.
    Collinear overlap raises ValueError (a general-position violation for
    callers, never a silent answer).  No Fraction is built unless the
    segments meet.  No program path calls it: it is the reference that the
    tests hold the boundary-order crossings of diagrams to.
    """
    d1, d2 = sub(p1, p0), sub(q1, q0)
    denom = cross(d1, d2)
    diff = sub(q0, p0)
    if denom == 0:
        if cross(diff, d1) == 0:
            # collinear; overlap is a degenerate configuration
            raise ValueError("collinear segments")
        return None
    tn, un = cross(diff, d2), cross(diff, d1)
    if denom < 0:
        denom, tn, un = -denom, -tn, -un
    if 0 <= tn <= denom and 0 <= un <= denom:
        t = Fraction(tn, denom)
        return (t, Fraction(un, denom), (p0[0] + d1[0] * t, p0[1] + d1[1] * t))
    return None


def centroid(poly: List[Point]) -> Point:
    """Vertex mean, for vertices whose coordinate sums the count divides."""
    n = len(poly)
    return (sum(v[0] for v in poly) // n, sum(v[1] for v in poly) // n)
