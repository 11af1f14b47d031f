"""Exact rational plane geometry for the polygon model.

Points and vectors are pairs of fractions.Fraction, or of ints on a scaled
grid.  Every predicate here is decided exactly; no floating point enters.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Tuple

Point = Tuple[Fraction, Fraction]


def pt(x, y) -> Point:
    return (Fraction(x), Fraction(y))


def sub(a: Point, b: Point) -> Point:
    return (a[0] - b[0], a[1] - b[1])


def lerp(a: Point, b: Point, t) -> Point:
    t = Fraction(t)
    return (a[0] + (b[0] - a[0]) * t, a[1] + (b[1] - a[1]) * t)


def cross(a: Point, b: Point) -> Fraction:
    return a[0] * b[1] - a[1] * b[0]


def orient(a: Point, b: Point, c: Point) -> int:
    """Sign of the signed area of triangle abc (+1 = counterclockwise)."""
    v = cross(sub(b, a), sub(c, a))
    return (v > 0) - (v < 0)


def segment_intersection(p0: Point, p1: Point, q0: Point, q1: Point
                         ) -> Optional[Tuple[Fraction, Fraction, Point]]:
    """Intersection of segments [p0,p1] and [q0,q1].

    Returns (t, u, point) with point = p0 + t*(p1-p0) = q0 + u*(q1-q0) and
    0 <= t,u <= 1, or None if the segments do not meet in a single point.
    Collinear overlap raises ValueError (a general-position violation for
    callers, never a silent answer).  On int coordinates no Fraction is built
    unless the segments meet.
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
        return (t, Fraction(un, denom), lerp(p0, p1, t))
    return None


def centroid(poly: list) -> Point:
    n = len(poly)
    sx = sum(v[0] for v in poly)
    sy = sum(v[1] for v in poly)
    return (Fraction(sx, n), Fraction(sy, n))
