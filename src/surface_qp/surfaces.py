"""Fundamental polygon model of a bordered surface of genus g with b boundary
components, cut along the standard generator system.

The polygon has N = 1 + 3(b-1) + 4g sides read counterclockwise in the order

    beta_1, alpha_2, beta_2, alpha_2^-1, ..., alpha_b, beta_b, alpha_b^-1,
    gamma_1, delta_1, gamma_1^-1, delta_1^-1, ..., delta_g^-1

with the beta sides free (boundary) and the others glued in inverse pairs.
Every point of the model and of its path diagrams is an int pair on one
integer grid per polygon (PolygonModel.scale grid units to the unit length).
Vertices are the regular N-gon rounded to multiples of 2^-20; convexity is
checked exactly, and all downstream geometry is exact on these vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math
from typing import Dict, List, Optional, Tuple

from .geometry import Point, centroid, cross, lerp, orient, sub
from .words import Word, generator_endpoints, mu1_letters

ONE = 1 << 17   # lerp parameters are int numerators over 2^17


@dataclass(frozen=True)
class SurfaceSpec:
    genus: int
    boundary_count: int

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError("genus must be non-negative")
        if self.boundary_count < 1:
            raise ValueError("need at least one boundary component")

    @property
    def is_disk(self) -> bool:
        return self.genus == 0 and self.boundary_count == 1

    @property
    def n_sides(self) -> int:
        return 1 + 3 * (self.boundary_count - 1) + 4 * self.genus

    def word(self, text: str) -> Word:
        return Word.from_string(text, self.genus, self.boundary_count)


def side_labels(spec: SurfaceSpec) -> List[Tuple[str, int]]:
    return [("B1", 1)] + list(mu1_letters(spec.genus, spec.boundary_count))


@dataclass(frozen=True)
class Side:
    index: int
    label: Tuple[str, int]
    start: int
    end: int
    partner: Optional[int]  # None for boundary sides


@dataclass
class PolygonModel:
    spec: SurfaceSpec
    vertices: List[Point]
    sides: List[Side]
    corner_word: List[Word]
    corner_marked: List[int]
    links: Dict[int, List[int]]          # marked point -> corners in ccw link order
    link_pos: Dict[int, Tuple[int, int]]  # corner -> (marked point, position)
    letter_to_side: Dict[Tuple[str, int], int]
    center: Point = field(default=None)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def scale(self) -> int:
        """Grid units per unit length.  A vertex is a multiple of 2^-20, so
        of n·2^34 units; the centre, their sum over n, is a multiple of 2^34
        units.  Every diagram point is a lerp at a multiple of 2^-17 from a
        vertex to a vertex (side point) or to the centre (corner point), or
        from a side point (a multiple of n·2^17 units) to the centre (bow
        point).  Each difference is a multiple of 2^17 units, so every lerp
        divides exactly and every point is an int pair."""
        return self.n << 54

    def side_point(self, k: int, t: int) -> Point:
        """The point at parameter t/2^17 along side k."""
        s = self.sides[k]
        return lerp(self.vertices[s.start], self.vertices[s.end], t, ONE)

    def transition(self, k: int) -> Word:
        """Groupoid word picked up when a diagram exits through glued side k."""
        s = self.sides[k]
        if s.partner is None:
            raise ValueError("cannot cross a boundary side")
        p = self.sides[s.partner]
        return self.corner_word[s.start].concat(self.corner_word[p.end].inverse())

    def wedge_contains(self, c: int, v: Point) -> bool:
        """Does direction v at corner c point strictly into the polygon?"""
        n = self.n
        e_out = sub(self.vertices[(c + 1) % n], self.vertices[c])
        e_in = sub(self.vertices[(c - 1) % n], self.vertices[c])
        return cross(e_out, v) > 0 and cross(v, e_in) > 0


def _regular_vertices(n: int) -> List[Point]:
    verts = []
    for k in range(n):
        ang = 2.0 * math.pi * k / n + 0.5 / n
        verts.append((round(math.cos(ang) * (1 << 20)) * n << 34,
                      round(math.sin(ang) * (1 << 20)) * n << 34))
    for k in range(n):
        if orient(verts[k], verts[(k + 1) % n], verts[(k + 2) % n]) <= 0:
            raise ValueError("grid polygon approximation not strictly convex")
    return verts


def polygon_model(spec: SurfaceSpec) -> PolygonModel:
    if spec.is_disk:
        return PolygonModel(spec, [], [], [], [1], {1: []}, {}, {})
    labels = side_labels(spec)
    n = len(labels)
    verts = _regular_vertices(n)

    where = {lab: k for k, lab in enumerate(labels)}
    sides = [Side(k, (sym, sgn), k, (k + 1) % n,
                  None if sym.startswith("B") else where[(sym, -sgn)])
             for k, (sym, sgn) in enumerate(labels)]

    g, b = spec.genus, spec.boundary_count
    cw = [Word.make([], g, b)]
    marked = [1]
    for k in range(n - 1):
        cw.append(cw[-1].concat(Word.make([labels[k]], g, b)))
        sym, sgn = labels[k]
        marked.append(generator_endpoints(sym)[1 if sgn == 1 else 0])
    closing = cw[-1].concat(Word.make([labels[n - 1]], g, b))
    if len(closing.letters):
        raise AssertionError("polygon boundary word does not reduce to identity")

    links: Dict[int, List[int]] = {}
    link_pos: Dict[int, Tuple[int, int]] = {}
    starts = [c for c in range(n) if sides[c].partner is None]
    seen = set()
    for c0 in starts:
        p = marked[c0]
        chain = [c0]
        c = c0
        for _ in range(n):
            inc = sides[(c - 1) % n]
            if inc.partner is None:
                break
            c = sides[inc.partner].start
            chain.append(c)
        else:
            raise AssertionError("vertex link walk did not terminate")
        links[p] = chain
        for pos, c in enumerate(chain):
            link_pos[c] = (p, pos)
        seen.update(chain)
    if len(seen) != n or any(marked[c] != pp for c, (pp, _) in link_pos.items()):
        raise AssertionError("vertex links do not partition the polygon corners")

    return PolygonModel(spec, verts, sides, cw, marked, links, link_pos, where,
                        center=centroid(verts))


@dataclass(frozen=True)
class Piece:
    """One factor of the canonical splitting: an annulus or one-holed torus."""
    kind: str            # "annulus" | "torus"
    index: int           # boundary index i (annulus) or handle index j (torus)


def split_canonical(spec: SurfaceSpec) -> List[Piece]:
    """Split into b-1 annuli and g one-holed tori, in fusion order."""
    if spec.is_disk:
        raise ValueError("disk admits no canonical splitting")
    pieces = []
    for i in range(2, spec.boundary_count + 1):
        pieces.append(Piece("annulus", i))
    for j in range(1, spec.genus + 1):
        pieces.append(Piece("torus", j))
    return pieces
