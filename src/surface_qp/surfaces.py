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

from dataclasses import dataclass
import math
from typing import Dict, List, NamedTuple, Optional, Tuple

from .geometry import Point, centroid, lerp, orient
from .words import Word, generator_endpoints, invert, mu1_letters

ONE = 1 << 17   # lerp parameters are int numerators over 2^17
# every regular N-gon with N up to this is strictly convex on the 2^-20 grid
# of _regular_vertices, and N = MAX_SIDES + 1 is not
MAX_SIDES = 4025


@dataclass(frozen=True)
class SurfaceSpec:
    genus: int
    boundary_count: int

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError("genus must be non-negative")
        if self.boundary_count < 1:
            raise ValueError("need at least one boundary component")
        if self.genus == 0 and self.boundary_count == 1:
            raise ValueError("the disk has no generator paths")
        if self.n_sides > MAX_SIDES:   # refused before any work of size n_sides
            raise ValueError("a polygon of %d sides is beyond the model's grid "
                             "(at most %d)" % (self.n_sides, MAX_SIDES))

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
    transitions: List[Optional[Word]]    # per side; None for boundary sides
    links: Dict[int, List[int]]          # marked point -> corners in ccw link order
    link_pos: Dict[int, Tuple[int, int]]  # corner -> (marked point, position)
    letter_to_side: Dict[Tuple[str, int], int]
    center: Point

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
        if self.transitions[k] is None:
            raise ValueError("cannot cross a boundary side")
        return self.transitions[k]


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
    labels = side_labels(spec)
    n = len(labels)
    verts = _regular_vertices(n)

    where = {lab: k for k, lab in enumerate(labels)}
    sides = [Side(k, (sym, sgn), k, (k + 1) % n,
                  None if sym.startswith("B") else where[(sym, -sgn)])
             for k, (sym, sgn) in enumerate(labels)]

    g, b = spec.genus, spec.boundary_count
    marked = [1] + [generator_endpoints(sym)[1 if sgn == 1 else 0]
                    for sym, sgn in labels[:n - 1]]
    # corner k >= 1 is reached by beta_1 = mu_1^-1 and the first k - 1 letters
    # of mu_1: the inverse of the rest of mu_1, from p_1 to corner k's point.
    # That is the first n - k letters of mu_1^-1, and its inverse, back to
    # p_1, the last n - k letters of mu_1; both are empty at corner 0.
    mu1 = mu1_letters(g, b)
    mu1_inv = invert(mu1)
    cw = [Word(mu1_inv[:(n - k) % n], 1, marked[k]) for k in range(n)]
    back = [Word(mu1[(k - 1) % n:], marked[k], 1) for k in range(n)]
    closing = cw[-1].concat(Word.make([labels[n - 1]], g, b))
    if len(closing.letters):
        raise AssertionError("polygon boundary word does not reduce to identity")
    # leaving through side k and entering its partner p picks up the path
    # from p_1 to the corner at k's start and back from p's end to p_1
    transitions = [None if s.partner is None
                   else cw[s.start].concat(back[sides[s.partner].end])
                   for s in sides]

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

    return PolygonModel(spec, verts, sides, cw, marked, transitions, links, link_pos,
                        where, centroid(verts))


class Piece(NamedTuple):
    """One factor of the canonical splitting: an annulus or one-holed torus."""
    kind: str            # "annulus" | "torus"
    index: int           # boundary index i (annulus) or handle index j (torus)


def split_canonical(spec: SurfaceSpec) -> List[Piece]:
    """Split into b-1 annuli and g one-holed tori, in fusion order."""
    pieces = []
    for i in range(2, spec.boundary_count + 1):
        pieces.append(Piece("annulus", i))
    for j in range(1, spec.genus + 1):
        pieces.append(Piece("torus", j))
    return pieces
