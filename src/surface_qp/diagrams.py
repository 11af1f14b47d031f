"""Path diagrams on the fundamental polygon: exact polyline realizations of
groupoid words, word reading, and pairwise intersection data.

A diagram is a list of legs (polylines inside the polygon); consecutive legs
are joined by a side crossing (exit on a glued side, entry at the same
parameter read backwards on its partner).  Endpoints sit exactly at marked
polygon corners.

Every point is an int pair on the polygon model's grid (see
PolygonModel.scale), so the intersection predicates are exact integer tests,
run after a bounding-box prune.

General position.  Every leg point other than an endpoint corner is one of
three kinds, each an injective function of its jitter parameters:

- a side point, at parameter t strictly inside glued side k;
- a corner point, at parameter eps on the segment from corner c to the
  polygon centre;
- a bow point, at parameter bow on the segment from the point at parameter
  tm on side k to the centre.

Parameters are int numerators over 2^17.  realize_pair draws alpha in lane 0
and beta in lane 1, and lane 1 adds 1 to every numerator.  So alpha's
numerators are even and beta's odd: no point of alpha equals a point of the
same kind of beta.  Coincidences across kinds, a leg point on a segment of
the other diagram, collinear overlaps and equal endpoint directions are not
ruled out by construction; they raise GeneralPositionError, which callers
see as a degenerate input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .geometry import Point, cross, lerp, segment_intersection, sub
from .surfaces import ONE, PolygonModel
from .words import Word

LANE_SHIFT = 1   # beta's offset from alpha's jitter numerators


class GeneralPositionError(ValueError):
    """A configuration too degenerate to read signs from."""


@dataclass(frozen=True)
class PathDiagram:
    legs: Tuple[Tuple[Point, ...], ...]
    sides: Tuple[int, ...]     # glued side crossed between consecutive legs
    start_corner: int
    end_corner: int

    def __post_init__(self):
        if len(self.legs) != len(self.sides) + 1:
            raise ValueError("need exactly one side crossing between legs")
        for leg in self.legs:
            if len(leg) < 2:
                raise ValueError("each leg needs at least two points")

    @property
    def start_dir(self) -> Point:
        return sub(self.legs[0][1], self.legs[0][0])

    @property
    def end_dir(self) -> Point:
        return sub(self.legs[-1][-2], self.legs[-1][-1])

    def segments(self):
        for i, leg in enumerate(self.legs):
            for a, b in zip(leg, leg[1:]):
                yield i, a, b


def _leg_prefixes(d: PathDiagram, pm: PolygonModel):
    """prefix[i] / suffix[i]: word of the diagram before / from leg i."""
    m = len(d.legs)
    pref = [pm.corner_word[d.start_corner].inverse()]
    for k in d.sides:
        pref.append(pref[-1].concat(pm.transition(k)))
    suf = [None] * m
    suf[m - 1] = pm.corner_word[d.end_corner]
    for i in range(m - 2, -1, -1):
        suf[i] = pm.transition(d.sides[i]).concat(suf[i + 1])
    return pref, suf


def word_of_diagram(d: PathDiagram, pm: PolygonModel) -> Word:
    """Read the groupoid word of a diagram from its side crossings."""
    pref, suf = _leg_prefixes(d, pm)
    return pref[0].concat(suf[0])


# --- realization of words -------------------------------------------------

def _chords_for_word(w: Word, pm: PolygonModel, variant: int):
    """Per letter: (enter_corner, exit_corner, side_index).  For glued
    generators the variant bits select between the two parallel sides."""
    chords = []
    for t, (sym, sgn) in enumerate(w.letters):
        fwd = pm.letter_to_side.get((sym, sgn))
        bwd = pm.letter_to_side.get((sym, -sgn))
        use_alt = bwd is not None and fwd is not None and ((variant >> t) & 1)
        if fwd is not None and not use_alt:
            s = pm.sides[fwd]
            chords.append((s.start, s.end, fwd))
        elif bwd is not None:
            s = pm.sides[bwd]
            chords.append((s.end, s.start, bwd))
        else:
            raise ValueError("letter %r has no polygon side" % ((sym, sgn),))
    return chords


def diagram_from_word(w: Word, pm: PolygonModel, jitter_seed: int,
                      variant: int = 0, lane: int = 0) -> PathDiagram:
    """Exact polyline realizing the word w.

    Each letter becomes a chord bowed inward from the corresponding polygon
    side; junctions at a marked point either smooth through the shared corner
    or walk the vertex link, crossing glued sides near their corner ends.
    Jitter parameters are drawn from a deterministic seeded stream and, in
    lane 1, shifted by LANE_SHIFT (see the module docstring).
    """
    if pm.spec.is_disk:
        raise ValueError("disk model supports no diagrams")
    if len(w.letters) == 0:
        raise ValueError("constant paths are excluded from diagrams")
    rng = random.Random("%d|%d|%s" % (jitter_seed, variant, w.letters))
    shift = LANE_SHIFT * lane

    def eps() -> int:
        return 2 * (256 + rng.randrange(256)) + shift

    def bow() -> int:
        return 2 * (2048 + rng.randrange(2048)) + shift

    chords = _chords_for_word(w, pm, variant)
    verts = pm.vertices
    legs: List[List[Point]] = []
    cur: List[Point] = [verts[chords[0][0]]]
    sides: List[int] = []

    for t, (c_in, c_out, k) in enumerate(chords):
        tm = 2 * (7 * 4096 + rng.randrange(2 * 4096)) + shift
        mid = pm.side_point(k, tm)
        cur.append(lerp(mid, pm.center, bow(), ONE))
        if t == len(chords) - 1:
            cur.append(verts[c_out])
            continue
        c_next = chords[t + 1][0]
        if c_out == c_next:
            cur.append(lerp(verts[c_out], pm.center, eps(), ONE))
            continue
        p, pos_a = pm.link_pos[c_out]
        p2, pos_b = pm.link_pos[c_next]
        if p != p2:
            raise ValueError("word not composable on the polygon")
        chain = pm.links[p]
        step = 1 if pos_a < pos_b else -1
        pos = pos_a
        while pos != pos_b:
            c = chain[pos]
            if step == 1:
                k_e = (c - 1) % pm.n          # incoming side of the wedge
                t_e = ONE - eps()
            else:
                k_e = c                        # outgoing side of the wedge
                t_e = eps()
            cur.append(pm.side_point(k_e, t_e))
            legs.append(cur)
            sides.append(k_e)
            cur = [pm.side_point(pm.sides[k_e].partner, ONE - t_e)]
            pos += step
    legs.append(cur)

    d = PathDiagram(tuple(tuple(l) for l in legs), tuple(sides),
                    chords[0][0], chords[-1][1])
    got = word_of_diagram(d, pm)
    if got.letters != w.letters:
        raise AssertionError("diagram word reading disagrees with input word")
    return d


# --- intersection data ----------------------------------------------------

@dataclass(frozen=True)
class Crossing:
    sign: int
    alpha_prefix: Word
    alpha_suffix: Word
    beta_prefix: Word
    beta_suffix: Word

    def reroute_ab(self) -> Word:
        """Word of alpha *_q beta."""
        return self.alpha_prefix.concat(self.beta_suffix)

    def reroute_ba(self) -> Word:
        return self.beta_prefix.concat(self.alpha_suffix)


@dataclass(frozen=True)
class EndpointSign:
    value: Fraction            # 0, +1/2 or -1/2
    marked: Optional[int]      # marked point index where the two meet
    alpha_left: Optional[bool]  # alpha^I on the left of beta^J at that point


@dataclass(frozen=True)
class IntersectionData:
    crossings: Tuple[Crossing, ...]
    endpoint_signs: Dict[Tuple[str, str], EndpointSign]


def _endpoint(d: PathDiagram, which: str):
    if which == "start":
        return d.start_corner, d.start_dir
    return d.end_corner, d.end_dir


def _check_wedge(pm: PolygonModel, corner: int, v: Point):
    if not pm.wedge_contains(corner, v):
        raise GeneralPositionError("endpoint direction on a wedge edge")


def _angular_less(pm: PolygonModel, a, b) -> bool:
    """Order of interior directions at a marked point, sweeping ccw from the
    boundary side.  a, b are (corner, vector) pairs at the same marked point."""
    (ca, va), (cb, vb) = a, b
    pa, ia = pm.link_pos[ca]
    pb, ib = pm.link_pos[cb]
    if pa != pb:
        raise ValueError("directions at different marked points")
    if ia != ib:
        return ia < ib
    c = cross(va, vb)
    if c == 0:
        raise GeneralPositionError("coinciding endpoint directions")
    return c > 0


def intersection_data(d_alpha: PathDiagram, d_beta: PathDiagram,
                      pm: PolygonModel) -> IntersectionData:
    for d in (d_alpha, d_beta):
        _check_wedge(pm, d.start_corner, d.start_dir)
        _check_wedge(pm, d.end_corner, d.end_dir)

    pref_a, suf_a = _leg_prefixes(d_alpha, pm)
    pref_b, suf_b = _leg_prefixes(d_beta, pm)

    def boxed(d: PathDiagram):
        for i, a, b in d.segments():
            yield (i, a, b, min(a[0], b[0]), max(a[0], b[0]),
                   min(a[1], b[1]), max(a[1], b[1]))

    verts = set(pm.vertices)
    segs_b = list(boxed(d_beta))
    crossings: List[Crossing] = []
    for i, a0, a1, axl, axh, ayl, ayh in boxed(d_alpha):
        for j, b0, b1, bxl, bxh, byl, byh in segs_b:
            # closed boxes that do not meet: no crossing, touch or overlap
            if bxl > axh or bxh < axl or byl > ayh or byh < ayl:
                continue
            try:
                hit = segment_intersection(a0, a1, b0, b1)
            except ValueError:
                raise GeneralPositionError("collinear overlapping segments")
            if hit is None:
                continue
            t, u, q = hit
            if 0 < t < 1 and 0 < u < 1:
                s = cross(sub(a1, a0), sub(b1, b0))
                crossings.append(Crossing(
                    1 if s > 0 else -1,
                    pref_a[i], suf_a[i], pref_b[j], suf_b[j]))
                continue
            # intersections at segment endpoints: shared marked vertices are
            # boundary points (not interior crossings); anything else is a
            # general-position failure
            if q in verts and (t in (0, 1)) and (u in (0, 1)):
                continue
            raise GeneralPositionError("non-transversal intersection at %r"
                                       % ((q[0] / pm.scale, q[1] / pm.scale),))

    signs: Dict[Tuple[str, str], EndpointSign] = {}
    for I in ("start", "end"):
        for J in ("start", "end"):
            ca, va = _endpoint(d_alpha, I)
            cb, vb = _endpoint(d_beta, J)
            pa = pm.link_pos[ca][0]
            pb = pm.link_pos[cb][0]
            if pa != pb:
                signs[(I, J)] = EndpointSign(Fraction(0), None, None)
                continue
            base = _angular_less(pm, (ca, va), (cb, vb))
            # endpoint directions are actual path velocities: at an "end"
            # incidence the velocity points out of the surface, rotating the
            # stored inward representative by pi and flipping the determinant
            flip = (I == "end") != (J == "end")
            pos = base != flip
            signs[(I, J)] = EndpointSign(
                Fraction(1, 2) if pos else Fraction(-1, 2), pa, not base)
    return IntersectionData(tuple(crossings), signs)


def algebraic_intersection(data: IntersectionData) -> Fraction:
    return (sum((s.value for s in data.endpoint_signs.values()), Fraction(0))
            + sum(c.sign for c in data.crossings))


def realize_pair(w_alpha: Word, w_beta: Word, pm: PolygonModel, seed: int,
                 variants: Tuple[int, int] = (0, 0)):
    """Seeded realizations of a word pair in general position by construction
    (alpha in lane 0, beta in lane 1); returns (d_alpha, d_beta,
    IntersectionData).  A degeneracy the lanes do not rule out raises
    GeneralPositionError."""
    da = diagram_from_word(w_alpha, pm, seed * 1009, variants[0], 0)
    db = diagram_from_word(w_beta, pm, seed * 2003 + 1, variants[1], 1)
    return da, db, intersection_data(da, db, pm)
