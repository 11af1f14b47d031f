"""Path diagrams on the fundamental polygon: realizations of groupoid words
by their side crossings, word reading, pairwise intersection data, and the
main formula as one element E of word pairs, which every bracket route reads.

A diagram runs inside the polygon from a marked corner to a marked corner.
Its side crossings cut it into legs: each crossing exits through glued side
k at parameter t and enters k's partner at ONE - t.  A diagram holds only
what intersection_data reads: its side crossings, its two end corners and
its two end directions.  Only the end directions are grid vectors (see
PolygonModel.scale).  A leg is an arc of the polygon, so its crossings with
a leg of the other diagram sum to +1, -1 or 0 as their ends interleave in
the ccw boundary order; intersection_data reads the crossings from that
order, with no segment tests.

General position.  Every leg end other than an endpoint corner is a side
point, at parameter t strictly inside glued side k.  Parameters are int
numerators over 2^17.  realize_pair draws alpha in lane 0 and beta in lane
1, and lane 1 adds 1 to every numerator.  So alpha's numerators are even and
beta's odd: no side point of alpha is one of beta.  The only degeneracies
left are endpoint directions on a wedge edge or equal to each other; they
raise GeneralPositionError, which callers see as a degenerate input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .geometry import Point, cross, lerp, sub
# unused here, but the benchmark's tracer wraps it through this module's namespace
from .geometry import segment_intersection  # noqa: F401
from .surfaces import ONE, PolygonModel
from .words import Word

LANE_SHIFT = 1   # beta's offset from alpha's jitter numerators


class GeneralPositionError(ValueError):
    """A configuration too degenerate to read signs from."""


@dataclass(frozen=True)
class PathDiagram:
    exits: Tuple[Tuple[int, int], ...]   # per side crossing: (glued side k, t over ONE)
    start_corner: int
    end_corner: int
    start_dir: Point    # from the start corner into the polygon
    end_dir: Point      # from the end corner back along the last leg
    # (model, prefixes, suffixes) of _leg_prefixes: the word check of a
    # realization and its intersection data read one set of leg words
    leg_words: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    @property
    def sides(self) -> Tuple[int, ...]:
        """The glued side crossed between consecutive legs."""
        return tuple(k for k, _ in self.exits)


def _leg_prefixes(d: PathDiagram, pm: PolygonModel):
    """prefix[i] / suffix[i]: word of the diagram before / from leg i, built
    once per diagram and model."""
    if d.leg_words is not None and d.leg_words[0] is pm:
        return d.leg_words[1:]
    sides = d.sides
    m = len(sides) + 1
    pref = [pm.corner_word[d.start_corner].inverse()]
    for k in sides:
        pref.append(pref[-1].concat(pm.transition(k)))
    suf = [None] * m
    suf[m - 1] = pm.corner_word[d.end_corner]
    for i in range(m - 2, -1, -1):
        suf[i] = pm.transition(sides[i]).concat(suf[i + 1])
    object.__setattr__(d, "leg_words", (pm, pref, suf))
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
    """The diagram realizing the word w.

    Each letter is a chord bowed inward from the corresponding polygon side;
    junctions at a marked point either smooth through the shared corner or
    walk the vertex link, crossing glued sides near their corner ends.  Only
    the first and the last letter's bowed points are formed, for the end
    directions, but every jitter parameter is drawn, in order, from a
    deterministic seeded stream and, in lane 1, shifted by LANE_SHIFT (see
    the module docstring).
    """
    if len(w.letters) == 0:
        raise ValueError("constant paths are excluded from diagrams")
    rng = random.Random("%d|%d|%s" % (jitter_seed, variant, w.letters))
    shift = LANE_SHIFT * lane

    def eps() -> int:
        return 2 * (256 + rng.randrange(256)) + shift

    def bow_draws() -> Tuple[int, int]:
        """A letter's bowed point: its side parameter and its bow."""
        return (2 * (7 * 4096 + rng.randrange(2 * 4096)) + shift,
                2 * (2048 + rng.randrange(2048)) + shift)

    def bowed(k: int, tm: int, b: int) -> Point:
        return lerp(pm.side_point(k, tm), pm.center, b, ONE)

    chords = _chords_for_word(w, pm, variant)
    exits = []
    for t, (c_in, c_out, k) in enumerate(chords):
        draws = bow_draws()
        if t == 0:
            start_dir = sub(bowed(k, *draws), pm.vertices[c_in])
        if t == len(chords) - 1:
            end_dir = sub(bowed(k, *draws), pm.vertices[c_out])
            break
        c_next = chords[t + 1][0]
        if c_out == c_next:
            eps()   # the smoothed corner point: drawn, to keep the stream, not formed
            continue
        p, pos_a = pm.link_pos[c_out]
        p2, pos_b = pm.link_pos[c_next]
        if p != p2:
            raise ValueError("word not composable on the polygon")
        chain = pm.links[p]
        step = 1 if pos_a < pos_b else -1
        for pos in range(pos_a, pos_b, step):
            c = chain[pos]
            if step == 1:
                exits.append(((c - 1) % pm.n, ONE - eps()))   # the wedge's incoming side
            else:
                exits.append((c, eps()))                      # its outgoing side

    d = PathDiagram(tuple(exits), chords[0][0], chords[-1][1], start_dir, end_dir)
    got = word_of_diagram(d, pm)
    if got.letters != w.letters:
        raise AssertionError("diagram word reading disagrees with input word")
    return d


# --- intersection data ----------------------------------------------------

@dataclass(frozen=True)
class EndpointSign:
    value: Fraction            # 0, +1/2 or -1/2
    marked: Optional[int]      # marked point index where the two meet
    alpha_left: Optional[bool]  # alpha^I on the left of beta^J at that point


@dataclass(frozen=True)
class IntersectionData:
    """The crossings as a reduced group-ring element: (alpha *_q beta,
    beta *_q alpha) -> the sum of the signs of the crossings q that reroute
    to those freely reduced words, zero sums dropped; and the four endpoint
    signs."""
    crossings: Dict[Tuple[Word, Word], int]
    endpoint_signs: Dict[Tuple[str, str], EndpointSign]


def _corner_key(pm: PolygonModel, c: int, v: Point):
    """An end at corner c with direction v in the ccw boundary order: the
    corner blown up to an arc, from the incoming side c - 1 (near 0) to side
    c (near 1), at v's place in the corner's wedge."""
    e_out = sub(pm.vertices[(c + 1) % pm.n], pm.vertices[c])
    e_in = sub(pm.vertices[(c - 1) % pm.n], pm.vertices[c])
    s, t = cross(v, e_in), cross(e_out, v)
    if s <= 0 or t <= 0:
        raise GeneralPositionError("endpoint direction on a wedge edge")
    return (c, 0, Fraction(s, s + t))


def _leg_ends(d: PathDiagram, pm: PolygonModel):
    """The boundary keys of the first and the last point of every leg.  A
    leg leaving through side k at t ends at (k, 1, t), and the next leg
    starts at (partner, 1, ONE - t): every lerp divides exactly, so along
    one side t orders the points as their distance from its start does."""
    firsts = [_corner_key(pm, d.start_corner, d.start_dir)] + [
        (pm.sides[k].partner, 1, ONE - t) for k, t in d.exits]
    lasts = [(k, 1, t) for k, t in d.exits] + [_corner_key(pm, d.end_corner, d.end_dir)]
    return list(zip(firsts, lasts))


def _on_arc(x, a0, a1) -> bool:
    """Is boundary key x strictly inside the ccw boundary arc from a0 to a1?"""
    return a0 < x < a1 if a0 < a1 else (x > a0 or x < a1)


def _angular_less(pm: PolygonModel, a, b) -> bool:
    """Order of interior directions at a marked point, sweeping ccw from the
    boundary side.  a, b are corner keys at the same marked point."""
    pa, ia = pm.link_pos[a[0]]
    pb, ib = pm.link_pos[b[0]]
    if pa != pb:
        raise ValueError("directions at different marked points")
    if ia != ib:
        return ia < ib
    if a == b:
        raise GeneralPositionError("coinciding endpoint directions")
    return a > b    # ccw in a wedge runs from side c to side c - 1


def intersection_data(d_alpha: PathDiagram, d_beta: PathDiagram,
                      pm: PolygonModel) -> IntersectionData:
    """Each leg is an arc of the polygon, so a leg pair crosses with sign +1
    when beta's leg starts inside alpha's ccw boundary arc and ends outside
    it, -1 for the reverse, and 0 when its ends do not interleave."""
    pref_a, suf_a = _leg_prefixes(d_alpha, pm)
    pref_b, suf_b = _leg_prefixes(d_beta, pm)
    ends_a, ends_b = _leg_ends(d_alpha, pm), _leg_ends(d_beta, pm)

    # the reroute words depend on the leg pair alone: one key per nonzero pair
    crossings: Dict[Tuple[Word, Word], int] = {}
    for i, (a0, a1) in enumerate(ends_a):
        for j, (b0, b1) in enumerate(ends_b):
            c = _on_arc(b0, a0, a1) - _on_arc(b1, a0, a1)
            if c:
                key = (pref_a[i].concat(suf_b[j]), pref_b[j].concat(suf_a[i]))
                crossings[key] = crossings.get(key, 0) + c

    end_a = {"start": ends_a[0][0], "end": ends_a[-1][1]}
    end_b = {"start": ends_b[0][0], "end": ends_b[-1][1]}
    signs: Dict[Tuple[str, str], EndpointSign] = {}
    for I in ("start", "end"):
        for J in ("start", "end"):
            ka, kb = end_a[I], end_b[J]
            pa = pm.link_pos[ka[0]][0]
            if pa != pm.link_pos[kb[0]][0]:
                signs[(I, J)] = EndpointSign(Fraction(0), None, None)
                continue
            base = _angular_less(pm, ka, kb)
            # endpoint directions are actual path velocities: at an "end"
            # incidence the velocity points out of the surface, rotating the
            # stored inward representative by pi and flipping the determinant
            flip = (I == "end") != (J == "end")
            pos = base != flip
            signs[(I, J)] = EndpointSign(
                Fraction(1, 2) if pos else Fraction(-1, 2), pa, not base)
    return IntersectionData({k: c for k, c in crossings.items() if c}, signs)


def double_bracket(data: IntersectionData, w_alpha: Word,
                   w_beta: Word) -> Dict[Tuple[Word, Word], Fraction]:
    """The main formula as one element E: (X, Y) -> c for the terms
    c Re tr(M_phi Hol_X N Hol_Y), the classes of data.crossings plus the
    endpoint terms s_ss (beta, alpha), s_se (1, beta alpha), s_es (alpha beta,
    1) and s_ee (alpha, beta), with 1 the empty word at the meeting point;
    zero sums dropped.  A nonzero start-end sign means that the words meet."""
    s = {IJ: e.value for IJ, e in data.endpoint_signs.items()}
    ends = [((w_beta, w_alpha), s["start", "start"]), ((w_alpha, w_beta), s["end", "end"])]
    if s["start", "end"]:
        one = Word((), w_alpha.source, w_alpha.source)
        ends.append(((one, w_beta.concat(w_alpha)), s["start", "end"]))
    if s["end", "start"]:
        one = Word((), w_beta.source, w_beta.source)
        ends.append(((w_alpha.concat(w_beta), one), s["end", "start"]))
    out = {key: Fraction(c) for key, c in data.crossings.items()}
    for key, c in ends:
        out[key] = out[key] + c if key in out else c
    return {key: c for key, c in out.items() if c}


def realize_pair(w_alpha: Word, w_beta: Word, pm: PolygonModel, seed: int,
                 variants: Tuple[int, int] = (0, 0)):
    """Seeded realizations of a word pair in general position by construction
    (alpha in lane 0, beta in lane 1); returns (d_alpha, d_beta,
    IntersectionData).  A degeneracy the lanes do not rule out raises
    GeneralPositionError."""
    da = diagram_from_word(w_alpha, pm, seed * 1009, variants[0], 0)
    db = diagram_from_word(w_beta, pm, seed * 2003 + 1, variants[1], 1)
    return da, db, intersection_data(da, db, pm)
