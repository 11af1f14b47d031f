"""Path diagrams as exact polylines: the reference that diagrams'
side-crossing form is checked against.

diagram_from_word draws the program's jitter stream in the program's order
and forms every point: each letter a chord bowed inward from its polygon
side, each junction at a marked point either smoothed through the shared
corner or walked along the vertex link, crossing glued sides near their
corner ends.  Every point is an int pair on the polygon model's grid (see
PolygonModel.scale).  program_diagram reads a polyline diagram as the
program's PathDiagram: its side crossings and its two end directions.
"""

import random
from dataclasses import dataclass
from typing import Tuple

from surface_qp.diagrams import LANE_SHIFT, PathDiagram, _chords_for_word
from surface_qp.geometry import Point, lerp, sub
from surface_qp.surfaces import ONE, PolygonModel
from surface_qp.words import Word


@dataclass(frozen=True)
class PolylineDiagram:
    """A list of legs (polylines inside the polygon); consecutive legs are
    joined by a side crossing (exit on glued side k, entry at the same
    parameter read backwards on its partner).  The ends sit at corners."""
    legs: Tuple[Tuple[Point, ...], ...]
    sides: Tuple[int, ...]     # glued side crossed between consecutive legs
    start_corner: int
    end_corner: int

    def __post_init__(self):
        if len(self.legs) != len(self.sides) + 1:
            raise ValueError("need exactly one side crossing between legs")
        if any(len(leg) < 2 for leg in self.legs):
            raise ValueError("each leg needs at least two points")

    @property
    def start_dir(self) -> Point:
        return sub(self.legs[0][1], self.legs[0][0])

    @property
    def end_dir(self) -> Point:
        return sub(self.legs[-1][-2], self.legs[-1][-1])


def diagram_from_word(w: Word, pm: PolygonModel, jitter_seed: int,
                      variant: int = 0, lane: int = 0) -> PolylineDiagram:
    """The exact polyline of w at the program's jitter draws."""
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
    legs, sides = [], []
    cur = [verts[chords[0][0]]]
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
                k_e, t_e = (c - 1) % pm.n, ONE - eps()   # the wedge's incoming side
            else:
                k_e, t_e = c, eps()                       # its outgoing side
            cur.append(pm.side_point(k_e, t_e))
            legs.append(cur)
            sides.append(k_e)
            cur = [pm.side_point(pm.sides[k_e].partner, ONE - t_e)]
            pos += step
    legs.append(cur)
    return PolylineDiagram(tuple(map(tuple, legs)), tuple(sides),
                           chords[0][0], chords[-1][1])


def reference_pair(w_alpha: Word, w_beta: Word, pm: PolygonModel, seed: int,
                   variants: Tuple[int, int] = (0, 0)):
    """The polylines of realize_pair's two diagrams, at its lane seeds."""
    return (diagram_from_word(w_alpha, pm, seed * 1009, variants[0], 0),
            diagram_from_word(w_beta, pm, seed * 2003 + 1, variants[1], 1))


def _side_parameter(pm: PolygonModel, k: int, p: Point) -> int:
    """The numerator t over ONE of side point p of side k."""
    v0, v1 = pm.vertices[pm.sides[k].start], pm.vertices[pm.sides[k].end]
    q, d = sub(p, v0), sub(v1, v0)
    t, rem = divmod((q[0] * d[0] + q[1] * d[1]) * ONE, d[0] * d[0] + d[1] * d[1])
    if rem or pm.side_point(k, t) != p:
        raise ValueError("leg end %r is no grid point of side %d" % (p, k))
    return t


def program_diagram(d: PolylineDiagram, pm: PolygonModel) -> PathDiagram:
    """d as the program holds it: each side crossing (k, t) with the next
    leg entering k's partner at ONE - t, and the two end directions."""
    exits = []
    for k, leg, nxt in zip(d.sides, d.legs, d.legs[1:]):
        t = _side_parameter(pm, k, leg[-1])
        if _side_parameter(pm, pm.sides[k].partner, nxt[0]) != ONE - t:
            raise ValueError("leg entry is not its exit read backwards")
        exits.append((k, t))
    return PathDiagram(tuple(exits), d.start_corner, d.end_corner, d.start_dir, d.end_dir)
