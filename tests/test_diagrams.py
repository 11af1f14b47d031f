import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from surface_qp import diagrams
from surface_qp.diagrams import (EndpointSign, GeneralPositionError,
                                 IntersectionData, PathDiagram, diagram_from_word,
                                 intersection_data, realize_pair, word_of_diagram)
from surface_qp.geometry import cross, lerp, segment_intersection, sub
from surface_qp.surfaces import SurfaceSpec, polygon_model
from surface_qp.words import (Word, generator_endpoints, generator_symbols,
                              mu1_letters)


def algebraic_intersection(data: IntersectionData) -> Fraction:
    """The signed count of the pair: endpoint signs plus crossing signs."""
    return (sum((s.value for s in data.endpoint_signs.values()), Fraction(0))
            + sum(data.crossings.values()))


WORDS = {
    (0, 2): ["A2", "B2", "A2 B2", "A2 B2 A2'", "B1"],
    (1, 1): ["C1", "D1", "C1 D1", "C1 D1 C1'", "B1"],
    (0, 3): ["A2", "A3", "A2 B2", "A3' A2"],
    (1, 2): ["A2", "C1", "A2 B2 A2'", "C1 D1"],
}


@pytest.mark.parametrize("gb", sorted(WORDS))
@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize("variant", [0, 1])
def test_word_round_trip(gb, seed, variant):
    spec = SurfaceSpec(*gb)
    pm = polygon_model(spec)
    for text in WORDS[gb]:
        w = spec.word(text)
        d = diagram_from_word(w, pm, seed, variant)
        assert word_of_diagram(d, pm).letters == w.letters


def test_endpoints_sit_on_marked_corners():
    spec = SurfaceSpec(1, 2)
    pm = polygon_model(spec)
    w = spec.word("A2 B2 A2'")
    d = diagram_from_word(w, pm, 0)
    assert pm.corner_marked[d.start_corner] == w.source
    assert pm.corner_marked[d.end_corner] == w.target


@pytest.mark.parametrize("gb,wa,wb", [
    ((1, 1), "C1", "D1"),
    ((0, 2), "A2", "B2"),
    ((1, 2), "A2", "C1"),
    ((0, 3), "A2 B2", "A3"),
])
def test_sign_antisymmetry_exact(gb, wa, wb):
    spec = SurfaceSpec(*gb)
    pm = polygon_model(spec)
    da, db, data = realize_pair(spec.word(wa), spec.word(wb), pm, 2)
    flipped = intersection_data(db, da, pm)
    assert flipped.crossings == {(ba, ab): -c for (ab, ba), c in data.crossings.items()}
    for (i, j), s in data.endpoint_signs.items():
        assert flipped.endpoint_signs[(j, i)].value == -s.value
    assert algebraic_intersection(flipped) == -algebraic_intersection(data)


@pytest.mark.parametrize("gb,wa,wb,expected", [
    ((1, 1), "C1", "D1", Fraction(1)),
    ((1, 1), "D1", "C1", Fraction(-1)),
    ((0, 2), "A2", "B2", Fraction(1)),
])
def test_algebraic_intersection_homotopy_invariant(gb, wa, wb, expected):
    spec = SurfaceSpec(*gb)
    pm = polygon_model(spec)
    vals = set()
    for seed in (0, 1, 2):
        for variants in ((0, 0), (1, 0), (0, 1)):
            _, _, data = realize_pair(spec.word(wa), spec.word(wb), pm,
                                      seed, variants)
            vals.add(algebraic_intersection(data))
    assert vals == {expected}


def test_leg_words_are_built_once_per_realization(monkeypatch):
    # the word check of each realization and the intersection data share one
    # prefix pass and one suffix pass per diagram
    spec = SurfaceSpec(2, 2)
    pm = polygon_model(spec)
    wa, wb = spec.word("A2 B2 A2' C1 D1 C1' D1'"), spec.word("C2 D1'")
    calls = []
    monkeypatch.setattr(pm, "transition", lambda k, _fn=pm.transition: calls.append(k) or _fn(k))
    da, db, data = realize_pair(wa, wb, pm, 3)
    assert len(calls) == 2 * (len(da.sides) + len(db.sides)) > 0
    assert data == intersection_data(da, db, polygon_model(spec))


def test_endpoint_signs_only_at_shared_marked_points():
    spec = SurfaceSpec(0, 3)
    pm = polygon_model(spec)
    # A2 runs p1 -> p2, A3 runs p1 -> p3: only the start pair shares a point
    _, _, data = realize_pair(spec.word("A2"), spec.word("A3"), pm, 0)
    assert data.endpoint_signs[("start", "start")].value != 0
    assert data.endpoint_signs[("end", "end")].value == 0
    assert data.endpoint_signs[("start", "end")].value == 0
    assert data.endpoint_signs[("end", "start")].value == 0


def test_realization_is_deterministic():
    spec = SurfaceSpec(1, 1)
    pm = polygon_model(spec)
    d1 = diagram_from_word(spec.word("C1 D1"), pm, 7)
    d2 = diagram_from_word(spec.word("C1 D1"), pm, 7)
    assert d1 == d2


def _walk(rng, genus, boundary, lo, hi, at=None):
    """Random walk of lo..hi letters in the surface groupoid that never steps
    straight back, so it is freely reduced; from marked point `at`, or from a
    random one; shorter where every step would go straight back."""
    at = at or rng.randint(1, boundary)
    letters = []
    for _ in range(rng.randint(lo, hi)):
        steps = [(sym, sgn) for sym in generator_symbols(genus, boundary)
                 for sgn in (1, -1)
                 if generator_endpoints(sym)[0 if sgn == 1 else 1] == at
                 and not (letters and letters[-1] == (sym, -sgn))]
        if not steps:
            break
        sym, sgn = rng.choice(steps)
        letters.append((sym, sgn))
        at = generator_endpoints(sym)[1 if sgn == 1 else 0]
    return Word.make(letters, genus, boundary)


def test_realization_never_retries(monkeypatch):
    # about a third of these pairs needed a second jitter seed when both
    # diagrams drew their jitter from one lattice
    spec = SurfaceSpec(2, 2)
    pm = polygon_model(spec)
    rng = random.Random(20130121)
    calls = []
    real = diagrams.diagram_from_word

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(diagrams, "diagram_from_word", counting)
    for seed in range(20):
        wa, wb = _walk(rng, 2, 2, 8, 16), _walk(rng, 2, 2, 8, 16)
        calls.clear()
        da, db, _ = realize_pair(wa, wb, pm, seed)
        assert len(calls) == 2
        ends_a = {pm.vertices[da.start_corner], pm.vertices[da.end_corner]}
        ends_b = {pm.vertices[db.start_corner], pm.vertices[db.end_corner]}
        shared = {p for leg in da.legs for p in leg} & {p for leg in db.legs for p in leg}
        assert shared <= ends_a & ends_b


def _realizations(seed_stream):
    """Seeded 1-8 letter word pairs on six surfaces, each realized at 2 seeds
    x 4 variant pairs: (wa, wb, [IntersectionData, ...]) per pair."""
    rng = random.Random(seed_stream)
    for g, b in [(1, 1), (0, 3), (1, 2), (2, 1), (1, 3), (2, 2)]:
        pm = polygon_model(SurfaceSpec(g, b))
        for _ in range(8):
            wa, wb = _walk(rng, g, b, 1, 8), _walk(rng, g, b, 1, 8)
            variants = [(rng.randrange(1 << len(wa)), rng.randrange(1 << len(wb)))
                        for _ in range(4)]
            yield wa, wb, [realize_pair(wa, wb, pm, seed, v)[2]
                           for seed in rng.sample(range(1 << 16), 2) for v in variants]


def test_crossing_element_keys_are_reroutes():
    # alpha *_q beta runs from alpha's source to beta's target, beta *_q alpha
    # back, and beta *_q alpha = beta (alpha *_q beta)^-1 alpha, freely reduced
    keys = 0
    for wa, wb, datas in _realizations(20130124):
        for data in datas:
            for (ab, ba), c in data.crossings.items():
                assert (ab.source, ab.target) == (wa.source, wb.target)
                assert (ba.source, ba.target) == (wb.source, wa.target)
                assert ba.letters == wb.concat(ab.inverse()).concat(wa).letters
                assert c != 0
                keys += 1
    assert keys > 100, keys


def test_crossing_element_depends_only_on_endpoint_signs():
    # two realizations of a pair whose endpoint signs agree (value and side)
    # reroute to the same reduced element; keying by unreduced words breaks this
    compared = 0
    for _, _, datas in _realizations(20130125):
        by_signs = {}
        for data in datas:
            signs = tuple((key, s.value, s.alpha_left)
                          for key, s in sorted(data.endpoint_signs.items()))
            by_signs.setdefault(signs, []).append(data.crossings)
        for elements in by_signs.values():
            assert all(e == elements[0] for e in elements[1:])
            compared += len(elements) * (len(elements) - 1) // 2
    assert compared > 500, compared


def _segments(d):
    """(leg index, start, end) of every segment of a diagram."""
    for i, leg in enumerate(d.legs):
        for a, b in zip(leg, leg[1:]):
            yield i, a, b


def test_crossing_keys_are_built_once_per_nonzero_leg_pair(monkeypatch):
    # a leg pair whose segment crossings cancel builds no key, and every
    # other builds its two reroute words once; the element is the Fraction
    # reference's
    rng = random.Random(20130126)
    concat, calls = Word.concat, []

    def counted(self, other):
        calls.append(other)
        return concat(self, other)
    raw = pairs = 0
    for g, b in [(1, 2), (2, 2), (3, 3), (0, 4)]:
        pm = polygon_model(SurfaceSpec(g, b))
        for seed in range(40):
            wa, wb = _walk(rng, g, b, 1, 10), _walk(rng, g, b, 1, 10)
            da, db, _ = realize_pair(wa, wb, pm, seed)   # memoizes the leg words
            legs = {}
            for i, a0, a1 in _segments(da):
                for j, b0, b1 in _segments(db):
                    hit = segment_intersection(a0, a1, b0, b1)
                    if hit is not None and 0 < hit[0] < 1 and 0 < hit[1] < 1:
                        s = 1 if cross(sub(a1, a0), sub(b1, b0)) > 0 else -1
                        legs[i, j] = legs.get((i, j), 0) + s
                        raw += 1
            calls.clear()
            monkeypatch.setattr(Word, "concat", counted)
            data = intersection_data(da, db, pm)
            monkeypatch.setattr(Word, "concat", concat)
            nonzero = sum(1 for c in legs.values() if c)
            assert len(calls) == 2 * nonzero
            assert data == _reference_intersection_data(da, db, pm)
            pairs += nonzero
    assert raw > pairs > 500, (raw, pairs)


def _closed_walk(rng, genus, boundary, lo, hi):
    """Uniform closed word at marked point 1: a walk from 1, closed by A_p^-1
    when it ends at another marked point p (A_p runs from 1 to p)."""
    w = _walk(rng, genus, boundary, lo, hi, at=1)
    if w.target == 1:
        return w
    return Word.make(w.letters + (("A%d" % w.target, -1),), genus, boundary)


# sha256 of the leg points of _pinned_diagrams, each coordinate written as
# the rational it stands for, as the Fraction geometry that the integer grid
# replaced built them (656 points)
PINNED_POINTS_SHA = "f908dea1bda36872405f868c855e37d82d2819da526c05c58ecf79ebf337f4ca"


def _pinned_diagrams():
    """Twelve seeded words on five surfaces, each realized in both lanes."""
    rng = random.Random(20130122)
    for (g, b), count in [((1, 1), 2), ((0, 2), 2), ((0, 3), 2), ((2, 2), 3),
                          ((5, 5), 3)]:
        pm = polygon_model(SurfaceSpec(g, b))
        for _ in range(count):
            w = _walk(rng, g, b, 1, 8)
            seed, variant = rng.randrange(1 << 16), rng.randrange(1 << len(w.letters))
            for lane in (0, 1):
                yield pm, diagram_from_word(w, pm, seed, variant, lane)


def test_grid_points_are_the_fraction_points():
    h = hashlib.sha256()
    for pm, d in _pinned_diagrams():
        for leg in d.legs:
            for x, y in leg:
                assert type(x) is int and type(y) is int
                h.update(("%s %s\n" % (Fraction(x, pm.scale),
                                       Fraction(y, pm.scale))).encode())
    assert h.hexdigest() == PINNED_POINTS_SHA


# algebraic intersection numbers of the pairs below, as the Fraction loop
# that the integer grid replaced read them
LONG_PAIRS_EXPECTED = [9, 0, 4, -2, 1, -3, 3, -2]


def test_uniform_long_words_realize_once():
    # uniform closed words of 17-35 letters on g=b=3, with 208-899 crossings
    # a pair; the Fraction loop took about 0.7 s a pair on these
    spec = SurfaceSpec(3, 3)
    pm = polygon_model(spec)
    rng = random.Random(3331)
    got = []
    for seed in range(8):
        wa, wb = _closed_walk(rng, 3, 3, 16, 35), _closed_walk(rng, 3, 3, 16, 35)
        _, _, data = realize_pair(wa, wb, pm, seed)
        got.append(algebraic_intersection(data))
    assert got == LONG_PAIRS_EXPECTED


# --- the integer grid against the Fraction loop it replaced ---------------

def _reference_hit(p0, p1, q0, q1):
    """The division-based Fraction predicate that the integer one replaced."""
    d1, d2 = sub(p1, p0), sub(q1, q0)
    denom = cross(d1, d2)
    diff = sub(q0, p0)
    if denom == 0:
        if cross(diff, d1) == 0:
            raise GeneralPositionError("collinear segments")
        return None
    t = cross(diff, d2) / denom
    u = cross(diff, d1) / denom
    if 0 <= t <= 1 and 0 <= u <= 1:
        return (t, u, (p0[0] + d1[0] * t, p0[1] + d1[1] * t))
    return None


def _reference_angular_less(pm, a, b):
    """The order of two (corner, direction) pairs at one marked point, by
    link position and then by the cross product of the directions."""
    (ca, va), (cb, vb) = a, b
    (pa, ia), (pb, ib) = pm.link_pos[ca], pm.link_pos[cb]
    assert pa == pb
    if ia != ib:
        return ia < ib
    if cross(va, vb) == 0:
        raise GeneralPositionError("coinciding endpoint directions")
    return cross(va, vb) > 0


def _reference_intersection_data(d_alpha, d_beta, pm):
    """intersection_data as a sweep over segment pairs, each decided in
    Fractions on the points the grid stands for, with no prune."""
    def frac(p):
        return (Fraction(p[0], pm.scale), Fraction(p[1], pm.scale))

    def segments(d):
        return [(i, frac(a), frac(b)) for i, a, b in _segments(d)]

    def endpoint(d, which):
        return (d.start_corner, d.start_dir) if which == "start" else (d.end_corner, d.end_dir)

    verts = {frac(v) for v in pm.vertices}
    for d in (d_alpha, d_beta):
        for c, v in (endpoint(d, "start"), endpoint(d, "end")):
            e_out = sub(pm.vertices[(c + 1) % pm.n], pm.vertices[c])
            e_in = sub(pm.vertices[(c - 1) % pm.n], pm.vertices[c])
            if not (cross(e_out, v) > 0 and cross(v, e_in) > 0):
                raise GeneralPositionError("endpoint direction on a wedge edge")
    pref_a, suf_a = diagrams._leg_prefixes(d_alpha, pm)
    pref_b, suf_b = diagrams._leg_prefixes(d_beta, pm)
    crossings = {}
    for i, a0, a1 in segments(d_alpha):
        for j, b0, b1 in segments(d_beta):
            hit = _reference_hit(a0, a1, b0, b1)
            if hit is None:
                continue
            t, u, q = hit
            if 0 < t < 1 and 0 < u < 1:
                s = 1 if cross(sub(a1, a0), sub(b1, b0)) > 0 else -1
                key = (pref_a[i].concat(suf_b[j]), pref_b[j].concat(suf_a[i]))
                crossings[key] = crossings.get(key, 0) + s
            elif not (q in verts and t in (0, 1) and u in (0, 1)):
                raise GeneralPositionError("non-transversal intersection")
    signs = {}
    for I in ("start", "end"):
        for J in ("start", "end"):
            ca, va = endpoint(d_alpha, I)
            cb, vb = endpoint(d_beta, J)
            pa, pb = pm.link_pos[ca][0], pm.link_pos[cb][0]
            if pa != pb:
                signs[(I, J)] = EndpointSign(Fraction(0), None, None)
                continue
            base = _reference_angular_less(pm, (ca, va), (cb, vb))
            pos = base != ((I == "end") != (J == "end"))
            signs[(I, J)] = EndpointSign(
                Fraction(1, 2) if pos else Fraction(-1, 2), pa, not base)
    return IntersectionData({k: c for k, c in crossings.items() if c}, signs)


@st.composite
def realized_pair(draw):
    """Diagrams of a random word pair in realize_pair's lanes; on g=b=5 alpha
    is mu_1 and beta has at most 3 letters."""
    g, b = draw(st.sampled_from([(1, 1), (1, 2), (0, 3), (2, 2), (3, 3), (5, 5)]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    wa = Word.make(mu1_letters(g, b), g, b) if g == 5 else _walk(rng, g, b, 1, 8)
    wb = _walk(rng, g, b, 1, 3 if g == 5 else 8)
    pm = polygon_model(SurfaceSpec(g, b))
    seed, va, vb = (draw(st.integers(0, 255)) for _ in range(3))
    return (pm, diagram_from_word(wa, pm, seed, va, 0),
            diagram_from_word(wb, pm, seed + 1, vb, 1))


PM11 = polygon_model(SurfaceSpec(1, 1))
GRID = st.sampled_from([k * PM11.scale // 4 for k in range(-2, 3)])


@st.composite
def lattice_pair(draw):
    """Corner-to-corner polylines through points k/4, |k| <= 2, inside the
    pentagon of g=b=1.  Axis-parallel segments, leg points on the other
    diagram and boxes that touch on an edge or a corner are common here; in
    realized diagrams they need coincidences of jitter.  Collinear pairs are
    left out: the Fraction reference raises on those even when they share no
    point."""
    def polyline():
        c0, c1 = draw(st.integers(0, 4)), draw(st.integers(0, 4))
        pts = draw(st.lists(st.tuples(GRID, GRID), min_size=1, max_size=4,
                            unique=True))
        leg = (PM11.vertices[c0],) + tuple(pts) + (PM11.vertices[c1],)
        return PathDiagram((leg,), (), c0, c1)
    da, db = polyline(), polyline()
    assume(not any(cross(sub(a1, a0), sub(b1, b0)) == 0
                   and cross(sub(b0, a0), sub(a1, a0)) == 0
                   for _, a0, a1 in _segments(da) for _, b0, b1 in _segments(db)))
    return PM11, da, db


@settings(max_examples=200)
@given(st.one_of(realized_pair(), lattice_pair()))
def test_intersection_data_matches_fraction_reference(case):
    # the same crossing element, as a dict, and the same endpoint signs,
    # wherever the segment reference decides; a touch that it calls
    # non-transversal is no failure of the boundary order
    pm, da, db = case
    try:
        want = _reference_intersection_data(da, db, pm)
    except GeneralPositionError as e:
        if "non-transversal" in str(e):
            intersection_data(da, db, pm)   # decided, as the tests below pin
        else:                               # an endpoint degeneracy fails both
            with pytest.raises(GeneralPositionError, match=str(e)):
                intersection_data(da, db, pm)
        return
    got = intersection_data(da, db, pm)
    assert dict(got.crossings) == dict(want.crossings)
    assert got.endpoint_signs == want.endpoint_signs


def _one_leg(pm, c0, points, c1):
    leg = (pm.vertices[c0],) + tuple((int(Fraction(x) * pm.scale),
                                      int(Fraction(y) * pm.scale))
                                     for x, y in points)
    return PathDiagram((leg + (pm.vertices[c1],),), (), c0, c1)


def _nudged(d, point, step):
    """d with its leg point at `point` moved by `step` grid units."""
    legs = tuple(tuple((p[0] + step[0], p[1] + step[1]) if p == point else p
                       for p in leg) for leg in d.legs)
    return PathDiagram(legs, d.sides, d.start_corner, d.end_corner)


@pytest.mark.parametrize("step", [(0, 1), (0, -1)])
def test_leg_point_on_axis_parallel_segment_reads_as_its_nudged_copy(step):
    # alpha runs along y = 0 between corners below it; beta dips to (0, 0)
    # from corners above it and touches alpha there.  The boundary order
    # gives the element of beta moved one grid unit off alpha or across it,
    # a generic pair that the segment reference decides
    pm = PM11
    da = _one_leg(pm, 3, [("-1/4", 0), ("1/4", 0)], 4)
    db = _one_leg(pm, 1, [(0, 0)], 2)
    assert all(v[1] < 0 for v in (pm.vertices[3], pm.vertices[4]))
    assert all(v[1] > 0 for v in (pm.vertices[1], pm.vertices[2]))
    with pytest.raises(GeneralPositionError, match="non-transversal"):
        _reference_intersection_data(da, db, pm)
    want = _reference_intersection_data(da, _nudged(db, (0, 0), step), pm)
    assert intersection_data(da, db, pm) == want


@pytest.mark.parametrize("step", [(1, 0), (-1, 0), (0, 1), (0, -1)])
def test_boxes_meeting_at_a_corner_read_as_their_nudged_copy(step):
    # both diagrams pass through (1/8, 1/8): alpha's segments there lie below
    # and to the left, beta's above and to the right
    pm = PM11
    da = _one_leg(pm, 3, [("1/8", "1/8"), ("-1/2", "-1/8")], 3)
    db = _one_leg(pm, 1, [("1/8", "1/8"), ("1/2", "1/4")], 0)
    with pytest.raises(GeneralPositionError, match="non-transversal"):
        _reference_intersection_data(da, db, pm)
    want = _reference_intersection_data(da, _nudged(db, db.legs[0][1], step), pm)
    assert intersection_data(da, db, pm) == want


def test_endpoint_degeneracies_raise():
    # the two that the lanes leave: a diagram leaving its corner along a
    # polygon side, and two diagrams leaving one corner in one direction
    pm = PM11
    v = pm.vertices
    along_side = PathDiagram(((v[0], lerp(v[0], v[1], 1, 2), pm.center, v[2]),), (), 0, 2)
    across = PathDiagram(((v[1], pm.center, v[3]),), (), 1, 3)
    with pytest.raises(GeneralPositionError, match="endpoint direction on a wedge edge"):
        intersection_data(along_side, across, pm)
    near = PathDiagram(((v[0], lerp(v[0], pm.center, 1, 4), v[2]),), (), 0, 2)
    far = PathDiagram(((v[0], lerp(v[0], pm.center, 1, 2), v[3]),), (), 0, 3)
    with pytest.raises(GeneralPositionError, match="coinciding endpoint directions"):
        intersection_data(near, far, pm)


# --- crossings from the boundary order of leg ends ------------------------

def _box(leg):
    xs, ys = [p[0] for p in leg], [p[1] for p in leg]
    return min(xs), max(xs), min(ys), max(ys)


def _crossing_sum(leg_a, leg_b):
    """The sum of the signs of the interior crossings of two polylines."""
    total = 0
    for a0, a1 in zip(leg_a, leg_a[1:]):
        for b0, b1 in zip(leg_b, leg_b[1:]):
            hit = segment_intersection(a0, a1, b0, b1)
            if hit and 0 < hit[0] < 1 and 0 < hit[1] < 1:
                total += 1 if cross(sub(a1, a0), sub(b1, b0)) > 0 else -1
    return total


def _check_interleaving(pm, da, db):
    """Per leg pair, the sum of the segment-crossing signs is the interleaving
    sign of the leg ends' boundary keys; summed by reroute words, these signs
    give intersection_data's crossing element.  Returns the number of leg
    pairs with a nonzero sign."""
    data = intersection_data(da, db, pm)
    pref_a, suf_a = diagrams._leg_prefixes(da, pm)
    pref_b, suf_b = diagrams._leg_prefixes(db, pm)
    legs_b = list(zip(diagrams._leg_ends(db, pm), db.legs, map(_box, db.legs)))
    by_words, nonzero = {}, 0
    for i, ((a0, a1), leg_a) in enumerate(zip(diagrams._leg_ends(da, pm), da.legs)):
        axl, axh, ayl, ayh = _box(leg_a)
        for j, ((b0, b1), leg_b, (bxl, bxh, byl, byh)) in enumerate(legs_b):
            sign = diagrams._on_arc(b0, a0, a1) - diagrams._on_arc(b1, a0, a1)
            meet = bxl <= axh and axl <= bxh and byl <= ayh and ayl <= byh
            assert (_crossing_sum(leg_a, leg_b) if meet else 0) == sign, (i, j)
            if sign:
                nonzero += 1
                key = (pref_a[i].concat(suf_b[j]), pref_b[j].concat(suf_a[i]))
                by_words[key] = by_words.get(key, 0) + sign
    assert {k: v for k, v in by_words.items() if v} == data.crossings
    return nonzero


@settings(max_examples=150, deadline=None)
@given(realized_pair())
def test_crossings_follow_leg_end_interleaving(case):
    _check_interleaving(*case)


def test_crossings_follow_leg_end_interleaving_on_long_words():
    # uniform closed words of 16-36 letters
    rng = random.Random(20130123)
    nonzero = 0
    for g in (2, 3, 5):
        pm = polygon_model(SurfaceSpec(g, g))
        for seed in range(3):
            wa, wb = _closed_walk(rng, g, g, 16, 36), _closed_walk(rng, g, g, 16, 36)
            da, db, _ = realize_pair(wa, wb, pm, seed)
            nonzero += _check_interleaving(pm, da, db)
    assert nonzero > 1000, nonzero
