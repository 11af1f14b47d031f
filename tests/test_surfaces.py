import pytest

from surface_qp.geometry import orient
from surface_qp.surfaces import (MAX_SIDES, PolygonModel, SurfaceSpec, _regular_vertices,
                                 polygon_model, side_labels, split_canonical)
from surface_qp.words import Word, free_reduce, invert

SPECS = [SurfaceSpec(0, 2), SurfaceSpec(1, 1), SurfaceSpec(0, 3),
         SurfaceSpec(1, 2), SurfaceSpec(2, 1), SurfaceSpec(1, 3)]


@pytest.mark.parametrize("spec", SPECS)
def test_side_count(spec):
    assert spec.n_sides == 1 + 3 * (spec.boundary_count - 1) + 4 * spec.genus
    assert len(side_labels(spec)) == spec.n_sides


@pytest.mark.parametrize("spec", SPECS)
def test_polygon_is_convex_ccw(spec):
    pm = polygon_model(spec)
    n = pm.n
    for k in range(n):
        assert orient(pm.vertices[k], pm.vertices[(k + 1) % n],
                      pm.vertices[(k + 2) % n]) == 1


@pytest.mark.parametrize("spec", SPECS)
def test_glued_sides_pair_off(spec):
    pm = polygon_model(spec)
    boundary = [s for s in pm.sides if s.partner is None]
    glued = [s for s in pm.sides if s.partner is not None]
    assert len(boundary) == spec.boundary_count
    for s in glued:
        assert pm.sides[s.partner].partner == s.index
        assert pm.sides[s.partner].label == (s.label[0], -s.label[1])


@pytest.mark.parametrize("spec", SPECS)
def test_links_partition_corners(spec):
    pm = polygon_model(spec)
    corners = sorted(c for chain in pm.links.values() for c in chain)
    assert corners == list(range(pm.n))
    assert sorted(pm.links) == list(range(1, spec.boundary_count + 1))
    for p, chain in pm.links.items():
        for c in chain:
            assert pm.corner_marked[c] == p


@pytest.mark.parametrize("spec", SPECS)
def test_corner_words_end_at_their_marked_point(spec):
    pm = polygon_model(spec)
    for c in range(pm.n):
        w = pm.corner_word[c]
        if len(w.letters):
            assert w.target == pm.corner_marked[c]


def test_corner_words_are_the_reduced_side_label_prefixes():
    # corner k is reached by the first k side labels, appended one at a time
    for g in range(6):
        for b in range(1, 6):
            if (g, b) == (0, 1):
                continue
            spec = SurfaceSpec(g, b)
            prefix = [Word.make([], g, b)]
            for label in side_labels(spec)[:-1]:
                prefix.append(prefix[-1].concat(Word.make([label], g, b)))
            assert polygon_model(spec).corner_word == prefix, spec


@pytest.mark.parametrize("spec", SPECS)
def test_transition_words_compose(spec):
    pm = polygon_model(spec)
    for s in pm.sides:
        if s.partner is None:
            continue
        w = pm.transition(s.index)
        wp = pm.transition(s.partner)
        assert w.concat(wp).letters == ()


def _transition_from_corner_words(pm, k):
    """The reference transition word of glued side k: the corner word at k's
    start, then back along the corner word at its partner's end, reduced in
    full."""
    s = pm.sides[k]
    a, b = pm.corner_word[s.start], pm.corner_word[pm.sides[s.partner].end]
    return Word(free_reduce(a.letters + invert(b.letters)), a.source, b.source)


@pytest.mark.parametrize("spec", SPECS[:4] + [SurfaceSpec(2, 2), SurfaceSpec(5, 5)])
def test_transition_words_match_corner_word_construction(spec):
    pm = polygon_model(spec)
    for s in pm.sides:
        if s.partner is None:
            with pytest.raises(ValueError, match="boundary side"):
                pm.transition(s.index)
        else:
            assert pm.transition(s.index) == _transition_from_corner_words(pm, s.index)


def test_split_canonical_counts():
    pieces = split_canonical(SurfaceSpec(2, 3))
    kinds = [p.kind for p in pieces]
    assert kinds == ["annulus", "annulus", "torus", "torus"]
    assert [p.index for p in pieces] == [2, 3, 1, 2]


def test_bad_specs_rejected():
    with pytest.raises(ValueError):
        SurfaceSpec(-1, 1)
    with pytest.raises(ValueError):
        SurfaceSpec(0, 0)
    with pytest.raises(ValueError, match="^the disk has no generator paths$"):
        SurfaceSpec(0, 1)


def test_polygon_sides_are_bounded_by_the_grid():
    # the grid polygon is strictly convex up to MAX_SIDES sides and not one
    # beyond, and a larger surface is refused at SurfaceSpec, before any work
    # of the size of its polygon (a genus of 10^12 used to hang bracket)
    _regular_vertices(MAX_SIDES)
    with pytest.raises(ValueError, match="not strictly convex"):
        _regular_vertices(MAX_SIDES + 1)
    assert SurfaceSpec(1006, 1).n_sides == MAX_SIDES
    for g, b in [(1006, 2), (10 ** 12, 10 ** 12)]:
        with pytest.raises(ValueError, match="beyond the model's grid"):
            SurfaceSpec(g, b)
