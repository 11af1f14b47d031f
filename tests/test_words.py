import pytest
from hypothesis import given, settings, strategies as st

from surface_qp.repspace import boundary_word
from surface_qp.surfaces import SurfaceSpec
from surface_qp.words import (Word, free_reduce, generator_endpoints,
                              generator_symbols, invert, mu1_letters, substitute)

letters = st.lists(
    st.tuples(st.sampled_from(["C1", "D1"]), st.sampled_from([1, -1])),
    max_size=12).map(tuple)


@given(letters)
def test_free_reduce_idempotent(ls):
    once = free_reduce(ls)
    assert free_reduce(once) == tuple(once)


@given(letters)
def test_reduce_word_times_inverse_is_trivial(ls):
    assert free_reduce(tuple(ls) + tuple(invert(ls))) == ()


@given(letters)
def test_invert_is_involution(ls):
    assert tuple(invert(invert(ls))) == tuple(ls)


def test_generator_symbols():
    assert generator_symbols(0, 2) == ["A2", "B2"]
    assert generator_symbols(1, 1) == ["C1", "D1"]
    assert generator_symbols(1, 2) == ["A2", "B2", "C1", "D1"]


def test_generator_endpoints():
    assert generator_endpoints("A3") == (1, 3)
    assert generator_endpoints("B2") == (2, 2)
    assert generator_endpoints("C1") == (1, 1)


def test_word_endpoints_compose():
    w = Word.from_string("A2 B2", 0, 2)
    assert (w.source, w.target) == (1, 2)
    w2 = Word.from_string("B2' A2'", 0, 2)
    assert w.concat(w2).letters == ()
    loop = Word.from_string("A2' A2", 0, 3)   # reduces away, read where written
    assert (loop.letters, loop.source, loop.target) == ((), 2, 2)
    assert loop.concat(Word.from_string("B2", 0, 3)).letters == (("B2", 1),)


@pytest.mark.parametrize("text", ["A2 A3", "A2' A2 A3"])
def test_non_composable_rejected(text):
    # A2' A2 reduces away, but as written it ends at p2, where A3 cannot start
    with pytest.raises(ValueError, match="not composable at 'A3'"):
        Word.from_string(text, 0, 3)


@pytest.mark.parametrize("text", ["A5", "C3 D3", "A2 B3"])
def test_generator_off_surface_rejected(text):
    with pytest.raises(ValueError, match="not on the surface"):
        Word.from_string(text, 0, 2)


def test_b1_expands_to_mu1_inverse():
    w = Word.from_string("B1", 1, 2)
    mu1 = Word.make(mu1_letters(1, 2), 1, 2)
    assert w.concat(mu1).letters == ()
    assert (w.source, w.target) == (1, 1)


def test_inverse_string_forms_agree():
    assert (Word.from_string("C1^-1 D1", 1, 1).letters
            == Word.from_string("C1' D1", 1, 1).letters)


def test_word_inverse_swaps_endpoints():
    w = Word.from_string("A2 B2", 0, 2)
    wi = w.inverse()
    assert (wi.source, wi.target) == (2, 1)
    assert w.concat(wi).letters == ()


def test_concat_checks_composability_of_empty_words():
    # an empty path sits at its marked point: p_2 cannot be followed by a path from p_1
    a3 = Word.from_string("A3", 0, 3)
    with pytest.raises(ValueError, match="not composable"):
        Word((), 2, 2).concat(a3)
    with pytest.raises(ValueError, match="not composable"):
        a3.concat(Word((), 1, 1))
    assert Word((), 1, 1).concat(a3) == a3 == a3.concat(Word((), 3, 3))


SEAM_SURFACES = [(0, 2), (1, 1), (0, 3), (1, 2), (2, 2)]


def _walk(draw, genus, boundary, at, length):
    """length random composable letters from marked point at, and the point
    they end at."""
    letters = []
    for _ in range(length):
        steps = [(sym, sgn) for sym in generator_symbols(genus, boundary)
                 for sgn in (1, -1)
                 if generator_endpoints(sym)[0 if sgn == 1 else 1] == at]
        sym, sgn = draw(st.sampled_from(steps))
        letters.append((sym, sgn))
        at = generator_endpoints(sym)[1 if sgn == 1 else 0]
    return letters, at


@st.composite
def seam_pair(draw):
    """Freely reduced composable words a, b where b starts by undoing the
    last k letters of a, for a random k up to all of a."""
    genus, boundary = draw(st.sampled_from(SEAM_SURFACES))
    at = draw(st.integers(1, boundary))
    letters, mid = _walk(draw, genus, boundary, at, draw(st.integers(0, 8)))
    a = Word(free_reduce(letters), at, mid)
    k = draw(st.integers(0, len(a)))
    undo = invert(a.letters[len(a) - k:])
    back = mid   # the point after the first len(a) - k letters of a
    for sym, sgn in undo:
        back = generator_endpoints(sym)[1 if sgn == 1 else 0]
    rest, end = _walk(draw, genus, boundary, back, draw(st.integers(0, 4)))
    b = Word(free_reduce(undo + tuple(rest)), mid, end)
    return genus, boundary, a, b


@settings(max_examples=300)
@given(seam_pair())
def test_concat_cancels_like_full_reduction(case):
    genus, boundary, a, b = case
    got = a.concat(b)
    want = Word.make(a.letters + b.letters, genus, boundary)
    assert got.letters == want.letters == free_reduce(a.letters + b.letters)
    if got.letters:
        assert (got.source, got.target) == (want.source, want.target)
    else:   # Word.make puts an empty word at p_1; concat keeps the point
        assert got.source == got.target == a.source


# --- moves of the generators ----------------------------------------------

def moves(spec):
    """The moves on spec that fix every boundary word, by name, as images:
    the twist along boundary 1, A_i -> mu_1 A_i with C_j and D_j conjugated
    by mu_1 (B1' is mu_1); the boundary-2 twist A2 -> A2 B2; the torus twist
    C1 -> C1 D1."""
    twist = {sym: spec.word("B1' %s" % sym if sym[0] == "A" else "B1' %s B1" % sym)
             for sym in generator_symbols(spec.genus, spec.boundary_count) if sym[0] != "B"}
    out = {"twist mu_1": twist}
    if spec.boundary_count > 1:
        out["A2->A2 B2"] = {"A2": spec.word("A2 B2")}
    if spec.genus:
        out["C1->C1 D1"] = {"C1": spec.word("C1 D1")}
    return out


@settings(max_examples=200)
@given(seam_pair())
def test_substitute_is_a_homomorphism(case):
    genus, boundary, a, b = case
    spec = SurfaceSpec(genus, boundary)
    for move in moves(spec).values():
        image = substitute(a.concat(b), move)
        assert image == substitute(a, move).concat(substitute(b, move))
        assert substitute(a.inverse(), move) == substitute(a, move).inverse()
    assert substitute(a, {}) == a


@pytest.mark.parametrize("gb", SEAM_SURFACES + [(0, 4)])
def test_moves_fix_every_boundary_word(gb):
    spec = SurfaceSpec(*gb)
    for move in moves(spec).values():
        for i in range(1, spec.boundary_count + 1):
            assert substitute(boundary_word(spec, i), move) == boundary_word(spec, i)


@pytest.mark.parametrize("text", ["A2", "A2 B2", "A3' A2"])
def test_substitute_refuses_an_image_with_other_endpoints(text):
    # the image A3 of A2 ends at p3, not at p2: refused at the next letter's
    # start, or at the end of the word
    spec = SurfaceSpec(0, 3)
    with pytest.raises(ValueError, match="not composable"):
        substitute(spec.word(text), {"A2": spec.word("A3")})
