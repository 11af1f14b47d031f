"""Property tests over random composable words: the combinatorial formula
against the bivector pairing (GL), the Theta-dressed formula against the
ambient pairing plus the P-perp correction (U), the exact symbolic
entry bracket evaluated at the point against the bivector pairing (GL), and
the symbolic entries and bracket against their full-matrix, term-by-term
references.
The ambient and the symbolic route each read the element E of
diagrams.double_bracket, and the cross-section route sums its crossings
through the ambient route's loop, so these guard all three beyond the
fixture word pairs."""

from hypothesis import assume, given, settings, strategies as st

from surface_qp.cross_section import (RegularityError, bracket_cross,
                                      bracket_cross_numeric,
                                      project_to_cross_section)
from surface_qp.diagrams import realize_pair
from surface_qp.goldman import PathEntrySymbol, bracket_symbolic, entry_nf, word_ring
from surface_qp.lie import AlgebraContext, entry_observable, trace_observable
from surface_qp.quasipoisson import (WordFunction, bracket_combinatorial,
                                     bracket_numeric, build_bivector)
from surface_qp.repspace import random_point
from surface_qp.surfaces import SurfaceSpec, polygon_model
from surface_qp.words import Word, generator_endpoints, generator_symbols
from symbolic_ref import bracket_symbolic_ref, normalize

SURFACES = [(0, 2), (1, 1), (0, 3), (1, 2), (2, 1), (1, 3), (2, 2)]


@st.composite
def composable_word(draw, genus, boundary, max_len=6):
    """A random walk of 1 to max_len letters in the surface groupoid, from a
    random marked point; free reduction may shorten it."""
    at = draw(st.integers(1, boundary))
    letters = []
    for _ in range(draw(st.integers(1, max_len))):
        steps = [(sym, sgn) for sym in generator_symbols(genus, boundary)
                 for sgn in (1, -1)
                 if generator_endpoints(sym)[0 if sgn == 1 else 1] == at]
        sym, sgn = draw(st.sampled_from(steps))
        letters.append((sym, sgn))
        at = generator_endpoints(sym)[1 if sgn == 1 else 0]
    return Word.make(letters, genus, boundary)


@st.composite
def bracket_case(draw, kind):
    genus, boundary = draw(st.sampled_from(SURFACES))
    ctx = AlgebraContext(kind, draw(st.sampled_from([2, 3])))
    wa = draw(composable_word(genus, boundary))
    wb = draw(composable_word(genus, boundary))
    assume(len(wa) and len(wb))

    def observable():
        i, j = draw(st.integers(0, ctx.n - 1)), draw(st.integers(0, ctx.n - 1))
        return draw(st.sampled_from([trace_observable(ctx),
                                     entry_observable(ctx, i, j, "re")]))
    spec = SurfaceSpec(genus, boundary)
    m = random_point(ctx, spec, draw(st.integers(0, 10 ** 6)))
    _, _, data = realize_pair(wa, wb, polygon_model(spec), draw(st.integers(0, 99)))
    return spec, ctx, observable(), wa, observable(), wb, data, m


@settings(max_examples=150)
@given(bracket_case("gl"))
def test_random_words_main_theorem(case):
    spec, ctx, oa, wa, ob, wb, data, m = case
    comb = bracket_combinatorial(oa, wa, ob, wb, data, m)
    num = bracket_numeric(build_bivector(spec, ctx),
                          WordFunction(oa, wa), WordFunction(ob, wb), m)
    assert abs(comb - num) <= 1e-8 * max(1.0, abs(num))


@settings(max_examples=100)
@given(bracket_case("u"))
def test_random_words_cross_section(case):
    spec, ctx, oa, wa, ob, wb, data, m = case
    try:
        cs = project_to_cross_section(m)
    except RegularityError:
        assume(False)
    lhs = bracket_cross(oa, wa, ob, wb, data, cs)
    rhs = bracket_cross_numeric(build_bivector(spec, ctx),
                                WordFunction(oa, wa), WordFunction(ob, wb), cs)
    assert abs(lhs - rhs) <= 1e-7 * max(1.0, abs(rhs))


@st.composite
def symbolic_case(draw):
    """GL entry observables; n = 3 only when both words have at most two
    letters, which keeps the exact normal forms small."""
    genus, boundary = draw(st.sampled_from(SURFACES))
    wa = draw(composable_word(genus, boundary))
    wb = draw(composable_word(genus, boundary))
    assume(len(wa) and len(wb))
    n = draw(st.sampled_from([2, 3])) if max(len(wa), len(wb)) <= 2 else 2
    ctx = AlgebraContext("gl", n)
    ij, kl = (draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
              for _ in range(2))
    spec = SurfaceSpec(genus, boundary)
    m = random_point(ctx, spec, draw(st.integers(0, 10 ** 6)))
    _, _, data = realize_pair(wa, wb, polygon_model(spec), draw(st.integers(0, 99)))
    return spec, ctx, ij, wa, kl, wb, data, m


@settings(max_examples=150)
@given(symbolic_case())
def test_random_words_symbolic(case):
    spec, ctx, (i, j), wa, (k, l), wb, data, m = case
    sym = bracket_symbolic(PathEntrySymbol(wa, i + 1, j + 1),
                           PathEntrySymbol(wb, k + 1, l + 1), data, ctx.n)
    num = bracket_numeric(build_bivector(spec, ctx),
                          WordFunction(entry_observable(ctx, i, j), wa),
                          WordFunction(entry_observable(ctx, k, l), wb), m)
    assert abs(sym.evaluate(m) - num) <= 1e-8 * max(1.0, abs(num))


@settings(max_examples=100)
@given(data=st.data())
def test_random_entries_match_full_path_matrix(data):
    # rows against the full matrix product, words of 1-8 letters
    genus, boundary = data.draw(st.sampled_from(SURFACES))
    w = data.draw(composable_word(genus, boundary, 8))
    assume(len(w))
    n = data.draw(st.sampled_from([2, 3]))
    i, j = data.draw(st.integers(1, n)), data.draw(st.integers(1, n))
    assert entry_nf(w, i, j, word_ring(n, w), {}) == normalize(PathEntrySymbol(w, i, j), n)


@settings(max_examples=150)
@given(data=st.data())
def test_random_brackets_match_term_by_term_sum(data):
    # one reduction over integer triples against a reduced sum per term;
    # words of 1-8 letters, at most 10 letters together at n = 2 and 5 at
    # n = 3, which keeps the reference's reroute matrices small
    genus, boundary = data.draw(st.sampled_from(SURFACES))
    n = data.draw(st.sampled_from([2, 3]))
    budget = 10 if n == 2 else 5
    wa = data.draw(composable_word(genus, boundary, min(8, budget - 1)))
    wb = data.draw(composable_word(genus, boundary, max(1, min(8, budget - len(wa)))))
    assume(len(wa) and len(wb))
    a = PathEntrySymbol(wa, data.draw(st.integers(1, n)), data.draw(st.integers(1, n)))
    b = PathEntrySymbol(wb, data.draw(st.integers(1, n)), data.draw(st.integers(1, n)))
    spec = SurfaceSpec(genus, boundary)
    _, _, pair = realize_pair(wa, wb, polygon_model(spec), data.draw(st.integers(0, 99)))
    assert bracket_symbolic(a, b, pair, n) == bracket_symbolic_ref(a, b, pair, n)
