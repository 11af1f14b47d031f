"""Property tests over random composable words: the combinatorial formula
against the bivector pairing (GL), and the Theta-dressed formula against the
ambient pairing plus the P-perp correction (U).  Both combinatorial routes
run through the one endpoint loop and crossing loop of bracket_combinatorial,
so these guard that loop beyond the fixture word pairs."""

from hypothesis import assume, given, settings, strategies as st

from surface_qp.cross_section import (RegularityError, bracket_cross,
                                      bracket_cross_numeric,
                                      project_to_cross_section)
from surface_qp.diagrams import realize_pair
from surface_qp.lie import AlgebraContext, entry_observable, trace_observable
from surface_qp.quasipoisson import (WordFunction, bracket_combinatorial,
                                     bracket_numeric, build_bivector)
from surface_qp.repspace import random_point
from surface_qp.surfaces import SurfaceSpec, polygon_model
from surface_qp.words import Word, generator_endpoints, generator_symbols

SURFACES = [(0, 2), (1, 1), (0, 3), (1, 2), (2, 1), (1, 3), (2, 2)]


@st.composite
def composable_word(draw, genus, boundary):
    """A random walk of 1-6 letters in the surface groupoid, from a random
    marked point; free reduction may shorten it."""
    at = draw(st.integers(1, boundary))
    letters = []
    for _ in range(draw(st.integers(1, 6))):
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


@settings(max_examples=150, derandomize=True, deadline=None)
@given(bracket_case("gl"))
def test_random_words_main_theorem(case):
    spec, ctx, oa, wa, ob, wb, data, m = case
    comb = bracket_combinatorial(oa, wa, ob, wb, data, m)
    num = bracket_numeric(build_bivector(spec, ctx),
                          WordFunction(oa, wa), WordFunction(ob, wb), m)
    assert abs(comb - num) <= 1e-8 * max(1.0, abs(num))


@settings(max_examples=100, derandomize=True, deadline=None)
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
