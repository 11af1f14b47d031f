import hashlib
import itertools

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ

from surface_qp.diagrams import intersection_data, realize_pair
from surface_qp.goldman import (GoldmanAlgebra, NormalForm, PathEntrySymbol,
                                bracket_symbolic, entry_ring, entry_symbol,
                                exact_quotient, generator_det, normalize)
from surface_qp.lie import AlgebraContext, entry_observable
from surface_qp.quasipoisson import WordFunction, bracket_combinatorial
from surface_qp.repspace import random_point
from surface_qp.surfaces import SurfaceSpec, polygon_model

GL2 = AlgebraContext("gl", 2)


def test_normalize_generator_entry():
    spec = SurfaceSpec(1, 1)
    nf = normalize(PathEntrySymbol(spec.word("C1"), 1, 2), 2)
    assert nf.num == entry_symbol("C1", 1, 2)
    assert nf.den == {}


def test_normalize_inverse_uses_adjugate_over_det():
    spec = SurfaceSpec(1, 1)
    nf = normalize(PathEntrySymbol(spec.word("C1'"), 1, 1), 2)
    assert nf.num == entry_symbol("C1", 2, 2)
    assert nf.den == {"C1": 1}


def test_normalize_product_word():
    spec = SurfaceSpec(1, 1)
    nf = normalize(PathEntrySymbol(spec.word("C1 D1"), 1, 1), 2)
    want = sp.expand(
        entry_symbol("C1", 1, 1) * entry_symbol("D1", 1, 1)
        + entry_symbol("C1", 1, 2) * entry_symbol("D1", 2, 1))
    assert sp.expand(nf.num - want) == 0


def test_normal_form_det_cancellation():
    d = generator_det("C1", 2)
    x = entry_symbol("C1", 1, 1)
    nf = NormalForm(sp.expand(d * x), {"C1": 1}, 2)
    assert nf.num == x
    assert nf.den == {}


def test_normal_form_equality_cross_multiplies():
    d = generator_det("C1", 2)
    x = entry_symbol("D1", 1, 2)
    a = NormalForm(x, None, 2)
    b = NormalForm(sp.expand(x * d), {"C1": 1}, 2)
    assert a == b
    assert a != NormalForm(x + 1, None, 2)


def test_equal_forms_hash_equal():
    d = generator_det("C1", 2)
    x = entry_symbol("D1", 1, 2)
    y = entry_symbol("C1", 2, 1)
    a = NormalForm(x, None, 2)
    b = NormalForm(sp.expand(x * d), {"C1": 1}, 2)       # x det / det
    c = NormalForm(x, None, 2) + NormalForm(y, {"C1": 1}, 2) \
        - NormalForm(y, {"C1": 1}, 2)                   # x + y/det - y/det
    assert a == b == c
    assert hash(a) == hash(b) == hash(c)
    assert len({a, b, c}) == 1
    assert len({a, NormalForm(y, {"C1": 1}, 2)}) == 2


def _ring_and_det(n):
    ring = entry_ring(entry_symbol(label, r, c) for label in ("C1", "D1")
                      for r in range(1, n + 1) for c in range(1, n + 1))
    return ring, ring.from_expr(generator_det("C1", n))


@st.composite
def _poly_terms(draw, nvars):
    """Sparse terms: up to 5 monomials in up to 3 variables, exponents <= 2."""
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        mono = [0] * nvars
        for k in draw(st.lists(st.integers(0, nvars - 1), max_size=3)):
            mono[k] += draw(st.integers(1, 2))
        terms.append((tuple(mono), QQ(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))))
    return terms


def _poly(ring, terms):
    out = ring.zero
    for mono, c in terms:
        out += ring({mono: c})
    return out


@pytest.mark.parametrize("n", [2, 3])
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data(), divisible=st.booleans())
def test_exact_quotient_agrees_with_sympy_div(n, data, divisible):
    ring, det = _ring_and_det(n)
    q = _poly(ring, data.draw(_poly_terms(ring.ngens)))
    r = ring.zero if divisible else _poly(ring, data.draw(_poly_terms(ring.ngens)))
    f = q * det + r
    want_q, want_r = sp.div(f.as_expr(), det.as_expr(), *ring.symbols)
    got = exact_quotient(f, det)
    if want_r == 0:
        assert got is not None and got.as_expr() - want_q == 0
    else:
        assert got is None
    if divisible:
        assert got == q


def test_exact_quotient_wide_exponents():
    # total degree >= 128 needs two bytes per packed exponent
    ring, det = _ring_and_det(2)
    x = ring.gens[ring.symbols.index(entry_symbol("D1", 1, 1))]
    assert exact_quotient(x ** 130 * det ** 2, det) == x ** 130 * det
    assert exact_quotient(x ** 130 * det + x, det) is None


def test_word_times_inverse_is_identity_entrywise():
    spec = SurfaceSpec(1, 1)
    w = spec.word("C1 D1")
    loop = w.concat(w.inverse())
    assert loop.letters == ()


@pytest.mark.parametrize("gb,ta,tb", [
    ((1, 1), "C1", "D1"),
    ((0, 2), "A2", "B2"),
    ((1, 2), "A2 B2 A2'", "C1 D1"),
])
def test_symbolic_matches_numeric(gb, ta, tb):
    spec = SurfaceSpec(*gb)
    pm = polygon_model(spec)
    wa, wb = spec.word(ta), spec.word(tb)
    _, _, data = realize_pair(wa, wb, pm, 1)
    a = PathEntrySymbol(wa, 1, 2)
    b = PathEntrySymbol(wb, 2, 1)
    nf = bracket_symbolic(a, b, data, 2)
    oa = entry_observable(GL2, 0, 1, "re")
    ob = entry_observable(GL2, 1, 0, "re")
    for seed in (0, 1, 2):
        m = random_point(GL2, spec, seed)
        comb = bracket_combinatorial(oa, wa, ob, wb, data, m)
        assert nf.evaluate(m) == pytest.approx(comb, abs=1e-10)


def test_symbolic_homotopy_invariant():
    # the normal form does not depend on the chosen diagram realization
    spec = SurfaceSpec(1, 1)
    pm = polygon_model(spec)
    wa, wb = spec.word("C1 D1"), spec.word("D1")
    a = PathEntrySymbol(wa, 1, 1)
    b = PathEntrySymbol(wb, 2, 2)
    forms = []
    for seed, variants in [(0, (0, 0)), (1, (0, 0)), (2, (1, 0)), (0, (0, 1))]:
        _, _, data = realize_pair(wa, wb, pm, seed, variants)
        forms.append(bracket_symbolic(a, b, data, 2))
    for nf in forms[1:]:
        assert nf == forms[0]


def test_symbolic_antisymmetry():
    spec = SurfaceSpec(1, 1)
    pm = polygon_model(spec)
    wa, wb = spec.word("C1"), spec.word("D1")
    da, db, data = realize_pair(wa, wb, pm, 2)
    flipped = intersection_data(db, da, pm)
    for (i, j), (k, l) in itertools.product([(1, 1), (1, 2)], [(2, 1), (2, 2)]):
        fwd = bracket_symbolic(PathEntrySymbol(wa, i, j),
                               PathEntrySymbol(wb, k, l), data, 2)
        bwd = bracket_symbolic(PathEntrySymbol(wb, k, l),
                               PathEntrySymbol(wa, i, j), flipped, 2)
        assert (fwd + bwd).is_zero()


def test_non_closed_self_bracket_vanishes():
    # a simple arc between distinct marked points commutes with itself
    spec = SurfaceSpec(0, 2)
    pm = polygon_model(spec)
    w = spec.word("A2")
    for (i, j), (k, l) in itertools.product([(1, 1), (1, 2), (2, 1), (2, 2)],
                                            repeat=2):
        _, _, data = realize_pair(w, w, pm, 1)
        nf = bracket_symbolic(PathEntrySymbol(w, i, j),
                              PathEntrySymbol(w, k, l), data, 2)
        assert nf.is_zero()


def test_algebra_bracket_is_leibniz():
    spec = SurfaceSpec(1, 1)
    pm = polygon_model(spec)
    alg = GoldmanAlgebra(pm, 2, seed=1)
    wa, wb = spec.word("C1"), spec.word("D1")
    f = alg.symbol(wa, 1, 1)
    g = alg.symbol(wa, 1, 2)
    h = alg.symbol(wb, 2, 1)
    lhs = alg.bracket(f * g, h)
    rhs = (alg.normal_form(f) * alg.bracket(g, h)
           + alg.normal_form(g) * alg.bracket(f, h))
    assert lhs == rhs


def test_algebra_bracket_evaluates_like_numeric():
    spec = SurfaceSpec(1, 1)
    pm = polygon_model(spec)
    alg = GoldmanAlgebra(pm, 2, seed=0)
    wa, wb = spec.word("C1 D1"), spec.word("D1")
    f = alg.symbol(wa, 1, 2)
    g = alg.symbol(wb, 1, 1)
    nf = alg.bracket(f, g)
    data = alg.pair_data(wa, wb)
    oa = entry_observable(GL2, 0, 1, "re")
    ob = entry_observable(GL2, 0, 0, "re")
    m = random_point(GL2, spec, 9)
    comb = bracket_combinatorial(oa, wa, ob, wb, data, m)
    assert nf.evaluate(m) == pytest.approx(comb, abs=1e-10)


def test_evaluate_rejects_uncovered_generators():
    nf = NormalForm(entry_symbol("Z9", 1, 1), None, 2)
    m = random_point(GL2, SurfaceSpec(1, 1), 0)
    with pytest.raises(ValueError):
        nf.evaluate(m)


def test_deferred_n3_bracket_is_unchanged():
    # Sigma_2,1 at n = 3: the normal form pinned byte for byte (sha256 of
    # its canonical string, 113659 characters)
    spec = SurfaceSpec(2, 1)
    pm = polygon_model(spec)
    wa, wb = spec.word("C1 D1 C1' D1'"), spec.word("C2 D2")
    _, _, data = realize_pair(wa, wb, pm, 0)
    nf = bracket_symbolic(PathEntrySymbol(wa, 1, 2), PathEntrySymbol(wb, 2, 1), data, 3)
    text = nf.canonical_str()
    assert len(text) == 113659
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "86444b932f4b400fd0b9c86edfb4c3d79d15c557157325982ed5f93b0b505ce0"
