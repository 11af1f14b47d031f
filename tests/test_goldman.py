import hashlib
import inspect
import itertools
import json
import sys
import tempfile
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from surface_qp.cross_section import bracket_cross
from surface_qp.diagrams import intersection_data, realize_pair
from surface_qp import goldman
from surface_qp.goldman import (MAX_DEGREE, NormalForm, Ring, _label_ring, bracket_symbolic,
                                exact_quotient)
from surface_qp.io import load_point
from surface_qp.lie import TOL_INV, AlgebraContext, entry_observable, trace_observable
from surface_qp.quasipoisson import (WordFunction, bracket_combinatorial, bracket_numeric,
                                     build_bivector)
from surface_qp.repspace import random_point
from surface_qp.suites import FIXTURE_SURFACES, WORD_PAIRS, run_suite
from surface_qp.surfaces import SurfaceSpec, polygon_model
from surface_qp.words import generator_symbols
from symbolic_ref import (GoldmanAlgebra, PathEntrySymbol, bracket_of_symbols,
                          bracket_symbolic_ref, entry_symbol, form, from_expr, from_terms,
                          normalize, to_expr)

GL2 = AlgebraContext("gl", 2)


def generator_det(label, n):
    return sp.Matrix(n, n, lambda r, c: entry_symbol(label, r + 1, c + 1)).det()


def test_normalize_generator_entry():
    spec = SurfaceSpec(1, 1)
    nf = normalize(PathEntrySymbol(spec.word("C1"), 1, 2), 2)
    assert to_expr(nf.poly) == entry_symbol("C1", 1, 2)
    assert nf.den == {}


def test_normalize_inverse_uses_adjugate_over_det():
    spec = SurfaceSpec(1, 1)
    nf = normalize(PathEntrySymbol(spec.word("C1'"), 1, 1), 2)
    assert to_expr(nf.poly) == entry_symbol("C1", 2, 2)
    assert nf.den == {"C1": 1}


def test_normalize_product_word():
    spec = SurfaceSpec(1, 1)
    nf = normalize(PathEntrySymbol(spec.word("C1 D1"), 1, 1), 2)
    want = sp.expand(
        entry_symbol("C1", 1, 1) * entry_symbol("D1", 1, 1)
        + entry_symbol("C1", 1, 2) * entry_symbol("D1", 2, 1))
    assert sp.expand(to_expr(nf.poly) - want) == 0


def test_normal_form_det_cancellation():
    d = generator_det("C1", 2)
    x = entry_symbol("C1", 1, 1)
    nf = form(sp.expand(d * x), {"C1": 1})
    assert to_expr(nf.poly) == x
    assert nf.den == {}


def test_normal_form_equality_cross_multiplies():
    d = generator_det("C1", 2)
    x = entry_symbol("D1", 1, 2)
    a = form(x, {"C1": 0})    # over the ring of C1 and D1, like b
    b = form(sp.expand(x * d), {"C1": 1})
    assert a == b
    assert a != form(x + 1, {"C1": 0})


def test_equal_forms_hash_equal():
    d = generator_det("C1", 2)
    x = entry_symbol("D1", 1, 2)
    y = entry_symbol("C1", 2, 1)
    a = form(x, {"C1": 0})
    b = form(sp.expand(x * d), {"C1": 1})             # x det / det
    c = form(x, {"C1": 0}) + form(y, {"D1": 0, "C1": 1}) \
        - form(y, {"D1": 0, "C1": 1})                 # x + y/det - y/det
    assert a == b == c
    assert hash(a) == hash(b) == hash(c)
    assert len({a, b, c}) == 1
    assert len({a, form(y, {"D1": 0, "C1": 1})}) == 2


def test_forms_over_two_rings_do_not_mix():
    a, b = form(entry_symbol("C1", 1, 1)), form(entry_symbol("D1", 1, 1))
    for op in (lambda: a + b, lambda: a * b, lambda: a == b,
               lambda: exact_quotient(a.poly, b.poly)):
        with pytest.raises(ValueError):
            op()
    with pytest.raises(ValueError):
        NormalForm(a.poly, {"D1": 1})


def _ring_and_det(n):
    ring = _label_ring(frozenset({"C1", "D1"}), n)
    return ring, from_expr(ring, generator_det("C1", n))


@st.composite
def _poly_terms(draw, nvars):
    """Sparse terms: up to 5 monomials in up to 3 variables, exponents <= 2."""
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        mono = [0] * nvars
        for k in draw(st.lists(st.integers(0, nvars - 1), max_size=3)):
            mono[k] += draw(st.integers(1, 2))
        terms.append((tuple(mono), Fraction(draw(st.integers(-3, 3)),
                                            draw(st.integers(1, 3)))))
    return terms


@pytest.mark.parametrize("n", [2, 3])
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data(), divisible=st.booleans())
def test_exact_quotient_agrees_with_sympy_div(n, data, divisible):
    ring, det = _ring_and_det(n)
    nvars = len(ring.names)
    q = from_terms(ring, data.draw(_poly_terms(nvars)))
    r = ring.zero if divisible else from_terms(ring, data.draw(_poly_terms(nvars)))
    f = q * det + r
    want_q, want_r = sp.div(to_expr(f), to_expr(det), *map(sp.Symbol, ring.names))
    got = exact_quotient(f, det)
    if want_r == 0:
        assert got is not None and to_expr(got) - want_q == 0
    else:
        assert got is None
    if divisible:
        assert got == q


def test_exact_quotient_wide_exponents():
    # exponents above one byte
    ring, det = _ring_and_det(2)
    x = ring.gen("D1_11")
    assert exact_quotient(x ** 130 * det ** 2, det) == x ** 130 * det
    assert exact_quotient(x ** 130 * det + x, det) is None


def test_degree_beyond_the_field_raises():
    # the largest exponent a field holds survives a product and decodes
    # intact; one more overflows instead of wrapping into the next field
    ring = _label_ring(frozenset({"C1"}), 2)
    x, y = ring.gen("C1_11"), ring.gen("C1_12")
    top = (x ** 127) ** (MAX_DEGREE // 127) * x ** (MAX_DEGREE % 127)
    assert list(top.terms.values()) == [1]
    assert ring.exponents(next(iter(top.terms))) == (MAX_DEGREE, 0, 0, 0)
    with pytest.raises(OverflowError):
        top * x
    with pytest.raises(OverflowError):
        top * y

@st.composite
def _printed_forms(draw):
    """(poly, den, n): a sparse numerator over the ring of 1-3 labels at
    n = 2 or 3, in one of the shapes sympy prints differently, and a det
    denominator over the same labels."""
    labels = draw(st.lists(st.sampled_from(["A2", "B2", "C1", "D1", "C2"]),
                           min_size=1, max_size=3, unique=True))
    n = draw(st.sampled_from([2, 3]))
    ring = _label_ring(frozenset(labels), n)
    unit = st.sampled_from([Fraction(1), Fraction(-1)])
    coeff = unit | st.builds(Fraction, st.integers(-12, 12).filter(bool),
                             st.integers(1, 7))
    nvars = len(ring.names)

    def monomial(max_vars):
        m = [0] * nvars
        for k in draw(st.lists(st.integers(0, nvars - 1),
                               min_size=1, max_size=max_vars)):
            m[k] += draw(st.integers(1, 3))
        return tuple(m)

    one = (0,) * nvars
    shape = draw(st.sampled_from(["zero", "constant", "term", "constant-first",
                                  "sparse"]))
    if shape == "zero":
        terms = {}
    elif shape == "constant":
        terms = {one: draw(coeff)}
    elif shape == "term":
        terms = {monomial(3): draw(coeff)}
    elif shape == "constant-first":
        # a positive constant and a negative multiple of one power
        terms = {monomial(1): -abs(draw(coeff)), one: abs(draw(coeff))}
    else:
        terms = {one if draw(st.booleans()) else monomial(3): draw(coeff)
                 for _ in range(draw(st.integers(0, 12)))}
    den = draw(st.dictionaries(st.sampled_from(labels), st.integers(1, 3)))
    return from_terms(ring, terms.items()), den, n


@settings(max_examples=300)
@given(form=_printed_forms())
def test_canonical_str_prints_like_sympy(form):
    # str of the sympy expression is the reference the direct printer
    # reproduces
    poly, den, n = form
    suffix = "*".join("det(%s)^%d" % (k, p) for k, p in sorted(den.items()))
    want = str(to_expr(poly)) + (" / " + suffix if suffix else "")
    assert NormalForm._raw(poly, den).canonical_str() == want


@pytest.mark.parametrize("expr,text", [
    ("-5*C2_11**3/7 + 11", "11 - 5*C2_11**3/7"),
    ("-C1_11 + 1", "1 - C1_11"),
    ("-C1_11*C1_12 + 1", "-C1_11*C1_12 + 1"),  # two symbols: no constant first
], ids=["power", "symbol", "product"])
def test_canonical_str_constant_first(expr, text):
    nf = form(expr)
    assert nf.canonical_str() == text == str(to_expr(nf.poly))


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
    oa = entry_observable(GL2, 0, 1, "re")
    ob = entry_observable(GL2, 1, 0, "re")
    nf = bracket_symbolic(oa, wa, ob, wb, data)
    for seed in (0, 1, 2):
        m = random_point(GL2, spec, seed)
        comb = bracket_combinatorial(oa, wa, ob, wb, data, m)
        assert nf.evaluate(m) == pytest.approx(comb, abs=1e-10)


def test_symbolic_bracket_takes_two_gl_entry_observables():
    spec = SurfaceSpec(1, 1)
    wa, wb = spec.word("C1"), spec.word("D1")
    _, _, data = realize_pair(wa, wb, polygon_model(spec), 0)
    entry, u2 = entry_observable(GL2, 0, 1), AlgebraContext("u", 2)
    for oa, ob in ((trace_observable(GL2), entry), (entry, trace_observable(GL2)),
                   (entry_observable(u2, 0, 1), entry_observable(u2, 1, 0)),
                   (entry, entry_observable(AlgebraContext("gl", 3), 0, 1))):
        with pytest.raises(ValueError, match="two GL entry observables"):
            bracket_symbolic(oa, wa, ob, wb, data)


def test_every_bracket_route_leads_with_the_observables_and_words():
    lead = ["phi", "w_alpha", "psi", "w_beta", "data"]
    for route in (bracket_combinatorial, bracket_symbolic, bracket_cross):
        assert list(inspect.signature(route).parameters)[:5] == lead
    assert list(inspect.signature(bracket_symbolic).parameters) == lead + ["cache"]


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
        forms.append(bracket_of_symbols(a, b, data, 2))
    for nf in forms[1:]:
        assert nf == forms[0]


def test_symbolic_antisymmetry():
    spec = SurfaceSpec(1, 1)
    pm = polygon_model(spec)
    wa, wb = spec.word("C1"), spec.word("D1")
    da, db, data = realize_pair(wa, wb, pm, 2)
    flipped = intersection_data(db, da, pm)
    for (i, j), (k, l) in itertools.product([(1, 1), (1, 2)], [(2, 1), (2, 2)]):
        fwd = bracket_of_symbols(PathEntrySymbol(wa, i, j),
                                 PathEntrySymbol(wb, k, l), data, 2)
        bwd = bracket_of_symbols(PathEntrySymbol(wb, k, l),
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
        nf = bracket_of_symbols(PathEntrySymbol(w, i, j),
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
    nf = form(entry_symbol("Z9", 1, 1))
    m = random_point(GL2, SurfaceSpec(1, 1), 0)
    with pytest.raises(ValueError):
        nf.evaluate(m)


def test_evaluate_rejects_uncovered_denominator():
    nf = form(entry_symbol("C1", 1, 1), {"Z9": 1})
    m = random_point(GL2, SurfaceSpec(1, 1), 0)
    with pytest.raises(ValueError, match="does not cover"):
        nf.evaluate(m)


def _d1_bracket(i, j, k, l):
    """{(D1^-1)_ij, (D1^-2)_kl} on Sigma_1,1: every term carries det(D1)^3."""
    spec = SurfaceSpec(1, 1)
    wa, wb = spec.word("D1'"), spec.word("D1' D1'")
    _, _, data = realize_pair(wa, wb, polygon_model(spec), 0)
    return PathEntrySymbol(wa, i, j), PathEntrySymbol(wb, k, l), data


def test_final_reduction_is_pinned(monkeypatch):
    # the terms sum over det(D1)^3, and only the one reduction of the sum
    # cancels a det(D1)
    a, b, data = _d1_bracket(3, 3, 1, 1)
    text = "-D1_12*D1_23*D1_31/2 + D1_13*D1_21*D1_32/2 / det(D1)^2"
    assert bracket_of_symbols(a, b, data, 3).canonical_str() == text
    assert bracket_of_symbols(a, b, data, 3) == bracket_symbolic_ref(a, b, data, 3)
    reduce = NormalForm._reduce

    def skip_final(nf):   # mutant: the summed terms stay unreduced
        return nf if sys._getframe(1).f_code.co_name == "sum_of_products" else reduce(nf)

    monkeypatch.setattr(NormalForm, "_reduce", skip_final)
    assert bracket_of_symbols(a, b, data, 3).canonical_str() != text


def _exact_value(nf, m) -> float:
    """The form at m's exact coordinates, as a sympy rational, rounded once."""
    n, (d, nums) = nf.poly.ring.n, m.exact
    at = {entry_symbol(label, r + 1, c + 1): sp.Rational(x, d)
          for label, rows in nums.items()
          for r, row in enumerate(rows) for c, x in enumerate(row)}
    value = to_expr(nf.poly).xreplace(at)
    for label, p in nf.den.items():
        value /= generator_det(label, n).xreplace(at) ** p
    value = sp.Rational(value)
    return float(Fraction(int(value.p), int(value.q)))


@pytest.mark.parametrize("n", [2, 3])
def test_evaluate_is_exact(n):
    # 1/2 coefficients, mixed degrees and det denominators: a lost
    # coefficient, coordinate or det scale changes the rounded value
    forms = [bracket_of_symbols(*_d1_bracket(1, 1, 1, 2), n),
             bracket_of_symbols(*_d1_bracket(1, 2, 2, 1), n),
             form("C1_11**2*D1_12/2 - 3*C1_22/7 + 5/3", {"C1": 2, "D1": 1}, n)]
    assert all(nf.den and any(c.denominator > 1 for c in nf.poly.terms.values())
               for nf in forms)
    ctx = AlgebraContext("gl", n)
    for seed in range(4):
        m = random_point(ctx, SurfaceSpec(1, 1), seed)
        for nf in forms:
            assert nf.evaluate(m) == _exact_value(nf, m)


_RATIONAL = st.one_of(st.integers(-10**6, 10**6).map(str),
                      st.builds("{}/{}".format, st.integers(-10**6, 10**6),
                                st.integers(1, 10**6)))


@lru_cache(maxsize=None)
def _file_point_form(g, b, n):
    """{(X)_11, (Y^-1)_12} for the two generators X, Y of Sigma_g,b: both
    generators' coordinates and a det(Y) denominator."""
    spec = SurfaceSpec(g, b)
    wa, wb = (spec.word(t) for t in (("C1", "D1'") if g else ("A2", "B2'")))
    _, _, data = realize_pair(wa, wb, polygon_model(spec), 0)
    return bracket_of_symbols(PathEntrySymbol(wa, 1, 1), PathEntrySymbol(wb, 1, 2), data, n)


@pytest.mark.parametrize("g, b", [(1, 1), (0, 2)])
@pytest.mark.parametrize("n", [2, 3])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_evaluate_is_exact_at_file_points(g, b, n, data):
    # every generator brings its own denominators, so only numerators over
    # their lcm keep each entry; a point file's floats round each once
    spec, ctx = SurfaceSpec(g, b), AlgebraContext("gl", n)
    rows = st.lists(st.lists(_RATIONAL, min_size=n, max_size=n), min_size=n, max_size=n)
    doc = {sym: data.draw(rows, label=sym) for sym in generator_symbols(g, b)}
    fracs = {sym: [[Fraction(s) for s in row] for row in mat] for sym, mat in doc.items()}
    for mat in fracs.values():
        assume(sp.Matrix(mat).det() != 0 and abs(np.linalg.det(np.array(mat, float))) > TOL_INV)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "point.json"
        path.write_text(json.dumps(doc))
        m = load_point(str(path), ctx, spec)
    d, nums = m.exact
    for sym, mat in fracs.items():
        assert m.mat(sym).tobytes() == np.array([[float(x) for x in row]
                                                 for row in mat]).tobytes()
        assert [[Fraction(x, d) for x in row] for row in nums[sym]] == mat
    nf = _file_point_form(g, b, n)
    assert nf.den and nf.evaluate(m) == _exact_value(nf, m)


def _c1_d1_bracket(n):
    """{(C1)_11, (D1)_12} on Sigma_1,1 at n: no word of E has an inverse letter."""
    spec = SurfaceSpec(1, 1)
    wa, wb = spec.word("C1"), spec.word("D1")
    _, _, data = realize_pair(wa, wb, polygon_model(spec), 0)
    return bracket_of_symbols(PathEntrySymbol(wa, 1, 1), PathEntrySymbol(wb, 1, 2), data, n)


@pytest.mark.parametrize("n", [2, 3, 7])
def test_inverse_free_brackets_form_no_adjugate(n, monkeypatch):
    # the adjugate grows about 7x per n and only an inverse letter or a
    # det(X_L) denominator reads it
    def refused(m):
        raise AssertionError("adjugate formed for an inverse-free bracket")
    goldman._generator.cache_clear()
    monkeypatch.setattr(goldman, "_adjugate", refused)
    nf = _c1_d1_bracket(n)
    assert nf.den == {} and nf.poly
    want = " + ".join(["C1_12*D1_11/2"] + ["C1_1%d*D1_%d2/2" % (k, k) for k in range(2, n + 1)])
    assert nf.canonical_str() == want


@pytest.mark.parametrize("n", [1, 3, 9, 10, 11, 12])
def test_entry_names_are_distinct(n):
    ring = Ring(frozenset({"C1", "D1"}), n)
    assert len(set(ring.names)) == len(ring.names) == 2 * n * n
    if n < 10:   # below 10 the names are the two digits, as before
        assert ring.names == sorted("%s_%d%d" % (label, r, c) for label in ("C1", "D1")
                                    for r in range(1, n + 1) for c in range(1, n + 1))


def test_n11_normal_form_evaluates_like_numeric():
    # at n = 11 L_1_11 and L_11_1 are two names; with one shared name the
    # exact value drifted from the numeric route by 6e-3
    n, spec = 11, SurfaceSpec(1, 1)
    ctx = AlgebraContext("gl", n)
    nf = _c1_d1_bracket(n)
    m = random_point(ctx, spec, 0)
    f = WordFunction(entry_observable(ctx, 0, 0, "re"), spec.word("C1"))
    g = WordFunction(entry_observable(ctx, 0, 1, "re"), spec.word("D1"))
    want = bracket_numeric(build_bivector(spec, ctx), f, g, m)
    assert abs(want) > 1e-3
    assert abs(nf.evaluate(m) - want) <= 1e-12


def test_deferred_n3_bracket_is_unchanged():
    # Sigma_2,1 at n = 3: the normal form pinned byte for byte (sha256 of
    # its canonical string, 113659 characters)
    spec = SurfaceSpec(2, 1)
    pm = polygon_model(spec)
    wa, wb = spec.word("C1 D1 C1' D1'"), spec.word("C2 D2")
    _, _, data = realize_pair(wa, wb, pm, 0)
    nf = bracket_of_symbols(PathEntrySymbol(wa, 1, 2), PathEntrySymbol(wb, 2, 1), data, 3)
    text = nf.canonical_str()
    assert len(text) == 113659
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "86444b932f4b400fd0b9c86edfb4c3d79d15c557157325982ed5f93b0b505ce0"


@pytest.mark.parametrize("n", [2, 3])
def test_goldman_suite_prints_each_normal_form_once(n, monkeypatch):
    printed = []
    canonical_str = NormalForm.canonical_str

    def counted(self):
        printed.append(self)
        return canonical_str(self)
    monkeypatch.setattr(NormalForm, "canonical_str", counted)
    rows = [row for row in run_suite("goldman", n=n)
            if row["fixture"].startswith("goldman evaluate")]
    assert len(printed) == len(FIXTURE_SURFACES)
    # three seeds per surface carry their surface's one normal form
    assert [row["normal_form"] for row in rows] == \
        [canonical_str(nf) for nf in printed for _ in range(3)]


@pytest.mark.parametrize("n", [2, 3])
def test_goldman_evaluate_rows_read_one_stacked_draw(n, monkeypatch):
    # one bracket_numeric call and one evaluate call per surface, on the
    # stack of the three seeds; the exact values are the per-point ones bit
    # for bit, the numeric ones to a few units in the last place
    from surface_qp import suites
    calls = {"bracket_numeric": [], "evaluate": []}
    numeric, evaluate = suites.bracket_numeric, NormalForm.evaluate

    def counted_numeric(h, f, g, m):
        calls["bracket_numeric"].append(m)
        return numeric(h, f, g, m)

    def counted_evaluate(self, m):
        calls["evaluate"].append(m)
        return evaluate(self, m)
    monkeypatch.setattr(suites, "bracket_numeric", counted_numeric)
    monkeypatch.setattr(NormalForm, "evaluate", counted_evaluate)
    rows = [row for row in run_suite("goldman", n=n)
            if row["fixture"].startswith("goldman evaluate")]
    assert calls["bracket_numeric"] == calls["evaluate"]
    assert [m.spec for m in calls["evaluate"]] == FIXTURE_SURFACES
    ctx = AlgebraContext("gl", n)
    for k, row in enumerate(rows):
        spec, seed = FIXTURE_SURFACES[k // 3], k % 3
        wa_s, wb_s = WORD_PAIRS[(spec.genus, spec.boundary_count)][0]
        wa, wb = spec.word(wa_s), spec.word(wb_s)
        m = random_point(ctx, spec, seed)
        _, _, data = realize_pair(wa, wb, polygon_model(spec), 0)
        nf = bracket_of_symbols(PathEntrySymbol(wa, 1, 1), PathEntrySymbol(wb, 1, 2), data, n)
        assert row["lhs"] == "%.17g" % nf.evaluate(m)
        f = WordFunction(entry_observable(ctx, 0, 0, "re"), wa)
        g = WordFunction(entry_observable(ctx, 0, 1, "re"), wb)
        want = bracket_numeric(build_bivector(spec, ctx), f, g, m)
        assert abs(float(row["rhs"]) - want) <= 1e-15 * max(1.0, abs(want))
