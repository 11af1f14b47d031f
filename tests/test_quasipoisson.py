from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from surface_qp.diagrams import realize_pair
from surface_qp.lie import AlgebraContext, entry_observable, trace_observable
from surface_qp.quasipoisson import (WordFunction, _field_vector_and_jac,
                                     bracket_combinatorial, bracket_numeric,
                                     build_bivector, chi, crossing_term, double,
                                     fused_double, schouten_residual,
                                     slot_values, slot_word, verify_moment)
from surface_qp.repspace import holonomy, random_point, word_product
from surface_qp.surfaces import SurfaceSpec, polygon_model

GL2 = AlgebraContext("gl", 2)
U2 = AlgebraContext("u", 2)
SPECS = [SurfaceSpec(0, 2), SurfaceSpec(1, 1), SurfaceSpec(0, 3), SurfaceSpec(1, 2)]


def test_slot_word_expansion():
    spec = SurfaceSpec(1, 2)
    assert slot_word(spec.word("A2 B2")) == ((("a", 2), 1), (("b", 2), 1), (("a", 2), 1))
    assert slot_word(spec.word("B2 B2'")) == ()
    # B1 expands through the boundary relation before slot conversion
    assert len(slot_word(spec.word("B1"))) > 0


@pytest.mark.parametrize("ctx", [GL2, U2, AlgebraContext("gl", 3)])
def test_gradients_match_finite_differences(ctx):
    # repeated slots, inverse letters and an annulus slot b = v u^-1
    spec = SurfaceSpec(1, 2)
    f = WordFunction(entry_observable(ctx, 0, 1, "re"),
                     spec.word("A2 B2 A2' C1 D1 C1' D1' C1"))
    m = random_point(ctx, spec, 9)
    vals = slot_values(m)
    grads = f.gradients(m)
    assert set(grads) == {(s, side) for s, _ in f.slots for side in "LR"}
    pair = build_bivector(spec, ctx).pair
    step = 1e-6
    for (s, side), grad in grads.items():
        fd = 0
        for ek, fk in zip(pair.e, pair.f):
            ends = []
            for t in (step, -step):
                moved = dict(vals)
                moved[s] = vals[s] @ expm(t * ek) if side == "L" else expm(t * ek) @ vals[s]
                ends.append(f.obs.value(word_product(ctx, f.slots, moved)))
            fd = fd + (ends[0] - ends[1]) / (2 * step) * fk
        assert np.max(np.abs(grad - fd)) < 1e-7


@pytest.mark.parametrize("side", ["L", "R"])
def test_field_jacobian_matches_entry_loop(side):
    n = 3
    rng = np.random.default_rng(0)
    g, x = rng.normal(size=(n, n)), rng.normal(size=(n, n))
    vec, jac = _field_vector_and_jac((("c", 1), side), x, {("c", 1): g}, n)
    assert np.array_equal(vec, (g @ x if side == "L" else x @ g).reshape(-1))
    ref = np.zeros((n * n, n * n))
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for t in range(n):
                    if side == "L" and p == r:
                        ref[p * n + q, r * n + t] = x[t, q]
                    if side == "R" and q == t:
                        ref[p * n + q, r * n + t] = x[p, r]
    assert np.array_equal(jac, ref)


def test_double_self_bracket_closed_form():
    # on D(G): {Phi(ba), Psi(ba)} = 1/2 <Phi_vl, (Ad_v - Ad_v^-1) Psi_vl>
    spec = SurfaceSpec(0, 2)
    h = build_bivector(spec, GL2)
    m = random_point(GL2, spec, 1)
    w = spec.word("B2")
    oa, ob = entry_observable(GL2, 0, 1, "re"), entry_observable(GL2, 1, 0, "re")
    got = bracket_numeric(h, WordFunction(oa, w), WordFunction(ob, w), m)
    v = holonomy(m, w)
    vi = np.linalg.inv(v)
    vlf, vlg = oa.var_left(v), ob.var_left(v)
    want = 0.5 * (np.trace(vlf @ v @ vlg @ vi) - np.trace(vlf @ vi @ vlg @ v)).real
    assert got == pytest.approx(want, abs=1e-12)


def test_abelian_bracket_is_intersection_number():
    # n = 1: the bracket reduces to i(alpha, beta) * alpha_11 * beta_11
    # with i(C1, D1) = +1 for this surface model
    ctx = AlgebraContext("gl", 1)
    spec = SurfaceSpec(1, 1)
    pm = polygon_model(spec)
    h = build_bivector(spec, ctx)
    m = random_point(ctx, spec, 3)
    wa, wb = spec.word("C1"), spec.word("D1")
    oa = entry_observable(ctx, 0, 0, "re")
    num = bracket_numeric(h, WordFunction(oa, wa), WordFunction(oa, wb), m)
    a, b = holonomy(m, wa)[0, 0].real, holonomy(m, wb)[0, 0].real
    assert num == pytest.approx(a * b, abs=1e-12)


@pytest.mark.parametrize("spec", [SurfaceSpec(0, 2), SurfaceSpec(1, 1)])
def test_schouten_identity_and_sensitivity(spec):
    h = build_bivector(spec, GL2)
    m = random_point(GL2, spec, 0)
    assert schouten_residual(h, m)["residual"] < 1e-9
    assert schouten_residual(h, m, mutate=0.01)["residual"] > 1e-3


@pytest.mark.parametrize("kind", ["double", "fused"])
def test_moment_condition(kind):
    if kind == "double":
        spec, text = SurfaceSpec(0, 2), "A2 B2 A2'"
        h = double(GL2)
    else:
        spec, text = SurfaceSpec(1, 1), "C1 D1 C1'"
        h = fused_double(GL2)
    m = random_point(GL2, spec, 4)
    f = WordFunction(entry_observable(GL2, 0, 0, "re"), spec.word(text))
    for p in range(len(h.actions)):
        assert verify_moment(h, p, f, m)["residual"] < 1e-6


def test_chi_vanishes_without_incidence():
    # a loop at p2 has no incidence at p1
    spec = SurfaceSpec(0, 3)
    h = build_bivector(spec, GL2)
    m = random_point(GL2, spec, 5)
    f = WordFunction(entry_observable(GL2, 0, 1, "re"), spec.word("B2"))
    assert np.max(np.abs(chi(h, f, 0, m))) < 1e-12   # no incidence at p1
    assert np.max(np.abs(chi(h, f, 2, m))) < 1e-12   # no incidence at p3
    assert np.max(np.abs(chi(h, f, 1, m))) > 1e-6    # loop based at p2


@pytest.mark.parametrize("spec,ta,tb", [
    (SurfaceSpec(0, 2), "A2", "B2"),
    (SurfaceSpec(1, 1), "C1 D1", "D1"),
    (SurfaceSpec(1, 2), "A2 B2 A2'", "C1 D1"),
])
def test_main_theorem_on_fixtures(spec, ta, tb):
    pm = polygon_model(spec)
    h = build_bivector(spec, GL2)
    wa, wb = spec.word(ta), spec.word(tb)
    oa, ob = trace_observable(GL2), entry_observable(GL2, 0, 1, "re")
    for seed in (0, 1):
        _, _, data = realize_pair(wa, wb, pm, seed)
        m = random_point(GL2, spec, seed + 10)
        comb = bracket_combinatorial(oa, wa, ob, wb, data, m)
        num = bracket_numeric(h, WordFunction(oa, wa), WordFunction(ob, wb), m)
        assert comb == pytest.approx(num, abs=1e-10)


def test_crossing_term_variants_agree():
    spec = SurfaceSpec(1, 1)
    pm = polygon_model(spec)
    wa, wb = spec.word("C1 D1"), spec.word("D1")
    _, _, data = realize_pair(wa, wb, pm, 0)
    m = random_point(GL2, spec, 2)
    oa, ob = entry_observable(GL2, 0, 1, "re"), entry_observable(GL2, 1, 1, "re")
    assert data.crossings
    for q in data.crossings:
        primary = crossing_term(oa, wa, ob, wb, q, m, "primary")
        swapped = crossing_term(oa, wa, ob, wb, q, m, "swapped")
        alternate = crossing_term(oa, wa, ob, wb, q, m, "alternate")
        # all three expressions compute the same pairing B^q
        assert primary == pytest.approx(swapped, abs=1e-10)
        assert primary == pytest.approx(alternate, abs=1e-10)


def test_bracket_antisymmetric():
    spec = SurfaceSpec(1, 1)
    h = build_bivector(spec, GL2)
    m = random_point(GL2, spec, 6)
    f = WordFunction(trace_observable(GL2), spec.word("C1 D1"))
    g = WordFunction(entry_observable(GL2, 1, 0, "re"), spec.word("D1"))
    assert bracket_numeric(h, f, g, m) == pytest.approx(
        -bracket_numeric(h, g, f, m), abs=1e-12)
    assert bracket_numeric(h, f, f, m) == pytest.approx(0.0, abs=1e-12)


def test_disjoint_slots_commute():
    # functions supported on different pieces of Sigma_{1,2} see only the
    # fusion term of the bivector; a pair with no incidence anywhere vanishes
    spec = SurfaceSpec(1, 2)
    h = build_bivector(spec, GL2)
    m = random_point(GL2, spec, 7)
    f = WordFunction(trace_observable(GL2), spec.word("B2"))
    g = WordFunction(trace_observable(GL2), spec.word("C1 D1 C1' D1'"))
    # both are invariant traces of loops at different points; their bracket
    # comes only from endpoint terms, which vanish for non-shared points
    pm = polygon_model(spec)
    _, _, data = realize_pair(spec.word("B2"), spec.word("C1 D1 C1' D1'"), pm, 1)
    sub = bracket_combinatorial(trace_observable(GL2), spec.word("B2"),
                                trace_observable(GL2), spec.word("C1 D1 C1' D1'"),
                                replace(data, crossings=()), m)
    assert sub == pytest.approx(0.0, abs=1e-12)


def test_endpoint_subtotal_invariant_factorizes():
    # for conjugation-invariant observables the endpoint part of the formula
    # is (sum eps) * <grad, grad>
    spec = SurfaceSpec(1, 1)
    pm = polygon_model(spec)
    m = random_point(GL2, spec, 8)
    wa, wb = spec.word("C1"), spec.word("D1")
    tr = trace_observable(GL2)
    _, _, data = realize_pair(wa, wb, pm, 3)
    sub = bracket_combinatorial(tr, wa, tr, wb, replace(data, crossings=()), m)
    eps = float(sum(s.value for s in data.endpoint_signs.values()))
    pairing = GL2.form(tr.var_left(holonomy(m, wa)), tr.var_left(holonomy(m, wb)))
    assert sub == pytest.approx(eps * pairing, abs=1e-12)
