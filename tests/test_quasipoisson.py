import ast
import functools
import itertools
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from surface_qp import quasipoisson, suites
from surface_qp.diagrams import double_bracket, realize_pair
from surface_qp.goldman import PathEntrySymbol, bracket_symbolic
from surface_qp.lie import (AlgebraContext, cartan_trivector, dual_basis,
                            entry_observable, trace_observable)
from surface_qp.quasipoisson import (WordFunction, _field_vectors_and_jacs,
                                     bracket_combinatorial, bracket_numeric,
                                     build_bivector, chi, evaluate_element, field_value,
                                     perturbed, schouten_residual, slot_values,
                                     slot_word, verify_moment)
from surface_qp.repspace import (RepPoint, boundary_word, holonomy, random_point,
                                 word_product)
from surface_qp.suites import WORD_PAIRS, _observable_pairs, run_suite
from surface_qp.surfaces import SurfaceSpec, polygon_model, split_canonical
from surface_qp.words import substitute
from conftest import random_points
from formula_ref import bracket_endpoint_loop
from fusion_ref import double, fold_bivector, fused_double, right_fold
from test_diagrams import _closed_word, _walk
from test_lie import FD_STEP, wedge3_tensor
from test_words import moves

GL2 = AlgebraContext("gl", 2)
GL3 = AlgebraContext("gl", 3)
U2 = AlgebraContext("u", 2)
U3 = AlgebraContext("u", 3)
SPECS = [SurfaceSpec(0, 2), SurfaceSpec(1, 1), SurfaceSpec(0, 3), SurfaceSpec(1, 2)]


def _bivectors(spec, ctx):
    """The left and right fusion folds and the closed form."""
    return [fold_bivector(spec, ctx), right_fold(spec, ctx), build_bivector(spec, ctx)]


def _conjugated_form(m, path, x, y):
    """<x, Ad_c y> with c the holonomy of the path."""
    c = holonomy(m, path)
    return m.ctx.form(x, c @ y @ np.linalg.inv(c))


def crossing_term(phi, w_alpha, psi, w_beta, key, m, variant="primary"):
    """The reference B^q of the crossings of one class key = (alpha *_q beta,
    beta *_q alpha): the primary expression, the same pairing read from
    beta's side, or the alternate of the remark following the main theorem."""
    ha = holonomy(m, w_alpha)
    hb = holonomy(m, w_beta)
    ab, ba = key
    if variant == "primary":
        return _conjugated_form(m, ab, phi.var_right(ha), psi.var_left(hb))
    if variant == "swapped":
        return _conjugated_form(m, ba, psi.var_right(hb), phi.var_left(ha))
    # gamma = alpha^-1 *_q beta^-1, the inverse of beta *_q alpha
    return _conjugated_form(m, ba.inverse(), phi.var_left(ha), psi.var_right(hb))


def sharp(h, df, vals):
    """P#(df) as a tangent vector, one matrix per coordinate slot: the field
    B at sum_A A_AB df_A, from the gradients df of WordFunction.gradients."""
    index, a = h.skew
    out = {s: np.zeros((h.ctx.n, h.ctx.n), dtype=h.ctx.dtype) for s in h.slots}
    for b, k in index.items():
        y = np.zeros((h.ctx.n, h.ctx.n), dtype=h.ctx.dtype)
        for t, grad in zip(h.types, df):
            y = y + a[index[t], k] * grad
        out[b[0]] = out[b[0]] + field_value(vals, b, y)
    return out


def moment_lhs_reference(h, p, f, m):
    """mu^-1 dmu(P#df) for the moment of boundary component p + 1: a central
    difference of the boundary word's product along sharp(df)."""
    vals, inv = slot_values(m)
    x = sharp(h, f.gradients(h, m), vals)
    word = slot_word(boundary_word(m.spec, p + 1))
    ends = [word_product(m.ctx, word, {s: vals[s] + t * x[s] for s in vals})
            for t in (FD_STEP, -FD_STEP)]
    mu = word_product(m.ctx, word, vals, inv)
    return np.linalg.inv(mu) @ (ends[0] - ends[1]) / (2 * FD_STEP)


def _field_vector_and_jac(a, x, vals, n):
    """Reference for one basis element: entries of the field a(x) on its
    own slot and their Jacobian, by Kronecker products."""
    x = np.real(x)
    vec = np.real(field_value(vals, a, x)).reshape(-1)
    jac = np.kron(np.eye(n), x.T) if a[1] == "L" else np.kron(x, np.eye(n))
    return vec, jac


def _chart_reference(h, m):
    """Pi and dpi[d, a, b] = d_d Pi^{ab} assembled per coefficient and per
    dual basis element, the loop that schouten_residual contracts."""
    pair = dual_basis(h.ctx)
    vals, _ = slot_values(m)
    n = h.ctx.n
    blk = {s: slice(k * n * n, (k + 1) * n * n) for k, s in enumerate(h.slots)}
    dim = len(h.slots) * n * n
    pi = np.zeros((dim, dim))
    dpi = np.zeros((dim, dim, dim))
    for i, j in zip(*np.nonzero(h.c)):
        a, b, c = h.types[i], h.types[j], h.c[i, j]
        ia, ib = blk[a[0]], blk[b[0]]
        for ek, fk in zip(pair.e, pair.f):
            v, jv = _field_vector_and_jac(a, ek, vals, n)
            w, jw = _field_vector_and_jac(b, fk, vals, n)
            pi[ia, ib] += c * np.outer(v, w)
            pi[ib, ia] -= c * np.outer(w, v)
            dpi[ia, ia, ib] += c * np.einsum('ad,b->dab', jv, w)
            dpi[ib, ia, ib] += c * np.einsum('a,bd->dab', v, jw)
            dpi[ib, ib, ia] -= c * np.einsum('ad,b->dab', jw, v)
            dpi[ia, ib, ia] -= c * np.einsum('a,bd->dab', w, jv)
    return pi, dpi


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
    vals, _ = slot_values(m)
    h = build_bivector(spec, ctx)
    grads = f.gradients(h, m)
    assert grads.shape == (len(h.types), ctx.n, ctx.n)
    pair = dual_basis(ctx)
    step = 1e-6
    for (s, side), grad in zip(h.types, grads):
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
    g, xs = rng.normal(size=(n, n)), rng.normal(size=(2, n, n))
    vecs, jacs = _field_vectors_and_jacs((("c", 1), side), xs, {("c", 1): g}, n)
    for x, vec, jac in zip(xs, vecs, jacs):
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


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("spec", [SurfaceSpec(0, 2), SurfaceSpec(1, 1), SurfaceSpec(1, 2)])
def test_schouten_chart_matches_per_basis_loop(spec, n):
    ctx = AlgebraContext("gl", n)
    h = build_bivector(spec, ctx)
    m = random_point(ctx, spec, 3)
    got = schouten_residual(h, m)
    pi, dpi = _chart_reference(h, m)
    assert np.max(np.abs(got["pi"] - pi)) <= 1e-14 * max(1.0, np.max(np.abs(pi)))
    assert np.max(np.abs(got["dpi"] - dpi)) <= 1e-14 * max(1.0, np.max(np.abs(dpi)))


def _close(got, want):
    return abs(got - want) <= 1e-14 * max(1.0, abs(want))


@pytest.mark.parametrize("kind", ["gl", "u"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("spec", SPECS + [SurfaceSpec(2, 2)], ids=str)
def test_combinatorial_bracket_is_the_endpoint_loop(spec, n, kind):
    # one loop over the element E gives what a variation per endpoint gives:
    # six closed word pairs x three observable pairs, at four stacked points,
    # to 1e-14 relative to the terms' magnitudes, the round-off scale of both
    # sums (terms of 55 in all cancel to 0 on Sigma_0,3 in GL(3); the sums
    # then differ by 1.1e-14)
    ctx = AlgebraContext(kind, n)
    pm = polygon_model(spec)
    stack = random_points(ctx, spec, range(4))
    rng = random.Random("%s %d %s" % (spec, n, kind))
    tr = trace_observable(ctx)

    def entry():
        return entry_observable(ctx, rng.randrange(n), rng.randrange(n))
    for _ in range(6):
        wa, wb = (_closed_word(rng, spec.genus, spec.boundary_count) for _ in "ab")
        _, _, data = realize_pair(wa, wb, pm, rng.randrange(1 << 16))
        for oa, ob in ((tr, tr), (entry(), entry()), (tr, entry())):
            got = bracket_combinatorial(oa, wa, ob, wb, data, stack)
            want = bracket_endpoint_loop(oa, wa, ob, wb, data, stack)
            scale = sum(abs(float(c)) * np.abs(evaluate_element({key: 1}, oa, ob, wb, stack))
                        for key, c in double_bracket(data, wa, wb).items())
            assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, scale))


@pytest.mark.parametrize("kind", ["gl", "u"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_stacked_brackets_equal_per_point(spec, n, kind):
    # one stacked call gives, point by point, what the per-point call gives
    ctx = AlgebraContext(kind, n)
    pm = polygon_model(spec)
    h = build_bivector(spec, ctx)
    seeds = range(4)
    stack = random_points(ctx, spec, seeds)
    points = [random_point(ctx, spec, seed) for seed in seeds]
    for ta, tb in WORD_PAIRS[(spec.genus, spec.boundary_count)]:
        wa, wb = spec.word(ta), spec.word(tb)
        _, _, data = realize_pair(wa, wb, pm, 1)
        for _, oa, ob in _observable_pairs(ctx):
            f, g = WordFunction(oa, wa), WordFunction(ob, wb)
            num = bracket_numeric(h, f, g, stack)
            comb = bracket_combinatorial(oa, wa, ob, wb, data, stack)
            assert num.shape == comb.shape == (len(seeds),)
            for k, m in enumerate(points):
                assert _close(num[k], bracket_numeric(h, f, g, m))
                assert _close(comb[k], bracket_combinatorial(oa, wa, ob, wb, data, m))
            got = verify_moment(h, f, stack)
            assert got["residual"].shape == (spec.boundary_count, len(seeds))
            for k, m in enumerate(points):
                one = verify_moment(h, f, m)
                for side in ("lhs", "rhs"):
                    assert np.max(np.abs(got[side][:, k] - one[side])) <= 1e-14 * max(
                        1.0, np.max(np.abs(one[side])))


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


def _rho_reference(h, m):
    """rho_phi at one point as first built: per action slot, the product of
    the Cartan coefficients with three copies of the action rows,
    antisymmetrized over its three slots."""
    tv = cartan_trivector(h.ctx)
    vals, _ = slot_values(m)
    n = h.ctx.n
    blk = {s: slice(k * n * n, (k + 1) * n * n) for k, s in enumerate(h.slots)}
    dim = len(h.slots) * n * n
    f = dual_basis(h.ctx).f
    rho = np.zeros((dim, dim, dim))
    for p in range(len(h.w)):
        # the natural infinitesimal action of slot p, d/dt exp(tx).m, on the
        # f_i: the fields of the nonzeros of W[p], summed per slot
        sigma = {}
        for t, wt in zip(h.types, h.w[p].tolist()):
            if wt:
                sigma[t[0]] = sigma.get(t[0], 0) + wt * field_value(vals, t, f)
        rows = np.zeros((len(f), dim))
        for s, tan in sigma.items():
            rows[:, blk[s]] += np.real(tan).reshape(len(f), -1)
        rho -= wedge3_tensor(np.einsum('ijk,ia,jb,kc->abc', tv, rows, rows, rows))
    return rho


def _rel_close(got, want, tol=1e-14):
    return np.max(np.abs(got - want)) <= tol * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_stacked_schouten_equals_per_point(spec, n):
    ctx = AlgebraContext("gl", n)
    h = build_bivector(spec, ctx)
    seeds = range(3)
    stack = schouten_residual(h, random_points(ctx, spec, seeds))
    bad = schouten_residual(perturbed(h, 0.01), random_points(ctx, spec, seeds))
    dim = len(h.slots) * n * n
    assert stack["dpi"].shape == stack["jacobiator"].shape == (len(seeds), dim, dim, dim)
    assert stack["residual"].shape == bad["residual"].shape == (len(seeds),)
    assert np.all(stack["residual"] < 1e-9) and np.all(bad["residual"] > 1e-3)
    for k, seed in enumerate(seeds):
        m = random_point(ctx, spec, seed)
        one = schouten_residual(h, m)
        assert isinstance(one["residual"], float)
        for key in ("pi", "dpi", "jacobiator", "rho_phi"):
            assert _rel_close(stack[key][k], one[key]), key
        assert _rel_close(one["rho_phi"], _rho_reference(h, m))
        assert abs(stack["residual"][k] - one["residual"]) <= 1e-14
        assert abs(bad["residual"][k] - schouten_residual(perturbed(h, 0.01), m)["residual"]) \
            <= 1e-12 * bad["residual"][k]


def _window(ctx, m, pieces):
    """The surface of some split pieces of m.spec, in their order, at the
    point m restricted to their generators, renamed; and the map from its
    slots to those of m.spec."""
    annuli = sum(p.kind == "annulus" for p in pieces)
    sub = SurfaceSpec(len(pieces) - annuli, annuli + 1)
    slot = {}
    for p, q in zip(split_canonical(sub), pieces):
        assert p.kind == q.kind
        for x in ("ab" if p.kind == "annulus" else "cd"):
            slot[x, p.index] = (x, q.index)
    mats = {"%s%d" % (x.upper(), i): m.mats["%s%d" % (x.upper(), slot[x, i][1])]
            for x, i in slot}
    return RepPoint(ctx, sub, mats), slot


@pytest.mark.parametrize("spec,count", [(SurfaceSpec(5, 5), 84), (SurfaceSpec(3, 3), 10)],
                         ids=str)
def test_schouten_residual_is_local_to_three_pieces(spec, count):
    # A field acts on one slot and the fused action is a sum over pieces, so
    # each component of [P, P] - rho_phi on three slots is that component on
    # the surface of their (at most three) pieces, at the restricted point:
    # then qp-identity on the surfaces of three pieces covers every (g, b)
    n = 2
    ctx = AlgebraContext("gl", n)
    h, m = build_bivector(spec, ctx), random_point(ctx, spec, 0)
    big = schouten_residual(h, m)
    res = big["jacobiator"] - big["rho_phi"]
    blk = {s: range(k * n * n, (k + 1) * n * n) for k, s in enumerate(h.slots)}
    covered = np.zeros(res.shape, dtype=bool)
    windows = list(itertools.combinations(split_canonical(spec), 3))
    assert len(windows) == count
    for pieces in windows:
        mw, slot = _window(ctx, m, pieces)
        hw = build_bivector(mw.spec, ctx)
        got = schouten_residual(hw, mw)
        idx = np.ix_(*[[k for s in hw.slots for k in blk[slot[s]]]] * 3)
        assert (got["jacobiator"] - got["rho_phi"]).tobytes() == res[idx].tobytes()
        covered[idx] = True
    assert covered.all()


def _dropped_cyclic_term(pi, dpi):
    t = (2.0 * pi[:, None] @ dpi.transpose(0, 2, 1, 3)).transpose(0, 2, 1, 3)
    return t + t.transpose(0, 3, 1, 2)


def _rho_scaled_by_3(ctx):
    return cartan_trivector(ctx) / 2.0


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name,mutant", [("_jacobiator", _dropped_cyclic_term),
                                         ("cartan_trivector", _rho_scaled_by_3)],
                         ids=["jacobiator-term-dropped", "rho-scaled-by-3"])
def test_qp_identity_suite_fails_on_mutants(name, mutant, n, monkeypatch):
    assert all(fx["pass"] for fx in run_suite("qp-identity", n))
    monkeypatch.setattr(quasipoisson, name, mutant)
    fixtures = run_suite("qp-identity", n)
    assert not any(fx["pass"] for fx in fixtures if "seed=" in fx["fixture"])


def test_qp_identity_suite_makes_one_stacked_call_per_surface(monkeypatch):
    # one call over the 5 seeds and one mutation probe at seed 0 per surface,
    # and no per-seed sampling
    calls = {"schouten_residual": [], "random_point": 0}

    def schouten(h, m, _fn=suites.schouten_residual):
        calls["schouten_residual"].append(m.mats[next(iter(m.mats))].shape[:-2])
        return _fn(h, m)

    def point(*args, _fn=suites.random_point):
        calls["random_point"] += 1
        return _fn(*args)
    monkeypatch.setattr(suites, "schouten_residual", schouten)
    monkeypatch.setattr(suites, "random_point", point)
    fixtures = run_suite("qp-identity", 2)
    assert all(fx["pass"] for fx in fixtures) and len(fixtures) == 12
    assert calls == {"schouten_residual": [(5,), (), (5,), ()], "random_point": 0}


@pytest.mark.parametrize("spec", [SurfaceSpec(0, 2), SurfaceSpec(1, 1)])
def test_schouten_identity_and_sensitivity(spec):
    h = build_bivector(spec, GL2)
    m = random_point(GL2, spec, 0)
    assert schouten_residual(h, m)["residual"] < 1e-9
    assert schouten_residual(perturbed(h, 0.01), m)["residual"] > 1e-3


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
    for p in range(len(h.w)):
        assert verify_moment(h, f, m)["residual"][p] < 1e-12


@pytest.mark.parametrize("ctx", [GL2, GL3, U2, U3], ids=str)
@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_moment_lhs_matches_finite_differences(spec, ctx):
    # the pairing with the dual basis against the central difference of the
    # moment along sharp(df)
    h = build_bivector(spec, ctx)
    ta, _ = WORD_PAIRS[(spec.genus, spec.boundary_count)][-1]
    f = WordFunction(entry_observable(ctx, 0, 1, "re"), spec.word(ta))
    m = random_point(ctx, spec, 4)
    lhs = verify_moment(h, f, m)["lhs"]
    for p, got in enumerate(lhs):
        assert np.max(np.abs(got - moment_lhs_reference(h, p, f, m))) <= 1e-8
    assert max(np.max(np.abs(x)) for x in lhs) > 1e-2


@pytest.mark.parametrize("kind", ["gl", "u"])
@pytest.mark.parametrize("spec,text", [
    (SurfaceSpec(2, 2), "A2 B2 A2' C1 D2 C2'"),
    (SurfaceSpec(3, 3), "A3 B3' A3' C2 D3 A2 B2 A2' C1"),
], ids=["g2b2", "g3b3"])
def test_moment_condition_after_iterated_fusion(spec, text, kind):
    ctx = AlgebraContext(kind, 3)
    f = WordFunction(entry_observable(ctx, 0, 1, "re"), spec.word(text))
    for h in _bivectors(spec, ctx):
        for seed in (0, 1):
            m = random_point(ctx, spec, seed)
            for p in range(spec.boundary_count):
                assert verify_moment(h, f, m)["residual"][p] <= 1e-12


def _perturbed_bivector(monkeypatch):
    real = suites.build_bivector
    monkeypatch.setattr(suites, "build_bivector",
                        lambda spec, ctx: perturbed(real(spec, ctx), 1e-6))


def _chi_negated(monkeypatch):
    real = quasipoisson.chi
    monkeypatch.setattr(quasipoisson, "chi", lambda h, df: -real(h, df))


def _ad_mu_for_ad_mu_inv(monkeypatch):
    # verify_moment reads mu only for Ad_mu^-1 on the right-hand side, so
    # handing it mu^-1 turns that into Ad_mu
    real = quasipoisson.boundary_moment
    monkeypatch.setattr(quasipoisson, "boundary_moment",
                        lambda m, i: np.linalg.inv(real(m, i)))


MOMENT_MUTANTS = {"perturbed 1e-6": _perturbed_bivector,
                  "chi negated": _chi_negated,
                  "Ad_mu for Ad_mu^-1": _ad_mu_for_ad_mu_inv}


@pytest.mark.parametrize("mutant", sorted(MOMENT_MUTANTS))
def test_moment_suite_fails_under_mutant(mutant, monkeypatch):
    assert all(r["pass"] for r in run_suite("moment", n=2))
    MOMENT_MUTANTS[mutant](monkeypatch)
    assert not all(r["pass"] for r in run_suite("moment", n=2))


def test_chi_vanishes_without_incidence():
    # a loop at p2 has no incidence at p1
    spec = SurfaceSpec(0, 3)
    h = build_bivector(spec, GL2)
    m = random_point(GL2, spec, 5)
    df = WordFunction(entry_observable(GL2, 0, 1, "re"), spec.word("B2")).gradients(h, m)
    assert np.max(np.abs(chi(h, df)[0])) < 1e-12   # no incidence at p1
    assert np.max(np.abs(chi(h, df)[2])) < 1e-12   # no incidence at p3
    assert np.max(np.abs(chi(h, df)[1])) > 1e-6    # loop based at p2


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


# word pairs on the surfaces of the moved-word test; Sigma_0,4 has no fixture pairs
MOVED_PAIRS = {**WORD_PAIRS, (0, 4): [("A2", "A4"), ("A3 B3", "A3' A4"),
                                      ("A2 B2 A2'", "A4 B4 A4'")]}


@pytest.mark.parametrize("ctx", [GL2, GL3, U2, U3], ids=str)
@pytest.mark.parametrize("gb", [(0, 3), (1, 2), (0, 4)])
def test_main_theorem_on_moved_words(gb, ctx):
    # T(alpha), T(beta) for a move T that fixes every boundary word: longer
    # words, which run along boundary loops and repeat letters
    spec = SurfaceSpec(*gb)
    pm, h = polygon_model(spec), build_bivector(spec, ctx)
    m = random_points(ctx, spec, range(3))
    labels, oas, obs = zip(*_observable_pairs(ctx))
    for move in moves(spec).values():
        for ta, tb in MOVED_PAIRS[gb]:
            wa, wb = substitute(spec.word(ta), move), substitute(spec.word(tb), move)
            _, _, data = realize_pair(wa, wb, pm, 1)
            for oa, ob in zip(oas, obs):
                comb = bracket_combinatorial(oa, wa, ob, wb, data, m)
                num = bracket_numeric(h, WordFunction(oa, wa), WordFunction(ob, wb), m)
                assert np.all(np.abs(comb - num) <= 1e-12 * np.maximum(1.0, np.abs(num)))


def test_crossing_term_variants_agree():
    # the crossings of C1 D1|D1 at seed 0 cancel in the element: seeds 0-3 of
    # two pairs leave a nonzero class at half of them
    spec = SurfaceSpec(1, 1)
    pm = polygon_model(spec)
    m = random_point(GL2, spec, 2)
    oa, ob = entry_observable(GL2, 0, 1, "re"), entry_observable(GL2, 1, 1, "re")
    classes = 0
    for ta, tb in [("C1 D1", "D1"), ("C1 D1 C1' D1'", "C1 D1")]:
        wa, wb = spec.word(ta), spec.word(tb)
        for seed in range(4):
            _, _, data = realize_pair(wa, wb, pm, seed)
            for key in data.crossings:
                primary = crossing_term(oa, wa, ob, wb, key, m, "primary")
                swapped = crossing_term(oa, wa, ob, wb, key, m, "swapped")
                alternate = crossing_term(oa, wa, ob, wb, key, m, "alternate")
                # all three expressions compute the same pairing B^q
                assert primary == pytest.approx(swapped, abs=1e-10)
                assert primary == pytest.approx(alternate, abs=1e-10)
                classes += 1
    assert classes == 4


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
                                replace(data, crossings={}), m)
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
    sub = bracket_combinatorial(tr, wa, tr, wb, replace(data, crossings={}), m)
    eps = float(sum(s.value for s in data.endpoint_signs.values()))
    pairing = GL2.form(tr.var_left(holonomy(m, wa)), tr.var_left(holonomy(m, wb)))
    assert sub == pytest.approx(eps * pairing, abs=1e-12)


def _skew_per_coefficient(h):
    """Reference form: A = C - C^T by two scalar writes per nonzero of C."""
    a = np.zeros(h.c.shape)
    for i, j in zip(*np.nonzero(h.c)):
        a[i, j] += h.c[i, j]
        a[j, i] -= h.c[i, j]
    return a


@pytest.mark.parametrize("spec", SPECS + [SurfaceSpec(5, 5)])
@pytest.mark.parametrize("n", [2, 4])
def test_skew_matches_per_coefficient_loop(spec, n):
    ctx = AlgebraContext("gl", n)
    for h in _bivectors(spec, ctx):
        for hh in (h, perturbed(h, 0.01)):
            index, a = hh.skew
            assert list(index) == hh.types
            assert np.array_equal(a, _skew_per_coefficient(hh))


# --- the closed form against the fusion fold ------------------------------

CLOSED_FORM_SPECS = [SurfaceSpec(0, 2), SurfaceSpec(1, 1), SurfaceSpec(0, 3),
                     SurfaceSpec(1, 2), SurfaceSpec(2, 1), SurfaceSpec(2, 2),
                     SurfaceSpec(3, 3), SurfaceSpec(5, 5), SurfaceSpec(0, 6),
                     SurfaceSpec(4, 1)]


def _piece(t):
    return ("annulus" if t[0][0] in "ab" else "torus", t[0][1])


@pytest.mark.parametrize("kind", ["gl", "u"])
@pytest.mark.parametrize("spec", CLOSED_FORM_SPECS, ids=str)
def test_closed_form_is_the_fusion_fold(spec, kind):
    ctx = AlgebraContext(kind, 2)
    h = build_bivector(spec, ctx)
    index, a = h.skew
    for fold in (fold_bivector(spec, ctx), right_fold(spec, ctx)):
        assert h.types == fold.types and list(index) == list(fold.skew[0])
        # bit-equal, with no -0.0 where a weight is zero
        assert h.c.tobytes() == fold.c.tobytes() and h.w.tobytes() == fold.w.tobytes()
        assert a.tobytes() == fold.skew[1].tobytes()
        assert perturbed(h, 0.01).c.tobytes() == perturbed(fold, 0.01).c.tobytes()
    assert not np.signbit(h.c[h.c == 0]).any() and not np.signbit(a[a == 0]).any()
    assert h.w.shape == (spec.boundary_count, len(h.types))
    # perturbed scales one entry by 1.01: the fusion coupling of the boundary
    # action's (x, R) fields on the first two pieces, or the double's C[0, 1]
    # on a one-piece surface
    hm = perturbed(h, 0.01)
    changed = [tuple(k) for k in np.argwhere(hm.c != h.c)]
    pieces = {_piece(t) for t in h.types}
    assert changed == [(0, 1) if len(pieces) == 1 else (2, 6)]
    (i, j), = changed
    assert hm.c[i, j] == h.c[i, j] * 1.01
    if len(pieces) > 1:
        assert _piece(h.types[i]) != _piece(h.types[j]) and h.types[i][1] == h.types[j][1] == "R"
        assert h.c[i, j] == -0.5 * h.w[0, i] * h.w[0, j] != 0


TESTS = Path(__file__).parent
SRC = Path(quasipoisson.__file__).parent


def _test_imports(source: str) -> set:
    """The modules of the tests directory, or the directory itself, that a
    module's source imports: by an import statement, or by __import__ or
    import_module of a literal name."""
    ours = {"tests"} | {p.stem for p in TESTS.glob("*.py")}
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
        elif (isinstance(node, ast.Call) and node.args
              and getattr(node.func, "id", getattr(node.func, "attr", None))
              in ("__import__", "import_module")
              and isinstance(node.args[0], ast.Constant)):
            names.append(node.args[0].value)
    return {name for name in names if str(name).split(".")[0] in ours}


def test_closed_form_runs_no_fusion():
    # no program module imports the fusion fold, the polyline reference or
    # anything else of the tests, so the closed form cannot fold; it equals
    # the fold byte for byte
    assert _test_imports("import fusion_ref") == {"fusion_ref"}
    assert _test_imports("from tests.diagram_ref import x") == {"tests.diagram_ref"}
    assert _test_imports("importlib.import_module('diagram_ref')") == {"diagram_ref"}
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    for path in modules:
        assert _test_imports(path.read_text()) == set(), path.name
    spec = SurfaceSpec(2, 2)
    h = build_bivector(spec, GL2)
    assert h.skew[1].tobytes() == fold_bivector(spec, GL2).skew[1].tobytes()


def _reads_endpoint_signs(source: str) -> bool:
    """Does the source read an endpoint_signs attribute, by name or by a
    getattr of a literal name?"""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "endpoint_signs":
            return True
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
                and any(isinstance(a, ast.Constant) and a.value == "endpoint_signs"
                        for a in node.args)):
            return True
    return False


def test_only_diagrams_and_cross_section_read_endpoint_signs():
    # the formula's shape stays in one module: the other routes read the
    # element E of diagrams.double_bracket, and only the cross-section dresses
    # the endpoint terms itself
    assert _reads_endpoint_signs("s = data.endpoint_signs[k]")
    assert _reads_endpoint_signs("s = getattr(data, 'endpoint_signs')")
    assert not _reads_endpoint_signs("endpoint_signs = {}")
    readers = {path.stem for path in SRC.glob("*.py") if _reads_endpoint_signs(path.read_text())}
    assert readers == {"diagrams", "cross_section"}


def _unpacks_lie_tables(source: str) -> bool:
    """Does the source pass an .e or .f attribute to np.asarray or np.array,
    or read a .pair or .coeffs attribute?"""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("pair", "coeffs"):
            return True
        if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("asarray", "array")
                and any(isinstance(a, ast.Attribute) and a.attr in ("e", "f")
                        for a in node.args)):
            return True
    return False


def test_the_lie_tables_stay_arrays():
    # dual_basis hands out two stacks and cartan_trivector its coefficient
    # array: no program module re-stacks a basis or reaches through a wrapper
    assert _unpacks_lie_tables("e = np.asarray(dual_basis(ctx).e)")
    assert _unpacks_lie_tables("f = np.array(pair.f, dtype=float)")
    assert _unpacks_lie_tables("d = tv.pair.dim")
    assert _unpacks_lie_tables("w = tv.coeffs")
    assert not _unpacks_lie_tables("e, f = pair.e, np.asarray(x)")
    assert not _unpacks_lie_tables("pair, coeffs = dual_basis(ctx), cartan_trivector(ctx)")
    readers = {path.stem for path in SRC.glob("*.py") if _unpacks_lie_tables(path.read_text())}
    assert readers == set()


def test_fold_reads_no_closed_form_table(monkeypatch):
    # the fold stays the definition: without the closed form's tables it
    # still gives the closed form's C
    want = [build_bivector(spec, GL2).c.tobytes() for spec in CLOSED_FORM_SPECS]
    for name in ("_BLOCKS", "_PIECES", "_DOUBLE", "_ACTS"):
        monkeypatch.setattr(quasipoisson, name, None)
    assert [fold_bivector(spec, GL2).c.tobytes() for spec in CLOSED_FORM_SPECS] == want
    with pytest.raises(TypeError):
        build_bivector(SurfaceSpec(1, 2), GL2)


def test_coefficients_are_read_only():
    h = build_bivector(SurfaceSpec(1, 2), GL2)
    with pytest.raises(ValueError):
        h.c[0, 1] = 5.0
    with pytest.raises(ValueError):
        h.w[0, 2] = 5.0
    fold = fold_bivector(SurfaceSpec(1, 2), GL2)
    assert not fold.c.flags.writeable and not fold.w.flags.writeable
    assert not perturbed(h, 0.01).w.flags.writeable


def test_perturbed_is_a_new_structure_with_another_pairing():
    spec = SurfaceSpec(1, 2)
    h = build_bivector(spec, GL2)
    m = random_point(GL2, spec, 3)
    f = WordFunction(entry_observable(GL2, 0, 1, "re"), spec.word("A2"))
    g = WordFunction(entry_observable(GL2, 1, 0, "re"), spec.word("C1"))
    before = bracket_numeric(h, f, g, m)
    hm = perturbed(h, 0.01)
    assert hm is not h and not hm.c.flags.writeable
    assert abs(bracket_numeric(hm, f, g, m) - before) > 1e-6
    assert bracket_numeric(h, f, g, m) == before


def _cross_term_scaled(scale):
    """The coupling of pieces i < j scaled: -1/2 w_i w_j^T becomes
    -scale/2 w_i w_j^T."""
    def mutant(monkeypatch):
        blocks = quasipoisson._BLOCKS.copy()
        blocks[-1] *= scale
        monkeypatch.setattr(quasipoisson, "_BLOCKS", blocks)
    return mutant


def _pieces_reversed(monkeypatch):
    real = quasipoisson.split_canonical
    monkeypatch.setattr(quasipoisson, "split_canonical", lambda spec: real(spec)[::-1])


def _torus_fusion_dropped(monkeypatch):
    (double, acts), (_, fused) = quasipoisson._PIECES
    monkeypatch.setattr(quasipoisson, "_BLOCKS",
                        quasipoisson._blocks(((double, acts), (double, fused))))


# mutant -> the suites it must fail
CLOSED_FORM_MUTANTS = {
    "cross term +1/2": (_cross_term_scaled(-1.0),
                        ("moment", "main-theorem", "goldman", "splitting")),
    "cross term -1/4": (_cross_term_scaled(0.5),
                        ("moment", "main-theorem", "goldman", "splitting")),
    "pieces reversed": (_pieces_reversed, ("moment", "main-theorem", "goldman", "splitting")),
    "torus fusion dropped": (_torus_fusion_dropped,
                             ("moment", "main-theorem", "goldman", "qp-identity", "splitting")),
}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("mutant,suite", [(mutant, suite) for mutant in sorted(CLOSED_FORM_MUTANTS)
                                          for suite in CLOSED_FORM_MUTANTS[mutant][1]])
def test_suites_fail_under_closed_form_mutant(mutant, suite, n, monkeypatch):
    assert all(r["pass"] for r in run_suite(suite, n))
    CLOSED_FORM_MUTANTS[mutant][0](monkeypatch)
    assert not all(r["pass"] for r in run_suite(suite, n))


@pytest.mark.parametrize("n", [2, 3])
def test_splitting_rows_compare_no_zeros(n):
    # every row brackets two non-Casimir functions, so a mutant that moves
    # the bracket cannot pass by comparing 0 with 0
    rows = run_suite("splitting", n)
    assert len(rows) == 20 and all(r["pass"] for r in rows)
    assert all(abs(float(r["rhs"])) > 1e-4 for r in rows)
    assert all(float(r["residual"]) <= 1e-14 for r in rows)


# --- gradients as one array over the field types --------------------------

def _dict_gradients(h, f, m):
    """The gradients keyed by field type, as WordFunction.gradients first
    returned them: the rows of the field types on the word's slots."""
    slots = {s for s, _ in f.slots}
    return {t: row for t, row in zip(h.types, f.gradients(h, m)) if t[0] in slots}


def _chi_reference(h, df, p):
    """chi_f at action slot p as first written: a loop over the nonzeros of
    W[p] in field-type order, over dict gradients."""
    out = np.zeros((h.ctx.n, h.ctx.n), dtype=h.ctx.dtype)
    for t, wt in zip(h.types, h.w[p].tolist()):
        if wt and t in df:
            out = out - wt * df[t]
    return out


def _pair_reference(h, df, dg):
    """pair_gradients as first written: the sub-matrix of A on the field
    types the two dict gradients reach, contracted with their stacked rows."""
    index, a = h.skew
    if not (df and dg):
        return 0.0
    sub = a[np.ix_([index[t] for t in df], [index[t] for t in dg])]
    gf, gg = np.array(list(df.values())), np.array(list(dg.values()))
    return h.ctx.form_sign * np.einsum("ab,a...ij,b...ji->...", sub, gf, gg).real


@pytest.mark.parametrize("kind", ["gl", "u"])
@pytest.mark.parametrize("spec", CLOSED_FORM_SPECS, ids=str)
def test_gradient_array_matches_dict_references(spec, kind):
    ctx = AlgebraContext(kind, 2)
    h = build_bivector(spec, ctx)
    rng = random.Random(20130125 + spec.genus * 10 + spec.boundary_count)
    words = [_walk(rng, spec.genus, spec.boundary_count, 1, 6) for _ in range(2)]
    f = WordFunction(entry_observable(ctx, 0, 1, "re"), words[0])
    g = WordFunction(entry_observable(ctx, 1, 0, "re"), words[1])
    for m in (random_point(ctx, spec, 4), random_points(ctx, spec, range(5))):
        for fn in (f, g):
            slots = {s for s, _ in fn.slots}
            grads = fn.gradients(h, m)
            assert grads.shape == (len(h.types),) + holonomy(m, fn.word).shape
            for t, row in zip(h.types, grads):
                assert t[0] in slots or not row.any(), t
            got, df = chi(h, grads), _dict_gradients(h, fn, m)
            assert got.shape == (len(h.w),) + grads.shape[1:]
            for p in range(len(h.w)):
                assert _rel_close(got[p], _chi_reference(h, df, p), 1e-15)
        df, dg = _dict_gradients(h, f, m), _dict_gradients(h, g, m)
        for u, v, du, dv in ((f, g, df, dg), (g, f, dg, df), (f, f, df, df)):
            # relative to the size of the summands: {f, f} = 0 is a sum of O(1) terms
            scale = np.einsum("ab,a...ij,b...ji->...", np.abs(h.skew[1]),
                              np.abs(u.gradients(h, m)), np.abs(v.gradients(h, m)))
            err = np.abs(bracket_numeric(h, u, v, m) - _pair_reference(h, du, dv))
            assert np.all(err <= 1e-15 * np.maximum(scale, 1.0))


@pytest.mark.parametrize("kind", ["gl", "u"])
def test_constant_word_brackets_to_zero(kind):
    # B2 B2' reaches no slot: all its gradient rows are zero, and the one
    # contraction gives zero with any word, itself included, one value per
    # point of a stack
    ctx = AlgebraContext(kind, 2)
    spec = SurfaceSpec(0, 2)
    h = build_bivector(spec, ctx)
    obs = entry_observable(ctx, 0, 1, "re")
    const = WordFunction(obs, spec.word("B2 B2'"))
    assert const.slots == ()
    for m, shape in ((random_point(ctx, spec, 3), ()),
                     (random_points(ctx, spec, range(5)), (5,))):
        # the gradients and chi of the constant word have the point's shape
        assert const.gradients(h, m).shape == (len(h.types),) + shape + (2, 2)
        assert chi(h, const.gradients(h, m)).shape == (len(h.w),) + shape + (2, 2)
        assert not const.gradients(h, m).any()
        assert not chi(h, const.gradients(h, m)).any()
        for text in ("A2", "B2", "A2 B2 A2'", "B2 B2'"):
            other = WordFunction(obs, spec.word(text))
            want = np.zeros(shape)
            for u, v in ((const, other), (other, const)):
                assert np.array_equal(bracket_numeric(h, u, v, m), want)


def _main_theorem_per_observable(n):
    """The main-theorem rows with each observable pair evaluated on its own
    and each surface drawn on its own: the suite's loop before the pairs
    were stacked."""
    from surface_qp.io import fixture_rows
    ctx = AlgebraContext("gl", n)
    out = []
    for spec in suites.FIXTURE_SURFACES:
        pm, h = polygon_model(spec), build_bivector(spec, ctx)
        m = random_points(ctx, spec, range(20))
        for wa_s, wb_s in WORD_PAIRS[(spec.genus, spec.boundary_count)]:
            wa, wb = spec.word(wa_s), spec.word(wb_s)
            _, _, data = realize_pair(wa, wb, pm, 1)
            for label, oa, ob in _observable_pairs(ctx):
                comb = bracket_combinatorial(oa, wa, ob, wb, data, m)
                num = bracket_numeric(h, WordFunction(oa, wa), WordFunction(ob, wb), m)
                out += fixture_rows(["main-theorem %s %s|%s %s seed=%d" % (
                    spec, wa_s, wb_s, label, seed) for seed in range(20)], comb, num, 1e-8)
    return out


@pytest.mark.parametrize("n", [2, 3])
def test_main_theorem_stacked_observables_give_the_per_observable_rows(n):
    assert run_suite("main-theorem", n) == _main_theorem_per_observable(n)


def _exact_entry_bracket(m, wa, ij, wb, kl, data):
    """The main formula for the entry observables ij of wa and kl of wb
    (0-based) at an exact GL(2) point, in rationals: each crossing class
    (ab, ba) as tr(E_ji Hol(ab) E_lk Hol(ba)), which forms no inverse of a
    holonomy, and each endpoint term as the trace of two variations."""
    d, nums = m.exact
    mats = {s: np.array([[Fraction(x, d) for x in row] for row in rows], dtype=object)
            for s, rows in nums.items()}
    inv = {s: np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]])
           / (a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]) for s, a in mats.items()}

    @functools.lru_cache(maxsize=None)
    def hol(letters):   # through the prefixes, which the words here share
        if not letters:
            return np.array([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]])
        sym, sgn = letters[-1]
        return hol(letters[:-1]) @ (mats[sym] if sgn == 1 else inv[sym])

    def unit(i, j):   # E_ji, the M of entry (i, j)
        out = np.zeros((2, 2), dtype=object)
        out[j, i] = 1
        return out
    ma, mb, ha, hb = unit(*ij), unit(*kl), hol(wa.letters), hol(wb.letters)
    va, vb = {"start": ha @ ma, "end": ma @ ha}, {"start": hb @ mb, "end": mb @ hb}
    tot = sum(s.value * np.trace(va[I] @ vb[J]) for (I, J), s in data.endpoint_signs.items())
    for (ab, ba), coeff in data.crossings.items():
        tot += coeff * np.trace(ma @ hol(ab.letters) @ mb @ hol(ba.letters))
    return tot


@pytest.mark.parametrize("beta,k", [("D1 C1 D1'", 40), ("D1", 30)])
def test_exact_entry_bracket_is_the_normal_form(beta, k):
    spec = SurfaceSpec(1, 1)
    m = random_point(GL2, spec, 0)
    wa, wb = spec.word(" ".join(["C1"] * k)), spec.word(beta)
    _, _, data = realize_pair(wa, wb, polygon_model(spec), 0)
    assert data.crossings or beta != "D1"
    nf = bracket_symbolic(PathEntrySymbol(wa, 1, 1), PathEntrySymbol(wb, 1, 2), data, 2)
    # evaluate rounds the exact value once, as float of a Fraction does
    assert nf.evaluate(m) == float(_exact_entry_bracket(m, wa, (0, 0), wb, (0, 1), data))


@pytest.mark.parametrize("beta,k", [("D1 C1 D1'", 40), ("D1 C1 D1'", 60), ("D1 C1 D1'", 100),
                                    ("D1", 80), ("D1", 100)])
def test_bivector_route_on_long_words_matches_the_exact_value(beta, k):
    # entry (1,1) of C1^k against entry (1,2) of beta on Sigma_1,1 at seed 0:
    # the gradients conjugate by no inverse of a long holonomy, so they keep
    # their digits (conjugating var_left(Hol) by the inverse suffix chain was
    # 2.6e-10 off at D1 C1 D1', k = 40, and 68 % off at k = 100).  Nor does
    # the crossing term of the combinatorial route (Ad by the inverse of the
    # reroute holonomy was 4.7e-9 off at D1, k = 80, and 3.8e-5 at k = 100).
    # The exact value is the normal form; for beta = D1, whose 79-99 crossing
    # classes take the normal form 10-23 s, the rational main formula above
    spec = SurfaceSpec(1, 1)
    m = random_point(GL2, spec, 0)
    wa, wb = spec.word(" ".join(["C1"] * k)), spec.word(beta)
    _, _, data = realize_pair(wa, wb, polygon_model(spec), 0)
    if data.crossings:
        exact = _exact_entry_bracket(m, wa, (0, 0), wb, (0, 1), data)
    else:
        exact = bracket_symbolic(PathEntrySymbol(wa, 1, 1), PathEntrySymbol(wb, 1, 2),
                                 data, 2).evaluate(m)
    oa, ob = entry_observable(GL2, 0, 0), entry_observable(GL2, 0, 1)
    num = bracket_numeric(build_bivector(spec, GL2), WordFunction(oa, wa),
                          WordFunction(ob, wb), m)
    comb = bracket_combinatorial(oa, wa, ob, wb, data, m)
    assert abs(exact) > 100
    for value in (num, comb):
        assert abs(value - float(exact)) <= 1e-13 * abs(float(exact))
