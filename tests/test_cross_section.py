import numpy as np
import pytest

from surface_qp import cross_section as cx
from surface_qp.cross_section import (RegularityError, _cayley_coef, _offdiag_kernel,
                                      _theta_kernel, bracket_cross, bracket_cross_numeric,
                                      perp_correction, proj_offdiag,
                                      project_to_cross_section, theta_matrix)
from surface_qp.lie import (AlgebraContext, dual_basis, entry_observable,
                            trace_observable)
from surface_qp.quasipoisson import WordFunction, bracket_numeric, build_bivector, chi
from surface_qp.repspace import RepPoint, boundary_moment, holonomy, random_point
from surface_qp.suites import WORD_PAIRS, run_suite
from surface_qp.surfaces import SurfaceSpec, polygon_model
from surface_qp.diagrams import realize_pair
from conftest import random_points
from formula_ref import bracket_endpoint_loop, theta_pair

U2 = AlgebraContext("u", 2)
U3 = AlgebraContext("u", 3)


def theta_apply(h, x, transpose=False):
    """Reference Theta_h x for h diagonal and regular, or a stack of them, by
    the checked kernel of h; transpose uses Ad_h^{-1}."""
    return _theta_kernel(h, transpose) * x


def ad_cayley_apply(h, x):
    """Reference (Ad_h + 1)/(Ad_h - 1) x on the off-diagonal part (diagonal
    part zeroed), by the checked kernel of h."""
    return _offdiag_kernel(h, _cayley_coef) * proj_offdiag(x)


def _diag_unitary(ctx, seed, min_gap=0.3):
    rng = np.random.default_rng(seed)
    while True:
        phases = np.sort(rng.uniform(0, 2 * np.pi, ctx.n))
        gaps = np.diff(np.concatenate([phases, [phases[0] + 2 * np.pi]]))
        if np.min(gaps) > min_gap:
            return np.diag(np.exp(1j * phases))


def _random_skew(ctx, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, (ctx.n, ctx.n)) + 1j * rng.uniform(-1, 1, (ctx.n, ctx.n))
    return (a - a.conj().T) / 2.0


@pytest.mark.parametrize("ctx", [U2, U3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_theta_plus_transpose_is_two(ctx, seed):
    h = _diag_unitary(ctx, seed)
    t = theta_matrix(ctx, h)
    tt = theta_matrix(ctx, h, transpose=True)
    assert np.max(np.abs(t + tt - 2 * np.eye(t.shape[0]))) < 1e-12
    assert np.max(np.abs(t.T - tt)) < 1e-12


def _theta_matrix_reference(ctx, h, transpose=False):
    """Theta_h applied to one basis element at a time, each image paired
    with every basis element."""
    basis = dual_basis(ctx).e
    cols = [theta_apply(h, ek, transpose) for ek in basis]
    return np.array([[ctx.form(el, y) for y in cols] for el in basis])


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("transpose", [False, True])
def test_theta_matrix_matches_per_basis_loop(n, transpose):
    ctx = AlgebraContext("u", n)
    for seed in range(3):
        h = _diag_unitary(ctx, seed, min_gap=0.2)
        want = _theta_matrix_reference(ctx, h, transpose)
        got = theta_matrix(ctx, h, transpose)
        assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("ctx", [U2, U3])
def test_theta_apply_matches_matrix(ctx):
    h = _diag_unitary(ctx, 5)
    pair_dim = ctx.n * ctx.n
    x = _random_skew(ctx, 7)
    basis = dual_basis(ctx)
    coeffs = np.array([ctx.form(x, f) for f in basis.f])
    t = theta_matrix(ctx, h)
    applied = theta_apply(h, x)
    rebuilt = sum(c * e for c, e in zip(t @ coeffs, basis.e))
    assert np.max(np.abs(applied - rebuilt)) < 1e-12


def test_theta_entrywise_factor_n2():
    # off-diagonal action is multiplication by 2 / (1 - lambda_a / lambda_b)
    h = np.diag(np.exp(1j * np.array([0.3, 1.9])))
    x = _random_skew(U2, 3)
    y = theta_apply(h, x)
    r = h[0, 0] / h[1, 1]
    assert y[0, 1] == pytest.approx(2.0 / (1.0 - r) * x[0, 1], abs=1e-13)
    assert y[1, 0] == pytest.approx(2.0 / (1.0 - 1.0 / r) * x[1, 0], abs=1e-13)
    # diagonal entries pass through with factor 1
    assert y[0, 0] == pytest.approx(x[0, 0], abs=1e-13)


def test_theta_cotangent_half_angle():
    # for n = 2 the skew part of the off-diagonal factor is cot(phi/2) where
    # phi is the phase gap; at phi = pi the factor 2/(1-r) reduces to 1
    phi = np.pi
    h = np.diag([1.0, np.exp(1j * phi)])
    x = _random_skew(U2, 11)
    y = theta_apply(h, x)
    assert y[0, 1] == pytest.approx(x[0, 1], abs=1e-13)


def test_ad_cayley_entrywise_factor():
    h = np.diag(np.exp(1j * np.array([0.5, 2.2])))
    x = _random_skew(U2, 13)
    y = ad_cayley_apply(h, x)
    r = h[0, 0] / h[1, 1]
    assert y[0, 1] == pytest.approx((r + 1) / (r - 1) * x[0, 1], abs=1e-13)
    assert y[0, 0] == pytest.approx(0.0, abs=1e-13)
    assert y[1, 1] == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize("ctx", [U2, U3])
def test_p_perp_form_is_skew(ctx):
    # the form (x, y) -> -1/2 <((Ad_h+1)/(Ad_h-1)) x, y> that perp_correction
    # pairs with, on the off-diagonal part of the orthonormal basis
    h = _diag_unitary(ctx, 17)
    perp = [e for e in dual_basis(ctx).e if np.max(np.abs(np.diag(e))) < 1e-14]
    f = np.array([[-0.5 * ctx.form(ad_cayley_apply(h, xa), xb) for xb in perp]
                  for xa in perp])
    assert np.max(np.abs(f)) > 1e-3
    assert np.max(np.abs(f + f.T)) < 1e-12


def test_ad_cayley_rejects_degenerate_spectrum():
    h = np.diag([1.0 + 0j, 1.0 + 0j])
    x = _random_skew(U2, 19)
    with pytest.raises(RegularityError):
        ad_cayley_apply(h, x)


@pytest.mark.parametrize("spec", [SurfaceSpec(0, 2), SurfaceSpec(1, 1)])
@pytest.mark.parametrize("seed", [0, 4, 9])
def test_projection_diagonalizes_moments(spec, seed):
    m = random_point(U2, spec, seed)
    cs = project_to_cross_section(m)
    for i in range(1, spec.boundary_count + 1):
        mu = boundary_moment(cs.m, i)
        assert np.max(np.abs(proj_offdiag(mu))) < 1e-8
        assert np.max(np.abs(mu - cs.mus[i - 1])) < 1e-8
        assert cs.gaps[i - 1] > 0


def test_projection_requires_compact_context():
    m = random_point(AlgebraContext("gl", 2), SurfaceSpec(0, 2), 0)
    with pytest.raises(ValueError):
        project_to_cross_section(m)


def test_projection_idempotent_up_to_torus():
    # projecting a projected point changes moments only by reordering-free
    # diagonal conjugation, so the diagonal moments agree
    m = random_point(U2, SurfaceSpec(1, 1), 3)
    cs = project_to_cross_section(m)
    cs2 = project_to_cross_section(cs.m)
    for a, b in zip(cs.mus, cs2.mus):
        assert np.max(np.abs(a - b)) < 1e-8


@pytest.mark.parametrize("spec,ta,tb", [
    (SurfaceSpec(0, 2), "A2 B2", "B2 B2"),
    (SurfaceSpec(1, 1), "C1 D1", "D1"),
])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_two_restriction_routes_agree(spec, ta, tb, seed):
    pm = polygon_model(spec)
    h = build_bivector(spec, U2)
    m = random_point(U2, spec, seed)
    cs = project_to_cross_section(m)
    wa, wb = spec.word(ta), spec.word(tb)
    oa = entry_observable(U2, 0, 1, "re")
    ob = trace_observable(U2)
    _, _, data = realize_pair(wa, wb, pm, seed)
    lhs = bracket_cross(oa, wa, ob, wb, data, cs)
    rhs = bracket_cross_numeric(h, WordFunction(oa, wa), WordFunction(ob, wb), cs)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_restricted_bracket_differs_from_ambient():
    # the perpendicular correction is generically nonzero
    spec = SurfaceSpec(1, 1)
    h = build_bivector(spec, U2)
    m = random_point(U2, spec, 6)
    cs = project_to_cross_section(m)
    f = WordFunction(entry_observable(U2, 0, 1, "re"), spec.word("C1"))
    g = WordFunction(entry_observable(U2, 0, 1, "im"), spec.word("D1"))
    amb = bracket_numeric(h, f, g, cs.m)
    res = bracket_cross_numeric(h, f, g, cs)
    assert abs(amb - res) > 1e-6


def test_no_shared_point_reduces_to_crossings_only():
    # arcs into different boundary components share only the start point;
    # invariant observables kill the endpoint and theta terms there
    spec = SurfaceSpec(0, 3)
    pm = polygon_model(spec)
    h = build_bivector(spec, U2)
    m = random_point(U2, spec, 2)
    cs = project_to_cross_section(m)
    wa, wb = spec.word("A2 B2 A2'"), spec.word("A3 B3 A3'")
    tr = trace_observable(U2)
    _, _, data = realize_pair(wa, wb, pm, 0)
    lhs = bracket_cross(tr, wa, tr, wb, data, cs)
    rhs = bracket_cross_numeric(h, WordFunction(tr, wa), WordFunction(tr, wb), cs)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_torus_action_preserves_restricted_bracket():
    # conjugating every coordinate slot by the same diagonal torus element
    # fixes the diagonal moments and the restricted bracket of invariant pairs
    spec = SurfaceSpec(1, 1)
    h = build_bivector(spec, U2)
    m = random_point(U2, spec, 8)
    cs = project_to_cross_section(m)
    t = np.diag(np.exp(1j * np.array([0.37, -0.81])))
    from surface_qp.repspace import act
    m2 = act(cs.m, [t] * spec.boundary_count)
    cs2 = project_to_cross_section(m2)
    f = WordFunction(trace_observable(U2), spec.word("C1 D1"))
    g = WordFunction(trace_observable(U2), spec.word("D1"))
    a = bracket_cross_numeric(h, f, g, cs)
    b = bracket_cross_numeric(h, f, g, cs2)
    assert a == pytest.approx(b, abs=1e-8)


def _close(got, want):
    """Stacked against per-point values, relative to max(1, |v|)."""
    want = np.asarray(want)
    return np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)), initial=0.0) <= 1e-14


@pytest.mark.parametrize("ctx", [U2, U3], ids=["u2", "u3"])
@pytest.mark.parametrize("gb", sorted(WORD_PAIRS), ids=lambda gb: "g%db%d" % gb)
def test_stacked_cross_section_equals_per_point(ctx, gb):
    spec = SurfaceSpec(*gb)
    pm = polygon_model(spec)
    h = build_bivector(spec, ctx)
    seeds = range(4)
    cs = project_to_cross_section(random_points(ctx, spec, seeds))
    single = [project_to_cross_section(random_point(ctx, spec, seed)) for seed in seeds]
    for i in range(spec.boundary_count):
        assert _close(cs.mus[i], [c.mus[i] for c in single])
        assert _close(cs.gaps[i], [c.gaps[i] for c in single])
        for transpose in (False, True):
            assert _close(theta_matrix(ctx, cs.mus[i], transpose),
                          [theta_matrix(ctx, c.mus[i], transpose) for c in single])
    tr, ea, eb = (trace_observable(ctx), entry_observable(ctx, 0, 1, "re"),
                  entry_observable(ctx, 1, 0, "re"))
    for ta, tb in WORD_PAIRS[gb]:
        wa, wb = spec.word(ta), spec.word(tb)
        _, _, data = realize_pair(wa, wb, pm, 1)
        for oa, ob in ((tr, eb), (ea, eb)):   # trace|entry and entry|entry
            f, g = WordFunction(oa, wa), WordFunction(ob, wb)
            df, dg = f.gradients(h, cs.m), g.gradients(h, cs.m)
            assert _close(perp_correction(h, df, dg, cs),
                          [perp_correction(h, f.gradients(h, c.m), g.gradients(h, c.m), c)
                           for c in single])
            assert _close(bracket_cross(oa, wa, ob, wb, data, cs),
                          [bracket_cross(oa, wa, ob, wb, data, c) for c in single])
            assert _close(bracket_cross_numeric(h, f, g, cs),
                          [bracket_cross_numeric(h, f, g, c) for c in single])


@pytest.mark.parametrize("ctx", [U2, U3], ids=["u2", "u3"])
@pytest.mark.parametrize("gb", sorted(WORD_PAIRS), ids=lambda gb: "g%db%d" % gb)
def test_cross_bracket_is_the_theta_dressed_endpoint_loop(ctx, gb):
    # the crossings through the main formula's loop and the Theta-dressed
    # endpoint terms give what a Theta-dressed variation per endpoint gives
    spec = SurfaceSpec(*gb)
    pm = polygon_model(spec)
    cs = project_to_cross_section(random_points(ctx, spec, range(4)))
    tr, ea, eb = (trace_observable(ctx), entry_observable(ctx, 0, 1, "re"),
                  entry_observable(ctx, 1, 0, "im"))
    for ta, tb in WORD_PAIRS[gb]:
        wa, wb = spec.word(ta), spec.word(tb)
        _, _, data = realize_pair(wa, wb, pm, 1)
        for oa, ob in ((tr, tr), (tr, eb), (ea, eb)):
            assert _close(bracket_cross(oa, wa, ob, wb, data, cs),
                          bracket_endpoint_loop(oa, wa, ob, wb, data, cs.m, theta_pair(cs)))


def test_stack_with_one_irregular_moment_names_its_index():
    # a repeated phase at one point of a stack: the kernel of Theta and the
    # projection both name that point
    hs = np.array([_diag_unitary(U3, seed) for seed in range(5)])
    hs[2] = np.diag(np.exp(1j * np.array([0.4, 0.4, 2.0])))
    with pytest.raises(RegularityError, match="at stack index 2"):
        _offdiag_kernel(hs, lambda r: r)
    with pytest.raises(RegularityError, match="at stack index 2"):
        theta_matrix(U3, hs)
    m = random_points(U2, SurfaceSpec(1, 1), range(5))
    mats = dict(m.mats)
    mats["C1"] = mats["C1"].copy()
    mats["C1"][3] = np.eye(2)   # the moment C1 D1 C1^-1 D1^-1 is then 1
    with pytest.raises(RegularityError, match="at stack index 3"):
        project_to_cross_section(RepPoint(U2, m.spec, mats))


def test_cross_section_suite_makes_one_stacked_call_per_surface(monkeypatch):
    # the Theta identity takes one theta_matrix pair per n and the routes one
    # projection per surface, over all seeds at once
    calls = {"project_to_cross_section": 0, "theta_matrix": 0}
    for name in calls:
        def counted(*args, _fn=getattr(cx, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cx, name, counted)
    fixtures = run_suite("cross-section")
    assert all(fx["pass"] for fx in fixtures) and len(fixtures) == 22
    assert calls == {"project_to_cross_section": 2, "theta_matrix": 4}


@pytest.mark.parametrize("gb,index", [((0, 3), 4), ((1, 2), 1)], ids=["g0b3", "g1b2"])
def test_irregular_moment_at_boundary_2_names_it_and_its_stack_index(gb, index):
    # B2 = 1 makes mu_2 = B2^-1 the identity at one point; the moments are
    # stacked on a leading axis, which the message must not take for the
    # stack axis
    spec = SurfaceSpec(*gb)
    m = random_points(U2, spec, range(6))
    mats = dict(m.mats)
    mats["B2"] = mats["B2"].copy()
    mats["B2"][index] = np.eye(2)
    with pytest.raises(RegularityError, match="^mu_2: moment spectrum gap below "
                       "tolerance at stack index %d$" % index):
        project_to_cross_section(RepPoint(U2, spec, mats))
    one = {sym: mat[index] for sym, mat in mats.items()}
    with pytest.raises(RegularityError, match="^mu_2: moment spectrum gap below tolerance$"):
        project_to_cross_section(RepPoint(U2, spec, one))


def test_projection_makes_one_diagonalizer_call(monkeypatch):
    # the b moments go through one eig, one gap check and one action
    shapes = []

    def counted(mu, names, _fn=cx._diagonalizer):
        shapes.append(mu.shape)
        return _fn(mu, names)
    monkeypatch.setattr(cx, "_diagonalizer", counted)
    spec = SurfaceSpec(1, 2)
    project_to_cross_section(random_points(U3, spec, range(5)))
    project_to_cross_section(random_point(U3, spec, 0))
    assert shapes == [(2, 5, 3, 3), (2, 3, 3)]


@pytest.mark.parametrize("gb", sorted(WORD_PAIRS), ids=lambda gb: "g%db%d" % gb)
def test_stacked_kernels_match_per_boundary_calls(gb):
    # the Theta kernels of a CrossSectionPoint and the one-kernel P-perp
    # correction give the bits of theta_apply and of a sum over boundaries
    spec = SurfaceSpec(*gb)
    h = build_bivector(spec, U3)
    x = _random_skew(U3, 1)
    wa, wb = (spec.word(t) for t in WORD_PAIRS[gb][-1])
    f = WordFunction(entry_observable(U3, 0, 1, "re"), wa)
    g = WordFunction(entry_observable(U3, 1, 2, "re"), wb)
    for m in (random_point(U3, spec, 2), random_points(U3, spec, range(4))):
        cs = project_to_cross_section(m)
        for i, mu in enumerate(cs.mus):
            assert np.array_equal(cs.theta[i] * x, theta_apply(mu, x))
        df, dg = f.gradients(h, cs.m), g.gradients(h, cs.m)
        want = sum(0.5 * U3.form(ad_cayley_apply(mu, chi(h, df)[p]), chi(h, dg)[p])
                   for p, mu in enumerate(cs.mus))
        assert np.array_equal(perp_correction(h, df, dg, cs), want)


@pytest.mark.parametrize("stacked", [False, True], ids=["point", "stack"])
def test_cross_section_route_with_a_constant_word(stacked):
    # B2 B2' (trace) against A2 B2 (entry 1,2) on Sigma_0,2: the constant
    # word's moment variations have the stack's shape, so P-perp pairs them
    # point by point and every bracket is zero
    spec = SurfaceSpec(0, 2)
    h = build_bivector(spec, U2)
    const = WordFunction(trace_observable(U2), spec.word("B2 B2'"))
    other = WordFunction(entry_observable(U2, 0, 1, "re"), spec.word("A2 B2"))
    seeds = range(3)
    m = random_points(U2, spec, seeds) if stacked else random_point(U2, spec, 0)
    cs = project_to_cross_section(m)
    single = ([project_to_cross_section(random_point(U2, spec, seed)) for seed in seeds]
              if stacked else [cs])
    for f, g in ((const, other), (other, const)):
        got = bracket_cross_numeric(h, f, g, cs)
        want = [bracket_cross_numeric(h, f, g, c) for c in single]
        assert np.shape(got) == ((3,) if stacked else ())
        assert np.array_equal(got, np.reshape(want, np.shape(got)))
        assert not np.any(got)
