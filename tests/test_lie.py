import itertools

import numpy as np
import pytest
from scipy.linalg import expm

from surface_qp.lie import (AlgebraContext, cartan_trivector, dual_basis,
                            entry_observable, generic_observable,
                            power_trace_observable, trace_observable,
                            transform_inverse, transform_translate,
                            trivector_reference_tensor)

CTXS = [AlgebraContext("gl", 2), AlgebraContext("gl", 3), AlgebraContext("u", 2)]


def _random_group(ctx, seed):
    rng = np.random.default_rng(seed)
    if ctx.kind == "gl":
        return np.eye(ctx.n) + 0.3 * rng.uniform(-1, 1, (ctx.n, ctx.n))
    a = rng.uniform(-1, 1, (ctx.n, ctx.n)) + 1j * rng.uniform(-1, 1, (ctx.n, ctx.n))
    return expm((a - a.conj().T) / 4.0)


def _random_alg(ctx, seed):
    rng = np.random.default_rng(seed)
    m = rng.uniform(-1, 1, (ctx.n, ctx.n))
    if ctx.kind == "gl":
        return m
    m = m + 1j * rng.uniform(-1, 1, (ctx.n, ctx.n))
    return (m - m.conj().T) / 2.0


@pytest.mark.parametrize("ctx", CTXS)
def test_dual_basis_gram_is_identity(ctx):
    pair = dual_basis(ctx)
    assert np.max(np.abs(pair.gram(ctx) - np.eye(pair.dim))) < 1e-12


@pytest.mark.parametrize("ctx", CTXS)
def test_dual_basis_reproduces_coefficients(ctx):
    pair = dual_basis(ctx)
    x = _random_alg(ctx, 5)
    rebuilt = sum(ctx.form(x, f) * e for e, f in zip(pair.e, pair.f))
    assert np.max(np.abs(rebuilt - x)) < 1e-12


@pytest.mark.parametrize("ctx", CTXS)
@pytest.mark.parametrize("obs_name", ["entry", "trace", "pow2"])
def test_variations_match_finite_differences(ctx, obs_name):
    if obs_name == "entry":
        obs = entry_observable(ctx, 0, 1, "re")
    elif obs_name == "trace":
        obs = trace_observable(ctx)
    else:
        obs = power_trace_observable(ctx, 2)
    g = _random_group(ctx, 3)
    fd = generic_observable(ctx, obs.value)
    assert np.max(np.abs(obs.var_left(g) - fd.var_left(g))) < 1e-8
    assert np.max(np.abs(obs.var_right(g) - fd.var_right(g))) < 1e-8


@pytest.mark.parametrize("ctx", CTXS[:2])
def test_var_right_is_ad_of_var_left(ctx):
    # for gl the gradient needs no projection, so conjugation intertwines
    # the two variations directly
    obs = entry_observable(ctx, 0, 0, "re")
    g = _random_group(ctx, 7)
    lhs = obs.var_right(g)
    rhs = ctx.project_gradient(g @ obs.var_left(g) @ np.linalg.inv(g))
    assert np.max(np.abs(lhs - rhs)) < 1e-10


@pytest.mark.parametrize("ctx", CTXS[:2])
def test_inverse_transform_rule(ctx):
    # variations of Phi(g^-1): swapped and negated
    obs = entry_observable(ctx, 1, 0, "re")
    tr = transform_inverse(obs)
    fd = generic_observable(ctx, tr.value)
    g = _random_group(ctx, 11)
    assert np.max(np.abs(tr.var_left(g) - fd.var_left(g))) < 1e-8
    assert np.max(np.abs(tr.var_right(g) - fd.var_right(g))) < 1e-8


@pytest.mark.parametrize("ctx", CTXS[:2])
def test_translate_transform_rule(ctx):
    obs = trace_observable(ctx)
    a, b = _random_group(ctx, 13), _random_group(ctx, 17)
    tr = transform_translate(obs, a, b)
    fd = generic_observable(ctx, tr.value)
    g = _random_group(ctx, 19)
    assert np.max(np.abs(tr.var_left(g) - fd.var_left(g))) < 1e-8
    assert np.max(np.abs(tr.var_right(g) - fd.var_right(g))) < 1e-8


@pytest.mark.parametrize("ctx", CTXS)
def test_trivector_totally_antisymmetric(ctx):
    tv = cartan_trivector(ctx)
    ref = trivector_reference_tensor(ctx, tv)
    assert np.max(np.abs(ref + np.transpose(ref, (1, 0, 2)))) < 1e-12
    assert np.max(np.abs(ref + np.transpose(ref, (0, 2, 1)))) < 1e-12


@pytest.mark.parametrize("kind,n", [("gl", 2), ("gl", 3), ("u", 2), ("u", 3)])
def test_cartan_trivector_matches_triple_loop(kind, n):
    # the structure constants entry by entry, as <e_i, [e_j, e_k]> / 12
    ctx = AlgebraContext(kind, n)
    tv = cartan_trivector(ctx)
    e, d = tv.pair.e, tv.pair.dim
    ref = np.zeros((d, d, d))
    for i, j, k in itertools.product(range(d), repeat=3):
        ref[i, j, k] = ctx.form(e[i], e[j] @ e[k] - e[k] @ e[j]) / 12.0
    assert np.max(np.abs(ref)) > 1e-3
    assert np.max(np.abs(tv.coeffs - ref)) <= 1e-14


def test_trivector_independent_of_basis_convention():
    # gl_2 via the dual pair vs an orthonormalized variant: same tensor
    ctx = AlgebraContext("gl", 2)
    tv = cartan_trivector(ctx)
    ref = trivector_reference_tensor(ctx, tv)
    assert np.max(np.abs(ref)) > 1e-3  # not trivially zero
    ctx3 = AlgebraContext("u", 2)
    tv3 = cartan_trivector(ctx3)
    ref3 = trivector_reference_tensor(ctx3, tv3)
    assert np.max(np.abs(ref3)) > 1e-3


def test_entry_observable_im_part():
    ctx = AlgebraContext("u", 2)
    obs = entry_observable(ctx, 0, 1, "im")
    g = _random_group(ctx, 23)
    assert obs.value(g) == pytest.approx(float(np.imag(g[0, 1])))
    fd = generic_observable(ctx, obs.value)
    assert np.max(np.abs(obs.var_left(g) - fd.var_left(g))) < 1e-8
