import itertools

import numpy as np
import pytest
import scipy.linalg

from surface_qp import repspace
from surface_qp.lie import (AlgebraContext, Observable, cartan_trivector,
                            dual_basis, entry_observable, expm, trace_observable)
from surface_qp.surfaces import SurfaceSpec

FD_STEP = 1e-5   # central-difference step of generic_observable

CTXS = [AlgebraContext("gl", 2), AlgebraContext("gl", 3), AlgebraContext("u", 2)]

_SIGNED_PERMS = [
    ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
    ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1),
]


def generic_observable(ctx, fn) -> Observable:
    """Phi = fn with both variations by central differences along the dual
    basis: the reference that the closed forms are tested against."""
    pair = dual_basis(ctx)

    def var(g, left: bool) -> np.ndarray:
        out = np.zeros((ctx.n, ctx.n), dtype=ctx.dtype)
        for ek, fk in zip(pair.e, pair.f):
            step, stepm = expm(FD_STEP * ek), expm(-FD_STEP * ek)
            if left:
                d = (fn(g @ step) - fn(g @ stepm)) / (2 * FD_STEP)
            else:
                d = (fn(step @ g) - fn(stepm @ g)) / (2 * FD_STEP)
            out = out + d * fk
        return out

    return Observable(fn, lambda g: var(g, True), lambda g: var(g, False))


def wedge3_tensor(G):
    """Antisymmetrize a contracted product tensor over its three slots: the
    reference for the program's 6 g on alternating g."""
    out = np.zeros_like(G)
    for perm, sgn in _SIGNED_PERMS:
        out += sgn * np.transpose(G, perm)
    return out


def trivector_reference_tensor(ctx, tv):
    """phi as an antisymmetric 3-tensor over flattened matrix coordinates
    (real and imaginary parts stacked); used for basis-independence checks."""
    def flat(x):
        x = np.asarray(x, dtype=complex).reshape(-1)
        return np.concatenate([x.real, x.imag])

    M = np.array([flat(f) for f in tv.pair.f])
    return wedge3_tensor(np.einsum('ijk,ia,jb,kc->abc', tv.coeffs, M, M, M))


def _random_group(ctx, seed):
    rng = np.random.default_rng(seed)
    if ctx.kind == "gl":
        return np.eye(ctx.n) + 0.3 * rng.uniform(-1, 1, (ctx.n, ctx.n))
    a = rng.uniform(-1, 1, (ctx.n, ctx.n)) + 1j * rng.uniform(-1, 1, (ctx.n, ctx.n))
    return scipy.linalg.expm((a - a.conj().T) / 4.0)


def _random_alg(ctx, seed):
    rng = np.random.default_rng(seed)
    m = rng.uniform(-1, 1, (ctx.n, ctx.n))
    if ctx.kind == "gl":
        return m
    m = m + 1j * rng.uniform(-1, 1, (ctx.n, ctx.n))
    return (m - m.conj().T) / 2.0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_expm_matches_scipy_on_sampler_inputs(n, monkeypatch):
    seen = []

    def recording(x):   # the sampler exponentiates a seed's generators as one stack
        seen.extend(x)
        return expm(x)

    monkeypatch.setattr(repspace, "expm", recording)
    for seed in range(10):
        repspace.random_point(AlgebraContext("u", n), SurfaceSpec(2, 3), seed)
    assert len(seen) == 80
    for x in seen:
        assert np.max(np.abs(expm(x) - scipy.linalg.expm(x))) <= 1e-14


@pytest.mark.parametrize("n", [2, 3, 4])
def test_expm_of_a_stack_is_expm_of_each_matrix(n):
    # anti-Hermitian at scales 2^-4 to 2^7: each matrix takes its own number
    # of squarings, and none overflows
    rng = np.random.default_rng(n)
    x = rng.uniform(-1, 1, (12, n, n)) + 1j * rng.uniform(-1, 1, (12, n, n))
    x = (x - x.conj().swapaxes(-1, -2)) * 2.0 ** np.arange(-4, 8)[:, None, None]
    got = expm(x)
    for xi, gi in zip(x, got):
        assert gi.tobytes() == expm(xi).tobytes()


@pytest.mark.parametrize("kind", ["gl", "u"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_expm_matches_scipy_on_finite_difference_steps(kind, n):
    # the steps of generic_observable: exp(+-FD_STEP e_k)
    for e in dual_basis(AlgebraContext(kind, n)).e:
        for x in (FD_STEP * e, -FD_STEP * e):
            got = expm(x)
            assert got.dtype == e.dtype
            assert np.max(np.abs(got - scipy.linalg.expm(x))) <= 1e-14


@pytest.mark.parametrize("ctx", CTXS)
def test_dual_basis_gram_is_identity(ctx):
    pair = dual_basis(ctx)
    assert np.max(np.abs(pair.gram(ctx) - np.eye(pair.dim))) < 1e-12


@pytest.mark.parametrize("ctx", CTXS)
def test_dual_basis_is_shared_and_read_only(ctx):
    pair = dual_basis(ctx)
    assert dual_basis(AlgebraContext(ctx.kind, ctx.n)) is pair
    for x in pair.e + pair.f:
        with pytest.raises(ValueError):
            x[0, 0] = 5.0
    assert pair.gram(ctx) == pytest.approx(np.eye(pair.dim))


@pytest.mark.parametrize("ctx", CTXS)
def test_dual_basis_reproduces_coefficients(ctx):
    pair = dual_basis(ctx)
    x = _random_alg(ctx, 5)
    rebuilt = sum(ctx.form(x, f) * e for e, f in zip(pair.e, pair.f))
    assert np.max(np.abs(rebuilt - x)) < 1e-12


@pytest.mark.parametrize("ctx", CTXS)
@pytest.mark.parametrize("obs_name", ["entry", "trace"])
def test_variations_match_finite_differences(ctx, obs_name):
    if obs_name == "entry":
        obs = entry_observable(ctx, 0, 1, "re")
    else:
        obs = trace_observable(ctx)
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


@pytest.mark.parametrize("ctx", CTXS)
def test_trivector_totally_antisymmetric(ctx):
    tv = cartan_trivector(ctx)
    ref = trivector_reference_tensor(ctx, tv)
    assert np.max(np.abs(ref + np.transpose(ref, (1, 0, 2)))) < 1e-12
    assert np.max(np.abs(ref + np.transpose(ref, (0, 2, 1)))) < 1e-12


@pytest.mark.parametrize("ctx", CTXS, ids=str)
def test_cartan_trivector_is_shared_and_read_only(ctx):
    tv = cartan_trivector(ctx)
    assert cartan_trivector(AlgebraContext(ctx.kind, ctx.n)) is tv
    assert tv.pair is dual_basis(ctx)
    with pytest.raises(ValueError):
        tv.coeffs[0, 1, 2] = 5.0


@pytest.mark.parametrize("kind", ["gl", "u"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_cartan_trivector_is_alternating(kind, n):
    # exactly, so a contracted g is alternating up to round-off and its
    # wedge is 6 g, the form schouten_residual builds rho_phi in
    w = cartan_trivector(AlgebraContext(kind, n)).coeffs
    assert np.max(np.abs(w)) > 1e-3
    for perm, sgn in _SIGNED_PERMS:
        assert np.array_equal(np.transpose(w, perm), sgn * w)
    m = np.random.default_rng(n).normal(size=(len(w), 5))
    g = np.einsum('ijk,ia,jb,kc->abc', w, m, m, m)
    assert np.max(np.abs(wedge3_tensor(g) - 6 * g)) <= 1e-14 * max(1.0, np.max(np.abs(g)))


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


@pytest.mark.parametrize("kind", ["gl", "u"])
def test_stacked_observable_stacks_values_and_variations(kind):
    from surface_qp.lie import stacked_observable
    ctx = AlgebraContext(kind, 3)
    parts = [entry_observable(ctx, 0, 1, "re"), trace_observable(ctx),
             entry_observable(ctx, 2, 0, "re")]
    obs = stacked_observable(*parts)
    assert obs.entry is None
    for g in (repspace.random_point(ctx, SurfaceSpec(1, 1), 4).mats["C1"],
              repspace.random_points(ctx, SurfaceSpec(1, 1), range(5)).mats["D1"]):
        for name in ("var_left", "var_right"):
            got = getattr(obs, name)(g)
            assert got.shape == (3,) + g.shape
            for row, part in zip(got, parts):
                assert row.tobytes() == getattr(part, name)(g).tobytes()
