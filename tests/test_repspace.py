import functools
import random
from fractions import Fraction

import numpy as np
import pytest

from surface_qp.lie import AlgebraContext, entry_observable, expm
from surface_qp.quasipoisson import WordFunction, build_bivector, chi
from surface_qp import repspace
from surface_qp.repspace import (RepPoint, _random_gl, _random_u_log, _redraw_gl, act,
                                 boundary_moment, boundary_word, holonomy, push, random_point)
from surface_qp.surfaces import SurfaceSpec
from surface_qp.words import Word, generator_endpoints, generator_symbols, mu1_letters, substitute
from conftest import random_points
from test_diagrams import _walk
from test_words import moves

GL2 = AlgebraContext("gl", 2)
U2 = AlgebraContext("u", 2)
SPECS = [SurfaceSpec(0, 2), SurfaceSpec(1, 1), SurfaceSpec(0, 3), SurfaceSpec(1, 2)]


@pytest.mark.parametrize("spec", SPECS)
def test_holonomy_multiplicative(spec):
    m = random_point(GL2, spec, 1)
    texts = {(0, 2): ("A2", "B2"), (1, 1): ("C1", "D1"),
             (0, 3): ("A2", "B2"), (1, 2): ("C1", "D1")}
    ta, tb = texts[(spec.genus, spec.boundary_count)]
    wa, wb = spec.word(ta), spec.word(tb)
    if wa.target == wb.source:
        got = holonomy(m, wa.concat(wb))
        assert np.max(np.abs(got - holonomy(m, wa) @ holonomy(m, wb))) < 1e-12


def test_holonomy_of_inverse():
    spec = SurfaceSpec(1, 1)
    m = random_point(GL2, spec, 2)
    w = spec.word("C1 D1")
    assert np.max(np.abs(holonomy(m, w.inverse())
                         - np.linalg.inv(holonomy(m, w)))) < 1e-12


@pytest.mark.parametrize("ctx", [GL2, U2], ids=["gl", "u"])
def test_empty_word_holonomy_on_a_stack_is_one_identity_per_point(ctx):
    spec = SurfaceSpec(0, 2)
    w = spec.word("B2 B2'")
    assert w.letters == ()
    for m, shape in ((random_point(ctx, spec, 0), ()),
                     (random_points(ctx, spec, range(3)), (3,))):
        got = holonomy(m, w)
        assert got.shape == shape + (2, 2) and got.dtype == ctx.dtype
        assert np.array_equal(got, np.broadcast_to(np.eye(2), got.shape))


def test_overflowed_holonomy_names_its_word():
    spec = SurfaceSpec(1, 1)
    big = np.diag([1e200, 1.0])
    m = RepPoint(GL2, spec, {"C1": big, "D1": np.eye(2)})
    assert holonomy(m, spec.word("C1"))[0, 0] == 1e200
    with pytest.raises(OverflowError, match="^the holonomy of C1 C1 overflowed$"):
        holonomy(m, spec.word("C1 C1"))


@pytest.mark.parametrize("stacked", [False, True], ids=["point", "stack"])
@pytest.mark.parametrize("ctx", [GL2, U2, AlgebraContext("gl", 3), AlgebraContext("u", 3)],
                         ids=str)
@pytest.mark.parametrize("spec", [SurfaceSpec(1, 1), SurfaceSpec(0, 3), SurfaceSpec(1, 2),
                                  SurfaceSpec(0, 4)], ids=str)
def test_push_gives_the_holonomy_of_the_moved_word(spec, ctx, stacked):
    m = random_points(ctx, spec, range(4)) if stacked else random_point(ctx, spec, 5)
    rng = random.Random(20130130)
    words = [_walk(rng, spec.genus, spec.boundary_count, 1, 8) for _ in range(6)]
    for move in moves(spec).values():
        pushed = push(m, move)
        assert pushed.shape == m.shape
        for w in words:
            want = holonomy(m, substitute(w, move))
            err = np.abs(holonomy(pushed, w) - want).max()
            assert err <= 1e-14 * max(1.0, np.abs(want).max())


def test_push_refuses_a_move_of_a_boundary_word():
    # the handle conjugated by x_2 = A2 B2 A2^-1 is an automorphism, but it moves mu_1
    spec = SurfaceSpec(1, 2)
    x2 = "A2 B2 A2' %s A2 B2' A2'"
    move = {sym: spec.word(x2 % sym) for sym in ("C1", "D1")}
    with pytest.raises(ValueError, match="boundary component 1"):
        push(random_point(GL2, spec, 0), move)


@pytest.mark.parametrize("spec", SPECS)
def test_action_composition_law(spec):
    rng = np.random.default_rng(4)
    b = spec.boundary_count
    m = random_point(GL2, spec, 3)
    g = [np.eye(2) + 0.2 * rng.uniform(-1, 1, (2, 2)) for _ in range(b)]
    h = [np.eye(2) + 0.2 * rng.uniform(-1, 1, (2, 2)) for _ in range(b)]
    lhs = act(act(m, g), h)
    rhs = act(m, [h[i] @ g[i] for i in range(b)])
    for sym in m.mats:
        assert np.max(np.abs(lhs.mat(sym) - rhs.mat(sym))) < 1e-12


def _act_per_generator(m, g):
    """Reference action: one pair of products per generator."""
    g_inv = [np.linalg.inv(gi) for gi in g]
    out = {}
    for sym, mat in m.mats.items():
        s, t = generator_endpoints(sym)
        out[sym] = g[s - 1] @ mat @ g_inv[t - 1]
    return out


@pytest.mark.parametrize("spec", SPECS + [SurfaceSpec(5, 5)])
@pytest.mark.parametrize("ctx", [GL2, U2], ids=["gl", "u"])
def test_act_matches_per_generator_products(spec, ctx):
    # one stacked product over all generators gives the same bits as the loop
    b = spec.boundary_count
    for m in (random_point(ctx, spec, 3), random_points(ctx, spec, range(4))):
        shape = m.mat(next(iter(m.mats))).shape
        g = np.array([random_points(ctx, SurfaceSpec(1, 1), [7 + i]).mat("C1")[0]
                      for i in range(b)])
        g = np.broadcast_to(g.reshape((b,) + (1,) * (len(shape) - 2) + (2, 2)),
                            (b,) + shape)
        got = act(m, g)
        want = _act_per_generator(m, g)
        assert all(np.array_equal(got.mat(sym), want[sym]) for sym in m.mats)


@pytest.mark.parametrize("spec", SPECS + [SurfaceSpec(5, 5)])
def test_boundary_words_are_reduced_words_of_the_moments(spec):
    g, b = spec.genus, spec.boundary_count
    assert boundary_word(spec, 1) == Word.make(mu1_letters(g, b), g, b)
    for i in range(2, b + 1):
        assert boundary_word(spec, i) == Word.make([("B%d" % i, -1)], g, b)


@pytest.mark.parametrize("spec", SPECS)
def test_boundary_moment_equivariance(spec):
    rng = np.random.default_rng(8)
    b = spec.boundary_count
    m = random_point(GL2, spec, 5)
    g = [np.eye(2) + 0.2 * rng.uniform(-1, 1, (2, 2)) for _ in range(b)]
    m2 = act(m, g)
    for i in range(1, b + 1):
        lhs = boundary_moment(m2, i)
        rhs = g[i - 1] @ boundary_moment(m, i) @ np.linalg.inv(g[i - 1])
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_moment_product_is_full_boundary_relation():
    # mu_1 = (prod of the other moments conjugated) by construction of beta_1
    spec = SurfaceSpec(0, 3)
    m = random_point(GL2, spec, 6)
    mu1 = boundary_moment(m, 1)
    expect = np.eye(2)
    for i in (2, 3):
        u = m.mat("A%d" % i)
        expect = expect @ u @ np.linalg.inv(boundary_moment(m, i)) @ np.linalg.inv(u)
    assert np.max(np.abs(mu1 - expect)) < 1e-12


def _fractions(m, sym):
    """The exact copy of one generator's matrix as Fraction rows."""
    d, nums = m.exact
    return tuple(tuple(Fraction(x, d) for x in row) for row in nums[sym])


def test_random_point_deterministic_and_exact():
    spec = SurfaceSpec(1, 2)
    m1 = random_point(GL2, spec, 42)
    m2 = random_point(GL2, spec, 42)
    for sym in m1.mats:
        assert np.array_equal(m1.mat(sym), m2.mat(sym))
        assert _fractions(m1, sym) == _fractions(m2, sym)
        exact = np.array([[float(x) for x in row] for row in _fractions(m1, sym)])
        assert np.max(np.abs(exact - m1.mat(sym))) == 0.0


@pytest.mark.parametrize("n, spec", [(2, SurfaceSpec(1, 2)), (3, SurfaceSpec(0, 3)),
                                     (4, SurfaceSpec(5, 5))])
def test_exact_copy_is_the_draws_numerators_over_one_denominator(n, spec):
    ctx = AlgebraContext("gl", n)
    for seed in range(3):
        syms = generator_symbols(spec.genus, spec.boundary_count)
        draws = repspace._draws(ctx, [spec], [seed])[0][0]
        want = {sym: tuple(tuple(Fraction(int(x), repspace._GL_DEN) for x in row)
                           for row in num) for sym, num in zip(syms, draws)}
        m = random_point(ctx, spec, seed)
        d, nums = m.exact
        assert d == repspace._GL_DEN and list(nums) == syms
        assert all(type(x) is int for rows in nums.values() for row in rows for x in row)
        assert {sym: _fractions(m, sym) for sym in syms} == want


def test_points_compare_and_hash_by_identity():
    # equal coordinates do not make equal points: comparing the numpy
    # matrices would raise, and the dicts are unhashable
    a = random_point(GL2, SurfaceSpec(1, 1), 0)
    b = random_point(GL2, SurfaceSpec(1, 1), 0)
    assert a == a and a != b and not (a == b)
    assert hash(a) == hash(a) and hash(a) != hash(b)
    assert {a, b, a} == {a, b} and len({a, b, a}) == 2


def test_random_unitary_point_is_unitary():
    m = random_point(U2, SurfaceSpec(1, 1), 9)
    for sym, g in m.mats.items():
        assert np.max(np.abs(g.conj().T @ g - np.eye(2))) < 1e-10


def test_wrong_coordinate_set_rejected():
    m = random_point(GL2, SurfaceSpec(0, 2), 0)
    with pytest.raises(ValueError):
        RepPoint(GL2, SurfaceSpec(1, 1), m.mats)


@pytest.mark.parametrize("ctx", [GL2, U2])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_coordinates_rejected(ctx, bad):
    m = random_point(ctx, SurfaceSpec(1, 1), 0)
    mats = dict(m.mats)
    mats["C1"] = mats["C1"].copy()
    mats["C1"][0, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        RepPoint(ctx, m.spec, mats)


@pytest.mark.parametrize("ctx,bad,msg", [
    (GL2, np.array([[1.0, 2.0], [2.0, 4.0]]), "not invertible"),
    (U2, np.array([[1.0, 0.0], [0.0, 1.5]], dtype=complex), "not unitary")],
    ids=["gl-singular", "u-non-unitary"])
def test_stack_with_one_bad_matrix_names_its_index(ctx, bad, msg):
    m = random_points(ctx, SurfaceSpec(1, 1), range(5))
    assert (m.exact is None) == (ctx.kind == "u") and m.mats["C1"].shape == (5, 2, 2)
    mats = dict(m.mats)
    mats["D1"] = mats["D1"].copy()
    mats["D1"][3] = bad
    with pytest.raises(ValueError, match=msg + " within tolerance at stack index 3"):
        RepPoint(ctx, m.spec, mats)


@pytest.mark.parametrize("stacked", [False, True], ids=["point", "stack"])
def test_bad_generator_is_named(stacked):
    # all generators are checked in one call; the message names the first
    # failing generator, and for a stack the index after it
    spec = SurfaceSpec(1, 2)
    m = random_points(GL2, spec, range(4)) if stacked else random_point(GL2, spec, 0)
    mats = dict(m.mats)
    for sym in ("B2", "D1"):
        mats[sym] = mats[sym].copy()
        mats[sym][..., :, :] = [[1.0, 2.0], [2.0, 4.0]]
    want = "B2: matrix not invertible within tolerance" + (" at stack index 0" if stacked else "")
    with pytest.raises(ValueError, match="^%s$" % want):
        RepPoint(GL2, spec, mats)
    for sym in ("A2", "C1"):
        bad = dict(mats)
        bad[sym] = mats[sym][..., :1, :]
        with pytest.raises(ValueError, match="^%s: wrong matrix shape$" % sym):
            RepPoint(GL2, spec, bad)


@pytest.mark.parametrize("ctx", [GL2, U2], ids=["gl", "u"])
@pytest.mark.parametrize("g,b,text", [
    (1, 1, "C1 D1 C1'"), (1, 1, "C1"), (0, 3, "A2 B2 A2' A3"), (0, 3, "A2' A3 B3"),
    (1, 2, "C1 D1 C1' A2"), (1, 2, "B2 A2' C1"),
    # three pieces: W's fused row reaches piece 3, and on (2, 2) an annulus has a row
    (2, 2, "A2 B2 A2' C2 D1"), (3, 1, "C1 D2 C3'")])
def test_chi_matches_action_derivative(ctx, g, b, text):
    # <chi_f, x> = d/dt f(exp(-tx).m) for the action at boundary i, which is
    # action slot i - 1 of the fused bivector
    spec = SurfaceSpec(g, b)
    m = random_point(ctx, spec, 7)
    w = spec.word(text)
    obs = entry_observable(ctx, 0, 1, "re")
    h = build_bivector(spec, ctx)
    df = WordFunction(obs, w).gradients(h, m)
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, (2, 2))
    if ctx.kind == "u":
        x = x + 1j * rng.uniform(-1, 1, (2, 2))
        x = (x - x.conj().T) / 2.0
    step = 1e-6
    for i in range(1, b + 1):
        def f_moved(t):   # f(exp(-tx).m), the action at boundary i only
            moved = act(m, [expm(-t * x) if k == i else np.eye(2) for k in range(1, b + 1)])
            return obs.value(holonomy(moved, w))

        c = chi(h, df)[i - 1]
        fd = (f_moved(step) - f_moved(-step)) / (2 * step)
        assert ctx.form(c, x) == pytest.approx(fd, abs=1e-7)
        # chi is nonzero just at the endpoints of the word
        assert (np.max(np.abs(c)) > 1e-6) == (i in (w.source, w.target))


def _per_entry_gl(n, rng, min_det=0.1):
    """The GL sampler as first written, one draw per entry and generator:
    the reference that the batched sampler reproduces bit for bit.  Returns
    the matrix, its exact copy and the number of candidates rejected."""
    den = 1 << 20
    for tries in range(64):
        ex = tuple(tuple(
            Fraction(10 * den * (i == j) + 3 * int(rng.integers(-den, den + 1)), 10 * den)
            for j in range(n)) for i in range(n))
        mat = np.array([[float(x) for x in row] for row in ex])
        if abs(np.linalg.det(mat)) > min_det:
            return mat, ex, tries
    raise ValueError("resampling budget exhausted")


def _check_gl_sampler(ctx, spec, seeds, min_det=0.1):
    """Compare random_point and random_points with the per-entry reference
    on every seed; return the number of candidates the reference rejected
    at each seed."""
    syms = generator_symbols(spec.genus, spec.boundary_count)
    stack = random_points(ctx, spec, seeds)
    rejected, ref_states = [0] * len(seeds), []
    for k, seed in enumerate(seeds):
        ref_rng = np.random.default_rng(seed)
        ref = [_per_entry_gl(ctx.n, ref_rng, min_det) for _ in syms]
        m = random_point(ctx, spec, seed)
        for sym, (mat, ex, tries) in zip(syms, ref):
            assert m.mats[sym].tobytes() == mat.tobytes()
            assert stack.mats[sym][k].tobytes() == mat.tobytes()
            assert _fractions(m, sym) == ex
            rejected[k] += tries
        # the redraw loop, run from a fresh stream, is the reference: the
        # same numerators, and the generator left where the reference leaves it
        rng = np.random.default_rng(seed)
        nums = _redraw_gl(ctx, rng, len(syms))
        assert [tuple(tuple(Fraction(int(x), repspace._GL_DEN) for x in row) for row in num)
                for num in nums] == [ex for _, ex, _ in ref]
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        ref_states.append(ref_rng.bit_generator.state)
    # one stacked candidate draw leaves every seed that rejected nothing
    # where the reference does
    rngs = [np.random.default_rng(seed) for seed in seeds]
    _random_gl(ctx, rngs, len(syms))
    assert ([rng.bit_generator.state for rng, r in zip(rngs, rejected) if not r]
            == [state for state, r in zip(ref_states, rejected) if not r])
    return rejected


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gl_sampler_matches_per_entry_reference(n):
    # Sigma_5,5 has 18 generators, the size of the ambient-large workload
    ctx = AlgebraContext("gl", n)
    _check_gl_sampler(ctx, SurfaceSpec(1, 2), range(40))
    _check_gl_sampler(ctx, SurfaceSpec(5, 5), range(10))


@pytest.mark.parametrize("n,spec,floor", [
    (2, SurfaceSpec(1, 2), 1.0), (3, SurfaceSpec(1, 2), 1.0), (4, SurfaceSpec(1, 2), 1.0),
    (2, SurfaceSpec(5, 5), 1.3)], ids=["n2", "n3", "n4", "n2-18-generators"])
def test_gl_sampler_rejection_path_matches_reference(n, spec, floor, monkeypatch):
    # at the default floor of 0.1 no candidate is ever rejected; a floor of 1
    # rejects about half of them, so generators are served out of one batch
    # and the redraws cover only the unserved ones.  At 1.3 a seed of 18
    # generators rejects more than the 64 tries of one generator in all, so
    # a budget shared by the generators of a seed would run out
    monkeypatch.setattr(repspace, "_GL_MIN_DET", floor)
    seeds = range(20 if spec.genus < 5 else 3)
    rejected = _check_gl_sampler(AlgebraContext("gl", n), spec, seeds, floor)
    assert sum(rejected) > 20 and (spec.genus < 5 or max(rejected) > 64)


@pytest.mark.parametrize("n", [2, 3])
def test_gl_sampler_stack_with_mixed_rejections(n, monkeypatch):
    # at a floor of 0.8 about half the seeds of a stack reject a candidate
    # on Sigma_1,1: only those go on drawing from their own streams, and
    # the stack still equals the per-seed draws and the reference
    monkeypatch.setattr(repspace, "_GL_MIN_DET", 0.8)
    seeds = range(20)
    rejected = _check_gl_sampler(AlgebraContext("gl", n), SurfaceSpec(1, 1), seeds, 0.8)
    assert 5 <= sum(r > 0 for r in rejected) <= 15


def test_gl_sampler_gives_up_after_its_budget(monkeypatch):
    monkeypatch.setattr(repspace, "_GL_MIN_DET", 1e9)
    with pytest.raises(ValueError, match="resampling budget exhausted"):
        random_point(GL2, SurfaceSpec(1, 1), 0)
    with pytest.raises(ValueError, match="resampling budget exhausted"):
        random_points(GL2, SurfaceSpec(1, 1), range(5))


def test_gl_sampler_stack_fails_with_its_first_exhausted_seed(monkeypatch):
    # one try per generator: a seed that rejects any candidate runs out, and
    # a stack raises exactly when one of its seeds does on its own
    monkeypatch.setattr(repspace, "_GL_MIN_DET", 0.8)
    monkeypatch.setattr(repspace, "_GL_TRIES", 1)
    spec, good = SurfaceSpec(1, 1), []
    for seed in range(20):
        try:
            random_point(GL2, spec, seed)
            good.append(seed)
        except ValueError as exc:
            assert "resampling budget exhausted" in str(exc)
    assert 5 <= len(good) <= 15
    stack = random_points(GL2, spec, good)
    for k, seed in enumerate(good):
        m = random_point(GL2, spec, seed)
        assert all(stack.mats[sym][k].tobytes() == m.mats[sym].tobytes() for sym in m.mats)
    bad = min(set(range(20)) - set(good))
    with pytest.raises(ValueError, match="resampling budget exhausted"):
        random_points(GL2, spec, good + [bad])


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("spec", [SurfaceSpec(1, 2), SurfaceSpec(5, 5)], ids=["g1b2", "g5b5"])
def test_u_sampler_matches_per_generator_draws(n, spec):
    # two (n, n) draws per generator, real then imaginary part, each
    # exponentiated alone
    ctx = AlgebraContext("u", n)
    syms = generator_symbols(spec.genus, spec.boundary_count)
    stack = random_points(ctx, spec, range(10))
    for seed in range(10):
        rng = np.random.default_rng(seed)
        m = random_point(ctx, spec, seed)
        for sym in syms:
            a = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
            want = expm((a - a.conj().T) / 4.0)
            assert m.mats[sym].tobytes() == want.tobytes()
            assert stack.mats[sym][seed].tobytes() == want.tobytes()
        state = np.random.default_rng(seed)
        _random_u_log(ctx, [state], len(syms))
        assert state.bit_generator.state == rng.bit_generator.state


# --- one sampler for several surfaces, and the per-point memo --------------

@functools.lru_cache(maxsize=None)
def _suite_draws():
    """The sampler calls of every suite at n = 2 and 3, as ((suite, n), ctx,
    specs, seeds), recorded while the suites run."""
    from surface_qp import suites
    calls, real, run = [], suites.random_stacks, [None]

    def record(ctx, specs, seeds):
        calls.append((run[0], ctx, tuple(specs), list(seeds)))
        return real(ctx, specs, seeds)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(suites, "random_stacks", record)
        for name in suites.SUITES:
            for n in (2, 3) if name != "cross-section" else (2,):
                run[0] = (name, n)
                suites.run_suite(name, n)
    return calls


# sha256 over every suite's draws (generator name, then matrix bytes), as
# per-surface random_points gave them before the suites drew all their
# surfaces in one call
SUITE_DRAWS_SHA256 = "a762be48b5feca7f07d6b2311ff5c811c2ef84edcfedb7a6102812862d24c733"


def test_every_suite_draws_all_its_surfaces_in_one_call():
    runs = [call[0] for call in _suite_draws()]
    assert len(runs) == len(set(runs)) == 11


def test_suite_draws_are_pinned():
    import hashlib
    h = hashlib.sha256()
    for _, ctx, specs, seeds in _suite_draws():
        for m in repspace.random_stacks(ctx, specs, seeds):
            for sym, mat in m.mats.items():
                h.update(sym.encode())
                h.update(mat.tobytes())
    assert h.hexdigest() == SUITE_DRAWS_SHA256


def _check_multi_surface_draw(ctx, specs, seeds):
    # one stacked point per surface, bit for bit the per-surface and the
    # per-seed draws, exact copies included
    stacks = repspace.random_stacks(ctx, specs, seeds)
    assert [m.spec for m in stacks] == list(specs)
    for spec, stack in zip(specs, stacks):
        alone = random_points(ctx, spec, seeds)
        assert alone.exact == stack.exact and (stack.exact is None) == (ctx.kind == "u")
        for k, seed in enumerate(seeds):
            m = random_point(ctx, spec, seed)
            for sym in m.mats:
                assert stack.mats[sym].tobytes() == alone.mats[sym].tobytes()
                assert stack.mats[sym][k].tobytes() == m.mats[sym].tobytes()
                if ctx.kind == "gl":
                    assert stack.exact[0] == m.exact[0]
                    assert stack.exact[1][sym][k] == m.exact[1][sym]


@pytest.mark.parametrize("kind", ["gl", "u"])
@pytest.mark.parametrize("n", [2, 3])
def test_multi_surface_draw_equals_per_surface_draws(kind, n):
    ctx = AlgebraContext(kind, n)
    for specs, seeds in {(specs, tuple(seeds)) for _, _, specs, seeds in _suite_draws()}:
        _check_multi_surface_draw(ctx, specs, seeds)


@pytest.mark.parametrize("n", [2, 3])
def test_multi_surface_draw_with_redraws(n, monkeypatch):
    # at a floor of 0.8 about half the seeds redraw on Sigma_1,1; each
    # surface still starts from its seed's fresh stream
    monkeypatch.setattr(repspace, "_GL_MIN_DET", 0.8)
    ctx = AlgebraContext("gl", n)
    specs = (SurfaceSpec(1, 1), SurfaceSpec(0, 3), SurfaceSpec(1, 1), SurfaceSpec(1, 2))
    _check_multi_surface_draw(ctx, specs, range(20))
    rejected = _check_gl_sampler(ctx, SurfaceSpec(1, 1), range(20), 0.8)
    assert 5 <= sum(r > 0 for r in rejected) <= 15


@pytest.mark.parametrize("ctx", [GL2, U2], ids=["gl", "u"])
def test_multi_surface_draw_seeds_each_seed_once(ctx, monkeypatch):
    # at the default floor each seed is seeded once and drawn from once,
    # for all the surfaces of the call, and its state is never read
    made, drawn, real = [], [], np.random.default_rng

    class Counted:
        def __init__(self, seed):
            self.seed, self.rng = seed, real(seed)

        def __getattr__(self, name):
            drawn.append((self.seed, name))
            return getattr(self.rng, name)

    def counted(seed):
        made.append(seed)
        return Counted(seed)
    monkeypatch.setattr(np.random, "default_rng", counted)
    draw = "integers" if ctx.kind == "gl" else "uniform"
    repspace.random_stacks(ctx, SPECS, range(6))
    assert made == list(range(6))
    assert drawn == [(seed, draw) for seed in range(6)]
    made.clear()
    drawn.clear()
    random_point(ctx, SPECS[0], 4)
    assert made == [4] and drawn == [(4, draw)]


def _memo_reference(m, key):
    """What the memo of m holds under key, computed again on a new point of
    the same coordinates, whose memo is empty."""
    from surface_qp import quasipoisson
    fresh = RepPoint(m.ctx, m.spec, {sym: mat.copy() for sym, mat in m.mats.items()})
    assert not fresh.memo
    if key == "slot_values":
        return quasipoisson._slot_values(fresh)
    kind, arg = key
    if kind == "holonomy":
        return repspace.word_product(fresh.ctx, arg, fresh.mats, fresh.inv)
    return quasipoisson._chains(fresh, arg)


def _arrays(x):
    if isinstance(x, np.ndarray):
        return [x]
    if hasattr(x, "values"):   # a dict or a read-only mapping
        return [a for v in x.values() for a in _arrays(v)]
    return [a for v in x for a in _arrays(v)]


@pytest.mark.parametrize("ctx", [GL2, U2], ids=["gl", "u"])
@pytest.mark.parametrize("stacked", [False, True], ids=["point", "stack"])
def test_memo_holds_fresh_read_only_values(ctx, stacked):
    from surface_qp.quasipoisson import bracket_numeric
    spec = SurfaceSpec(1, 2)
    m = random_points(ctx, spec, range(3)) if stacked else random_point(ctx, spec, 3)
    h = build_bivector(spec, ctx)
    obs = entry_observable(ctx, 0, 1, "re")
    words = [spec.word(t) for t in ("A2 B2 A2'", "C1 D1", "C1 D1 C1'", "A2 B2 B2'")]
    first = [bracket_numeric(h, WordFunction(obs, w), WordFunction(obs, w), m) for w in words]
    hols = [holonomy(m, w) for w in words] + [boundary_moment(m, 1)]
    assert holonomy(m, words[0]) is hols[0]
    assert {k if k == "slot_values" else k[0] for k in m.memo} == {
        "slot_values", "holonomy", "chains"}
    for key, value in m.memo.items():
        got, want = _arrays(value), _arrays(_memo_reference(m, key))
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes() and a.shape == b.shape
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
    # the memo is used, not refilled, and gives the same brackets
    size = len(m.memo)
    again = [bracket_numeric(h, WordFunction(obs, w), WordFunction(obs, w), m) for w in words]
    assert len(m.memo) == size
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    with pytest.raises(TypeError):
        m.memo["x"] = 1


@pytest.mark.parametrize("ctx", [GL2, U2], ids=["gl", "u"])
def test_new_points_start_with_an_empty_memo(ctx):
    spec = SurfaceSpec(0, 3)
    for m in (random_point(ctx, spec, 1), random_points(ctx, spec, range(3))):
        assert not m.memo
        boundary_moment(m, 1)
        assert m.memo
        g = np.broadcast_to(np.eye(2, dtype=ctx.dtype), (3,) + m.mats["A2"].shape)
        for other in (act(m, g), RepPoint(ctx, spec, m.mats)):
            assert not other.memo
            assert np.array_equal(boundary_moment(other, 1), boundary_moment(m, 1))


@pytest.mark.parametrize("ctx", [GL2, U2], ids=["gl", "u"])
def test_generator_matrices_are_read_only_copies(ctx):
    spec = SurfaceSpec(1, 1)
    mats = {sym: mat.copy() for sym, mat in random_point(ctx, spec, 2).mats.items()}
    m = RepPoint(ctx, spec, mats)
    hol = holonomy(m, spec.word("C1 D1")).copy()
    for table in (m.mats, m.inv):
        for mat in table.values():
            with pytest.raises(ValueError, match="read-only"):
                mat[0, 0] = 5.0
    # the caller's matrices stay its own: changing them leaves the point
    mats["C1"][0, 0] = 5.0
    assert m.mats["C1"][0, 0] != 5.0
    assert np.array_equal(holonomy(m, spec.word("C1 D1")), hol)
