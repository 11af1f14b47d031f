"""End-to-end acceptance checks.

Each test here pins one of the headline guarantees of the package at its
stated tolerance: the combinatorial bracket formula against the bivector
pairing, the structural identities of the bivector itself, the symbolic
layer, the classical reduction for invariant observables, the cross-section
restriction, and the exact geometry kernel underneath everything.
"""

import itertools
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from surface_qp.cross_section import (bracket_cross, bracket_cross_numeric,
                                      project_to_cross_section, theta_matrix)
from surface_qp.diagrams import (diagram_from_word, intersection_data, realize_pair,
                                 word_of_diagram)
from surface_qp.goldman import PathEntrySymbol, bracket_symbolic
from surface_qp.lie import (AlgebraContext, dual_basis, entry_observable,
                            trace_observable)
from surface_qp.quasipoisson import (WordFunction, bracket_combinatorial,
                                     bracket_numeric, build_bivector, perturbed,
                                     schouten_residual, slot_values, verify_moment)
from surface_qp.repspace import RepPoint, act, random_point
from surface_qp.suites import WORD_PAIRS, run_suite
from surface_qp.surfaces import SurfaceSpec, polygon_model
from fusion_ref import fold_bivector, right_fold
from symbolic_ref import GoldmanAlgebra
from test_diagrams import algebraic_intersection
from test_quasipoisson import crossing_term

GL2 = AlgebraContext("gl", 2)
U2 = AlgebraContext("u", 2)
U3 = AlgebraContext("u", 3)

FIXTURE_GBS = [(0, 2), (1, 1), (0, 3), (1, 2)]


# 1. main equality: combinatorial formula == bivector pairing --------------

def test_main_equality_full_grid_under_time_budget():
    t0 = time.monotonic()
    fixtures = run_suite("main-theorem", n=2, tol=1e-8)
    elapsed = time.monotonic() - t0
    assert fixtures
    grid = 4 * 3 * 2 * 20  # surfaces x word pairs x observable mix x seeds
    assert len(fixtures) >= grid
    bad = [f for f in fixtures if not f["pass"]]
    assert bad == []
    assert elapsed < 60.0


@pytest.mark.parametrize("gb", FIXTURE_GBS)
def test_main_equality_spot_checks(gb):
    spec = SurfaceSpec(*gb)
    pm = polygon_model(spec)
    h = build_bivector(spec, GL2)
    for ta, tb in WORD_PAIRS[gb]:
        wa, wb = spec.word(ta), spec.word(tb)
        for oa, ob in [(trace_observable(GL2), entry_observable(GL2, 0, 1, "re")),
                       (entry_observable(GL2, 1, 0, "re"), trace_observable(GL2))]:
            for seed in range(20):
                _, _, data = realize_pair(wa, wb, pm, seed % 4)
                m = random_point(GL2, spec, seed)
                comb = bracket_combinatorial(oa, wa, ob, wb, data, m)
                num = bracket_numeric(h, WordFunction(oa, wa),
                                      WordFunction(ob, wb), m)
                assert abs(comb - num) <= 1e-8


# 2. bivector identity [P,P] = rho_phi -------------------------------------

@pytest.mark.parametrize("gb", [(0, 2), (1, 1)])
def test_structure_identity_and_sensitivity(gb):
    spec = SurfaceSpec(*gb)
    h = build_bivector(spec, GL2)
    for seed in range(5):
        m = random_point(GL2, spec, seed)
        assert schouten_residual(h, m)["residual"] <= 1e-9
        assert schouten_residual(perturbed(h, 0.01), m)["residual"] > 1e-3


# 3. moment condition ------------------------------------------------------

@pytest.mark.parametrize("gb", [(0, 2), (1, 1), (1, 2)])
def test_moment_condition(gb):
    spec = SurfaceSpec(*gb)
    h = build_bivector(spec, GL2)
    ta, tb = WORD_PAIRS[gb][-1]
    f = WordFunction(entry_observable(GL2, 0, 0, "re"), spec.word(ta))
    for seed in range(10):
        m = random_point(GL2, spec, seed)
        for p in range(len(h.w)):
            assert verify_moment(h, f, m)["residual"][p] <= 1e-12


# 4. splitting independence ------------------------------------------------

@pytest.mark.parametrize("gb", [(0, 3), (1, 2)])
def test_fusion_order_independent(gb):
    spec = SurfaceSpec(*gb)
    hl = fold_bivector(spec, GL2)
    hr = right_fold(spec, GL2)
    hc = build_bivector(spec, GL2)
    ta, tb = WORD_PAIRS[gb][-1]
    obs = [trace_observable(GL2), entry_observable(GL2, 0, 1, "re")]
    count = 0
    for seed in range(5):
        m = random_point(GL2, spec, seed)
        for oa, ob in itertools.product(obs, obs):
            f = WordFunction(oa, spec.word(ta))
            g = WordFunction(ob, spec.word(tb))
            a = bracket_numeric(hl, f, g, m)
            b = bracket_numeric(hr, f, g, m)
            c = bracket_numeric(hc, f, g, m)
            assert abs(a - b) <= 1e-9 and abs(a - c) <= 1e-9
            count += 1
    assert count >= 10


# 5. simple arcs commute with themselves -----------------------------------

ARC_GENERATORS = {(0, 2): ["A2"], (0, 3): ["A2", "A3"], (1, 2): ["A2"]}
# Generator loops based at a single marked point (the C_i, D_i handle loops
# and the closed boundary generators) are excluded: a loop meets itself at
# its base point with all four endpoint pairs contributing, and the entry
# self-bracket there is the nonzero expression checked in
# test_quasipoisson.test_double_self_bracket_closed_form.  The vanishing
# statement applies to arcs between distinct marked points, where the mixed
# endpoint terms have no common marked point to attach to.


@pytest.mark.parametrize("gb", sorted(ARC_GENERATORS))
def test_arc_self_brackets_vanish(gb):
    spec = SurfaceSpec(*gb)
    pm = polygon_model(spec)
    h = build_bivector(spec, GL2)
    for text in ARC_GENERATORS[gb]:
        w = spec.word(text)
        assert w.source != w.target
        _, _, data = realize_pair(w, w, pm, 1)
        m = random_point(GL2, spec, 3)
        cache = {}
        for (i, j), (k, l) in itertools.product(
                itertools.product((1, 2), repeat=2), repeat=2):
            nf = bracket_symbolic(PathEntrySymbol(w, i, j),
                                  PathEntrySymbol(w, k, l), data, 2, cache)
            assert nf.is_zero()
            oa = entry_observable(GL2, i - 1, j - 1, "re")
            ob = entry_observable(GL2, k - 1, l - 1, "re")
            comb = bracket_combinatorial(oa, w, ob, w, data, m)
            num = bracket_numeric(h, WordFunction(oa, w),
                                  WordFunction(ob, w), m)
            assert abs(comb) <= 1e-10
            assert abs(num) <= 1e-10


# 6. symbolic layer --------------------------------------------------------

def test_symbolic_suite_green():
    fixtures = run_suite("goldman", n=2, tol=1e-8)
    assert fixtures and all(f["pass"] for f in fixtures)


def test_symbolic_suite_green_n3():
    fixtures = run_suite("goldman", n=3, tol=1e-8)
    assert fixtures and all(f["pass"] for f in fixtures)


def test_symbolic_annihilates_defining_relation():
    # sum_j alpha_ij beta_jk - (alpha beta)_ik brackets to zero with anything
    spec = SurfaceSpec(1, 1)
    alg = GoldmanAlgebra(polygon_model(spec), 2, seed=1)
    wa, wb = spec.word("C1"), spec.word("D1")
    wab = wa.concat(wb)
    probe = alg.symbol(spec.word("C1 D1 C1'"), 1, 2)
    for i, k in itertools.product((1, 2), repeat=2):
        rel = sum(alg.symbol(wa, i, j) * alg.symbol(wb, j, k)
                  for j in (1, 2)) - alg.symbol(wab, i, k)
        assert alg.normal_form(rel).is_zero()
        assert alg.bracket(rel, probe).is_zero()


def test_symbolic_antisymmetry_and_homotopy():
    spec = SurfaceSpec(1, 1)
    pm = polygon_model(spec)
    wa, wb = spec.word("C1 D1"), spec.word("D1")
    a = PathEntrySymbol(wa, 1, 2)
    b = PathEntrySymbol(wb, 2, 1)
    forms = []
    for seed in (0, 1, 2):
        da, db, data = realize_pair(wa, wb, pm, seed)
        forms.append(bracket_symbolic(a, b, data, 2))
        back = bracket_symbolic(b, a, intersection_data(db, da, pm), 2)
        assert (forms[-1] + back).is_zero()
    assert forms[1] == forms[0] and forms[2] == forms[0]


def test_symbolic_evaluates_equal_to_numeric_on_grid():
    for gb in FIXTURE_GBS:
        spec = SurfaceSpec(*gb)
        pm = polygon_model(spec)
        ta, tb = WORD_PAIRS[gb][0]
        wa, wb = spec.word(ta), spec.word(tb)
        _, _, data = realize_pair(wa, wb, pm, 0)
        nf = bracket_symbolic(PathEntrySymbol(wa, 1, 2),
                              PathEntrySymbol(wb, 1, 1), data, 2)
        oa = entry_observable(GL2, 0, 1, "re")
        ob = entry_observable(GL2, 0, 0, "re")
        for seed in range(3):
            m = random_point(GL2, spec, seed)
            comb = bracket_combinatorial(oa, wa, ob, wb, data, m)
            assert abs(nf.evaluate(m) - comb) <= 1e-8


# 7. classical reduction for invariant observables -------------------------

# realizations whose endpoint signs sum to zero, so invariant brackets
# reduce to the crossing sum alone
REDUCTION_FIXTURES = [
    ((1, 1), "C1 D1", "D1", 0, (1, 0)),
    ((1, 1), "C1 D1", "D1", 1, (0, 0)),
    ((1, 1), "C1", "C1 D1", 0, (0, 0)),
    ((0, 3), "A2 B2 A2'", "A3 B3 A3'", 0, (0, 0)),
    ((1, 2), "A2 B2 A2'", "C1 D1", 0, (0, 0)),
    ((0, 2), "A2 B2 A2'", "A2 B2 B2 A2'", 0, (0, 0)),
]


@pytest.mark.parametrize("gb,ta,tb,seed,variants", REDUCTION_FIXTURES)
def test_invariant_bracket_is_crossing_sum(gb, ta, tb, seed, variants):
    spec = SurfaceSpec(*gb)
    pm = polygon_model(spec)
    wa, wb = spec.word(ta), spec.word(tb)
    _, _, data = realize_pair(wa, wb, pm, seed, variants)
    assert sum(s.value for s in data.endpoint_signs.values()) == 0
    tr = trace_observable(GL2)
    m = random_point(GL2, spec, seed + 20)
    sub = bracket_combinatorial(tr, wa, tr, wb, replace(data, crossings={}), m)
    assert abs(sub) <= 1e-10
    comb = bracket_combinatorial(tr, wa, tr, wb, data, m)
    crossings_only = sum(c * crossing_term(tr, wa, tr, wb, key, m)
                         for key, c in data.crossings.items())
    assert abs(comb - crossings_only) <= 1e-10


def test_invariant_bracket_is_group_invariant():
    spec = SurfaceSpec(1, 1)
    h = build_bivector(spec, GL2)
    f = WordFunction(trace_observable(GL2), spec.word("C1 D1"))
    g = WordFunction(trace_observable(GL2), spec.word("D1"))
    m = random_point(GL2, spec, 5)
    base = bracket_numeric(h, f, g, m)
    rng = np.random.default_rng(0)
    for _ in range(10):
        gs = [np.eye(2) + 0.25 * rng.uniform(-1, 1, (2, 2))
              for _ in range(spec.boundary_count)]
        moved = bracket_numeric(h, f, g, act(m, gs))
        assert abs(moved - base) <= 1e-8


def _point_from_slots(m, vals):
    """The representation point with the given slot values (B_i = b_i a_i)."""
    mats = {}
    for (kind, i), v in vals.items():
        mats[kind.upper() + str(i)] = v @ vals[("a", i)] if kind == "b" else v
    return RepPoint(m.ctx, m.spec, mats)


class _BracketOfBrackets:
    """{f, g} as a scalar function of the point, with gradients by central
    differences along each field (slot, side, e_k) so it can feed the
    bivector again."""

    def __init__(self, h, f, g, step=1e-5):
        self.h, self.f, self.g, self.step = h, f, g, step

    def gradients(self, h, m):
        vals, _ = slot_values(m)

        def value(slot, side, x):
            moved = dict(vals)
            gmat = expm(x)
            moved[slot] = vals[slot] @ gmat if side == "L" else gmat @ vals[slot]
            return bracket_numeric(self.h, self.f, self.g,
                                   _point_from_slots(m, moved))

        pair = dual_basis(self.h.ctx)
        out = []
        for slot, side in h.types:   # one row per field type of h
            out.append(sum(
                (value(slot, side, self.step * ek) - value(slot, side, -self.step * ek))
                / (2 * self.step) * fk
                for ek, fk in zip(pair.e, pair.f)))
        return np.array(out)


def test_invariant_brackets_satisfy_jacobi():
    spec = SurfaceSpec(1, 1)
    h = build_bivector(spec, GL2)
    tr = trace_observable(GL2)
    f = WordFunction(tr, spec.word("C1"))
    g = WordFunction(tr, spec.word("D1"))
    k = WordFunction(tr, spec.word("C1 D1"))
    m = random_point(GL2, spec, 11)
    cyc = (bracket_numeric(h, _BracketOfBrackets(h, f, g), k, m)
           + bracket_numeric(h, _BracketOfBrackets(h, g, k), f, m)
           + bracket_numeric(h, _BracketOfBrackets(h, k, f), g, m))
    assert abs(cyc) <= 1e-6


# 8. cross-section restriction ---------------------------------------------

@pytest.mark.parametrize("ctx", [U2, U3])
def test_theta_identity_50_samples(ctx):
    rng = np.random.default_rng(1)
    done = 0
    while done < 50:
        phases = np.sort(rng.uniform(0, 2 * np.pi, ctx.n))
        gaps = np.diff(np.concatenate([phases, [phases[0] + 2 * np.pi]]))
        if np.min(gaps) < 1e-2:
            continue
        h = np.diag(np.exp(1j * phases))
        t = theta_matrix(ctx, h)
        tt = theta_matrix(ctx, h, transpose=True)
        assert np.max(np.abs(t + tt - 2 * np.eye(t.shape[0]))) <= 1e-12
        done += 1


@pytest.mark.parametrize("gb", [(0, 2), (1, 1)])
def test_restriction_routes_agree(gb):
    spec = SurfaceSpec(*gb)
    pm = polygon_model(spec)
    h = build_bivector(spec, U2)
    ta, tb = WORD_PAIRS[gb][1]
    wa, wb = spec.word(ta), spec.word(tb)
    oa = entry_observable(U2, 0, 1, "re")
    ob = trace_observable(U2)
    for seed in range(10):
        m = random_point(U2, spec, seed)
        cs = project_to_cross_section(m)
        _, _, data = realize_pair(wa, wb, pm, seed)
        lhs = bracket_cross(oa, wa, ob, wb, data, cs)
        rhs = bracket_cross_numeric(h, WordFunction(oa, wa),
                                    WordFunction(ob, wb), cs)
        assert abs(lhs - rhs) <= 1e-7


# 9. exact geometry kernel -------------------------------------------------

def test_geometry_kernel_exact():
    pairs = [((1, 1), "C1", "D1"), ((0, 2), "A2", "B2"),
             ((0, 3), "A2 B2", "A3"), ((1, 2), "A2", "C1")]
    for gb, ta, tb in pairs:
        spec = SurfaceSpec(*gb)
        pm = polygon_model(spec)
        wa, wb = spec.word(ta), spec.word(tb)
        values = set()
        for seed in (0, 1, 2):
            da, db, data = realize_pair(wa, wb, pm, seed)
            # exact word round-trip
            assert word_of_diagram(da, pm).letters == wa.letters
            assert word_of_diagram(db, pm).letters == wb.letters
            # exact antisymmetry of every sign
            flipped = intersection_data(db, da, pm)
            assert flipped.crossings == {(ba, ab): -c for (ab, ba), c
                                         in data.crossings.items()}
            for (i, j), s in data.endpoint_signs.items():
                assert flipped.endpoint_signs[(j, i)].value == -s.value
            values.add(algebraic_intersection(data))
        # exact homotopy invariance across the three realizations
        assert len(values) == 1


def test_word_round_trip_with_variants_exact():
    spec = SurfaceSpec(1, 2)
    pm = polygon_model(spec)
    for text in ("A2", "C1", "A2 B2 A2'", "C1 D1", "B1"):
        w = spec.word(text)
        for seed in (0, 5):
            for variant in (0, 1):
                d = diagram_from_word(w, pm, seed, variant)
                assert word_of_diagram(d, pm).letters == w.letters
