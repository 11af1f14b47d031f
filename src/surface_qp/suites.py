"""Named verification suites shared by the command line tool and the test
battery.  Each suite returns a list of fixture-result dicts (see io.fixture_
rows, one call per stack of seeds); a suite passes when every fixture does.

The mutate knob exercises sensitivity: every suite checks the bivector
perturbed(build_bivector(...), mutate), one coefficient of C scaled by
(1 + mutate), so a large enough mutate makes it fail.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import cross_section as cx
from .diagrams import realize_pair
# NormalForm and random_point are unused here, but the benchmark's tracer
# wraps NormalForm.evaluate and random_point through this module's namespace
from .goldman import (NormalForm, PathEntrySymbol, bracket_symbolic, entry_nf,
                      sum_of_products, word_ring)
from .io import fixture_result, fixture_rows, fmt_float
from .lie import AlgebraContext, Observable, entry_observable, trace_observable
from .quasipoisson import (WordFunction, bracket_combinatorial, bracket_numeric,
                           build_bivector, perturbed, schouten_residual, verify_moment)
from .repspace import RepPoint, push, random_point, random_stacks
from .surfaces import SurfaceSpec, polygon_model
from .words import substitute

# word pairs of length <= 3 per fixture surface, composable on the polygon
WORD_PAIRS: Dict[Tuple[int, int], List[Tuple[str, str]]] = {
    (0, 2): [("A2", "B2"), ("A2 B2", "B2 B2"), ("A2 B2 A2'", "A2 B2")],
    (1, 1): [("C1", "D1"), ("C1 D1", "D1"), ("C1 D1 C1'", "D1")],
    (0, 3): [("A2", "A3"), ("A2 B2", "A3"), ("A2 B2 A2'", "A3 B3 A3'")],
    (1, 2): [("C1", "D1"), ("A2", "C1"), ("A2 B2 A2'", "C1 D1")],
}

FIXTURE_SURFACES = [SurfaceSpec(0, 2), SurfaceSpec(1, 1),
                    SurfaceSpec(0, 3), SurfaceSpec(1, 2)]


def _seeded(prefix: str, count: int) -> list:
    """The fixture names "<prefix> seed=k" of seeds 0, ..., count - 1."""
    return ["%s seed=%d" % (prefix, seed) for seed in range(count)]


def suite_qp_identity(n: int = 2, tol: float = 1e-9, mutate: float = 0.0) -> list:
    ctx = AlgebraContext("gl", n)
    out = []
    specs = (SurfaceSpec(0, 2), SurfaceSpec(1, 1))
    for spec, m in zip(specs, random_stacks(ctx, specs, range(5))):
        h = build_bivector(spec, ctx)
        hm = perturbed(h, mutate)
        res = schouten_residual(hm, m)["residual"]
        out += fixture_rows(_seeded("qp-identity %s" % spec, 5), res, 0.0, tol)
        # sensitivity: a 1% coefficient mutation must break the identity
        m0 = RepPoint(ctx, spec, {sym: mat[0] for sym, mat in m.mats.items()})
        bad = schouten_residual(perturbed(h, 0.01), m0)["residual"]
        out.append({"fixture": "qp-identity mutation %s" % spec,
                    "lhs": fmt_float(bad), "rhs": "0", "residual": fmt_float(bad),
                    "tolerance": fmt_float(1e-3), "pass": bool(bad > 1e-3)})
    return out


def suite_moment(n: int = 2, tol: float = 1e-12, mutate: float = 0.0) -> list:
    ctx = AlgebraContext("gl", n)
    out = []
    specs = (SurfaceSpec(0, 2), SurfaceSpec(1, 1), SurfaceSpec(1, 2))
    for spec, m in zip(specs, random_stacks(ctx, specs, range(10))):
        h = perturbed(build_bivector(spec, ctx), mutate)
        wa, _ = WORD_PAIRS[(spec.genus, spec.boundary_count)][-1]
        # the trace of a loop is conjugation invariant, so its chi vanishes;
        # an entry function also checks the right-hand side
        fs = [("", WordFunction(trace_observable(ctx), spec.word(wa))),
              (" entry_12", WordFunction(entry_observable(ctx, 0, 1, "re"), spec.word(wa)))]
        res = np.array([verify_moment(h, f, m)["residual"] for _, f in fs])   # [f, p, seed]
        # seed-major rows: every (moment, function) pair at seed 0, then 1, ...
        prefixes = ["moment %s mu_%d%s" % (spec, p + 1, label)
                    for p in range(spec.boundary_count) for label, _ in fs]
        names = ["%s seed=%d" % (pre, seed) for seed in range(10) for pre in prefixes]
        out += fixture_rows(names, res.transpose(2, 1, 0).ravel(), 0.0, tol)
    return out


def _observable_pairs(ctx: AlgebraContext):
    return [("entry", entry_observable(ctx, 0, 1, "re"),
             entry_observable(ctx, 1, 0, "re")),
            ("trace", trace_observable(ctx), trace_observable(ctx))]


def suite_main_theorem(n: int = 2, tol: float = 1e-8, mutate: float = 0.0) -> list:
    """Both routes on every word pair, with the observable pairs stacked into
    one, their M's on a leading axis: one gradient pass per word and the two
    reroute holonomies of each crossing class give the rows of every pair."""
    ctx = AlgebraContext("gl", n)
    out = []
    labels, oas, obs = zip(*_observable_pairs(ctx))
    oa, ob = (Observable(ctx, np.array([o.m for o in side])) for side in (oas, obs))
    for spec, m in zip(FIXTURE_SURFACES, random_stacks(ctx, FIXTURE_SURFACES, range(20))):
        pm = polygon_model(spec)
        h = perturbed(build_bivector(spec, ctx), mutate)
        for wa_s, wb_s in WORD_PAIRS[(spec.genus, spec.boundary_count)]:
            wa, wb = spec.word(wa_s), spec.word(wb_s)
            _, _, data = realize_pair(wa, wb, pm, 1)
            comb = bracket_combinatorial(oa, wa, ob, wb, data, m)
            num = bracket_numeric(h, WordFunction(oa, wa), WordFunction(ob, wb), m)
            for label, lhs, rhs in zip(labels, comb, num):
                out += fixture_rows(_seeded("main-theorem %s %s|%s %s" %
                                            (spec, wa_s, wb_s, label), 20), lhs, rhs, tol)
    return out


# alpha, beta and a move that fixes every boundary word, per surface; B1' is mu_1
SPLITTING_MOVES = [
    (SurfaceSpec(0, 3), "A2", "A3", "twist mu_1", {"A2": "B1' A2", "A3": "B1' A3"}),
    (SurfaceSpec(1, 2), "A2", "C1", "C1->C1 D1, twist mu_1",
     {"A2": "B1' A2", "C1": "B1' C1 D1 B1", "D1": "B1' D1 B1"}),
]


def suite_splitting(n: int = 2, tol: float = 1e-9, mutate: float = 0.0) -> list:
    """Mapping-class equivariance, {f o T, g o T}(m) = {f, g}(T.m), for a move
    T that fixes every boundary word, a quasi-Poisson automorphism: the moved
    words at m against the words at the pushed point T.m, both paired with
    perturbed(h, mutate), which the moves do not preserve."""
    ctx = AlgebraContext("gl", n)
    oa, ob = entry_observable(ctx, 0, 1, "re"), entry_observable(ctx, 1, 0, "re")
    out = []
    for (spec, wa_s, wb_s, label, move), m in zip(
            SPLITTING_MOVES, random_stacks(ctx, [s for s, *_ in SPLITTING_MOVES], range(10))):
        h = perturbed(build_bivector(spec, ctx), mutate)
        t = {sym: spec.word(image) for sym, image in move.items()}
        wa, wb = spec.word(wa_s), spec.word(wb_s)
        lhs = bracket_numeric(h, WordFunction(oa, substitute(wa, t)),
                              WordFunction(ob, substitute(wb, t)), m)
        rhs = bracket_numeric(h, WordFunction(oa, wa), WordFunction(ob, wb), push(m, t))
        out += fixture_rows(_seeded("splitting %s %s_12|%s_21 under %s" % (spec, wa_s, wb_s, label),
                                    10), lhs, rhs, tol)
    return out


def suite_goldman(n: int = 2, tol: float = 1e-8, mutate: float = 0.0) -> list:
    ctx = AlgebraContext("gl", n)
    out = []
    # the evaluate seeds, one stack per surface with its exact copy
    points = random_stacks(ctx, FIXTURE_SURFACES, range(3), exact=True)
    for spec, m in zip(FIXTURE_SURFACES, points):
        pm = polygon_model(spec)
        wa_s, wb_s = WORD_PAIRS[(spec.genus, spec.boundary_count)][0]
        wa, wb = spec.word(wa_s), spec.word(wb_s)
        ring, cache = word_ring(n, wa, wb), {}
        # defining relation sum_j alpha_ij beta_jk = (alpha beta)_ik, exact
        if wa.target == wb.source:
            prod = wa.concat(wb)
            rel_ok = True
            for i, k in itertools.product(range(1, n + 1), repeat=2):
                rel = sum_of_products(ring, [(-1, [entry_nf(prod, i, k, ring, cache)])] + [
                    (1, [entry_nf(wa, i, j, ring, cache), entry_nf(wb, j, k, ring, cache)])
                    for j in range(1, n + 1)])
                rel_ok = rel_ok and rel.is_zero()
            out.append({"fixture": "goldman relation %s %s*%s" % (spec, wa_s, wb_s),
                        "residual": "0" if rel_ok else "nonzero",
                        "tolerance": "0", "pass": bool(rel_ok)})
        a = PathEntrySymbol(wa, 1, 1)
        b = PathEntrySymbol(wb, 1, 2)
        _, _, data = realize_pair(wa, wb, pm, 0)
        br = bracket_symbolic(a, b, data, n, cache)
        # antisymmetry, exact
        _, _, data_ba = realize_pair(wb, wa, pm, 0)
        br_ba = bracket_symbolic(b, a, data_ba, n, cache)
        anti = (br + br_ba).is_zero()
        out.append({"fixture": "goldman antisymmetry %s" % spec,
                    "residual": "0" if anti else "nonzero",
                    "tolerance": "0", "pass": bool(anti)})
        # homotopy invariance across realizations, exact
        stable = True
        for var in ((1, 0), (0, 1), (1, 1)):
            _, _, d2 = realize_pair(wa, wb, pm, 5, var)
            stable = stable and (bracket_symbolic(a, b, d2, n, cache) == br)
        out.append({"fixture": "goldman homotopy invariance %s" % spec,
                    "residual": "0" if stable else "nonzero",
                    "tolerance": "0", "pass": bool(stable)})
        # numeric evaluation agreement
        h = perturbed(build_bivector(spec, ctx), mutate)
        f = WordFunction(entry_observable(ctx, 0, 0, "re"), wa)
        g = WordFunction(entry_observable(ctx, 0, 1, "re"), wb)
        rows = fixture_rows(_seeded("goldman evaluate %s %s_11|%s_12" % (spec, wa_s, wb_s), 3),
                            br.evaluate(m), bracket_numeric(h, f, g, m), tol)
        text = br.canonical_str()
        for row in rows:
            row["normal_form"] = text
        out += rows
    return out


def suite_cross_section(tol: float = 1e-7, mutate: float = 0.0) -> list:
    out = []
    rng = np.random.default_rng(0)
    for n in (2, 3):
        ctx = AlgebraContext("u", n)
        lam = np.exp(1j * rng.uniform(-np.pi, np.pi, (50, n)))
        lam = lam[cx.phase_gap(lam) > cx.TOL_REG]
        hmat = np.where(np.eye(n, dtype=bool), lam[:, :, None], 0)
        t = cx.theta_matrix(ctx, hmat)
        tt = cx.theta_matrix(ctx, hmat, transpose=True)
        worst = float(np.max(np.abs(t + tt - 2 * np.eye(ctx.dim)), initial=0.0))
        out.append(fixture_result("cross-section theta identity U(%d)" % n,
                                  worst, 0.0, 1e-12))
    ctx = AlgebraContext("u", 2)
    specs = (SurfaceSpec(0, 2), SurfaceSpec(1, 1))
    for spec, m in zip(specs, random_stacks(ctx, specs, range(10))):
        pm = polygon_model(spec)
        h = perturbed(build_bivector(spec, ctx), mutate)
        wa_s, wb_s = WORD_PAIRS[(spec.genus, spec.boundary_count)][1]
        wa, wb = spec.word(wa_s), spec.word(wb_s)
        _, _, data = realize_pair(wa, wb, pm, 1)
        oa = trace_observable(ctx)
        ob = entry_observable(ctx, 0, 1, "re")
        f, g = WordFunction(oa, wa), WordFunction(ob, wb)
        cs = cx.project_to_cross_section(m)
        lhs = cx.bracket_cross(oa, wa, ob, wb, data, cs)
        rhs = cx.bracket_cross_numeric(h, f, g, cs)
        out += fixture_rows(_seeded("cross-section routes %s %s|%s" % (spec, wa_s, wb_s), 10),
                            lhs, rhs, tol)
    return out


GL_SUITES = {"qp-identity": suite_qp_identity, "moment": suite_moment,
             "main-theorem": suite_main_theorem, "splitting": suite_splitting,
             "goldman": suite_goldman}
SUITES = tuple(GL_SUITES) + ("cross-section",)


def run_suite(name: str, n: int = 2, tol: Optional[float] = None,
              mutate: float = 0.0) -> list:
    """Run a suite by name; tol=None keeps the suite's own default.  The
    cross-section suite ignores n: its Theta identity runs at U(2) and U(3),
    its route fixtures at U(2)."""
    if name not in SUITES:
        raise ValueError("unknown suite %r (have: %s)" % (name, ", ".join(SUITES)))
    kw = {"mutate": mutate} if tol is None else {"mutate": mutate, "tol": tol}
    if name == "cross-section":
        return suite_cross_section(**kw)
    return GL_SUITES[name](n, **kw)
