"""Named verification suites shared by the command line tool and the test
battery.  Each suite returns a list of fixture-result dicts (see io.fixture_
result); a suite passes when every fixture does.

The mutate knob exercises sensitivity: it perturbs the structure being
verified (a bivector coefficient, or the overall bracket orientation) and is
expected to make the suite fail.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from . import cross_section as cx
from .diagrams import realize_pair
# NormalForm is unused here, but the benchmark's tracer wraps
# NormalForm.evaluate through this module's namespace
from .goldman import GoldmanAlgebra, NormalForm, PathEntrySymbol, bracket_symbolic
from .io import fixture_result, fmt_float
from .lie import AlgebraContext, entry_observable, trace_observable
from .quasipoisson import (WordFunction, bracket_combinatorial, bracket_numeric,
                           build_bivector, perturbed, schouten_residual,
                           verify_moment)
from .repspace import random_point
from .surfaces import SurfaceSpec, polygon_model

# word pairs of length <= 3 per fixture surface, composable on the polygon
WORD_PAIRS: Dict[Tuple[int, int], List[Tuple[str, str]]] = {
    (0, 2): [("A2", "B2"), ("A2 B2", "B2 B2"), ("A2 B2 A2'", "A2 B2")],
    (1, 1): [("C1", "D1"), ("C1 D1", "D1"), ("C1 D1 C1'", "D1")],
    (0, 3): [("A2", "A3"), ("A2 B2", "A3"), ("A2 B2 A2'", "A3 B3 A3'")],
    (1, 2): [("C1", "D1"), ("A2", "C1"), ("A2 B2 A2'", "C1 D1")],
}

FIXTURE_SURFACES = [SurfaceSpec(0, 2), SurfaceSpec(1, 1),
                    SurfaceSpec(0, 3), SurfaceSpec(1, 2)]


def suite_qp_identity(n: int = 2, tol: float = 1e-9, mutate: float = 0.0) -> list:
    ctx = AlgebraContext("gl", n)
    out = []
    for spec in (SurfaceSpec(0, 2), SurfaceSpec(1, 1)):
        h = build_bivector(spec, ctx)
        hm = perturbed(h, mutate)
        points = [random_point(ctx, spec, seed) for seed in range(5)]
        for seed, m in enumerate(points):
            r = schouten_residual(hm, m)["residual"]
            out.append(fixture_result("qp-identity %s seed=%d" % (spec, seed),
                                      r, 0.0, tol))
        # sensitivity: a 1% coefficient mutation must break the identity
        bad = schouten_residual(perturbed(h, 0.01), points[0])["residual"]
        out.append({"fixture": "qp-identity mutation %s" % spec,
                    "lhs": fmt_float(bad), "rhs": "0", "residual": fmt_float(bad),
                    "tolerance": fmt_float(1e-3), "pass": bool(bad > 1e-3)})
    return out


def suite_moment(n: int = 2, tol: float = 1e-6, mutate: float = 0.0) -> list:
    ctx = AlgebraContext("gl", n)
    out = []
    for spec in (SurfaceSpec(0, 2), SurfaceSpec(1, 1), SurfaceSpec(1, 2)):
        h = perturbed(build_bivector(spec, ctx), mutate)
        wa, _ = WORD_PAIRS[(spec.genus, spec.boundary_count)][-1]
        f = WordFunction(trace_observable(ctx), spec.word(wa))
        for seed in range(10):
            m = random_point(ctx, spec, seed)
            for p in range(spec.boundary_count):
                r = verify_moment(h, p, f, m)["residual"]
                out.append(fixture_result(
                    "moment %s mu_%d seed=%d" % (spec, p + 1, seed), r, 0.0, tol))
    return out


def _observable_pairs(ctx: AlgebraContext):
    return [("entry", entry_observable(ctx, 0, 1, "re"),
             entry_observable(ctx, 1, 0, "re")),
            ("trace", trace_observable(ctx), trace_observable(ctx))]


def suite_main_theorem(n: int = 2, tol: float = 1e-8, mutate: float = 0.0) -> list:
    ctx = AlgebraContext("gl", n)
    out = []
    for spec in FIXTURE_SURFACES:
        pm = polygon_model(spec)
        h = build_bivector(spec, ctx)
        points = [random_point(ctx, spec, seed) for seed in range(20)]
        for wa_s, wb_s in WORD_PAIRS[(spec.genus, spec.boundary_count)]:
            wa, wb = spec.word(wa_s), spec.word(wb_s)
            _, _, data = realize_pair(wa, wb, pm, 1)
            for label, oa, ob in _observable_pairs(ctx):
                f, g = WordFunction(oa, wa), WordFunction(ob, wb)
                for seed, m in enumerate(points):
                    comb = bracket_combinatorial(oa, wa, ob, wb, data, m)
                    if mutate:
                        comb = -comb  # flipped orientation convention
                    out.append(fixture_result(
                        "main-theorem %s %s|%s %s seed=%d" %
                        (spec, wa_s, wb_s, label, seed),
                        comb, bracket_numeric(h, f, g, m), tol))
    return out


def suite_splitting(n: int = 2, tol: float = 1e-9, mutate: float = 0.0) -> list:
    ctx = AlgebraContext("gl", n)
    out = []
    for spec in (SurfaceSpec(0, 3), SurfaceSpec(1, 2)):
        hl = perturbed(build_bivector(spec, ctx, order="left"), mutate)
        hr = build_bivector(spec, ctx, order="right")
        wa_s, wb_s = WORD_PAIRS[(spec.genus, spec.boundary_count)][-1]
        wa, wb = spec.word(wa_s), spec.word(wb_s)
        f = WordFunction(trace_observable(ctx), wa)
        g = WordFunction(entry_observable(ctx, 0, 0, "re"), wb)
        for seed in range(10):
            m = random_point(ctx, spec, seed)
            out.append(fixture_result(
                "splitting %s %s|%s seed=%d" % (spec, wa_s, wb_s, seed),
                bracket_numeric(hl, f, g, m), bracket_numeric(hr, f, g, m), tol))
    return out


def suite_goldman(n: int = 2, tol: float = 1e-8, mutate: float = 0.0) -> list:
    ctx = AlgebraContext("gl", n)
    out = []
    for spec in FIXTURE_SURFACES:
        pm = polygon_model(spec)
        alg = GoldmanAlgebra(pm, n)
        wa_s, wb_s = WORD_PAIRS[(spec.genus, spec.boundary_count)][0]
        wa, wb = spec.word(wa_s), spec.word(wb_s)
        # defining relation sum_j alpha_ij beta_jk = (alpha beta)_ik, exact
        if wa.target == wb.source:
            rel_ok = True
            prod = wa.concat(wb)
            for i in range(1, n + 1):
                for k in range(1, n + 1):
                    s = alg.normal_form(sum(
                        alg.symbol(wa, i, j) * alg.symbol(wb, j, k)
                        for j in range(1, n + 1)))
                    rel_ok = rel_ok and (s - alg.normal_form(
                        alg.symbol(prod, i, k))).is_zero()
            out.append({"fixture": "goldman relation %s %s*%s" % (spec, wa_s, wb_s),
                        "residual": "0" if rel_ok else "nonzero",
                        "tolerance": "0", "pass": bool(rel_ok)})
        a = PathEntrySymbol(wa, 1, 1)
        b = PathEntrySymbol(wb, 1, 2)
        data = alg.pair_data(wa, wb)
        br = bracket_symbolic(a, b, data, n)
        if mutate:
            br = br.scale(-1)
        # antisymmetry, exact
        data_ba = alg.pair_data(wb, wa)
        br_ba = bracket_symbolic(b, a, data_ba, n)
        anti = (br + br_ba).is_zero()
        out.append({"fixture": "goldman antisymmetry %s" % spec,
                    "residual": "0" if anti else "nonzero",
                    "tolerance": "0", "pass": bool(anti)})
        # homotopy invariance across realizations, exact
        stable = True
        for var in ((1, 0), (0, 1), (1, 1)):
            _, _, d2 = realize_pair(wa, wb, pm, 5, var)
            stable = stable and (bracket_symbolic(a, b, d2, n) == br)
        out.append({"fixture": "goldman homotopy invariance %s" % spec,
                    "residual": "0" if stable else "nonzero",
                    "tolerance": "0", "pass": bool(stable)})
        # numeric evaluation agreement
        h = build_bivector(spec, ctx)
        f = WordFunction(entry_observable(ctx, 0, 0, "re"), wa)
        g = WordFunction(entry_observable(ctx, 0, 1, "re"), wb)
        for seed in range(3):
            m = random_point(ctx, spec, seed)
            out.append(fixture_result(
                "goldman evaluate %s %s_11|%s_12 seed=%d" % (spec, wa_s, wb_s, seed),
                br.evaluate(m), bracket_numeric(h, f, g, m), tol,
                {"normal_form": br.canonical_str()}))
    return out


def suite_cross_section(tol: float = 1e-7, mutate: float = 0.0) -> list:
    out = []
    rng = np.random.default_rng(0)
    for n in (2, 3):
        ctx = AlgebraContext("u", n)
        worst = 0.0
        for _ in range(50):
            lam = np.exp(1j * rng.uniform(-np.pi, np.pi, n))
            if cx.phase_gap(lam) <= cx.TOL_REG:
                continue
            hmat = np.diag(lam)
            t = cx.theta_matrix(ctx, hmat)
            tt = cx.theta_matrix(ctx, hmat, transpose=True)
            worst = max(worst, float(np.max(np.abs(t + tt - 2 * np.eye(len(t))))))
        out.append(fixture_result("cross-section theta identity U(%d)" % n,
                                  worst, 0.0, 1e-12))
    ctx = AlgebraContext("u", 2)
    for spec in (SurfaceSpec(0, 2), SurfaceSpec(1, 1)):
        pm = polygon_model(spec)
        h = build_bivector(spec, ctx)
        wa_s, wb_s = WORD_PAIRS[(spec.genus, spec.boundary_count)][1]
        wa, wb = spec.word(wa_s), spec.word(wb_s)
        _, _, data = realize_pair(wa, wb, pm, 1)
        oa = trace_observable(ctx)
        ob = entry_observable(ctx, 0, 1, "re")
        f, g = WordFunction(oa, wa), WordFunction(ob, wb)
        for seed in range(10):
            cs = cx.project_to_cross_section(random_point(ctx, spec, seed))
            lhs = cx.bracket_cross(oa, wa, ob, wb, data, cs)
            if mutate:
                lhs = -lhs
            out.append(fixture_result(
                "cross-section routes %s %s|%s seed=%d" % (spec, wa_s, wb_s, seed),
                lhs, cx.bracket_cross_numeric(h, f, g, cs), tol))
    return out


GL_SUITES = {"qp-identity": suite_qp_identity, "moment": suite_moment,
             "main-theorem": suite_main_theorem, "splitting": suite_splitting,
             "goldman": suite_goldman}
SUITES = tuple(GL_SUITES) + ("cross-section",)


def run_suite(name: str, n: int = 2, tol: Optional[float] = None,
              mutate: float = 0.0) -> list:
    """Run a suite by name; tol=None keeps the suite's own default.  The
    cross-section suite always runs U(2) and U(3) and ignores n."""
    if name not in SUITES:
        raise ValueError("unknown suite %r (have: %s)" % (name, ", ".join(SUITES)))
    kw = {"mutate": mutate} if tol is None else {"mutate": mutate, "tol": tol}
    if name == "cross-section":
        return suite_cross_section(**kw)
    return GL_SUITES[name](n, **kw)
