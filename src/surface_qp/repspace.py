"""Representation space M_G(Sigma) = G^{2(b-1)+2g}: holonomy, boundary
moments, the G^b action, variation maps, and reproducible sampling."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Optional, Sequence

import numpy as np
from scipy.linalg import expm

from .lie import AlgebraContext, Observable
from .surfaces import SurfaceSpec
from .words import Word, generator_endpoints, generator_symbols, mu1_letters


@dataclass(frozen=True)
class RepPoint:
    ctx: AlgebraContext
    spec: SurfaceSpec
    mats: Dict[str, np.ndarray]
    exact: Optional[Dict[str, tuple]] = None  # Fraction matrices (GL only)

    def __post_init__(self):
        need = generator_symbols(self.spec.genus, self.spec.boundary_count)
        if set(need) != set(self.mats):
            raise ValueError("coordinates must cover exactly the generators")
        for g in self.mats.values():
            self.ctx.check_group_element(g)

    def mat(self, sym: str) -> np.ndarray:
        return self.mats[sym]


def word_product(ctx: AlgebraContext, letters: Sequence, mats: Mapping) -> np.ndarray:
    """Product of the matrices of a word's letters (sym, sign), left to right,
    over any alphabet: generator names or coordinate slots.  Each symbol that
    occurs inverted is inverted once."""
    inv = {s: np.linalg.inv(mats[s]) for s in {s for s, sgn in letters if sgn == -1}}
    out = np.eye(ctx.n, dtype=ctx.dtype)
    for sym, sgn in letters:
        out = out @ (mats[sym] if sgn == 1 else inv[sym])
    return out


def holonomy(m: RepPoint, w: Word) -> np.ndarray:
    return word_product(m.ctx, w.letters, m.mats)


def boundary_moment(m: RepPoint, i: int) -> np.ndarray:
    spec = m.spec
    if not 1 <= i <= spec.boundary_count:
        raise ValueError("boundary index out of range")
    if i >= 2:
        return word_product(m.ctx, (("B%d" % i, -1),), m.mats)
    if spec.is_disk:
        return np.eye(m.ctx.n, dtype=m.ctx.dtype)
    w = Word.make(mu1_letters(spec.genus, spec.boundary_count),
                  spec.genus, spec.boundary_count)
    return holonomy(m, w)


def act(m: RepPoint, g) -> RepPoint:
    """Action of (g_1, ..., g_b): a path from p_i to p_j transforms its
    holonomy by g_i (.) g_j^{-1}."""
    g = [np.asarray(gi, dtype=m.ctx.dtype) for gi in g]
    if len(g) != m.spec.boundary_count:
        raise ValueError("need one group element per boundary component")
    g_inv = [np.linalg.inv(gi) for gi in g]
    out = {}
    for sym, mat in m.mats.items():
        s, t = generator_endpoints(sym)
        out[sym] = g[s - 1] @ mat @ g_inv[t - 1]
    return RepPoint(m.ctx, m.spec, out)


def variation(m: RepPoint, phi: Observable, w: Word, p: int) -> np.ndarray:
    """chi^p of the function Phi(Hol_w): -var_right per start incidence at p,
    +var_left per end incidence."""
    out = np.zeros((m.ctx.n, m.ctx.n), dtype=m.ctx.dtype)
    if len(w.letters) == 0:
        return out
    h = holonomy(m, w)
    if w.source == p:
        out = out - phi.var_right(h)
    if w.target == p:
        out = out + phi.var_left(h)
    return out


def _random_gl(ctx: AlgebraContext, rng) -> tuple:
    """Dyadic-rational GL_n sample: I + 0.3 * uniform[-1,1] entries."""
    n = ctx.n
    den = 1 << 20
    for _ in range(64):
        ex = tuple(tuple(
            Fraction(10 * den * (i == j) + 3 * int(rng.integers(-den, den + 1)), 10 * den)
            for j in range(n)) for i in range(n))
        mat = np.array([[float(x) for x in row] for row in ex])
        if abs(np.linalg.det(mat)) > 0.1:
            return mat, ex
    raise ValueError("resampling budget exhausted")


def _random_u(ctx: AlgebraContext, rng) -> np.ndarray:
    n = ctx.n
    a = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    x = 0.5 * (a - a.conj().T) / 2.0
    return expm(x)


def random_point(ctx: AlgebraContext, spec: SurfaceSpec, seed: int) -> RepPoint:
    rng = np.random.default_rng(seed)
    mats, exact = {}, {}
    for sym in generator_symbols(spec.genus, spec.boundary_count):
        if ctx.kind == "gl":
            mats[sym], exact[sym] = _random_gl(ctx, rng)
        else:
            mats[sym] = _random_u(ctx, rng)
    return RepPoint(ctx, spec, mats, exact if ctx.kind == "gl" else None)
