"""Representation space M_G(Sigma) = G^{2(b-1)+2g}: holonomy, boundary
moments, the G^b action, and reproducible sampling."""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .lie import AlgebraContext, expm
from .surfaces import SurfaceSpec
from .words import Word, generator_endpoints, generator_symbols, mu1_letters

_K_MAX = 1 << 20         # a GL entry draws k in [-_K_MAX, _K_MAX]
_GL_DEN = 10 * _K_MAX    # and is (_GL_DEN * delta_ij + 3k) / _GL_DEN
_GL_MIN_DET = 0.1        # a GL candidate with |det| at most this is redrawn,
_GL_TRIES = 64           # up to this many candidates per generator


@dataclass(frozen=True, eq=False)
class RepPoint:
    """A point of M_G(Sigma), or a stack of S points: each generator maps to
    an (n, n) matrix or to an (S, n, n) stack, and every numeric routine
    broadcasts over the leading axis.  The matrices are made read-only here,
    and inv holds their inverses, computed once.  exact, for a GL point with
    rational coordinates, is (d, {generator: int numerators}), each entry
    num / d, the numerators nested lists of the matrices' shape, and None
    otherwise (a unitary point, a stack drawn without them).  memo holds
    what remember computed from the point, read-only, for as long as the
    point lives.  Points compare and hash by identity."""
    ctx: AlgebraContext
    spec: SurfaceSpec
    mats: Dict[str, np.ndarray]
    exact: Optional[Tuple[int, Dict[str, list]]] = None
    inv: Dict[str, np.ndarray] = field(init=False, repr=False)
    _memo: dict = field(init=False, repr=False)

    def __post_init__(self):
        need = generator_symbols(self.spec.genus, self.spec.boundary_count)
        if set(need) != set(self.mats):
            raise ValueError("coordinates must cover exactly the generators")
        n, first = self.ctx.n, None
        for sym, g in self.mats.items():   # one (n, n) or (S, n, n) shape for all
            first = first or np.shape(g)
            if np.shape(g) != first or len(first) not in (2, 3) or first[-2:] != (n, n):
                raise ValueError("%s: wrong matrix shape" % sym)
        mats = np.array(list(self.mats.values()))   # the point's own copy
        mats.setflags(write=False)
        self.ctx.check_group_element(mats, names=list(self.mats))
        object.__setattr__(self, "mats", dict(zip(self.mats, mats)))
        object.__setattr__(self, "inv", dict(zip(self.mats, _frozen(np.linalg.inv(mats)))))
        object.__setattr__(self, "_memo", {})

    def mat(self, sym: str) -> np.ndarray:
        return self.mats[sym]

    @property
    def memo(self) -> Mapping:
        return MappingProxyType(self._memo)

    def remember(self, key, make: Callable, *args):
        """make(*args), computed once per point and key and kept read-only:
        make returns an array, or a tuple or dict of them (see _frozen)."""
        out = self._memo.get(key)
        if out is None:
            out = self._memo[key] = _frozen(make(*args))
        return out


def _frozen(x):
    """An array, or a tuple or dict of them, recursively, made read-only: the
    arrays in place, the dicts as read-only mappings."""
    if isinstance(x, np.ndarray):
        x.setflags(write=False)
        return x
    if isinstance(x, dict):
        return MappingProxyType({k: _frozen(v) for k, v in x.items()})
    return tuple(_frozen(v) for v in x)


def word_product(ctx: AlgebraContext, letters: Sequence, mats: Mapping,
                 inv: Optional[Mapping] = None) -> np.ndarray:
    """Product of the matrices of a word's letters (sym, sign), left to right,
    over any alphabet: generator names or coordinate slots, each a matrix or
    an (S, n, n) stack.  Inverse letters read inv, which defaults to
    inverting each symbol that occurs inverted once."""
    if inv is None:
        inv = {s: np.linalg.inv(mats[s]) for s in {s for s, sgn in letters if sgn == -1}}
    out = np.eye(ctx.n, dtype=ctx.dtype)
    for sym, sgn in letters:
        out = out @ (mats[sym] if sgn == 1 else inv[sym])
    return out


def holonomy(m: RepPoint, w: Word) -> np.ndarray:
    """The holonomy of w at m, once per point and word."""
    return m.remember(("holonomy", w.letters), word_product, m.ctx, w.letters, m.mats, m.inv)


def boundary_word(spec: SurfaceSpec, i: int) -> Word:
    """The word whose holonomy is the moment at boundary component i:
    mu_1 for i = 1, B_i^-1 otherwise."""
    if not 1 <= i <= spec.boundary_count:
        raise ValueError("boundary index out of range")
    if i == 1:   # freely reduced and composable by construction
        return Word(mu1_letters(spec.genus, spec.boundary_count), 1, 1)
    return Word((("B%d" % i, -1),), i, i)


def boundary_moment(m: RepPoint, i: int) -> np.ndarray:
    return holonomy(m, boundary_word(m.spec, i))


def act(m: RepPoint, g) -> RepPoint:
    """Action of (g_1, ..., g_b): a path from p_i to p_j transforms its
    holonomy by g_i (.) g_j^{-1}."""
    g = np.asarray(g, dtype=m.ctx.dtype)
    if len(g) != m.spec.boundary_count:
        raise ValueError("need one group element per boundary component")
    src, tgt = np.array([generator_endpoints(sym) for sym in m.mats]).T - 1
    out = g[src] @ np.array(list(m.mats.values())) @ np.linalg.inv(g)[tgt]
    return RepPoint(m.ctx, m.spec, dict(zip(m.mats, out)))


def _random_gl(ctx: AlgebraContext, rngs: Sequence, count: int) -> np.ndarray:
    """count dyadic-rational GL_n samples I + 0.3 * uniform[-1,1] entries
    from each random stream in rngs, as the integer numerators over _GL_DEN,
    stacked (S, count, n, n).  Each stream first draws one candidate per
    sample, and one sum, one det and one acceptance pass cover the whole
    stack; only a stream with a rejected candidate goes on drawing
    (_redraw_gl)."""
    n = ctx.n
    eye = _GL_DEN * np.eye(n, dtype=np.int64)
    cand = eye + 3 * np.array([rng.integers(-_K_MAX, _K_MAX + 1, (count, n, n))
                               for rng in rngs])
    ok = np.abs(np.linalg.det(cand / _GL_DEN)) > _GL_MIN_DET
    for k in np.flatnonzero(~ok.all(axis=1)):
        cand[k] = _redraw_gl(rngs[k], cand[k], ok[k], eye)
    return cand


def _redraw_gl(rng, cand: np.ndarray, ok: np.ndarray, eye: np.ndarray) -> np.ndarray:
    """The samples of one stream whose first candidates cand were accepted
    where ok holds.  The candidates form one stream, drawn for all unserved
    samples at once: each sample takes the next candidate with |det| >
    _GL_MIN_DET, within _GL_TRIES of its own, so the stream is the one that
    per-sample draws consume."""
    count, n = len(cand), len(eye)
    nums, served, tries = [], 0, 0
    while True:
        for good in ok.tolist():
            tries = 0 if good else tries + 1
            if tries == _GL_TRIES:
                raise ValueError("resampling budget exhausted")
        nums.append(cand[ok])
        served += int(ok.sum())
        if served == count:
            return np.concatenate(nums)
        cand = eye + 3 * rng.integers(-_K_MAX, _K_MAX + 1, (count - served, n, n))
        ok = np.abs(np.linalg.det(cand / _GL_DEN)) > _GL_MIN_DET


def _random_u_log(ctx: AlgebraContext, rngs: Sequence, count: int) -> np.ndarray:
    """count anti-Hermitian (a - a^*) / 4 from each random stream in rngs,
    a with uniform[-1,1] real and imaginary parts, stacked (S, count, n, n):
    the logarithms of U samples.  One draw per stream holds both parts of
    every sample."""
    a = np.array([rng.uniform(-1, 1, (count, 2, ctx.n, ctx.n)) for rng in rngs])
    a = a[:, :, 0] + 1j * a[:, :, 1]
    return (a - a.conj().swapaxes(-1, -2)) / 4.0


def _draws(ctx: AlgebraContext, specs: Sequence[SurfaceSpec],
           seeds: Iterable[int]) -> List[np.ndarray]:
    """The draws of each seed from its own random stream, for each surface
    of specs from the stream's start, stacked (S, G, n, n) per surface in
    generator order: for GL the numerators over _GL_DEN, for U the
    logarithms.  Each seed's stream is seeded once and its state restored
    before every surface after the first."""
    rngs = [np.random.default_rng(seed) for seed in seeds]
    start = [rng.bit_generator.state for rng in rngs]
    sample = _random_gl if ctx.kind == "gl" else _random_u_log
    out = []
    for k, spec in enumerate(specs):
        if k:
            for rng, state in zip(rngs, start):
                rng.bit_generator.state = state
        out.append(sample(ctx, rngs, len(generator_symbols(spec.genus, spec.boundary_count))))
    return out


def _matrices(ctx: AlgebraContext, draws: np.ndarray) -> np.ndarray:
    """The group elements of a stack of draws, of any leading shape."""
    return draws / _GL_DEN if ctx.kind == "gl" else expm(draws)


def _point(ctx: AlgebraContext, spec: SurfaceSpec, draws: np.ndarray, exact: bool) -> RepPoint:
    """The point of draws (G, n, n), or the stack of draws (G, S, n, n), in
    generator order; with exact, a GL point keeps the numerators as its
    exact copy."""
    syms = generator_symbols(spec.genus, spec.boundary_count)
    nums = (_GL_DEN, dict(zip(syms, draws.tolist()))) if exact and ctx.kind == "gl" else None
    return RepPoint(ctx, spec, dict(zip(syms, _matrices(ctx, draws))), nums)


def random_stacks(ctx: AlgebraContext, specs: Sequence[SurfaceSpec], seeds: Iterable[int],
                  exact: bool = False) -> List[RepPoint]:
    """The points random_point draws at each seed, one stacked point per
    surface of specs, all from one seeding of each seed; with exact, each GL
    stack keeps the numerators of its draws as its exact copy."""
    return [_point(ctx, spec, d.swapaxes(0, 1).copy(), exact)   # (G, S, n, n)
            for spec, d in zip(specs, _draws(ctx, specs, seeds))]


def random_points(ctx: AlgebraContext, spec: SurfaceSpec, seeds: Iterable[int]) -> RepPoint:
    """The points random_point draws at each seed, as one stacked point."""
    return random_stacks(ctx, [spec], seeds)[0]


def random_point(ctx: AlgebraContext, spec: SurfaceSpec, seed: int) -> RepPoint:
    """The point of one seed, the one-seed stack of random_points; for GL
    its exact copy is the draw's integer numerators over _GL_DEN."""
    return _point(ctx, spec, _draws(ctx, [spec], [seed])[0][0], True)
