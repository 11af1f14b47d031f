"""Representation space M_G(Sigma) = G^{2(b-1)+2g}: holonomy, boundary
moments, the G^b action, and reproducible sampling."""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .lie import AlgebraContext, expm
from .surfaces import SurfaceSpec
from .words import Word, generator_endpoints, generator_symbols, mu1_letters, substitute

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
    otherwise (a unitary point, a point built by push or act).  memo holds
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
        wrong = [("missing", [sym for sym in need if sym not in self.mats]),
                 ("unknown", [sym for sym in self.mats if sym not in need])]
        if any(syms for _, syms in wrong):
            raise ValueError("coordinates must cover exactly the generators: " + "; ".join(
                "%s %s" % (what, ", ".join(map(str, syms))) for what, syms in wrong if syms))
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
    def shape(self) -> tuple:
        """The shape of every generator's matrix: (n, n), or (S, n, n)."""
        return next(iter(self.mats.values())).shape

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
    inverting each symbol that occurs inverted once.  The empty word gives
    a read-only identity of the matrices' shape."""
    if inv is None:
        inv = {s: np.linalg.inv(mats[s]) for s in {s for s, sgn in letters if sgn == -1}}
    out = np.eye(ctx.n, dtype=ctx.dtype)
    for sym, sgn in letters:
        out = out @ (mats[sym] if sgn == 1 else inv[sym])
    return out if letters else np.broadcast_to(out, np.shape(next(iter(mats.values()))))


def holonomy(m: RepPoint, w: Word) -> np.ndarray:
    """The holonomy of w at m, once per point and word; one that overflowed
    raises OverflowError naming w."""
    return m.remember(("holonomy", w.letters), _holonomy, m, w)


@np.errstate(over="ignore", invalid="ignore")
def _holonomy(m: RepPoint, w: Word) -> np.ndarray:
    out = word_product(m.ctx, w.letters, m.mats, m.inv)
    if not np.isfinite(out).all():
        raise OverflowError("the holonomy of %s overflowed" % w)
    return out


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


def push(m: RepPoint, images: Mapping[str, Word]) -> RepPoint:
    """T.m for the move T of images (see words.substitute): the holonomy of
    w at T.m is that of T(w) at m.  A move that changes a boundary word, as
    a reduced word, raises ValueError."""
    for i in range(1, m.spec.boundary_count + 1):
        word = boundary_word(m.spec, i)
        if substitute(word, images) != word:
            raise ValueError("the move does not fix the word of boundary component %d" % i)
    # mu_1 reads every generator, so its check has checked every image's endpoints
    return RepPoint(m.ctx, m.spec, {sym: holonomy(m, images[sym]) if sym in images else mat
                                    for sym, mat in m.mats.items()})


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
    """count candidate GL_n samples I + 0.3 * uniform[-1,1] entries from each
    random stream in rngs, one draw per stream, as the integer numerators
    over _GL_DEN = 10 * 2^20, stacked (S, count, n, n): the matrices are the
    nearest doubles of these rationals, and the exact copy holds them."""
    n = ctx.n
    return (_GL_DEN * np.eye(n, dtype=np.int64)
            + 3 * np.array([rng.integers(-_K_MAX, _K_MAX + 1, (count, n, n)) for rng in rngs]))


def _redraw_gl(ctx: AlgebraContext, rng, count: int) -> np.ndarray:
    """count GL samples (count, n, n) from the stream rng, one generator at a
    time: each takes the next candidate with |det| > _GL_MIN_DET, within
    _GL_TRIES of its own.  Where no candidate is rejected this reads what
    one _random_gl draw does."""
    out = []
    for _ in range(count):
        for _ in range(_GL_TRIES):
            cand = _random_gl(ctx, [rng], 1)[0, 0]
            if abs(np.linalg.det(cand / _GL_DEN)) > _GL_MIN_DET:
                break
        else:
            raise ValueError("resampling budget exhausted")
        out.append(cand)
    return np.array(out)


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
    logarithms.  Each seed's stream is seeded and drawn once, for the
    surface with the most generators, and every surface reads the start of
    that draw; a GL surface with a candidate at or below _GL_MIN_DET at
    some seed draws that seed again from its fresh stream (_redraw_gl)."""
    seeds = list(seeds)
    counts = [len(generator_symbols(spec.genus, spec.boundary_count)) for spec in specs]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    if ctx.kind == "u":
        logs = _random_u_log(ctx, rngs, max(counts))
        return [logs[:, :count] for count in counts]
    cand = _random_gl(ctx, rngs, max(counts))
    ok = np.abs(np.linalg.det(cand / _GL_DEN)) > _GL_MIN_DET
    out = []
    for count in counts:
        draws = cand[:, :count].copy()
        for k in np.flatnonzero(~ok[:, :count].all(axis=1)):
            draws[k] = _redraw_gl(ctx, np.random.default_rng(seeds[k]), count)
        out.append(draws)
    return out


def _matrices(ctx: AlgebraContext, draws: np.ndarray) -> np.ndarray:
    """The group elements of a stack of draws, of any leading shape."""
    return draws / _GL_DEN if ctx.kind == "gl" else expm(draws)


def _point(ctx: AlgebraContext, spec: SurfaceSpec, draws: np.ndarray) -> RepPoint:
    """The point of draws (G, n, n), or the stack of draws (G, S, n, n), in
    generator order; a GL point keeps the numerators as its exact copy."""
    syms = generator_symbols(spec.genus, spec.boundary_count)
    nums = (_GL_DEN, dict(zip(syms, draws.tolist()))) if ctx.kind == "gl" else None
    return RepPoint(ctx, spec, dict(zip(syms, _matrices(ctx, draws))), nums)


def random_stacks(ctx: AlgebraContext, specs: Sequence[SurfaceSpec],
                  seeds: Iterable[int]) -> List[RepPoint]:
    """The points random_point draws at each seed, one stacked point per
    surface of specs, all from one seeding of each seed; each GL stack keeps
    the numerators of its draws as its exact copy."""
    return [_point(ctx, spec, d.swapaxes(0, 1).copy())   # (G, S, n, n)
            for spec, d in zip(specs, _draws(ctx, specs, seeds))]


def random_point(ctx: AlgebraContext, spec: SurfaceSpec, seed: int) -> RepPoint:
    """The point of one seed, the one-seed stack of random_stacks; for GL
    its exact copy is the draw's integer numerators over _GL_DEN."""
    return _point(ctx, spec, _draws(ctx, [spec], [seed])[0][0])
