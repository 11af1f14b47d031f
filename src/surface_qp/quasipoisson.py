"""Quasi-Poisson structure on M_G(Sigma): the fused bivector, numeric
brackets, the defining identities, and the combinatorial bracket formula of
the main theorem.

The bivector lives on the coordinates of the canonical split pieces: an
annulus piece i carries double coordinates (a_i, b_i) with u_i = a_i and
v_i = b_i a_i; a torus piece j carries (c_j, d_j) = (Hol_gamma, Hol_delta).
A field type A = (slot, side) turns an algebra element x into a field on one
slot: side "L" is the left-invariant field g x, "R" the right-invariant x g.
Doubles and fusion only produce terms c sum_k A(e_k) ^ B(f_k) over the dual
basis pair with c independent of k, so the bivector is stored as the
coefficient matrix C[A, B] = c over the field types.

The actions are the rows of the weight matrix W: W[p, A] is the coefficient
of field type A in action slot p.  Fusing slots p and q adds their rows and
adds -1/2 W[p] W[q]^T to C.  Fusion is associative, so the fusion product of
the split pieces has a closed form: each piece keeps its own 4 x 4 block, and
pieces i < j are coupled by -1/2 w_i w_j^T, with w_i the weights of piece
i's first action.  build_bivector assembles C and W that way; double, fuse
and product are the definition, and fold_bivector iterates them.

A function f enters through its gradients grad_A f in g, defined by
df(A(x)) = <grad_A f, x>: one array grad f, a row per field type as in C and
W.  Summing over the dual pair gives, with A = C - C^T,
    {f, g} = sum_AB A_AB <grad_A f, grad_B g> = <grad f, A grad g>
at a point or a stack; the rows of chi_f = -W grad f are the actions' chi.

The moment condition mu*theta(P#df) = -1/2 (1 + Ad_mu^-1) chi_f is checked
through the same pairing: <mu^-1 dmu(P#df), e_k> = {f, F_k} for
F_k = <e_k, mu(m)^-1 mu>, whose left variation at mu(m) is e_k.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from .diagrams import IntersectionData
from .lie import AlgebraContext, Observable, cartan_trivector, dual_basis
from .repspace import RepPoint, boundary_moment, boundary_word, holonomy, word_product
from .surfaces import SurfaceSpec, split_canonical
from .words import Word, free_reduce, invert

Slot = Tuple[str, int]          # ("a", i) | ("b", i) | ("c", j) | ("d", j)
FieldType = Tuple[Slot, str]    # (slot, side)


@dataclass(frozen=True, eq=False)
class HamiltonianQP:
    """The bivector as its coefficient matrix C over the field types, and its
    natural (sign-free) actions as the weight matrix W.  Both are made
    read-only on construction, so the forms derived from them stay their own."""
    ctx: AlgebraContext
    types: List[FieldType]          # the rows and columns of C, the columns of W
    c: np.ndarray                   # C[A, B], read-only
    w: np.ndarray                   # W[p, A], read-only

    def __post_init__(self):
        self.c.setflags(write=False)
        self.w.setflags(write=False)

    @cached_property
    def slots(self) -> List[Slot]:
        """The coordinate slots, in the order of the field types."""
        return list(dict.fromkeys(s for s, _ in self.types))

    @cached_property
    def skew(self) -> Tuple[Dict[FieldType, int], np.ndarray]:
        """An index of the field types, the rows of a gradient, and the
        antisymmetric matrix A = C - C^T over it, which pair_gradients applies."""
        return {t: k for k, t in enumerate(self.types)}, self.c - self.c.T


def _letter_slots(sym: str) -> list:
    kind, idx = sym[0], int(sym[1:])
    if kind == "A":
        return [(("a", idx), 1)]
    if kind == "B":
        if idx == 1:
            raise ValueError("B1 must be expanded before slot conversion")
        return [(("b", idx), 1), (("a", idx), 1)]
    if kind == "C":
        return [(("c", idx), 1)]
    if kind == "D":
        return [(("d", idx), 1)]
    raise ValueError("unknown generator %r" % sym)


def slot_word(w: Word) -> tuple:
    out = []
    for sym, sgn in w.letters:
        ls = _letter_slots(sym)
        out += ls if sgn == 1 else list(invert(ls))
    return free_reduce(out)


def slot_values(m: RepPoint) -> Tuple[Mapping[Slot, np.ndarray], Mapping[Slot, np.ndarray]]:
    """The slot values at the point and their inverses, from those m holds,
    once per point."""
    return m.remember("slot_values", _slot_values, m)


def _slot_values(m: RepPoint) -> Tuple[Dict[Slot, np.ndarray], Dict[Slot, np.ndarray]]:
    vals: Dict[Slot, np.ndarray] = {}
    inv: Dict[Slot, np.ndarray] = {}
    b, g = m.spec.boundary_count, m.spec.genus
    for i in range(2, b + 1):
        u, v = m.mat("A%d" % i), m.mat("B%d" % i)
        ui, vi = m.inv["A%d" % i], m.inv["B%d" % i]
        vals[("a", i)], inv[("a", i)] = u, ui
        vals[("b", i)], inv[("b", i)] = v @ ui, u @ vi
    for j in range(1, g + 1):
        for kind in "cd":
            sym = "%s%d" % (kind.upper(), j)
            vals[(kind, j)], inv[(kind, j)] = m.mat(sym), m.inv[sym]
    return vals, inv


def field_value(vals: Dict[Slot, np.ndarray], a: FieldType, x: np.ndarray) -> np.ndarray:
    """The field a(x) at the point: g x (side "L") or x g (side "R")."""
    v = vals[a[0]]
    return v @ x if a[1] == "L" else x @ v


# --- constructors ---------------------------------------------------------

def _fusion(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """What fusing two actions with weights w and v adds to C."""
    return -0.5 * np.outer(w, v)


def double(ctx: AlgebraContext, sa: Slot = ("a", 2), sb: Slot = ("b", 2)) -> HamiltonianQP:
    """The double D(G) on slots (a, b) with moment (ab, a^-1 b^-1), over the
    field types (a, L), (b, R), (a, R), (b, L): C[(a, L), (b, R)] =
    C[(a, R), (b, L)] = 1/2."""
    c = np.zeros((4, 4))
    c[0, 1] = c[2, 3] = 0.5
    w = np.array([[0.0, 0, 1, -1],    # a -> g a,  b -> b g^-1
                  [-1, 1, 0, 0]])     # a -> a g^-1,  b -> g b
    return HamiltonianQP(ctx, [(sa, "L"), (sb, "R"), (sa, "R"), (sb, "L")], c, w)


def fuse(h: HamiltonianQP, p: int = 0, q: int = 1) -> HamiltonianQP:
    """Fuse action slots p and q: P' = P - rho_psi, moments multiply."""
    if p == q or not (0 <= p < len(h.w)) or not (0 <= q < len(h.w)):
        raise ValueError("invalid action slots")
    # rho_psi = 1/2 sum rho_e^p ^ rho_f^q; the two action minus signs cancel,
    # leaving the natural action fields
    c = h.c + _fusion(h.w[p], h.w[q])
    w = np.vstack([h.w[p] + h.w[q], np.delete(h.w, [p, q], axis=0)])
    return HamiltonianQP(h.ctx, h.types, c, w)


def fused_double(ctx: AlgebraContext, sa: Slot = ("c", 1), sb: Slot = ("d", 1)) -> HamiltonianQP:
    return fuse(double(ctx, sa, sb), 0, 1)


def product(h1: HamiltonianQP, h2: HamiltonianQP) -> HamiltonianQP:
    """h1 x h2: C and W are block-diagonal over the field types of h1, then h2."""
    if set(h1.slots) & set(h2.slots):
        raise ValueError("slot clash in product")
    k, p = len(h1.types), len(h1.w)
    c = np.zeros((k + len(h2.types),) * 2)
    w = np.zeros((p + len(h2.w), len(c)))
    c[:k, :k], c[k:, k:] = h1.c, h2.c
    w[:p, :k], w[p:, k:] = h1.w, h2.w
    return HamiltonianQP(h1.ctx, h1.types + h2.types, c, w)


def fusion_product(h1: HamiltonianQP, h2: HamiltonianQP) -> HamiltonianQP:
    """h1 (x) h2 with the first action of each factor fused."""
    return fuse(product(h1, h2), 0, len(h1.w))


def piece_structure(ctx: AlgebraContext, kind: str, index: int) -> HamiltonianQP:
    if kind == "annulus":
        return double(ctx, ("a", index), ("b", index))
    if kind == "torus":
        return fused_double(ctx, ("c", index), ("d", index))
    raise ValueError(kind)


def fold_bivector(spec: SurfaceSpec, ctx: AlgebraContext) -> HamiltonianQP:
    """The definition of the bivector: the fusion product of b-1 doubles and
    g fused doubles, folded from the left, ((1 (x) 2) (x) 3)."""
    hs = [piece_structure(ctx, p.kind, p.index) for p in split_canonical(spec)]
    acc = hs[0]
    for h in hs[1:]:
        acc = fusion_product(acc, h)
    return acc


# A piece over its field types (x, L), (y, R), (x, R), (y, L), on its slots
# (x, y) = (a_i, b_i) or (c_j, d_j): the double's coefficients C[(x, L), (y, R)]
# = C[(x, R), (y, L)] = 1/2 and the weights of its actions x -> g x, y -> y g^-1
# and x -> x g^-1, y -> g y.
_DOUBLE = np.array([[0, 0.5, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0.5], [0, 0, 0, 0]])
_ACTS = np.array([[0, 0, 1, -1], [-1, 1, 0, 0]])

# each kind's own block and action weights: an annulus is the double, a
# torus the double with its two actions fused
_KIND = {"annulus": 0, "torus": 1}
_PIECES = ((_DOUBLE, _ACTS), (_DOUBLE + _fusion(*_ACTS), _ACTS.sum(axis=0, keepdims=True)))


def _blocks(pieces) -> np.ndarray:
    """The block (i, j) of C by the sign of i - j and the kinds of pieces i
    and j: the piece's own block on the diagonal (sign 0), nothing below it
    (sign 1), and the fusion of the two first actions above it (sign -1)."""
    out = np.zeros((3, len(pieces), len(pieces), 4, 4))
    for ki, (own, wi) in enumerate(pieces):
        out[0, ki, ki] = own
        for kj, (_, wj) in enumerate(pieces):
            out[-1, ki, kj] = _fusion(wi[0], wj[0])
    return out + 0.0   # a zero weight gives +0.0, not -0.0, as a scatter onto zeros does


_BLOCKS = _blocks(_PIECES)


def build_bivector(spec: SurfaceSpec, ctx: AlgebraContext) -> HamiltonianQP:
    """The fusion product of b-1 doubles and g fused doubles, in the closed
    form of the module docstring: the same field types, C and W as
    fold_bivector, which the splitting suite compares it with.  W's row 0
    fuses every piece's first action; each annulus adds its second."""
    pieces = split_canonical(spec)
    kinds = [_KIND[p.kind] for p in pieces]
    k, r = np.array(kinds), np.arange(len(kinds))
    c = _BLOCKS[np.sign(np.subtract.outer(r, r)), k[:, None], k]
    c = c.transpose(0, 2, 1, 3).reshape(4 * len(k), 4 * len(k))
    types = [((s, p.index), side) for p, kind in zip(pieces, kinds)
             for s, side in zip(("abab", "cdcd")[kind], "LRRL")]
    annuli = np.flatnonzero(k == 0)
    w = np.zeros((1 + len(annuli), len(types)))
    w[0] = np.concatenate([_PIECES[kind][1][0] for kind in kinds])
    for p, i in enumerate(annuli, 1):
        w[p, 4 * i:4 * i + 4] = _PIECES[0][1][1]
    return HamiltonianQP(ctx, types, c, w)


def perturbed(h: HamiltonianQP, mutate: float) -> HamiltonianQP:
    """Copy of h with one entry of C scaled by (1 + mutate), to show that a
    check is sensitive: C[2, 6], the coupling of the first two pieces at
    their (x, R) fields, or the double's C[(x, L), (y, R)] = C[0, 1] on a
    one-piece surface.  mutate = 0 gives an equal copy."""
    key = (2, 6) if len(h.types) > 4 else (0, 1)
    c = h.c.copy()
    c[key] *= 1.0 + mutate
    return replace(h, c=c)


# --- functions on M and their gradients -----------------------------------

@dataclass
class WordFunction:
    """f = Phi(Hol_w), with closed-form gradients along the field types."""
    obs: Observable
    word: Word

    def __post_init__(self):
        self.slots = slot_word(self.word)

    def gradients(self, h: HamiltonianQP, m: RepPoint) -> np.ndarray:
        """grad_A f for every field type A of h, one row each."""
        return slot_gradients(h, self.slots, self.obs.over(m.shape), m)


def slot_gradients(h: HamiltonianQP, slots: tuple, mo: np.ndarray,
                   m: RepPoint) -> np.ndarray:
    """grad_A Phi(Hol) on a slot word for Phi(g) = Re Tr(mo g), one row per
    field type A of h in h.types order and zero rows on the slots the word
    does not reach; mo is an M, or M's stacked before the point's stack axes.

    With Hol = F_0 ... F_{L-1}, P_t = F_0 ... F_{t-1} and Q_t = F_t ... F_{L-1},
    var = P(mo Hol) gives Ad_{Q_t} var = P(Q_t mo P_t), as Ad by a unitary
    commutes with P.  A letter t on slot s contributes Ad_{Q_{t+1}} var to
    (s, L) and Ad_{Q_t} var to (s, R); an inverse letter -Ad_{Q_t} var to
    (s, L) and -Ad_{Q_{t+1}} var to (s, R).  The chains are formed once per
    point and slot word; no inverse of a product is taken."""
    p, q = m.remember(("chains", slots), _chains, m, slots)
    # every Ad_{Q_t} var in one product: t on a leading axis, before mo's own
    shape = q.shape[:1] + (1,) * (mo.ndim + 1 - q.ndim) + q.shape[1:]
    ad = h.ctx.project_gradient(q.reshape(shape) @ mo @ p.reshape(shape))
    index = h.skew[0]
    out = np.zeros((len(h.types),) + ad.shape[1:], ad.dtype)
    for t, (s, sgn) in enumerate(slots):
        left, right = (ad[t + 1], ad[t]) if sgn == 1 else (-ad[t], -ad[t + 1])
        out[index[s, "L"]] += left
        out[index[s, "R"]] += right
    return out


def _chains(m: RepPoint, slots: tuple) -> Tuple[np.ndarray, np.ndarray]:
    """The prefixes P_0 = I, ..., P_L = Hol and the suffixes Q_0 = Hol, ...,
    Q_L = I of a slot word, each chain on a leading axis of length L + 1."""
    vals, inv = slot_values(m)
    facs = [vals[s] if sgn == 1 else inv[s] for s, sgn in slots]
    eye = word_product(m.ctx, (), m.mats)   # an identity of the point's shape
    p = accumulate(facs, np.matmul, initial=eye)
    q = accumulate(reversed(facs), lambda acc, fac: fac @ acc, initial=eye)
    return np.array(list(p)), np.array(list(q)[::-1])


def bracket_numeric(h: HamiltonianQP, f: WordFunction, g: WordFunction,
                    m: RepPoint):
    """{f, g} at the point m, or at each point of a stack."""
    return pair_gradients(h, f.gradients(h, m), g.gradients(h, m))


def pair_gradients(h: HamiltonianQP, df: np.ndarray, dg: np.ndarray):
    """sum_AB A_AB <grad_A f, grad_B g> for the gradients df, dg of
    WordFunction.gradients: one product of A with dg and one trace
    contraction with df."""
    adg = np.tensordot(h.skew[1], dg, 1)
    return h.ctx.form_sign * np.einsum("a...ij,a...ji->...", df, adg).real


def chi(h: HamiltonianQP, df: np.ndarray) -> np.ndarray:
    """The moment variations chi_f = -W grad f of every action slot p,
    <chi_f[p], x> = d/dt f(exp(-tx).m), from the gradients df of
    WordFunction.gradients.  Action slot i-1 of build_bivector acts at
    boundary component i."""
    return -np.tensordot(h.w, df, 1)


def verify_moment(h: HamiltonianQP, f: WordFunction, m: RepPoint) -> dict:
    """The moment condition at every action slot p (the moment of boundary
    component p + 1), on a leading axis, at the point m or each point of a
    stack, from one gradient pass and one chi of f.  The left-hand side is
    sum_k {f, F_k} f_k with F_k as in the module docstring, whose M is
    form_sign e_k mu(m)^-1, mu(m)^-1 the holonomy of the inverse word."""
    pair = dual_basis(h.ctx)
    df = f.gradients(h, m)
    lhs, rhs = [], []
    for p, c in enumerate(chi(h, df)):
        word = boundary_word(m.spec, p + 1)
        mk = np.einsum("kij,...jl->k...il", pair.e, holonomy(m, word.inverse()))
        dmu = slot_gradients(h, slot_word(word), h.ctx.form_sign * mk, m)
        mu = boundary_moment(m, p + 1)
        rhs.append(-0.5 * (c + np.linalg.inv(mu) @ c @ mu))
        lhs.append(np.tensordot(pair_gradients(h, df, dmu), pair.f, (0, 0)))
    lhs, rhs = np.array(lhs), np.array(rhs)
    return {"lhs": lhs, "rhs": rhs, "residual": np.abs(lhs - rhs).max(axis=(-2, -1))}


# --- Schouten identity in the GL matrix-entry chart -----------------------

def _field_vectors_and_jacs(a: FieldType, x: np.ndarray, vals, n):
    """Entries of the fields a(x_k) on their own slot, one row per matrix of
    the (d, n, n) stack x (with a leading axis per point of a stack of slot
    values), and their Jacobians in that slot's entries, which depend on x
    alone: d(g x)/dg = I (x) x^T, d(x g)/dg = x (x) I (row-major)."""
    x = np.real(x)
    vec = np.real(field_value(vals, a, x))
    jac = (np.einsum("pr,ktq->kpqrt", np.eye(n), x) if a[1] == "L"
           else np.einsum("kpr,qt->kpqrt", x, np.eye(n)))
    return vec.reshape(vec.shape[:-2] + (n * n,)), jac.reshape(len(x), n * n, n * n)


def _jacobiator(pi: np.ndarray, dpi: np.ndarray) -> np.ndarray:
    """[P, P] = 2 (T[a, b, c] + T[b, c, a] + T[c, a, b]) over a stack of Pi
    and dpi, with T[a, b, c] = sum_d Pi[a, d] dpi[d, b, c] as one (a, d) x
    (d, c) product per b: products this small stay on one BLAS thread."""
    t = (2.0 * pi[:, None] @ dpi.transpose(0, 2, 1, 3)).transpose(0, 2, 1, 3)   # 2 T
    jac = t + t.transpose(0, 3, 1, 2)
    jac += t.transpose(0, 2, 3, 1)
    return jac


@np.errstate(over="ignore", invalid="ignore")   # a huge C gives a nan residual
def schouten_residual(h: HamiltonianQP, m: RepPoint) -> dict:
    """Componentwise residual of [P,P] = rho_phi in the matrix-entry chart
    (GL contexts only), at the point m or at each point of a stack; a check
    of a perturbed(h, ...) copy shows that the identity is sensitive.

    Pi and dpi[d, a, b] = d_d Pi^{ab} take one contraction per nonzero of C
    over the stacked dual pair (e, f).  The Jacobiator is one product
    T = Pi . dpi plus its two cyclic index permutations.  The Cartan
    coefficients are alternating, so each contracted g_p is too, and its
    wedge is 6 g_p: rho_phi = -6 sum_p g_p, one product over the rows of all
    action slots p.  For a stack every array gains a leading axis and
    residual is one value per point, a float for a point; dense arrays
    larger than physical memory raise MemoryError before any is allocated."""
    if h.ctx.kind != "gl":
        raise ValueError("the entry chart requires the GL context")
    vals, _ = slot_values(m)
    n = h.ctx.n
    stacked = any(v.ndim == 3 for v in vals.values())
    vals = {s: v.reshape(-1, 1, n, n) for s, v in vals.items()}   # (S, 1, n, n)
    s_count = next((len(v) for v in vals.values()), 1)
    blk = {s: slice(k * n * n, (k + 1) * n * n) for k, s in enumerate(h.slots)}
    dim = len(h.slots) * n * n
    need = 7 * 8 * s_count * dim ** 3   # dpi and its copy, T, Jacobiator, y, g, residual
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise MemoryError("the entry chart needs %.1f GiB of dense arrays, more than the "
                          "%.1f GiB of physical memory" % (need / 2 ** 30, have / 2 ** 30))
    tv = cartan_trivector(h.ctx)
    e, f = np.asarray(tv.pair.e), np.asarray(tv.pair.f)
    nn, d = n * n, tv.pair.dim
    fields = {}   # entries and Jacobians of (field type, first or second factor)

    def field(a: FieldType, second: bool):
        if (a, second) not in fields:
            vec, jac = _field_vectors_and_jacs(a, f if second else e, vals, n)
            fields[a, second] = vec, (jac.reshape(d, -1) if second
                                      else jac.transpose(2, 1, 0).reshape(-1, d))
        return fields[a, second]

    # the terms of Pi^{ab} and d_d Pi^{ab}; Pi and dpi are their antisymmetrizations in (a, b)
    pi = np.zeros((s_count, dim, dim))
    dpi = np.zeros((s_count, dim, dim, dim))
    for i, j in zip(*np.nonzero(h.c)):   # C's nonzeros, row-major
        a, b, c = h.types[i], h.types[j], h.c[i, j]
        ia, ib = blk[a[0]], blk[b[0]]
        v, jv = field(a, False)   # jv[(d, a), k] = d_d v[k, a]
        w, jw = field(b, True)    # jw[k, (b, d)] = d_d w[k, b]
        pi[:, ia, ib] += c * v.swapaxes(-1, -2) @ w
        # derivatives along slot a and along slot b, indexed [s, d, a, b]
        dpi[:, ia, ia, ib] += c * (jv @ w).reshape(s_count, nn, nn, nn)
        dpi[:, ib, ia, ib] += c * (v.swapaxes(-1, -2) @ jw).reshape(
            s_count, nn, nn, nn).transpose(0, 3, 1, 2)
    pi -= pi.swapaxes(-1, -2).copy()
    dpi -= dpi.swapaxes(-1, -2).copy()

    jac = _jacobiator(pi, dpi)

    # rows[s, p, i] = sigma_p(f_i) at point s, so that
    # g[a, b, c] = sum_p,ijk coeffs[i, j, k] rows[p, i, a] rows[p, j, b] rows[p, k, c]
    # contracts k, j and then (p, i), the last again one product per b
    acts = len(h.w)
    rows = np.zeros((s_count, acts, d, dim))
    for p, i in zip(*np.nonzero(h.w)):   # W's nonzeros, row-major
        rows[:, p, :, blk[h.types[i][0]]] += h.w[p, i] * field(h.types[i], True)[0]
    rows_t = rows.swapaxes(-1, -2)                                   # (S, P, dim, d)
    # rho_x = -sigma_x and the wedge of g is 6 g, so the factor -6 goes on the coefficients
    x = (-6.0 * tv.coeffs.reshape(d * d, d) @ rows).reshape(s_count, acts, d, d, dim)
    y = (rows_t[:, :, None] @ x).reshape(s_count, acts * d, dim, dim)    # [(p, i), b, c]
    g = rows.reshape(s_count, 1, acts * d, dim).swapaxes(-1, -2) @ y.transpose(0, 2, 1, 3)
    rho = g.transpose(0, 2, 1, 3)

    res = jac - rho
    np.abs(res, out=res)
    residual = res.max(axis=(-3, -2, -1), initial=0.0)
    out = {"residual": residual, "jacobiator": jac, "rho_phi": rho, "pi": pi, "dpi": dpi}
    if not stacked:
        out = {k: v[0] for k, v in out.items()}
        out["residual"] = float(out["residual"])
    return out


# --- combinatorial bracket (main formula) ---------------------------------

def bracket_combinatorial(phi: Observable, w_alpha: Word,
                          psi: Observable, w_beta: Word,
                          data: IntersectionData, m: RepPoint,
                          pair: Optional[Callable] = None):
    """The main formula: sum_(I,J) eps_IJ pair(s, var^I phi, var^J psi) over
    the endpoint signs s, plus sum_q sign(q) B^q over the crossings, with
    B^q = <var_right phi(Hol_alpha), Ad_c var_left psi(Hol_beta)> and c the
    holonomy of the rerouted path alpha *_q beta.  Since beta *_q alpha =
    beta (alpha *_q beta)^-1 alpha and var_left psi(Hol_beta) = N Hol_beta,
    B^q = Re tr(M_phi Hol(alpha *_q beta) N Hol(beta *_q alpha)), which
    forms no inverse of a holonomy.  All crossings with the same reroute
    words share one B^q: the sum reads both words of each class of
    data.crossings once.  pair defaults to the invariant form <u, w>; the
    cross-section bracket dresses it with Theta.  A stacked point gives one
    value per point."""
    ha, hb = holonomy(m, w_alpha), holonomy(m, w_beta)
    # var_right at the start of a path, var_left at its end
    va = {"start": phi.var_right(ha), "end": phi.var_left(ha)}
    vb = {"start": psi.var_right(hb), "end": psi.var_left(hb)}
    pair = pair or (lambda s, u, w: m.ctx.form(u, w))
    tot = 0.0
    for (I, J), s in data.endpoint_signs.items():
        if s.value != 0:
            tot += float(s.value) * pair(s, va[I], vb[J])
    m_phi, n_psi = phi.over(np.shape(ha)), psi.left_factor(hb)
    for (ab, ba), coeff in data.crossings.items():
        tr = np.einsum("...ij,...ji->...", m_phi, holonomy(m, ab) @ n_psi @ holonomy(m, ba))
        tot = tot + coeff * tr.real
    return tot
