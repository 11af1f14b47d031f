"""Quasi-Poisson structure on M_G(Sigma): bivectors by iterated fusion,
numeric brackets, the defining identities, and the combinatorial bracket
formula of the main theorem.

The bivector lives on the coordinates of the canonical split pieces: an
annulus piece i carries double coordinates (a_i, b_i) with u_i = a_i and
v_i = b_i a_i; a torus piece j carries (c_j, d_j) = (Hol_gamma, Hol_delta).
A field type A = (slot, side) turns an algebra element x into a field on one
slot: side "L" is the left-invariant field g x, "R" the right-invariant x g.
Doubles and fusion only produce terms c sum_k A(e_k) ^ B(f_k) over the dual
basis pair with c independent of k, so the bivector is stored as the
coefficient map C[(A, B)] = c.

A function f enters through its gradients grad_A f in g, defined by
df(A(x)) = <grad_A f, x>; summing over the dual pair gives the bracket as
the quadratic form
    {f, g} = sum_AB C_AB (<grad_A f, grad_B g> - <grad_B f, grad_A g>).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .diagrams import IntersectionData
from .lie import (AlgebraContext, CartanTrivector, DualBasisPair, Observable,
                  cartan_trivector, dual_basis, wedge3_tensor)
from .repspace import RepPoint, holonomy, word_product
from .surfaces import SurfaceSpec, split_canonical
from .words import Word, free_reduce, invert

# Overall sign relating the polygon orientation to the bracket; calibrated
# against the numeric bivector on the fixture surfaces.
ORIENTATION_SIGN = 1.0

Slot = Tuple[str, int]          # ("a", i) | ("b", i) | ("c", j) | ("d", j)
FieldType = Tuple[Slot, str]    # (slot, side)
ActionEntry = Tuple[Slot, str, int]   # (slot, field side, coefficient)


@dataclass
class HamiltonianQP:
    ctx: AlgebraContext
    pair: DualBasisPair
    slots: List[Slot]
    coeffs: Dict[Tuple[FieldType, FieldType], float]   # C[(A, B)]
    actions: List[List[ActionEntry]]        # natural (sign-free) action fields
    moments: Optional[List[tuple]]          # slot-letter words, one per action


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


def slot_values(m: RepPoint) -> Dict[Slot, np.ndarray]:
    vals: Dict[Slot, np.ndarray] = {}
    b, g = m.spec.boundary_count, m.spec.genus
    for i in range(2, b + 1):
        u, v = m.mat("A%d" % i), m.mat("B%d" % i)
        vals[("a", i)] = u
        vals[("b", i)] = v @ np.linalg.inv(u)
    for j in range(1, g + 1):
        vals[("c", j)] = m.mat("C%d" % j)
        vals[("d", j)] = m.mat("D%d" % j)
    return vals


def field_value(vals: Dict[Slot, np.ndarray], a: FieldType, x: np.ndarray) -> np.ndarray:
    """The field a(x) at the point: g x (side "L") or x g (side "R")."""
    v = vals[a[0]]
    return v @ x if a[1] == "L" else x @ v


# --- constructors ---------------------------------------------------------

def double(ctx: AlgebraContext, sa: Slot = ("a", 2), sb: Slot = ("b", 2)) -> HamiltonianQP:
    """The double D(G) on slots (a, b) with moment (ab, a^-1 b^-1)."""
    coeffs = {((sa, "L"), (sb, "R")): 0.5, ((sa, "R"), (sb, "L")): 0.5}
    act1 = [(sa, "R", 1), (sb, "L", -1)]   # a -> g a,  b -> b g^-1
    act2 = [(sa, "L", -1), (sb, "R", 1)]   # a -> a g^-1,  b -> g b
    mom1 = ((sa, 1), (sb, 1))
    mom2 = ((sa, -1), (sb, -1))
    return HamiltonianQP(ctx, dual_basis(ctx), [sa, sb], coeffs, [act1, act2],
                         [mom1, mom2])


def fuse(h: HamiltonianQP, p: int = 0, q: int = 1) -> HamiltonianQP:
    """Fuse action slots p and q: P' = P - rho_psi, moments multiply."""
    if p == q or not (0 <= p < len(h.actions)) or not (0 <= q < len(h.actions)):
        raise ValueError("invalid action slots")
    coeffs = dict(h.coeffs)
    for (s1, side1, c1) in h.actions[p]:
        for (s2, side2, c2) in h.actions[q]:
            # rho_psi = 1/2 sum rho_e^p ^ rho_f^q; the two action minus
            # signs cancel, leaving the natural action fields
            key = ((s1, side1), (s2, side2))
            coeffs[key] = coeffs.get(key, 0.0) - 0.5 * c1 * c2
    fused = h.actions[p] + h.actions[q]
    rest = [a for k, a in enumerate(h.actions) if k not in (p, q)]
    moments = None
    if h.moments is not None:
        mom = tuple(free_reduce(tuple(h.moments[p]) + tuple(h.moments[q])))
        moments = [mom] + [h.moments[k] for k in range(len(h.moments)) if k not in (p, q)]
    return HamiltonianQP(h.ctx, h.pair, list(h.slots), coeffs,
                         [fused] + rest, moments)


def fused_double(ctx: AlgebraContext, sa: Slot = ("c", 1), sb: Slot = ("d", 1)) -> HamiltonianQP:
    return fuse(double(ctx, sa, sb), 0, 1)


def product(h1: HamiltonianQP, h2: HamiltonianQP) -> HamiltonianQP:
    if set(h1.slots) & set(h2.slots):
        raise ValueError("slot clash in product")
    moments = None
    if h1.moments is not None and h2.moments is not None:
        moments = list(h1.moments) + list(h2.moments)
    return HamiltonianQP(h1.ctx, h1.pair, h1.slots + h2.slots,
                         {**h1.coeffs, **h2.coeffs}, h1.actions + h2.actions,
                         moments)


def fusion_product(h1: HamiltonianQP, h2: HamiltonianQP) -> HamiltonianQP:
    """h1 (x) h2 with the first action of each factor fused."""
    pr = product(h1, h2)
    return fuse(pr, 0, len(h1.actions))


def piece_structure(ctx: AlgebraContext, kind: str, index: int) -> HamiltonianQP:
    if kind == "annulus":
        return double(ctx, ("a", index), ("b", index))
    if kind == "torus":
        return fused_double(ctx, ("c", index), ("d", index))
    raise ValueError(kind)


def build_bivector(spec: SurfaceSpec, ctx: AlgebraContext,
                   order: str = "left") -> HamiltonianQP:
    """Fusion product of b-1 doubles and g fused doubles.

    order="left" folds ((1 (x) 2) (x) 3); order="right" folds (1 (x) (2 (x) 3));
    the results agree up to the splitting-independence theorem (verified in
    tests, not assumed)."""
    if spec.is_disk:
        return HamiltonianQP(ctx, dual_basis(ctx), [], {}, [[]], [()])
    hs = [piece_structure(ctx, p.kind, p.index) for p in split_canonical(spec)]
    if order == "left":
        acc = hs[0]
        for h in hs[1:]:
            acc = fusion_product(acc, h)
    elif order == "right":
        acc = hs[-1]
        for h in reversed(hs[:-1]):
            acc = fusion_product(h, acc)
    else:
        raise ValueError("order must be 'left' or 'right'")
    return acc


def _piece(a: FieldType) -> tuple:
    """The split piece a field type lives on: annulus (a, b) or torus (c, d)."""
    (kind, index), _ = a
    return ("annulus" if kind in "ab" else "torus", index)


def perturbed(h: HamiltonianQP, mutate: float) -> HamiltonianQP:
    """Copy of h with one coefficient scaled by (1 + mutate), to show that a
    check is sensitive: the first entry coupling two different pieces, or the
    first entry on a one-piece surface."""
    keys = [k for k in h.coeffs if _piece(k[0]) != _piece(k[1])] or list(h.coeffs)
    if not keys:
        return h
    coeffs = dict(h.coeffs)
    coeffs[keys[0]] *= 1.0 + mutate
    return replace(h, coeffs=coeffs)


# --- functions on M and their gradients -----------------------------------

@dataclass
class WordFunction:
    """f = Phi(Hol_w), with closed-form gradients along the field types."""
    obs: Observable
    word: Word

    def __post_init__(self):
        self.slots = slot_word(self.word)

    def gradients(self, m: RepPoint) -> Dict[FieldType, np.ndarray]:
        """grad_A f for every field type A on the slots of the word.

        With Hol = F_0 ... F_{L-1} and Q_t = F_t ... F_{L-1}, a letter t on
        slot s contributes Ad_{Q_{t+1}} var_left(Hol) to (s, L) and
        Ad_{Q_t} var_left(Hol) to (s, R); an inverse letter contributes
        -Ad_{Q_t} var_left(Hol) to (s, L) and -Ad_{Q_{t+1}} var_left(Hol)
        to (s, R)."""
        n, dt = m.ctx.n, m.ctx.dtype
        vals = slot_values(m)
        inv = {s: np.linalg.inv(vals[s]) for s in {s for s, _ in self.slots}}
        q, qi = [np.eye(n, dtype=dt)], [np.eye(n, dtype=dt)]
        for s, sgn in reversed(self.slots):
            fac, fac_inv = (vals[s], inv[s]) if sgn == 1 else (inv[s], vals[s])
            q.append(fac @ q[-1])
            qi.append(qi[-1] @ fac_inv)
        var = self.obs.var_left(q[-1])
        ad = [a @ var @ b for a, b in zip(reversed(q), reversed(qi))]
        out: Dict[FieldType, np.ndarray] = {}
        for t, (s, sgn) in enumerate(self.slots):
            left, right = (ad[t + 1], ad[t]) if sgn == 1 else (-ad[t], -ad[t + 1])
            out[(s, "L")] = out.get((s, "L"), 0) + left
            out[(s, "R")] = out.get((s, "R"), 0) + right
        return out


def bracket_numeric(h: HamiltonianQP, f: WordFunction, g: WordFunction,
                    m: RepPoint) -> float:
    """{f, g} = sum_AB C_AB (<grad_A f, grad_B g> - <grad_B f, grad_A g>)."""
    df, dg = f.gradients(m), g.gradients(m)
    tot = 0.0
    for (a, b), c in h.coeffs.items():
        if a in df and b in dg:
            tot += c * h.ctx.form(df[a], dg[b])
        if b in df and a in dg:
            tot -= c * h.ctx.form(df[b], dg[a])
    return tot


def sharp(h: HamiltonianQP, f: WordFunction, m: RepPoint) -> Dict[Slot, np.ndarray]:
    """P#(df) as a tangent vector, one matrix per coordinate slot."""
    df = f.gradients(m)
    vals = slot_values(m)
    out = {s: np.zeros((h.ctx.n, h.ctx.n), dtype=h.ctx.dtype) for s in h.slots}
    for (a, b), c in h.coeffs.items():
        if a in df:
            out[b[0]] = out[b[0]] + c * field_value(vals, b, df[a])
        if b in df:
            out[a[0]] = out[a[0]] - c * field_value(vals, a, df[b])
    return out


def action_sigma(h: HamiltonianQP, p: int, x: np.ndarray,
                 vals: Dict[Slot, np.ndarray]) -> Dict[Slot, np.ndarray]:
    """Natural infinitesimal action d/dt exp(tx).m of action slot p."""
    out: Dict[Slot, np.ndarray] = {}
    for (s, side, c) in h.actions[p]:
        out[s] = out.get(s, 0) + c * field_value(vals, (s, side), x)
    return out


def chi(h: HamiltonianQP, f: WordFunction, p: int, m: RepPoint) -> np.ndarray:
    """chi_f at action slot p: <chi_f, x> = d/dt f(exp(-tx).m)."""
    df = f.gradients(m)
    out = np.zeros((h.ctx.n, h.ctx.n), dtype=h.ctx.dtype)
    for (s, side, c) in h.actions[p]:
        if (s, side) in df:
            out = out - c * df[(s, side)]
    return out


def verify_moment(h: HamiltonianQP, p: int, f: WordFunction, m: RepPoint,
                  step: float = 1e-5) -> dict:
    """Residual of the moment condition mu*theta(P#df) = -1/2(1+Ad_mu^-1)chi_f
    for the action slot p, finite differences on the left-hand side."""
    vals = slot_values(m)
    x = sharp(h, f, m)
    vplus = {s: vals[s] + step * x[s] for s in vals}
    vminus = {s: vals[s] - step * x[s] for s in vals}
    mu = word_product(h.ctx, h.moments[p], vals)
    dmu = (word_product(h.ctx, h.moments[p], vplus)
           - word_product(h.ctx, h.moments[p], vminus)) / (2 * step)
    lhs = np.linalg.inv(mu) @ dmu
    c = chi(h, f, p, m)
    rhs = -0.5 * (c + np.linalg.inv(mu) @ c @ mu)
    res = float(np.max(np.abs(lhs - rhs)))
    return {"lhs": lhs, "rhs": rhs, "residual": res}


# --- Schouten identity in the GL matrix-entry chart -----------------------

def _field_vector_and_jac(a: FieldType, x: np.ndarray, vals, n):
    """Entries of the field a(x) on its own slot, and their Jacobian in that
    slot's entries: d(g x)/dg = I (x) x^T, d(x g)/dg = x (x) I (row-major)."""
    x = np.real(x)
    vec = np.real(field_value(vals, a, x)).reshape(-1)
    jac = np.kron(np.eye(n), x.T) if a[1] == "L" else np.kron(x, np.eye(n))
    return vec, jac


def schouten_residual(h: HamiltonianQP, m: RepPoint,
                      tv: Optional[CartanTrivector] = None,
                      mutate: float = 0.0) -> dict:
    """Componentwise residual of [P,P] = rho_phi in the matrix-entry chart
    (GL contexts only).  mutate scales one coefficient of C by (1+mutate)
    (see perturbed) to exercise the sensitivity of the identity."""
    if h.ctx.kind != "gl":
        raise ValueError("the entry chart requires the GL context")
    if tv is None:
        tv = cartan_trivector(h.ctx, h.pair)
    if mutate:
        h = perturbed(h, mutate)
    vals = slot_values(m)
    n = h.ctx.n
    blk = {s: slice(k * n * n, (k + 1) * n * n) for k, s in enumerate(h.slots)}
    dim = len(h.slots) * n * n

    pi = np.zeros((dim, dim))
    dpi = np.zeros((dim, dim, dim))  # dpi[d,a,b] = d_d Pi^{ab}
    for (a, b), c in h.coeffs.items():
        ia, ib = blk[a[0]], blk[b[0]]
        for ek, fk in zip(h.pair.e, h.pair.f):
            v, jv = _field_vector_and_jac(a, ek, vals, n)
            w, jw = _field_vector_and_jac(b, fk, vals, n)
            pi[ia, ib] += c * np.outer(v, w)
            pi[ib, ia] -= c * np.outer(w, v)
            dpi[ia, ia, ib] += c * np.einsum('ad,b->dab', jv, w)
            dpi[ib, ia, ib] += c * np.einsum('a,bd->dab', v, jw)
            dpi[ib, ib, ia] -= c * np.einsum('ad,b->dab', jw, v)
            dpi[ia, ib, ia] -= c * np.einsum('a,bd->dab', w, jv)

    jac = 2.0 * (np.einsum('ad,dbc->abc', pi, dpi)
                 + np.einsum('bd,dca->abc', pi, dpi)
                 + np.einsum('cd,dab->abc', pi, dpi))

    rho = np.zeros((dim, dim, dim))
    for p in range(len(h.actions)):
        rows = np.zeros((tv.pair.dim, dim))
        for i, fk in enumerate(tv.pair.f):
            sig = action_sigma(h, p, fk, vals)
            for s, tan in sig.items():
                rows[i, blk[s]] += np.real(tan).reshape(-1)
        g = np.einsum('ijk,ia,jb,kc->abc', tv.coeffs, rows, rows, rows, optimize=True)
        rho -= wedge3_tensor(g)  # rho_x = -sigma_x, three factors

    res = jac - rho
    return {"residual": float(np.max(np.abs(res))),
            "jacobiator": jac, "rho_phi": rho}


# --- combinatorial bracket (main formula) ---------------------------------

def endpoint_variation(obs: Observable, incidence: str, hol: np.ndarray) -> np.ndarray:
    """var_right at the start of a path, var_left at its end."""
    return obs.var_right(hol) if incidence == "start" else obs.var_left(hol)


def bracket_combinatorial(phi: Observable, w_alpha: Word,
                          psi: Observable, w_beta: Word,
                          data: IntersectionData, m: RepPoint,
                          pair: Optional[Callable] = None) -> float:
    """The main formula: sum_(I,J) eps_IJ pair(s, var^I phi, var^J psi) over
    the endpoint signs s, plus sum_q sign(q) B^q over the crossings, with B^q
    the primary expression of crossing_term.  pair defaults to the invariant
    form <u, w>; the cross-section bracket dresses it with Theta."""
    ha, hb = holonomy(m, w_alpha), holonomy(m, w_beta)
    if pair is None:
        def pair(s, u, w):
            return m.ctx.form(u, w)
    tot = 0.0
    for (I, J), s in data.endpoint_signs.items():
        if s.value == 0:
            continue
        tot += float(s.value) * pair(s, endpoint_variation(phi, I, ha),
                                     endpoint_variation(psi, J, hb))
    x, y = phi.var_right(ha), psi.var_left(hb)
    return (ORIENTATION_SIGN * tot
            + ORIENTATION_SIGN * sum(q.sign * _conjugated_form(m, q.reroute_ab(), x, y)
                                     for q in data.crossings))


def crossing_term(phi: Observable, w_alpha: Word, psi: Observable,
                  w_beta: Word, q, m: RepPoint, variant: str = "primary") -> float:
    """B^q, either the primary expression or the alternate of the remark
    following the main theorem (used as a consistency check)."""
    ha = holonomy(m, w_alpha)
    hb = holonomy(m, w_beta)
    if variant == "primary":
        return _conjugated_form(m, q.reroute_ab(), phi.var_right(ha), psi.var_left(hb))
    if variant == "swapped":
        return _conjugated_form(m, q.reroute_ba(), psi.var_right(hb), phi.var_left(ha))
    if variant == "alternate":
        # gamma = alpha^-1 *_q beta^-1: reversed prefix of the other halves
        g = q.alpha_suffix.inverse().concat(q.beta_prefix.inverse())
        return _conjugated_form(m, g, phi.var_left(ha), psi.var_right(hb))
    raise ValueError(variant)


def _conjugated_form(m: RepPoint, path: Word, x: np.ndarray, y: np.ndarray) -> float:
    """<x, Ad_c y> with c the holonomy of the path."""
    c = holonomy(m, path)
    return m.ctx.form(x, c @ y @ np.linalg.inv(c))
