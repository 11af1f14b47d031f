"""Matrix Lie kernel: invariant forms, dual bases, variation maps of
observables, and the Cartan trivector.

Two contexts are supported: GL_n(R) with the (indefinite) trace form
Tr(xy), and U(n) with the positive form -Re Tr(xy) on anti-Hermitian
matrices.  Sums that the theory writes over an orthonormal basis are
implemented over a dual pair (e_k, f_k) with <e_k, f_l> = delta_kl, which
for gl_n is e = E_pq, f = E_qp and for u(n) an orthonormal basis with
f = e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np
from scipy.linalg import expm

TOL_INV = 1e-10
FD_STEP = 1e-5   # central-difference step of the finite-difference checks


@dataclass(frozen=True)
class AlgebraContext:
    kind: str  # "gl" | "u"
    n: int

    def __post_init__(self):
        if self.kind not in ("gl", "u"):
            raise ValueError("kind must be 'gl' or 'u'")
        if self.n < 1:
            raise ValueError("n must be positive")

    @property
    def dim(self) -> int:
        return self.n * self.n

    @property
    def dtype(self):
        return float if self.kind == "gl" else complex

    @property
    def form_sign(self) -> float:
        """<x, y> = form_sign * Re Tr(xy)."""
        return 1.0 if self.kind == "gl" else -1.0

    def form(self, x, y) -> float:
        return self.form_sign * float(np.trace(x @ y).real)

    def check_group_element(self, g: np.ndarray):
        g = np.asarray(g, dtype=self.dtype)
        if g.shape != (self.n, self.n):
            raise ValueError("wrong matrix shape")
        if not np.all(np.isfinite(g)):
            raise ValueError("matrix has non-finite entries")
        if abs(np.linalg.det(g)) <= TOL_INV:
            raise ValueError("matrix not invertible within tolerance")
        if self.kind == "u":
            if np.max(np.abs(g.conj().T @ g - np.eye(self.n))) > 1e-8:
                raise ValueError("matrix not unitary within tolerance")
        return g

    def project_gradient(self, m: np.ndarray) -> np.ndarray:
        """Algebra element P with <P, x> = Re Tr(m x) for all algebra x."""
        if self.kind == "gl":
            return np.asarray(m, dtype=float)
        m = np.asarray(m, dtype=complex)
        return (m.conj().T - m) / 2.0


def _basis_elem(n, p, q, dtype=float):
    e = np.zeros((n, n), dtype=dtype)
    e[p, q] = 1.0
    return e


@dataclass(frozen=True)
class DualBasisPair:
    e: tuple
    f: tuple

    @property
    def dim(self) -> int:
        return len(self.e)

    def gram(self, ctx: AlgebraContext) -> np.ndarray:
        d = self.dim
        return np.array([[ctx.form(self.e[i], self.f[j]) for j in range(d)]
                         for i in range(d)])


def dual_basis(ctx: AlgebraContext) -> DualBasisPair:
    n = ctx.n
    if ctx.kind == "gl":
        e = [_basis_elem(n, p, q) for p in range(n) for q in range(n)]
        f = [_basis_elem(n, q, p) for p in range(n) for q in range(n)]
        return DualBasisPair(tuple(e), tuple(f))
    e: List[np.ndarray] = []
    for k in range(n):
        e.append(1j * _basis_elem(n, k, k, complex))
    s = 1.0 / math.sqrt(2.0)
    for a in range(n):
        for b in range(a + 1, n):
            e.append(s * (_basis_elem(n, a, b, complex) - _basis_elem(n, b, a, complex)))
            e.append(1j * s * (_basis_elem(n, a, b, complex) + _basis_elem(n, b, a, complex)))
    return DualBasisPair(tuple(e), tuple(e))


@dataclass(frozen=True)
class Observable:
    """Differentiable scalar function Phi on the group with its two variations.

    var_left(g) pairs the derivative along left-invariant fields:
        <var_left(g), x> = d/dt Phi(g exp(tx)),
    var_right the right-invariant ones:
        <var_right(g), x> = d/dt Phi(exp(tx) g).
    entry is the 0-based (i, j) of an entry observable, None otherwise.
    """
    phi: Callable
    var_left: Callable
    var_right: Callable
    entry: Optional[Tuple[int, int]] = None

    def value(self, g) -> float:
        return float(self.phi(g))


def entry_observable(ctx: AlgebraContext, i: int, j: int, part: str = "re") -> Observable:
    """Phi(g) = Re g_ij (or Im g_ij); indices are 0-based."""
    if part not in ("re", "im"):
        raise ValueError("part must be 're' or 'im'")
    if not (0 <= i < ctx.n and 0 <= j < ctx.n):
        raise ValueError("entry index outside the %d x %d matrix" % (ctx.n, ctx.n))
    if part == "im" and ctx.kind == "gl":
        raise ValueError("part 'im' is identically zero on real GL matrices; "
                         "use it with the U group")
    w = 1.0 if part == "re" else -1j
    eji = _basis_elem(ctx.n, j, i, ctx.dtype)

    def value(g):
        v = g[i, j]
        return float(v.real) if part == "re" else float(np.imag(v))

    def vleft(g):
        return ctx.project_gradient(w * (eji @ g))

    def vright(g):
        return ctx.project_gradient(w * (g @ eji))

    return Observable(value, vleft, vright, (i, j))


def trace_observable(ctx: AlgebraContext) -> Observable:
    def grad(g):
        return ctx.project_gradient(np.asarray(g, ctx.dtype))

    return Observable(lambda g: float(np.trace(g).real), grad, grad)


def generic_observable(ctx: AlgebraContext, fn: Callable) -> Observable:
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


@dataclass(frozen=True)
class CartanTrivector:
    """phi = sum_{ijk} coeffs[i,j,k] f_i (wedge) f_j (wedge) f_k, wedges in the
    evaluation convention (no 1/k! factors); coeffs = (1/12)<e_i,[e_j,e_k]>."""
    coeffs: np.ndarray
    pair: DualBasisPair


def cartan_trivector(ctx: AlgebraContext) -> CartanTrivector:
    pair = dual_basis(ctx)
    g = pair.gram(ctx)
    if np.max(np.abs(g - np.eye(pair.dim))) > 1e-10:
        raise ValueError("degenerate or non-dual basis pair")
    e = np.asarray(pair.e)
    # t[i, j, k] = Tr(e_i e_j e_k), so <e_i, [e_j, e_k]> = sign Re(t - t^(jk))
    t = np.einsum("iab,jbc,kca->ijk", e, e, e, optimize=True)
    w = ctx.form_sign * (t - t.transpose(0, 2, 1)).real / 12.0
    return CartanTrivector(w, pair)


def trivector_reference_tensor(ctx: AlgebraContext, tv: CartanTrivector) -> np.ndarray:
    """phi as an antisymmetric 3-tensor over flattened matrix coordinates
    (real and imaginary parts stacked); used for basis-independence checks."""
    def flat(x):
        x = np.asarray(x, dtype=complex).reshape(-1)
        return np.concatenate([x.real, x.imag])

    M = np.array([flat(f) for f in tv.pair.f])
    return wedge3_tensor(np.einsum('ijk,ia,jb,kc->abc', tv.coeffs, M, M, M))


_SIGNED_PERMS = [
    ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
    ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1),
]


def wedge3_tensor(G: np.ndarray) -> np.ndarray:
    """Antisymmetrize a contracted product tensor over its three slots."""
    out = np.zeros_like(G)
    for perm, sgn in _SIGNED_PERMS:
        out += sgn * np.transpose(G, perm)
    return out
