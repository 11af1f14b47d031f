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
from typing import Callable, List, Optional

import numpy as np

TOL_INV = 1e-10
TOL_ORTH = 1e-10
FD_STEP = 1e-5


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

    def form(self, x, y) -> float:
        t = np.trace(x @ y)
        return float(t.real) if self.kind == "gl" else -float(t.real)

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


class Observable:
    """Differentiable scalar function on the group with its two variations.

    var_left(g) pairs the derivative along left-invariant fields:
        <var_left(g), x> = d/dt Phi(g exp(tx)),
    var_right the right-invariant ones:
        <var_right(g), x> = d/dt Phi(exp(tx) g).
    """

    def __init__(self, ctx: AlgebraContext, value: Callable,
                 var_left: Optional[Callable] = None,
                 var_right: Optional[Callable] = None,
                 label: str = "generic"):
        self.ctx = ctx
        self._value = value
        self._var_left = var_left
        self._var_right = var_right
        self.label = label
        self.closed_form = var_left is not None

    def value(self, g) -> float:
        return float(self._value(g))

    def var_left(self, g) -> np.ndarray:
        if self._var_left is not None:
            return self._var_left(g)
        return self._fd_var(g, left=True)

    def var_right(self, g) -> np.ndarray:
        if self._var_right is not None:
            return self._var_right(g)
        return self._fd_var(g, left=False)

    def dvalue(self, g, tangent) -> float:
        """Derivative along an arbitrary tangent vector at g (a matrix;
        for U(n) it must be of the form g*x with x anti-Hermitian)."""
        x = np.linalg.solve(np.asarray(g, dtype=self.ctx.dtype), tangent)
        return self.ctx.form(self.var_left(g), x)

    def _fd_var(self, g, left: bool) -> np.ndarray:
        from scipy.linalg import expm
        pair = dual_basis(self.ctx)
        out = np.zeros((self.ctx.n, self.ctx.n), dtype=self.ctx.dtype)
        for ek, fk in zip(pair.e, pair.f):
            step = expm(FD_STEP * ek)
            stepm = expm(-FD_STEP * ek)
            if left:
                d = (self._value(g @ step) - self._value(g @ stepm)) / (2 * FD_STEP)
            else:
                d = (self._value(step @ g) - self._value(stepm @ g)) / (2 * FD_STEP)
            out = out + d * fk
        return out


def entry_observable(ctx: AlgebraContext, i: int, j: int, part: str = "re") -> Observable:
    """Phi(g) = Re g_ij (or Im g_ij); indices are 0-based."""
    if part not in ("re", "im"):
        raise ValueError("part must be 're' or 'im'")
    w = 1.0 if part == "re" else -1j
    eji = _basis_elem(ctx.n, j, i, ctx.dtype)

    def value(g):
        v = g[i, j]
        return float(v.real) if part == "re" else float(np.imag(v))

    def vleft(g):
        return ctx.project_gradient(w * (eji @ g))

    def vright(g):
        return ctx.project_gradient(w * (g @ eji))

    return Observable(ctx, value, vleft, vright, label="entry(%d,%d,%s)" % (i, j, part))


def trace_observable(ctx: AlgebraContext) -> Observable:
    return Observable(ctx, lambda g: float(np.trace(g).real),
                      lambda g: ctx.project_gradient(np.asarray(g, ctx.dtype)),
                      lambda g: ctx.project_gradient(np.asarray(g, ctx.dtype)),
                      label="trace")


def power_trace_observable(ctx: AlgebraContext, k: int) -> Observable:
    if k < 1:
        raise ValueError("power must be positive")

    def grad(g):
        return ctx.project_gradient(k * np.linalg.matrix_power(np.asarray(g, ctx.dtype), k))

    return Observable(ctx, lambda g: float(np.trace(np.linalg.matrix_power(g, k)).real),
                      grad, grad, label="trace_pow%d" % k)


def generic_observable(ctx: AlgebraContext, fn: Callable, label="generic") -> Observable:
    return Observable(ctx, fn, None, None, label=label)


def transform_inverse(obs: Observable) -> Observable:
    ctx = obs.ctx
    inv = np.linalg.inv
    return Observable(
        ctx,
        lambda g: obs.value(inv(g)),
        (lambda g: -obs.var_right(inv(g))) if obs.closed_form else None,
        (lambda g: -obs.var_left(inv(g))) if obs.closed_form else None,
        label="inv(%s)" % obs.label)


def transform_translate(obs: Observable, a, b) -> Observable:
    ctx = obs.ctx
    a = np.asarray(a, ctx.dtype)
    b = np.asarray(b, ctx.dtype)
    ai = np.linalg.inv(a)
    bi = np.linalg.inv(b)
    return Observable(
        ctx,
        lambda g: obs.value(a @ g @ b),
        (lambda g: b @ obs.var_left(a @ g @ b) @ bi) if obs.closed_form else None,
        (lambda g: ai @ obs.var_right(a @ g @ b) @ a) if obs.closed_form else None,
        label="transl(%s)" % obs.label)


@dataclass(frozen=True)
class CartanTrivector:
    """phi = sum_{ijk} coeffs[i,j,k] f_i (wedge) f_j (wedge) f_k, wedges in the
    evaluation convention (no 1/k! factors); coeffs = (1/12)<e_i,[e_j,e_k]>."""
    coeffs: np.ndarray
    pair: DualBasisPair


def cartan_trivector(ctx: AlgebraContext, pair: Optional[DualBasisPair] = None) -> CartanTrivector:
    if pair is None:
        pair = dual_basis(ctx)
    g = pair.gram(ctx)
    if np.max(np.abs(g - np.eye(pair.dim))) > 1e-10:
        raise ValueError("degenerate or non-dual basis pair")
    d = pair.dim
    w = np.zeros((d, d, d))
    for i in range(d):
        for j in range(d):
            for k in range(d):
                br = pair.e[j] @ pair.e[k] - pair.e[k] @ pair.e[j]
                w[i, j, k] = ctx.form(pair.e[i], br) / 12.0
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
