"""Matrix Lie kernel: invariant forms, dual bases, the matrix exponential,
observables linear in the group element, and the Cartan trivector.

Two contexts are supported: GL_n(R) with the (indefinite) trace form
Tr(xy), and U(n) with the positive form -Re Tr(xy) on anti-Hermitian
matrices.  Sums that the theory writes over an orthonormal basis are
implemented over a dual pair (e_k, f_k) with <e_k, f_l> = delta_kl, which
for gl_n is e = E_pq, f = E_qp and for u(n) an orthonormal basis with
f = e.  dual_basis hands the pair out as two read-only (d, n, n) stacks,
and cartan_trivector the trivector as its read-only (d, d, d) coefficient
array over that pair; both are built once per context.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

TOL_INV = 1e-10


def expm(x: np.ndarray) -> np.ndarray:
    """exp(x) by scaling and squaring, of one matrix or of each matrix of a
    stack: the degree-14 Taylor polynomial of y = x / 2^s, squared s times.
    Each matrix takes the s that makes the 1-norm of its y below 1/2, where
    the remainder of the polynomial is below 2^-53 relative."""
    s = np.maximum(np.frexp(np.abs(x).sum(axis=-2).max(axis=-1))[1] + 1, 0)
    y = x / (2.0 ** s)[..., None, None]
    out = term = np.eye(x.shape[-1], dtype=x.dtype)
    for k in range(1, 15):
        term = term @ y / k
        out = out + term
    for j in range(int(s.max())):
        out = np.where((s > j)[..., None, None], out @ out, out)
    return out


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

    def form(self, x, y):
        """<x, y> over the last two axes, broadcast over the leading ones."""
        return self.form_sign * np.einsum("...ij,...ji->...", x, y).real

    def check_group_element(self, g: np.ndarray, names: Optional[Sequence[str]] = None):
        """Check one matrix or an (S, n, n) stack, naming a failing index.
        With names, g holds one of these per name along a new first axis,
        and a failure also names the first failing matrix's name."""
        g = np.asarray(g, dtype=self.dtype)
        if g.ndim - (names is not None) not in (2, 3) or g.shape[-2:] != (self.n, self.n):
            raise ValueError("wrong matrix shape")
        require(np.isfinite(g).all(axis=(-2, -1)), "matrix has non-finite entries",
                names=names)
        require(np.abs(np.linalg.det(g)) > TOL_INV, "matrix not invertible within tolerance",
                names=names)
        if self.kind == "u":
            dev = np.abs(g.swapaxes(-1, -2).conj() @ g - np.eye(self.n)).max(axis=(-2, -1))
            require(dev <= 1e-8, "matrix not unitary within tolerance", names=names)
        return g

    def project_gradient(self, m: np.ndarray) -> np.ndarray:
        """Algebra element P with <P, x> = Re Tr(m x) for all algebra x."""
        if self.kind == "gl":
            return np.asarray(m, dtype=float)
        m = np.asarray(m, dtype=complex)
        return (m.swapaxes(-1, -2).conj() - m) / 2.0


def require(ok, message: str, error=ValueError, names: Optional[Sequence[str]] = None):
    """Raise error(message) unless ok, a bool or one per matrix of a stack,
    holds; for a stack the message names the first failing index.  With
    names, the first axis of ok runs over them and the message starts with
    the failing name."""
    if not np.all(ok):
        ok = np.asarray(ok)
        index = np.unravel_index(np.argmin(ok), ok.shape)
        if names is not None:
            message, index = "%s: %s" % (names[index[0]], message), index[1:]
        raise error(message if not index else "%s at stack index %d" % (message, index[0]))


@dataclass(frozen=True)
class DualBasisPair:
    """The dual pair as two read-only (d, n, n) stacks, e_k = e[k], f_k = f[k]."""
    e: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        self.e.setflags(write=False)   # shared: dual_basis builds one per context
        self.f.setflags(write=False)

    @property
    def dim(self) -> int:
        return len(self.e)

    def gram(self, ctx: AlgebraContext) -> np.ndarray:
        return ctx.form(self.e[:, None], self.f[None])


@lru_cache(maxsize=None)
def dual_basis(ctx: AlgebraContext) -> DualBasisPair:
    n = ctx.n
    if ctx.kind == "gl":
        e = np.eye(n * n).reshape(n * n, n, n)   # e[p n + q] = E_pq
        return DualBasisPair(e, e.swapaxes(1, 2))
    e = np.zeros((n * n, n, n), dtype=complex)
    k = np.arange(n)
    e[k, k, k] = 1j
    a, b = np.triu_indices(n, 1)
    r, s = n + 2 * np.arange(len(a)), 1.0 / math.sqrt(2.0)
    e[r, a, b], e[r, b, a] = s, -s
    e[r + 1, a, b] = e[r + 1, b, a] = 1j * s
    return DualBasisPair(e, e)


@dataclass(frozen=True, eq=False)
class Observable:
    """Phi(g) = Re Tr(M g) on the group, with its two variations, P the
    projection of AlgebraContext.project_gradient:
        <var_left(g), x> = d/dt Phi(g exp(tx)),   var_left(g) = P(M g),
        <var_right(g), x> = d/dt Phi(exp(tx) g),  var_right(g) = P(g M).
    M, made read-only, is (n, n), or a stack of observables' M's on leading
    axes.  entry is the 0-based (i, j) of an entry observable, else None."""
    ctx: AlgebraContext
    m: np.ndarray
    entry: Optional[Tuple[int, int]] = None

    def __post_init__(self):
        self.m.setflags(write=False)

    def over(self, shape) -> np.ndarray:
        """M broadcast against matrices of shape (n, n) or (S, n, n)."""
        return self.m.reshape(self.m.shape[:-2] + (1,) * (len(shape) - 2) + self.m.shape[-2:])

    def value(self, g):
        return np.einsum("...ij,...ji->...", self.over(np.shape(g)), g).real

    def var_left(self, g) -> np.ndarray:
        return self.ctx.project_gradient(self.over(np.shape(g)) @ g)

    def var_right(self, g) -> np.ndarray:
        return self.ctx.project_gradient(g @ self.over(np.shape(g)))

    def left_factor(self, g) -> np.ndarray:
        """N with var_left(g) = N g, formed with no inverse: M in GL, and
        (g* M* g* - M)/2 in U, where g^-1 = g*."""
        m = self.over(np.shape(g))
        if self.ctx.kind == "gl":
            return m
        gs = g.swapaxes(-1, -2).conj()
        return (gs @ m.swapaxes(-1, -2).conj() @ gs - m) / 2.0


def entry_observable(ctx: AlgebraContext, i: int, j: int, part: str = "re") -> Observable:
    """Phi(g) = Re g_ij (or Im g_ij): M = E_ji (or -i E_ji), 0-based."""
    if part not in ("re", "im"):
        raise ValueError("part must be 're' or 'im'")
    if not (0 <= i < ctx.n and 0 <= j < ctx.n):
        raise ValueError("entry index outside the %d x %d matrix" % (ctx.n, ctx.n))
    if part == "im" and ctx.kind == "gl":
        raise ValueError("part 'im' is identically zero on real GL matrices; "
                         "use it with the U group")
    m = np.zeros((ctx.n, ctx.n), dtype=ctx.dtype)
    m[j, i] = 1.0
    return Observable(ctx, (1.0 if part == "re" else -1j) * m, (i, j))


def trace_observable(ctx: AlgebraContext) -> Observable:
    """Phi(g) = Re Tr g, M = I."""
    return Observable(ctx, np.eye(ctx.n, dtype=ctx.dtype))


@lru_cache(maxsize=None)
def cartan_trivector(ctx: AlgebraContext) -> np.ndarray:
    """The read-only (d, d, d) coefficients of phi = sum_{ijk} w[i,j,k]
    f_i (wedge) f_j (wedge) f_k over the pair of dual_basis(ctx), wedges in
    the evaluation convention (no 1/k! factors); w = (1/12)<e_i,[e_j,e_k]>,
    alternating in (i, j, k)."""
    pair = dual_basis(ctx)
    if np.max(np.abs(pair.gram(ctx) - np.eye(pair.dim))) > 1e-10:
        raise ValueError("degenerate or non-dual basis pair")
    # t[i, j, k] = Tr(e_i e_j e_k), so <e_i, [e_j, e_k]> = sign Re(t - t^(jk))
    t = np.einsum("iab,jbc,kca->ijk", pair.e, pair.e, pair.e, optimize=True)
    w = ctx.form_sign * (t - t.transpose(0, 2, 1)).real / 12.0
    w.setflags(write=False)   # shared: one per context
    return w
