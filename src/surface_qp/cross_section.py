"""Compact-group cross sections: the Theta operator, the P-perp form, the
projection of a representation onto the diagonal-moment locus L, and the two
routes to the cross-section bracket: E's crossings plus Theta-dressed endpoint
terms, and the ambient pairing plus the P-perp correction.

Only the regular case is supported: every boundary moment must have distinct
eigenvalue phases (gap > TOL_REG), which makes (Ad_mu - 1) invertible on the
off-diagonal part.  Functions of Ad_h for diagonal h act entrywise on
off-diagonal matrix entries: (Ad_h x)_ab = (lambda_a / lambda_b) x_ab.

Every routine takes one point or an (S, n, n) stack, like the numeric layer:
a diagonal h, a moment or a RepPoint of S points gives one result per point,
and a check that fails on a stack names the first failing stack index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lie import AlgebraContext, Observable, dual_basis, require
from .repspace import RepPoint, act, boundary_moment, holonomy
from .diagrams import IntersectionData
from .quasipoisson import (HamiltonianQP, WordFunction, chi, evaluate_element,
                           pair_gradients)
from .words import Word

TOL_REG = 1e-6


class RegularityError(ValueError):
    """Moment spectrum too degenerate for the regular cross-section."""


def phase_gap(lam):
    """Smallest |phase(lam_a / lam_b)| over pairs a < b of the last axis (pi
    for one entry): one gap per point of a stack."""
    lam = np.asarray(lam)
    k = np.arange(lam.shape[-1])
    angle = np.abs(np.angle(lam[..., :, None] / lam[..., None, :]))
    return np.where(k[:, None] < k, angle, np.pi).min(axis=(-2, -1))


def _kernel(h: np.ndarray, coef) -> np.ndarray:
    """The entrywise matrix K with K_ab = coef(lam_a / lam_b) off the diagonal
    and 1 on it, for h diagonal with spectrum lam, or one K per matrix of a
    stack h of any leading shape: a function of Ad_h on t-perp acts on x as
    K * x.  Unchecked: _offdiag_kernel checks h first."""
    lam = np.diagonal(h, axis1=-2, axis2=-1)
    off = ~np.eye(lam.shape[-1], dtype=bool)
    k = np.ones(h.shape, dtype=complex)
    k[..., off] = coef((lam[..., :, None] / lam[..., None, :])[..., off])
    return k


def _offdiag_kernel(h: np.ndarray, coef) -> np.ndarray:
    """_kernel for h diagonal with regular spectrum, or a stack of them."""
    require(np.abs(proj_offdiag(h)).max(axis=(-2, -1)) <= 1e-8,
            "expected a diagonal unitary")
    require(phase_gap(np.diagonal(h, axis1=-2, axis2=-1)) > TOL_REG,
            "eigenvalue phase gap below tolerance", RegularityError)
    return _kernel(h, coef)


def _theta_coef(transpose: bool):
    """Theta_h = Pr_t + 2/(1 - Ad_h) Pr_{t-perp}; transpose uses Ad_h^{-1}."""
    return lambda r: 2.0 / (1.0 - (1.0 / r if transpose else r))


def _cayley_coef(r):
    """(Ad_h + 1)/(Ad_h - 1) on t-perp."""
    return (r + 1.0) / (r - 1.0)


def _theta_kernel(h: np.ndarray, transpose: bool) -> np.ndarray:
    return _offdiag_kernel(h, _theta_coef(transpose))


def proj_offdiag(x: np.ndarray) -> np.ndarray:
    return np.where(np.eye(x.shape[-1], dtype=bool), 0, x)


def theta_matrix(ctx: AlgebraContext, h: np.ndarray, transpose: bool = False) -> np.ndarray:
    """Matrix of Theta_h in the orthonormal real basis of u(n), one per
    matrix of a stack h: Theta_h on the stacked basis, paired with the
    basis in one contraction."""
    e = dual_basis(ctx).e
    y = _theta_kernel(h, transpose)[..., None, :, :] * e   # Theta_h e_l on axis -3
    return ctx.form(e[:, None], y[..., None, :, :, :])


@dataclass(frozen=True)
class CrossSectionPoint:
    """A point of L, or a stack of them.  mus holds the diagonal moments,
    boundary component i at index i - 1 of the leading axis, each (n, n) or
    (S, n, n); gaps their phase gaps, one per boundary and point."""
    m: RepPoint
    mus: np.ndarray
    gaps: np.ndarray

    @cached_property
    def theta(self) -> np.ndarray:
        """The kernels of Theta_mu, one per moment: Theta_{mus[i]} x is
        theta[i] * x.  project_to_cross_section checked the moments."""
        return _kernel(self.mus, _theta_coef(False))


def _diagonalizer(mu: np.ndarray, names):
    """Unitary k with k mu k^-1 diagonal, eigenvalues by increasing phase,
    and the phase gap; one of each per matrix of the stack mu, whose first
    axis runs over names."""
    lam, vec = np.linalg.eig(mu)
    order = np.argsort(np.angle(lam), axis=-1)
    lam = np.take_along_axis(lam, order, -1)
    vec = np.take_along_axis(vec, order[..., None, :], -1)
    gap = phase_gap(lam)
    require(gap > TOL_REG, "moment spectrum gap below tolerance", RegularityError,
            names)
    # orthonormal for a normal matrix with distinct eigenvalues: unit columns
    # (the dot products of np.linalg.norm on one column), then polish phases
    col = vec.swapaxes(-1, -2)
    vec = vec / np.sqrt(np.vecdot(col.real, col.real)
                        + np.vecdot(col.imag, col.imag))[..., None, :]
    pivot = np.take_along_axis(vec, np.abs(vec).argmax(axis=-2)[..., None, :], -2)
    return (vec * (np.abs(pivot) / pivot)).conj().swapaxes(-1, -2), gap


def project_to_cross_section(m: RepPoint) -> CrossSectionPoint:
    """Conjugate each boundary moment of m, a point or a stack, to diagonal
    form by one G^b action.  The b moments are stacked on a leading axis, so
    that one diagonalization and one check cover them all; a failing check
    names the moment and the point's stack index."""
    if m.ctx.kind != "u":
        raise ValueError("cross sections require the compact context")
    bounds = range(1, m.spec.boundary_count + 1)
    names = ["mu_%d" % i for i in bounds]
    ks, gaps = _diagonalizer(np.array([boundary_moment(m, i) for i in bounds]), names)
    m2 = act(m, ks)
    mus = np.array([boundary_moment(m2, i) for i in bounds])
    require(np.abs(proj_offdiag(mus)).max(axis=(-2, -1)) <= 1e-8,
            "projection failed to diagonalize a moment", RegularityError, names)
    mus = np.where(np.eye(m.ctx.n, dtype=bool), mus, 0)
    require(phase_gap(np.diagonal(mus, axis1=-2, axis2=-1)) > TOL_REG,
            "eigenvalue phase gap below tolerance", RegularityError, names)
    return CrossSectionPoint(m2, mus, gaps)


def bracket_cross(phi: Observable, w_alpha: Word, psi: Observable, w_beta: Word,
                  data: IntersectionData, cs: CrossSectionPoint):
    """Cross-section bracket: the crossing classes of data through
    evaluate_element, plus the four endpoint terms s_IJ <var^I phi, var^J psi>
    (var_right at a start, var_left at an end), each dressed by Theta_{mu_i}
    on the factor of the path on the left at marked point i."""
    m = cs.m
    ha, hb = holonomy(m, w_alpha), holonomy(m, w_beta)
    va = {"start": phi.var_right(ha), "end": phi.var_left(ha)}
    vb = {"start": psi.var_right(hb), "end": psi.var_left(hb)}
    tot = evaluate_element(data.crossings, phi, psi, w_beta, m)
    for (I, J), s in data.endpoint_signs.items():
        if s.value:
            theta = cs.theta[s.marked - 1]
            u, w = (theta * va[I], vb[J]) if s.alpha_left else (va[I], theta * vb[J])
            tot = tot + float(s.value) * m.ctx.form(u, w)
    return tot


def perp_correction(h: HamiltonianQP, df: np.ndarray, dg: np.ndarray, cs: CrossSectionPoint):
    """P_L-perp pairing of the off-diagonal moment variations:
    1/2 sum_i <((Ad_mu+1)/(Ad_mu-1)) Pr chi_f^(i), Pr chi_g^(i)>, with
    chi^(i) row i-1 of quasipoisson.chi, read from the gradients df, dg of
    WordFunction.gradients: W has one row per boundary.  The first factor is
    off-diagonal, so pairing it with chi_g^(i) already projects chi_g^(i).
    One kernel and one contraction cover all boundaries, summed in order."""
    kernel = _kernel(cs.mus, _cayley_coef)
    return sum(0.5 * cs.m.ctx.form(kernel * proj_offdiag(chi(h, df)), chi(h, dg)))


def bracket_cross_numeric(h: HamiltonianQP, f: WordFunction, g: WordFunction,
                          cs: CrossSectionPoint):
    """Independent route: ambient bracket plus the P-perp correction, both
    from one gradient pass per function."""
    df, dg = f.gradients(h, cs.m), g.gradients(h, cs.m)
    return pair_gradients(h, df, dg) + perp_correction(h, df, dg, cs)
