"""Compact-group cross sections: the Theta operator, the P-perp form, the
projection of a representation onto the diagonal-moment locus L, and the two
routes to the cross-section bracket.

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
from typing import Tuple

import numpy as np

from .lie import AlgebraContext, Observable, dual_basis, require
from .repspace import RepPoint, act, boundary_moment
from .diagrams import IntersectionData
from .quasipoisson import (HamiltonianQP, WordFunction, bracket_combinatorial,
                           chi, pair_gradients)
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


def _offdiag_kernel(h: np.ndarray, coef) -> np.ndarray:
    """The entrywise matrix K with K_ab = coef(lam_a / lam_b) off the diagonal
    and 1 on it, for h diagonal with regular spectrum lam, or one K per
    matrix of a stack h: a function of Ad_h on t-perp acts on x as K * x."""
    lam = np.diagonal(h, axis1=-2, axis2=-1)
    off = ~np.eye(lam.shape[-1], dtype=bool)
    require(np.abs(np.where(off, h, 0)).max(axis=(-2, -1)) <= 1e-8,
            "expected a diagonal unitary")
    require(phase_gap(lam) > TOL_REG, "eigenvalue phase gap below tolerance",
            RegularityError)
    k = np.ones(h.shape, dtype=complex)
    k[..., off] = coef((lam[..., :, None] / lam[..., None, :])[..., off])
    return k


def _theta_kernel(h: np.ndarray, transpose: bool) -> np.ndarray:
    return _offdiag_kernel(h, lambda r: 2.0 / (1.0 - (1.0 / r if transpose else r)))


def theta_apply(h: np.ndarray, x: np.ndarray, transpose: bool = False) -> np.ndarray:
    """Theta_h = Pr_t + 2/(1 - Ad_h) Pr_{t-perp}; transpose uses Ad_h^{-1}."""
    return _theta_kernel(h, transpose) * x


def ad_cayley_apply(h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(Ad_h + 1)/(Ad_h - 1) on the off-diagonal part (diagonal part zeroed)."""
    return _offdiag_kernel(h, lambda r: (r + 1.0) / (r - 1.0)) * proj_offdiag(x)


def proj_offdiag(x: np.ndarray) -> np.ndarray:
    return np.where(np.eye(x.shape[-1], dtype=bool), 0, x)


def theta_matrix(ctx: AlgebraContext, h: np.ndarray, transpose: bool = False) -> np.ndarray:
    """Matrix of Theta_h in the orthonormal real basis of u(n), one per
    matrix of a stack h: Theta_h on the stacked basis, paired with the
    basis in one contraction."""
    e = np.asarray(dual_basis(ctx).e)
    y = _theta_kernel(h, transpose)[..., None, :, :] * e   # Theta_h e_l on axis -3
    return ctx.form(e[:, None], y[..., None, :, :, :])


@dataclass(frozen=True)
class CrossSectionPoint:
    """A point of L, or a stack of them: per boundary component the diagonal
    moment (n, n) or (S, n, n) and its phase gap, one per point."""
    m: RepPoint
    mus: Tuple[np.ndarray, ...]
    gaps: Tuple[np.ndarray, ...]


def _diagonalizer(mu: np.ndarray):
    """Unitary k with k mu k^-1 diagonal, eigenvalues by increasing phase,
    and the phase gap; one of each per matrix of a stack."""
    lam, vec = np.linalg.eig(mu)
    order = np.argsort(np.angle(lam), axis=-1)
    lam = np.take_along_axis(lam, order, -1)
    vec = np.take_along_axis(vec, order[..., None, :], -1)
    gap = phase_gap(lam)
    require(gap > TOL_REG, "moment spectrum gap below tolerance", RegularityError)
    # orthonormal for a normal matrix with distinct eigenvalues: unit columns
    # (the dot products of np.linalg.norm on one column), then polish phases
    col = vec.swapaxes(-1, -2)
    vec = vec / np.sqrt(np.vecdot(col.real, col.real)
                        + np.vecdot(col.imag, col.imag))[..., None, :]
    pivot = np.take_along_axis(vec, np.abs(vec).argmax(axis=-2)[..., None, :], -2)
    return (vec * (np.abs(pivot) / pivot)).conj().swapaxes(-1, -2), gap


def project_to_cross_section(m: RepPoint) -> CrossSectionPoint:
    """Conjugate each boundary moment of m, a point or a stack, to diagonal
    form by one G^b action."""
    if m.ctx.kind != "u":
        raise ValueError("cross sections require the compact context")
    bounds = range(1, m.spec.boundary_count + 1)
    ks, gaps = zip(*(_diagonalizer(boundary_moment(m, i)) for i in bounds))
    m2 = act(m, ks)
    mus = [boundary_moment(m2, i) for i in bounds]
    for mu in mus:
        require(np.abs(proj_offdiag(mu)).max(axis=(-2, -1)) <= 1e-8,
                "projection failed to diagonalize a moment", RegularityError)
    eye = np.eye(m.ctx.n, dtype=bool)
    return CrossSectionPoint(m2, tuple(np.where(eye, mu, 0) for mu in mus), gaps)


def bracket_cross(phi: Observable, w_alpha: Word, psi: Observable, w_beta: Word,
                  data: IntersectionData, cs: CrossSectionPoint):
    """Cross-section bracket: the main formula with each endpoint term dressed
    by Theta_{mu_i} on the left or right factor depending on the angular
    order."""
    form = cs.m.ctx.form

    def pair(s, u, w):
        mu = cs.mus[s.marked - 1]
        if s.alpha_left:
            return form(theta_apply(mu, u), w)
        return form(u, theta_apply(mu, w))
    return bracket_combinatorial(phi, w_alpha, psi, w_beta, data, cs.m, pair)


def perp_correction(h: HamiltonianQP, df: dict, dg: dict, cs: CrossSectionPoint):
    """P_L-perp pairing of the off-diagonal moment variations:
    1/2 sum_i <((Ad_mu+1)/(Ad_mu-1)) Pr chi_f^(i), Pr chi_g^(i)>, with
    chi^(i) read by quasipoisson.chi from action slot i-1 of h and the
    gradients df, dg of WordFunction.gradients.  The first factor is
    off-diagonal, so pairing it with chi_g^(i) already projects chi_g^(i)."""
    return sum(0.5 * cs.m.ctx.form(ad_cayley_apply(mu, chi(h, df, p)), chi(h, dg, p))
               for p, mu in enumerate(cs.mus))


def bracket_cross_numeric(h: HamiltonianQP, f: WordFunction, g: WordFunction,
                          cs: CrossSectionPoint):
    """Independent route: ambient bracket plus the P-perp correction, both
    from one gradient pass per function."""
    df, dg = f.gradients(cs.m), g.gradients(cs.m)
    return pair_gradients(h, df, dg) + perp_correction(h, df, dg, cs)
