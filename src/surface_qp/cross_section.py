"""Compact-group cross sections: the Theta operator, the P-perp form, the
projection of a representation onto the diagonal-moment locus L, and the two
routes to the cross-section bracket.

Only the regular case is supported: every boundary moment must have distinct
eigenvalue phases (gap > TOL_REG), which makes (Ad_mu - 1) invertible on the
off-diagonal part.  Functions of Ad_h for diagonal h act entrywise on
off-diagonal matrix entries: (Ad_h x)_ab = (lambda_a / lambda_b) x_ab.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Tuple

import numpy as np

from .lie import AlgebraContext, Observable, dual_basis
from .repspace import RepPoint, act, boundary_moment, variation
from .diagrams import IntersectionData
from .quasipoisson import (HamiltonianQP, WordFunction, bracket_combinatorial,
                           bracket_numeric)
from .words import Word

TOL_REG = 1e-6


class RegularityError(ValueError):
    """Moment spectrum too degenerate for the regular cross-section."""


def phase_gap(lam) -> float:
    """Smallest |phase(lam_a / lam_b)| over pairs a < b (pi for one entry)."""
    n = len(lam)
    return min(abs(np.angle(lam[a] / lam[b]))
               for a in range(n) for b in range(a + 1, n)) if n > 1 else np.pi


def _offdiag_apply(h: np.ndarray, x: np.ndarray, coef) -> np.ndarray:
    """x with each off-diagonal entry scaled by coef(lam_a / lam_b), for h
    diagonal with regular spectrum lam: a function of Ad_h on t-perp."""
    lam = np.diag(h)
    if np.max(np.abs(h - np.diag(lam))) > 1e-8:
        raise ValueError("expected a diagonal unitary")
    if phase_gap(lam) <= TOL_REG:
        raise RegularityError("eigenvalue phase gap below tolerance")
    out = np.array(x, dtype=complex)
    for a, b in permutations(range(len(lam)), 2):
        out[a, b] = coef(lam[a] / lam[b]) * x[a, b]
    return out


def theta_apply(h: np.ndarray, x: np.ndarray, transpose: bool = False) -> np.ndarray:
    """Theta_h = Pr_t + 2/(1 - Ad_h) Pr_{t-perp}; transpose uses Ad_h^{-1}."""
    return _offdiag_apply(h, x, lambda r: 2.0 / (1.0 - (1.0 / r if transpose else r)))


def ad_cayley_apply(h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(Ad_h + 1)/(Ad_h - 1) on the off-diagonal part (diagonal part zeroed)."""
    return _offdiag_apply(h, proj_offdiag(np.asarray(x, dtype=complex)),
                          lambda r: (r + 1.0) / (r - 1.0))


def proj_offdiag(x: np.ndarray) -> np.ndarray:
    return x - np.diag(np.diag(x))


def theta_matrix(ctx: AlgebraContext, h: np.ndarray, transpose: bool = False) -> np.ndarray:
    """Matrix of Theta_h in the orthonormal real basis of u(n)."""
    basis = dual_basis(ctx).e
    cols = [theta_apply(h, ek, transpose) for ek in basis]
    return np.array([[ctx.form(el, y) for y in cols] for el in basis])


def p_perp_form_matrix(ctx: AlgebraContext, h: np.ndarray) -> np.ndarray:
    """The skew form (x,y) -> -1/2 <((Ad_h+1)/(Ad_h-1)) x, y> on t-perp, in
    the off-diagonal part of the orthonormal basis."""
    perp = [e for e in dual_basis(ctx).e if np.max(np.abs(np.diag(e))) < 1e-14]
    rows = [ad_cayley_apply(h, xa) for xa in perp]
    return np.array([[-0.5 * ctx.form(ta, xb) for xb in perp] for ta in rows])


@dataclass(frozen=True)
class CrossSectionPoint:
    m: RepPoint
    mus: Tuple[np.ndarray, ...]
    gaps: Tuple[float, ...]


def _diagonalizer(mu: np.ndarray):
    """Unitary k with k mu k^-1 diagonal, eigenvalues by increasing phase."""
    lam, vec = np.linalg.eig(mu)
    order = np.argsort(np.angle(lam))
    lam, vec = lam[order], vec[:, order]
    n = mu.shape[0]
    gap = phase_gap(lam)
    if gap <= TOL_REG:
        raise RegularityError("moment spectrum gap %.3e below tolerance" % gap)
    # orthonormal for a normal matrix with distinct eigenvalues; polish phases
    for c in range(n):
        col = vec[:, c]
        col = col / np.linalg.norm(col)
        pivot = col[np.argmax(np.abs(col))]
        vec[:, c] = col * (abs(pivot) / pivot)
    return vec.conj().T, gap


def project_to_cross_section(m: RepPoint) -> CrossSectionPoint:
    if m.ctx.kind != "u":
        raise ValueError("cross sections require the compact context")
    ks, gaps = [], []
    for i in range(1, m.spec.boundary_count + 1):
        k, gap = _diagonalizer(boundary_moment(m, i))
        ks.append(k)
        gaps.append(gap)
    m2 = act(m, ks)
    mus = []
    for i in range(1, m.spec.boundary_count + 1):
        mu = boundary_moment(m2, i)
        if np.max(np.abs(proj_offdiag(mu))) > 1e-8:
            raise RegularityError("projection failed to diagonalize a moment")
        mus.append(np.diag(np.diag(mu)))
    return CrossSectionPoint(m2, tuple(mus), tuple(gaps))


def bracket_cross(phi: Observable, w_alpha: Word, psi: Observable, w_beta: Word,
                  data: IntersectionData, cs: CrossSectionPoint) -> float:
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


def perp_correction(h: HamiltonianQP, f: WordFunction, g: WordFunction,
                    cs: CrossSectionPoint) -> float:
    """P_L-perp pairing of the off-diagonal moment variations:
    1/2 sum_i <((Ad_mu+1)/(Ad_mu-1)) Pr chi_f^(i), Pr chi_g^(i)>."""
    m = cs.m
    tot = 0.0
    for i in range(1, m.spec.boundary_count + 1):
        cf = proj_offdiag(variation(m, f.obs, f.word, i))
        cg = proj_offdiag(variation(m, g.obs, g.word, i))
        if not np.any(cf) or not np.any(cg):
            continue
        tot += 0.5 * m.ctx.form(ad_cayley_apply(cs.mus[i - 1], cf), cg)
    return tot


def bracket_cross_numeric(h: HamiltonianQP, f: WordFunction, g: WordFunction,
                          cs: CrossSectionPoint) -> float:
    """Independent route: ambient bracket plus the P-perp correction."""
    return bracket_numeric(h, f, g, cs.m) + perp_correction(h, f, g, cs)
