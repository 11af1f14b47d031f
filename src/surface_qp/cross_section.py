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
from typing import Tuple

import numpy as np

from .lie import AlgebraContext, Observable, dual_basis
from .repspace import RepPoint, act, boundary_moment, holonomy, variation
from .diagrams import IntersectionData
from .quasipoisson import (HamiltonianQP, ORIENTATION_SIGN, WordFunction,
                           bracket_numeric, crossing_subtotal, endpoint_variation)
from .words import Word

TOL_REG = 1e-6


class RegularityError(ValueError):
    """Moment spectrum too degenerate for the regular cross-section."""


def _check_diagonal_regular(h: np.ndarray) -> np.ndarray:
    lam = np.diag(h)
    n = h.shape[0]
    if np.max(np.abs(h - np.diag(lam))) > 1e-8:
        raise ValueError("expected a diagonal unitary")
    for a in range(n):
        for b in range(a + 1, n):
            if abs(np.angle(lam[a] / lam[b])) <= TOL_REG:
                raise RegularityError("eigenvalue phase gap below tolerance")
    return lam


def theta_apply(h: np.ndarray, x: np.ndarray, transpose: bool = False) -> np.ndarray:
    """Theta_h = Pr_t + 2/(1 - Ad_h) Pr_{t-perp}; transpose uses Ad_h^{-1}."""
    lam = _check_diagonal_regular(h)
    n = h.shape[0]
    out = np.array(x, dtype=complex)
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            r = lam[a] / lam[b]
            if transpose:
                r = 1.0 / r
            out[a, b] = 2.0 / (1.0 - r) * x[a, b]
    return out


def ad_cayley_apply(h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(Ad_h + 1)/(Ad_h - 1) on the off-diagonal part (diagonal part zeroed)."""
    lam = _check_diagonal_regular(h)
    n = h.shape[0]
    out = np.zeros_like(np.asarray(x, dtype=complex))
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            r = lam[a] / lam[b]
            out[a, b] = (r + 1.0) / (r - 1.0) * x[a, b]
    return out


def proj_offdiag(x: np.ndarray) -> np.ndarray:
    return x - np.diag(np.diag(x))


def theta_matrix(ctx: AlgebraContext, h: np.ndarray, transpose: bool = False) -> np.ndarray:
    """Matrix of Theta_h in the orthonormal real basis of u(n)."""
    pair = dual_basis(ctx)
    d = pair.dim
    out = np.zeros((d, d))
    for k, ek in enumerate(pair.e):
        y = theta_apply(h, ek, transpose)
        for l, el in enumerate(pair.e):
            out[l, k] = ctx.form(el, y)
    return out


def p_perp_form_matrix(ctx: AlgebraContext, h: np.ndarray) -> np.ndarray:
    """The skew form (x,y) -> -1/2 <((Ad_h+1)/(Ad_h-1)) x, y> on t-perp, in
    the off-diagonal part of the orthonormal basis."""
    pair = dual_basis(ctx)
    perp = [e for e in pair.e if np.max(np.abs(np.diag(e))) < 1e-14]
    d = len(perp)
    out = np.zeros((d, d))
    for a, xa in enumerate(perp):
        ta = ad_cayley_apply(h, xa)
        for b, xb in enumerate(perp):
            out[a, b] = -0.5 * ctx.form(ta, xb)
    return out


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
    gap = min(abs(np.angle(lam[a] / lam[b]))
              for a in range(n) for b in range(a + 1, n)) if n > 1 else np.pi
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
    """Cross-section bracket: endpoint terms dressed by Theta_{mu_i} on the
    left or right factor depending on the angular order, crossing terms as in
    the ambient formula."""
    m = cs.m
    ha, hb = holonomy(m, w_alpha), holonomy(m, w_beta)
    tot = 0.0
    for (I, J), s in data.endpoint_signs.items():
        if s.value == 0:
            continue
        mu = cs.mus[s.marked - 1]
        u = endpoint_variation(phi, I, ha)
        w = endpoint_variation(psi, J, hb)
        if s.alpha_left:
            a = m.ctx.form(theta_apply(mu, u), w)
        else:
            a = m.ctx.form(u, theta_apply(mu, w))
        tot += float(s.value) * a
    return (ORIENTATION_SIGN * tot
            + crossing_subtotal(phi, w_alpha, psi, w_beta, data, m))


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
