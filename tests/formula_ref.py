"""The main formula term by term, with a variation per endpoint: the reference
that bracket_combinatorial's one loop over the element E is checked against.

Each endpoint sign s_IJ pairs the variation of phi at alpha's end I with the
variation of psi at beta's end J, var_right at a start and var_left at an
end; pair dresses that pairing (the invariant form by default, Theta for the
cross-section formula).  Each crossing class adds sign(q) B^q with
B^q = Re tr(M_phi Hol(alpha *_q beta) N Hol(beta *_q alpha)).  Nothing here
reads diagrams.double_bracket.
"""

import numpy as np

from surface_qp.repspace import holonomy


def bracket_endpoint_loop(phi, w_alpha, psi, w_beta, data, m, pair=None):
    """sum_(I,J) s_IJ pair(s, var^I phi, var^J psi) over the endpoint signs
    s, plus the crossing terms; a stacked point gives one value per point."""
    ha, hb = holonomy(m, w_alpha), holonomy(m, w_beta)
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


def theta_pair(cs):
    """The cross-section's endpoint pairing: Theta_{mu_i} on the factor of
    the path on the left at marked point i."""
    def pair(s, u, w):
        theta = cs.theta[s.marked - 1]
        return cs.m.ctx.form(theta * u, w) if s.alpha_left else cs.m.ctx.form(u, theta * w)
    return pair
