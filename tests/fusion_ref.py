"""The fusion product of doubles as the paper defines it, folded one piece at
a time: the reference that build_bivector's closed form is checked against.

double, fuse and product act on HamiltonianQP matrices alone; none of them
reads the closed form's tables, so the fold and the closed form are two
constructions of the same C and W.
"""

import numpy as np

from surface_qp.lie import AlgebraContext
from surface_qp.quasipoisson import HamiltonianQP, Slot
from surface_qp.surfaces import SurfaceSpec, split_canonical


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
    c = h.c + -0.5 * np.outer(h.w[p], h.w[q])
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


def right_fold(spec: SurfaceSpec, ctx: AlgebraContext) -> HamiltonianQP:
    """The fusion product folded from the right, (1 (x) (2 (x) 3))."""
    hs = [piece_structure(ctx, p.kind, p.index) for p in split_canonical(spec)]
    acc = hs[-1]
    for h in reversed(hs[:-1]):
        acc = fusion_product(h, acc)
    return acc
