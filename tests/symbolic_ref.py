"""sympy as the reference of the symbolic layer.

Conversions between ``goldman.Poly`` and sympy expressions, so that tests
can state polynomials as expressions and compare against sympy's printer,
``sp.div`` and expansion; the full path matrix and the per-term entry
bracket, the references of ``goldman``'s rows and single reduction; and the
expression front end over ``NormalForm``: path-entry symbols, normal forms
of polynomials in them, and the Leibniz extension of the entry bracket."""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple

import sympy as sp

from surface_qp.diagrams import IntersectionData, realize_pair
from surface_qp.goldman import (NormalForm, PathEntrySymbol, Poly, Ring, _generator,
                                _label_ring, bracket_symbolic, entry_nf, word_ring)
from surface_qp.words import Word, generator_symbols


def entry_symbol(label: str, r: int, c: int) -> sp.Symbol:
    return sp.Symbol("%s_%d%d" % (label, r, c))


def to_expr(poly: Poly) -> sp.Expr:
    syms = [sp.Symbol(name) for name in poly.ring.names]
    return sp.Add(*(sp.Rational(c.numerator, c.denominator)
                    * sp.Mul(*(s ** e for s, e in zip(syms, poly.ring.exponents(k))))
                    for k, c in poly.terms.items()))


def from_terms(ring: Ring, terms) -> Poly:
    """The polynomial sum c * prod name^e over (exponent tuple, c) pairs,
    exponents in the ring's name order."""
    gens = [ring.gen(name) for name in ring.names]
    out = ring.zero
    for mono, c in terms:
        term = ring.one * Fraction(int(c.numerator), int(c.denominator))
        for g, e in zip(gens, mono):
            term = term * g ** e
        out = out + term
    return out


def from_expr(ring: Ring, expr) -> Poly:
    syms = [sp.Symbol(name) for name in ring.names]
    return from_terms(ring, sp.Poly(sp.sympify(expr), *syms).terms())


def expr_ring(expr, den=None, n: int = 2) -> Ring:
    """The ring of the labels of expr's symbols and of den."""
    labels = {s.name.rsplit("_", 1)[0] for s in sp.sympify(expr).free_symbols}
    return _label_ring(frozenset(labels | set(den or {})), n)


def _matmul(a: list, b: list) -> list:
    n = len(a)
    return [[sum(a[r][k] * b[k][c] for k in range(n)) for c in range(n)]
            for r in range(n)]


def path_matrix(w: Word, ring: Ring) -> Tuple[List[List[Poly]], Dict[str, int]]:
    """Matrix of normal-form numerators for Hol_w over ``ring``, with the
    det denominator: the full product of the letters' matrices."""
    n = ring.n
    out = [[ring.one if r == c else ring.zero for c in range(n)] for r in range(n)]
    den: Dict[str, int] = {}
    for k, (sym, sgn) in enumerate(w.letters):
        x, adj, _ = _generator(ring, sym)
        if sgn == -1:
            x = adj
            den[sym] = den.get(sym, 0) + 1
        out = x if k == 0 else _matmul(out, x)
    return out, den


def bracket_symbolic_ref(a: PathEntrySymbol, b: PathEntrySymbol,
                         data: IntersectionData, n: int) -> NormalForm:
    """The five-term entry bracket summed term by term, each sum reduced,
    over entries of full path matrices."""
    i, j = a.i, a.j
    k, l = b.i, b.j
    wa, wb = a.word, b.word
    ring = word_ring(n, wa, wb)
    out = NormalForm._raw(ring.zero, {})
    sv = data.endpoint_signs
    mats: dict = {}

    def entry(w, r, c):
        if w.letters not in mats:
            mats[w.letters] = path_matrix(w, ring)
        mat, den = mats[w.letters]
        return NormalForm(mat[r - 1][c - 1], den)

    ss, ee, se, es = (sv[key].value for key in (("start", "start"), ("end", "end"),
                                                 ("start", "end"), ("end", "start")))
    if ss:
        out = out + (entry(wa, k, j) * entry(wb, i, l)).scale(ss)
    if ee:
        out = out + (entry(wa, i, l) * entry(wb, k, j)).scale(ee)
    if se and i == l:
        out = out + entry(wb.concat(wa), k, j).scale(se)
    if es and j == k:
        out = out + entry(wa.concat(wb), i, l).scale(es)
    for (ab, ba), c in data.crossings.items():
        out = out + (entry(ab, i, l) * entry(ba, k, j)).scale(c)
    return out


def normalize(ps: PathEntrySymbol, n: int) -> NormalForm:
    """The normal form of one path entry, over the ring of its word."""
    mat, den = path_matrix(ps.word, word_ring(n, ps.word))
    return NormalForm(mat[ps.i - 1][ps.j - 1], den)


def form(expr, den=None, n: int = 2) -> NormalForm:
    """expr / prod det(X_L)^den[L] over the ring of its labels, reduced."""
    return NormalForm(from_expr(expr_ring(expr, den, n), expr), den)


class GoldmanAlgebra:
    """The entry bracket on polynomials in path-entry symbols, over a fixed
    polygon model: words are realized by seeded diagrams, intersection data
    per word pair is cached, and polynomial arguments extend the entry
    bracket by Leibniz.  Normal forms live in one ring over the generators
    of the surface (B1 never occurs: words expand it through the boundary
    relation)."""

    def __init__(self, pm, n: int, seed: int = 0):
        self.pm = pm
        self.n = n
        self.seed = seed
        self.ring = _label_ring(
            frozenset(generator_symbols(pm.spec.genus, pm.spec.boundary_count)), n)
        self.registry: Dict[sp.Symbol, PathEntrySymbol] = {}
        self._pair_cache: Dict[tuple, IntersectionData] = {}
        self._nf_cache: dict = {}

    def symbol(self, w: Word, i: int, j: int) -> sp.Symbol:
        s = sp.Symbol("p<%s>_%d%d" % ("".join(
            "%s%s" % (sym, "" if sg == 1 else "'") for sym, sg in w.letters), i, j))
        self.registry[s] = PathEntrySymbol(w, i, j)
        return s

    def pair_data(self, wa: Word, wb: Word) -> IntersectionData:
        key = (wa.letters, wb.letters)
        if key not in self._pair_cache:
            _, _, data = realize_pair(wa, wb, self.pm, self.seed)
            self._pair_cache[key] = data
        return self._pair_cache[key]

    def lift(self, nf: NormalForm) -> NormalForm:
        """nf over the surface's ring."""
        return NormalForm(from_expr(self.ring, to_expr(nf.poly)), nf.den)

    def normal_form(self, expr: sp.Expr) -> NormalForm:
        out = NormalForm(self.ring.zero)
        for term in sp.Add.make_args(sp.expand(expr)):
            coeff, rest = term.as_coeff_Mul()
            nf = NormalForm(self.ring.one).scale(Fraction(coeff.numerator, coeff.denominator))
            for fac in sp.Mul.make_args(rest):
                base, exp = fac.as_base_exp()
                if base in self.registry:
                    ps = self.registry[base]
                    fnf = entry_nf(ps.word, ps.i, ps.j, self.ring, self._nf_cache)
                    for _ in range(int(exp)):
                        nf = nf * fnf
                else:
                    nf = nf * NormalForm(from_expr(self.ring, fac))
            out = out + nf
        return out

    def bracket(self, F: sp.Expr, G: sp.Expr) -> NormalForm:
        """Leibniz extension of the entry bracket to polynomials."""
        out = NormalForm(self.ring.zero)
        fs = [s for s in F.free_symbols if s in self.registry]
        gs = [s for s in G.free_symbols if s in self.registry]
        for s in fs:
            dfs = self.normal_form(sp.diff(F, s))
            for t in gs:
                dgt = self.normal_form(sp.diff(G, t))
                ps, pt = self.registry[s], self.registry[t]
                data = self.pair_data(ps.word, pt.word)
                br = self.lift(bracket_symbolic(ps, pt, data, self.n))
                out = out + dfs * dgt * br
        return out
