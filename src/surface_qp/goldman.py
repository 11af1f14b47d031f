"""Symbolic quasi-Poisson Goldman algebra: path-entry symbols, normal forms
in the localized polynomial ring, and the entry-level bracket formula.

Each free generator L contributes n^2 indeterminates L_rc; inverse letters
expand through the cofactor adjugate over det(X_L), so a normal form is a
polynomial numerator over a monomial in the det(X_L).  Numerators are
sparse polynomials over QQ (``sympy.polys.rings`` elements, graded-lex
order).  A ring is built per ``bracket_symbolic`` call and per
``GoldmanAlgebra``, over the entry indeterminates of the generators that
occur; operands over different rings are lifted to the union of their
generators.

After every operation the numerator is divided by det(X_L) for as long as
det(X_L) divides it (``exact_quotient``, a heap-ordered sparse division).
det(X_L) of a generic matrix is irreducible, so the reduced pair
(numerator, denominator) is unique: equality compares reduced pairs and
the hash is taken over the same data, both independent of the ring.
Canonical strings print the numerator as the sympy expression with one
term per monomial, which does not depend on the ring either.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Tuple

import sympy as sp
from sympy.polys.domains import QQ
from sympy.polys.orderings import grlex
from sympy.polys.rings import PolyElement, PolyRing

from .diagrams import IntersectionData
from .quasipoisson import ORIENTATION_SIGN
from .words import Word, generator_symbols

_ORIENT = 1 if ORIENTATION_SIGN > 0 else -1


def entry_symbol(label: str, r: int, c: int) -> sp.Symbol:
    return sp.Symbol("%s_%d%d" % (label, r, c))


def generator_det(label: str, n: int) -> sp.Expr:
    return sp.Matrix(n, n, lambda r, c: entry_symbol(label, r + 1, c + 1)).det()


def entry_ring(symbols: Iterable[sp.Symbol]) -> PolyRing:
    """Graded-lex polynomial ring over QQ in ``symbols``, sorted by name."""
    return PolyRing(sorted(set(symbols), key=lambda s: s.name), QQ, grlex)


def _label_ring(labels: Iterable[str], n: int) -> PolyRing:
    return entry_ring(entry_symbol(label, r, c) for label in set(labels)
                      for r in range(1, n + 1) for c in range(1, n + 1))


def _common(p: PolyElement, q: PolyElement) -> Tuple[PolyElement, PolyElement]:
    """p and q over one ring: the larger ring when it contains the other,
    else the ring over the union of their symbols."""
    if p.ring == q.ring:
        return p, q
    ps, qs = set(p.ring.symbols), set(q.ring.symbols)
    ring = p.ring if qs <= ps else q.ring if ps <= qs else entry_ring(ps | qs)
    return p.set_ring(ring), q.set_ring(ring)


# --- small matrices over any commutative ring ---------------------------------

def _minor(m: list, r: int, c: int) -> list:
    return [row[:c] + row[c + 1:] for k, row in enumerate(m) if k != r]


def _det(m: list):
    """Cofactor expansion along the first row."""
    if not m:
        return 1
    out = 0
    for c in range(len(m)):
        t = m[0][c] * _det(_minor(m, 0, c))
        out = out + t if c % 2 == 0 else out - t
    return out


def _adjugate(m: list) -> list:
    n = len(m)
    return [[(-1) ** (r + c) * _det(_minor(m, c, r)) for c in range(n)]
            for r in range(n)]


def _matmul(a: list, b: list) -> list:
    n = len(a)
    return [[sum(a[r][k] * b[k][c] for k in range(n)) for c in range(n)]
            for r in range(n)]


@lru_cache(maxsize=256)
def _generator(ring: PolyRing, label: str, n: int) -> tuple:
    """X_L over ``ring``, its cofactor adjugate, and det(X_L)."""
    pos = {s: k for k, s in enumerate(ring.symbols)}
    x = [[ring.gens[pos[entry_symbol(label, r + 1, c + 1)]] for c in range(n)]
         for r in range(n)]
    adj = _adjugate(x)
    return x, adj, sum(x[0][c] * adj[c][0] for c in range(n))


def _rational(c):
    """c in QQ; a float is read as the simplest nearby rational."""
    return QQ.convert(c if isinstance(c, (int, Fraction, sp.Rational)) else sp.nsimplify(c))


def exact_quotient(f: PolyElement, g: PolyElement) -> Optional[PolyElement]:
    """f / g when g divides f exactly, else None.

    Sparse division in graded-lex order that keeps the pending terms of
    f - q*g in a heap (Monagan & Pearce, J. Symb. Comput. 46, 2011): each
    step cancels the largest pending term with a multiple of g.  The first
    pending term that LM(g) does not divide is a term of the remainder, and
    {g} is a Groebner basis of (g), so g does not divide f: stop there.

    Monomials are packed into integers, total degree first and one field
    per exponent below it, so that integer order is graded-lex order and
    adding keys multiplies monomials.  Every monomial met has total degree
    at most deg f, so each field keeps its top bit clear as a guard, and
    LM(g) | m is one subtraction and a mask."""
    if not f:
        return f
    ring = f.ring
    width = max(map(sum, f)).bit_length() // 8 + 1   # bytes per exponent field
    if width == 1:
        encode = bytes
    else:
        def encode(m):
            return b"".join(e.to_bytes(width, "big") for e in m)
    shift = 8 * width * ring.ngens
    guard = int.from_bytes((b"\x80" + bytes(width - 1)) * ring.ngens, "big")

    def pack(m):
        return sum(m) << shift | int.from_bytes(encode(m), "big")

    (lead, lc, lmono), *tail = sorted(((pack(m), c, m) for m, c in g.items()),
                                      reverse=True)
    pending = {pack(m): [c, m] for m, c in f.items()}
    heap = [-k for k in pending]
    heapq.heapify(heap)
    mul, ldiv = ring.monomial_mul, ring.monomial_ldiv
    quotient = {}
    while heap:
        k = -heapq.heappop(heap)
        c, m = pending.pop(k)
        if not c:
            continue
        if (k + guard - lead) & guard != guard:
            return None
        t, s, ks = c / lc, ldiv(m, lmono), k - lead
        quotient[s] = t
        for gk, gc, gm in tail:
            term = pending.get(ks + gk)
            if term is None:
                pending[ks + gk] = [-t * gc, mul(s, gm)]
                heapq.heappush(heap, -(ks + gk))
            else:
                term[0] -= t * gc
    return ring.dtype(quotient)


@dataclass(frozen=True)
class PathEntrySymbol:
    word: Word
    i: int  # row, 1-based
    j: int  # column, 1-based

    def __post_init__(self):
        if len(self.word.letters) == 0:
            raise ValueError("constant words carry no entry symbols")


class NormalForm:
    """numerator / prod_L det(X_L)^den[L], with no det(X_L) left to cancel.

    ``num`` may be a sympy expression or a ring element; it is kept as the
    ring element ``poly``, and ``num`` reads it back as an expression."""

    def __init__(self, num, den: Optional[Dict[str, int]] = None, n: int = 2):
        self.den = {k: v for k, v in (den or {}).items() if v > 0}
        self.n = n
        dets = {entry_symbol(k, r, c) for k in self.den
                for r in range(1, n + 1) for c in range(1, n + 1)}
        if not isinstance(num, PolyElement):
            expr = sp.sympify(num)
            num = entry_ring(expr.free_symbols | dets).from_expr(expr)
        elif not dets <= set(num.ring.symbols):
            num = num.set_ring(entry_ring(set(num.ring.symbols) | dets))
        self.poly = num
        self._reduce()

    @classmethod
    def _raw(cls, poly: PolyElement, den: Dict[str, int], n: int) -> "NormalForm":
        """The form poly / den as given: poly's ring holds the entries of
        every generator in den, and den has no zero exponents."""
        nf = cls.__new__(cls)
        nf.poly, nf.den, nf.n = poly, den, n
        return nf

    def _reduce(self) -> "NormalForm":
        if not self.poly:
            self.den = {}
            return self
        for label in list(self.den):
            d = _generator(self.poly.ring, label, self.n)[2]
            while label in self.den:
                q = exact_quotient(self.poly, d)
                if q is None:
                    break
                self.poly = q
                self.den[label] -= 1
                if self.den[label] == 0:
                    del self.den[label]
        return self

    @property
    def num(self) -> sp.Expr:
        return self.poly.as_expr()

    def __add__(self, other: "NormalForm") -> "NormalForm":
        a, b = _common(self.poly, other.poly)
        den = {k: max(self.den.get(k, 0), other.den.get(k, 0))
               for k in set(self.den) | set(other.den)}
        for k, p in den.items():
            d = _generator(a.ring, k, self.n)[2]
            if p > self.den.get(k, 0):
                a = a * d ** (p - self.den.get(k, 0))
            if p > other.den.get(k, 0):
                b = b * d ** (p - other.den.get(k, 0))
        return NormalForm._raw(a + b, den, self.n)._reduce()

    def __sub__(self, other: "NormalForm") -> "NormalForm":
        return self + other.scale(-1)

    def __mul__(self, other: "NormalForm") -> "NormalForm":
        a, b = _common(self.poly, other.poly)
        den = {k: self.den.get(k, 0) + other.den.get(k, 0)
               for k in set(self.den) | set(other.den)}
        return NormalForm._raw(a * b, den, self.n)._reduce()

    def scale(self, c) -> "NormalForm":
        c = _rational(c)
        if not c:
            return NormalForm._raw(self.poly.ring.zero, {}, self.n)
        # a nonzero constant factor leaves the form reduced
        return NormalForm._raw(self.poly * c, dict(self.den), self.n)

    def is_zero(self) -> bool:
        return not self.poly

    def _key(self):
        syms = self.poly.ring.symbols
        terms = frozenset((tuple((s, e) for s, e in zip(syms, m) if e), c)
                          for m, c in self.poly.items())
        return terms, frozenset(self.den.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, NormalForm):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def canonical_str(self) -> str:
        num = str(self.num)
        den = "*".join("det(%s)^%d" % (k, p) for k, p in sorted(self.den.items()))
        return num + (" / " + den if den else "")

    def evaluate(self, m) -> float:
        """Exact rational evaluation at a RepPoint with exact coordinates."""
        if m.exact is None:
            raise ValueError("exact evaluation needs exact rational coordinates")
        n = m.ctx.n
        coords = {entry_symbol(label, r + 1, c + 1): Fraction(rows[r][c])
                  for label, rows in m.exact.items()
                  for r in range(n) for c in range(n)}
        point = [coords.get(s) for s in self.poly.ring.symbols]
        num = Fraction(0)
        for mono, coeff in self.poly.items():
            t = Fraction(coeff.numerator, coeff.denominator)
            for v, e in zip(point, mono):
                if e:
                    if v is None:
                        raise ValueError("point does not cover all generators")
                    t *= v ** e
            num += t
        den = Fraction(1)
        for label, p in self.den.items():
            dv = _det([[Fraction(x) for x in row] for row in m.exact[label]])
            if dv == 0:
                raise ZeroDivisionError("vanishing determinant at the point")
            den *= dv ** p
        return float(num / den)


def path_matrix(w: Word, n: int, ring: Optional[PolyRing] = None
                ) -> Tuple[List[List[PolyElement]], Dict[str, int]]:
    """Matrix of normal-form numerators for Hol_w, with the det denominator,
    over ``ring`` (by default the ring of the generators of w)."""
    ring = ring or _label_ring((sym for sym, _ in w.letters), n)
    out = [[ring(int(r == c)) for c in range(n)] for r in range(n)]
    den: Dict[str, int] = {}
    for k, (sym, sgn) in enumerate(w.letters):
        x, adj, _ = _generator(ring, sym, n)
        if sgn == -1:
            x = adj
            den[sym] = den.get(sym, 0) + 1
        out = x if k == 0 else _matmul(out, x)
    return out, den


def normalize(ps: PathEntrySymbol, n: int) -> NormalForm:
    mat, den = path_matrix(ps.word, n)
    return NormalForm(mat[ps.i - 1][ps.j - 1], den, n)


def _entry_nf(w: Word, i: int, j: int, ring: PolyRing, n: int,
              cache: dict) -> NormalForm:
    """Entry (i, j) of Hol_w over ``ring``; ``cache`` keeps the path matrix
    and the entries asked for."""
    key = (ring, w.letters, i, j)
    if key not in cache:
        if (ring, w.letters) not in cache:
            cache[(ring, w.letters)] = path_matrix(w, n, ring)
        mat, den = cache[(ring, w.letters)]
        cache[key] = NormalForm._raw(mat[i - 1][j - 1], dict(den), n)._reduce()
    return cache[key]


def bracket_symbolic(a: PathEntrySymbol, b: PathEntrySymbol,
                     data: IntersectionData, n: int,
                     cache: Optional[dict] = None) -> NormalForm:
    """The five-term entry bracket {alpha_ij, beta_kl} driven by exact
    intersection data of diagrams for the two words."""
    cache = cache if cache is not None else {}
    i, j = a.i, a.j
    k, l = b.i, b.j
    wa, wb = a.word, b.word
    ring = _label_ring((sym for w in (wa, wb) for sym, _ in w.letters), n)
    out = NormalForm(ring.zero, None, n)
    sv = data.endpoint_signs

    def entry(w, r, c):
        if len(w.letters) == 0:
            return NormalForm(ring(int(r == c)), None, n)
        return _entry_nf(w, r, c, ring, n, cache)

    def eps(I, J):
        return sv[(I, J)].value * _ORIENT

    if sv[("start", "start")].value != 0:
        out = out + (entry(wa, k, j) * entry(wb, i, l)).scale(eps("start", "start"))
    if sv[("end", "end")].value != 0:
        out = out + (entry(wa, i, l) * entry(wb, k, j)).scale(eps("end", "end"))
    if sv[("start", "end")].value != 0 and i == l:
        out = out + entry(wb.concat(wa), k, j).scale(eps("start", "end"))
    if sv[("end", "start")].value != 0 and j == k:
        out = out + entry(wa.concat(wb), i, l).scale(eps("end", "start"))
    for q in data.crossings:
        term = entry(q.reroute_ab(), i, l) * entry(q.reroute_ba(), k, j)
        out = out + term.scale(q.sign * _ORIENT)
    return out


class GoldmanAlgebra:
    """Symbolic bracket engine over a fixed polygon model.

    Words are realized by seeded diagrams; intersection data per word pair is
    cached, and polynomial arguments extend the entry bracket by Leibniz.
    Normal forms live in one ring over the generators of the surface."""

    def __init__(self, pm, n: int, seed: int = 0):
        self.pm = pm
        self.n = n
        self.seed = seed
        self.ring = _label_ring(
            generator_symbols(pm.spec.genus, pm.spec.boundary_count) + ["B1"], n)
        self.registry: Dict[sp.Symbol, PathEntrySymbol] = {}
        self._pair_cache: Dict[tuple, IntersectionData] = {}
        self._nf_cache: dict = {}

    def symbol(self, w: Word, i: int, j: int) -> sp.Symbol:
        s = sp.Symbol("p<%s>_%d%d" % ("".join(
            "%s%s" % (sym, "" if sg == 1 else "'") for sym, sg in w.letters), i, j))
        self.registry[s] = PathEntrySymbol(w, i, j)
        return s

    def pair_data(self, wa: Word, wb: Word) -> IntersectionData:
        from .diagrams import realize_pair
        key = (wa.letters, wb.letters)
        if key not in self._pair_cache:
            _, _, data = realize_pair(wa, wb, self.pm, self.seed)
            self._pair_cache[key] = data
        return self._pair_cache[key]

    def normal_form(self, expr: sp.Expr) -> NormalForm:
        poly = sp.expand(expr)
        out = NormalForm(self.ring.zero, None, self.n)
        for term in sp.Add.make_args(poly):
            coeff, rest = term.as_coeff_Mul()
            nf = NormalForm(self.ring.one, None, self.n).scale(coeff)
            for fac in sp.Mul.make_args(rest):
                base, exp = fac.as_base_exp()
                if base in self.registry:
                    ps = self.registry[base]
                    fnf = _entry_nf(ps.word, ps.i, ps.j, self.ring, self.n,
                                    self._nf_cache)
                    for _ in range(int(exp)):
                        nf = nf * fnf
                else:
                    nf = nf * NormalForm(fac, None, self.n)
            out = out + nf
        return out

    def bracket(self, F: sp.Expr, G: sp.Expr) -> NormalForm:
        """Leibniz extension of the entry bracket to polynomials."""
        out = NormalForm(self.ring.zero, None, self.n)
        fs = [s for s in F.free_symbols if s in self.registry]
        gs = [s for s in G.free_symbols if s in self.registry]
        for s in fs:
            dfs = self.normal_form(sp.diff(F, s))
            for t in gs:
                dgt = self.normal_form(sp.diff(G, t))
                ps, pt = self.registry[s], self.registry[t]
                data = self.pair_data(ps.word, pt.word)
                br = bracket_symbolic(ps, pt, data, self.n, self._nf_cache)
                out = out + dfs * dgt * br
        return out
