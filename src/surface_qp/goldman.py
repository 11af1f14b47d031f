"""Symbolic quasi-Poisson Goldman algebra: normal forms in the localized
polynomial ring, and the bracket of two GL entry observables, one loop over
the element E of diagrams.double_bracket.

Each free generator L contributes n^2 indeterminates L_rc (L_r_c from
n = 10 on); inverse letters expand through the cofactor adjugate over
det(X_L), both formed only where an inverse letter or a denominator reads
them, so a normal form is a polynomial numerator over a monomial in the
det(X_L).

A numerator is a ``Poly``: a map from packed monomial to nonzero rational
coefficient over a ``Ring``, the ring of the entry names of one set of
generator labels, sorted by name (one memoised ring per label set and n).
A monomial is one int: its total degree sits above one FIELD-bit exponent
field per name, with the first name in the highest field.  So int order is
graded-lex order and adding two keys multiplies the monomials.  The top bit
of every field is a guard that stays clear, so LM(g) | m is one subtraction
and a mask; a product whose degree would reach the guard raises
OverflowError instead of wrapping.  Coefficients are ints, and Fractions
only where a rational scalar brought a denominator in.  Every operation
stays inside one ring: operands over two rings raise ValueError.

A sum of products is lifted to one common denominator and its numerator
divided by det(X_L) while det(X_L) divides it (``exact_quotient``, a
heap-ordered sparse division).  det(X_L) of a generic matrix is irreducible,
so the reduced pair (numerator, denominator) is unique, and equality and
hashing compare reduced pairs.  Canonical strings print the numerator term
by term in descending lex order of the exponents, each as ``p*x**e*y/q``.
"""

from __future__ import annotations

import heapq
import math
import struct
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from .diagrams import IntersectionData, double_bracket
from .words import Word

FIELD = 16                          # bits per exponent field ("H" in struct)
MAX_DEGREE = (1 << FIELD - 1) - 1   # the top bit of each field is the guard


def _q(c):
    """A rational coefficient as an int when it is integral."""
    return c.numerator if c.denominator == 1 else c


def entry_name(label: str, r: int, c: int, n: int) -> str:
    """The name of entry (r, c) of X_label, 1-based: L_rc below n = 10, L_r_c from there."""
    return ("%s_%d%d" if n < 10 else "%s_%d_%d") % (label, r, c)


class Ring:
    """Q[L_rc]: the entries of the generators in ``labels`` at size n,
    sorted by name, with monomials packed as the module docstring says."""

    def __init__(self, labels: frozenset, n: int):
        self.labels, self.n = labels, n
        self.names = sorted(entry_name(label, r, c, n) for label in labels
                            for r in range(1, n + 1) for c in range(1, n + 1))
        self.shift = FIELD * len(self.names)   # the total degree sits above
        self.guard = sum(1 << FIELD * k + FIELD - 1 for k in range(len(self.names)))
        self._fields = struct.Struct(">%dH" % len(self.names))
        self.zero = Poly(self, {})
        self.one = Poly(self, {0: 1})

    def gen(self, name: str) -> "Poly":
        field = len(self.names) - 1 - self.names.index(name)
        return Poly(self, {1 << self.shift | 1 << FIELD * field: 1})

    def exponents(self, key: int) -> tuple:
        """The exponent of every name in a packed monomial, in name order."""
        fields = key & (1 << self.shift) - 1
        return self._fields.unpack(fields.to_bytes(self._fields.size, "big"))


class Poly:
    """A polynomial over ``ring``: packed monomial -> nonzero coefficient."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict):
        self.ring, self.terms = ring, terms

    def _operand(self, other) -> "Poly":
        """other as a polynomial of this ring; an int or Fraction is a constant."""
        if type(other) is not Poly:
            if not isinstance(other, (int, Fraction)):
                raise TypeError("cannot combine a polynomial with %s" % type(other).__name__)
            return Poly(self.ring, {0: _q(other)} if other else {})
        if other.ring is not self.ring:
            raise ValueError("operands over two different rings")
        return other

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == self._operand(other).terms

    def __add__(self, other) -> "Poly":
        out = dict(self.terms)
        for k, c in self._operand(other).terms.items():
            c += out.get(k, 0)
            if c:
                out[k] = c
            else:
                del out[k]
        return Poly(self.ring, out)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        return self + self._operand(other) * -1

    def __mul__(self, other) -> "Poly":
        if type(other) is not Poly and isinstance(other, (int, Fraction)):
            if not other:
                return self.ring.zero
            p, q = other.numerator, other.denominator   # faster than int * Fraction
            return Poly(self.ring, {k: _q(Fraction(c * p, q)) for k, c in self.terms.items()})
        out: dict = {}
        self._mul_into(self._operand(other), out)
        return Poly(self.ring, {k: c for k, c in out.items() if c})

    def _mul_into(self, other: "Poly", out: dict, scale: int = 1) -> None:
        """Add scale * self * other into the term dict ``out``, whose zero
        coefficients stay for the caller to drop."""
        if other.ring is not self.ring:
            raise ValueError("operands over two different rings")
        if not self.terms or not other.terms:
            return
        if (max(self.terms) + max(other.terms)) >> self.ring.shift > MAX_DEGREE:
            raise OverflowError("degree above %d overflows an exponent field"
                                % MAX_DEGREE)
        tail = [(kb, cb * scale) for kb, cb in other.terms.items()]
        get = out.get
        for ka, ca in self.terms.items():
            for kb, cb in tail:
                k = ka + kb
                out[k] = get(k, 0) + ca * cb

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Poly":
        out = self.ring.one
        for _ in range(e):
            out = out * self
        return out


@lru_cache(maxsize=256)
def _label_ring(labels: frozenset, n: int) -> Ring:
    return Ring(labels, n)


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


@lru_cache(maxsize=256)
def _matrix(ring: Ring, label: str) -> list:
    """X_L over ``ring``: its entries' generators, row by row."""
    n = ring.n
    return [[ring.gen(entry_name(label, r + 1, c + 1, n)) for c in range(n)] for r in range(n)]


@lru_cache(maxsize=256)
def _generator(ring: Ring, label: str) -> tuple:
    """X_L over ``ring``, its cofactor adjugate, and det(X_L)."""
    n, x = ring.n, _matrix(ring, label)
    adj = _adjugate(x) if n > 1 else [[ring.one]]   # _det of the empty minor is the int 1
    return x, adj, sum(x[0][c] * adj[c][0] for c in range(n))


def exact_quotient(f: Poly, g: Poly) -> Optional[Poly]:
    """f / g when g divides f exactly, else None.

    Sparse division in graded-lex order that keeps the pending terms of
    f - q*g in a heap (Monagan & Pearce, J. Symb. Comput. 46, 2011): each
    step cancels the largest pending term with a multiple of g.  The first
    pending term that LM(g) does not divide is a term of the remainder, and
    {g} is a Groebner basis of (g), so g does not divide f: stop there.
    Every monomial met has total degree at most deg f, so the guard bits
    stay clear and LM(g) | m is one subtraction and a mask."""
    ring = f._operand(g).ring
    if not f:
        return f
    guard = ring.guard
    (lead, lc), *tail = sorted(g.terms.items(), reverse=True)
    pending = dict(f.terms)
    heap = [-k for k in pending]
    heapq.heapify(heap)
    quotient = {}
    while heap:
        k = -heapq.heappop(heap)
        c = pending.pop(k)
        if not c:
            continue
        if (k + guard - lead) & guard != guard:
            return None
        ks = k - lead
        quotient[ks] = t = c * lc if lc * lc == 1 else _q(Fraction(c) / lc)
        for gk, gc in tail:
            term = pending.get(ks + gk)
            if term is None:
                pending[ks + gk] = -t * gc
                heapq.heappush(heap, -(ks + gk))
            else:
                pending[ks + gk] = term - t * gc
    return Poly(ring, quotient)


def _poly_str(poly: Poly) -> str:
    """The numerator as text: its terms in descending lex order of the
    exponents (over the names in name order), each as ``p*x**e*y/q`` with
    1 and /1 left out."""
    ring = poly.ring
    lex = (1 << ring.shift) - 1   # the exponent fields without the degree
    terms = []
    for key in sorted(poly.terms, key=lambda k: k & lex, reverse=True):
        c = poly.terms[key]
        factors = [x if e == 1 else "%s**%d" % (x, e)
                   for x, e in zip(ring.names, ring.exponents(key)) if e]
        p, q = abs(c.numerator), c.denominator
        body = "*".join(([str(p)] if p != 1 or not factors else []) + factors)
        terms.append((c < 0, body + ("/%d" % q if q != 1 else ""), len(factors)))
    if (len(terms) == 2 and terms[0][0] and terms[0][2] == 1
            and not terms[1][0] and terms[1][2] == 0):
        # a positive constant goes first before one negative power
        terms.reverse()
    if not terms:
        return "0"
    text = "".join((" - " if neg else " + ") + body for neg, body, _ in terms)
    return ("-" if terms[0][0] else "") + text[3:]


class NormalForm:
    """poly / prod_L det(X_L)^den[L], with no det(X_L) left to cancel; the
    ring of poly holds every label of den."""

    def __init__(self, poly: Poly, den: Optional[Dict[str, int]] = None):
        den = {k: v for k, v in (den or {}).items() if v > 0}
        if not set(den) <= poly.ring.labels:
            raise ValueError("denominator labels outside the numerator's ring")
        self.poly, self.den = poly, den
        self._reduce()

    @classmethod
    def _raw(cls, poly: Poly, den: Dict[str, int]) -> "NormalForm":
        """The form poly / den as given: poly's ring holds every label of
        den, and den has no zero exponents."""
        nf = cls.__new__(cls)
        nf.poly, nf.den = poly, den
        return nf

    def _reduce(self) -> "NormalForm":
        if not self.poly:
            self.den = {}
            return self
        for label in list(self.den):
            d = _generator(self.poly.ring, label)[2]
            while label in self.den:
                q = exact_quotient(self.poly, d)
                if q is None:
                    break
                self.poly = q
                self.den[label] -= 1
                if self.den[label] == 0:
                    del self.den[label]
        return self

    def __add__(self, other: "NormalForm") -> "NormalForm":
        return sum_of_products(self.poly.ring, [(1, [self]), (1, [other])])

    def __sub__(self, other: "NormalForm") -> "NormalForm":
        return self + other.scale(-1)

    def __mul__(self, other: "NormalForm") -> "NormalForm":
        return sum_of_products(self.poly.ring, [(1, [self, other])])

    def scale(self, c) -> "NormalForm":
        """c * self for an int or Fraction c."""
        if not c:
            return NormalForm._raw(self.poly.ring.zero, {})
        # a nonzero constant factor leaves the form reduced
        return NormalForm._raw(self.poly * c, dict(self.den))

    def is_zero(self) -> bool:
        return not self.poly

    def __eq__(self, other) -> bool:
        if not isinstance(other, NormalForm):
            return NotImplemented
        return self.poly == other.poly and self.den == other.den

    def __hash__(self):
        return hash((frozenset(self.poly.terms.items()), frozenset(self.den.items())))

    def canonical_str(self) -> str:
        num = _poly_str(self.poly)
        den = "*".join("det(%s)^%d" % (k, p) for k, p in sorted(self.den.items()))
        return num + (" / " + den if den else "")

    def evaluate(self, m):
        """Exact rational evaluation at a RepPoint with exact coordinates
        (d, integer numerators), in ints: with q the lcm of the coefficient
        denominators, the numerator is the sum of q coeff d^(top - deg) times
        the numerators' monomial, over q d^top; each det(X_L) is the det of
        its numerators over d^n.  One division at the end.  A float at a
        point, a list of them at a stack."""
        if m.exact is None:
            raise ValueError("exact evaluation needs exact rational coordinates")
        d, mats = m.exact
        if not self.poly.ring.labels <= mats.keys():
            raise ValueError("point does not cover all generators")
        if next(iter(m.mats.values())).ndim == 2:
            return self._evaluate(d, mats)
        return [self._evaluate(d, {label: nums[k] for label, nums in mats.items()})
                for k in range(len(next(iter(mats.values()))))]

    def _evaluate(self, d: int, mats: dict) -> float:
        ring, n = self.poly.ring, self.poly.ring.n
        coords = {entry_name(label, r + 1, c + 1, n): x for label in ring.labels
                  for r, row in enumerate(mats[label]) for c, x in enumerate(row)}
        point = [coords[name] for name in ring.names]
        q = math.lcm(*(c.denominator for c in self.poly.terms.values()))
        top = max((key >> ring.shift for key in self.poly.terms), default=0)
        num, den = 0, q * d ** top
        for key, coeff in self.poly.terms.items():
            t = coeff.numerator * (q // coeff.denominator) * d ** (top - (key >> ring.shift))
            for v, e in zip(point, ring.exponents(key)):
                if e:
                    t *= v ** e
            num += t
        for label, p in self.den.items():
            dv = _det(mats[label])
            if dv == 0:
                raise ZeroDivisionError("vanishing determinant at the point")
            num, den = num * d ** (n * p), den * dv ** p
        return num / den


def sum_of_products(ring: Ring, terms: list) -> NormalForm:
    """The sum of c * prod(forms) over (c, forms) pairs, with one or two
    normal forms over ``ring`` in each, reduced once: the terms are lifted
    to their common denominator top, and those that the same det powers
    lift share one sum."""
    dens = [{} for _ in terms]
    for den, (_, forms) in zip(dens, terms):
        for f in forms:
            for label, p in f.den.items():
                den[label] = den.get(label, 0) + p
    top = {label: max(den.get(label, 0) for den in dens) for label in set().union(*dens)}
    lifted: Dict[tuple, dict] = {}
    for (coeff, forms), den in zip(terms, dens):
        lift = tuple(p - den.get(label, 0) for label, p in top.items())
        other = forms[1].poly if len(forms) == 2 else ring.one
        forms[0].poly._mul_into(other, lifted.setdefault(lift, {}), coeff)
    num: dict = {}
    for lift, acc in lifted.items():
        dets = ring.one
        for label, e in zip(top, lift):
            dets = dets * _generator(ring, label)[2] ** e
        Poly(ring, acc)._mul_into(dets, num)
    num = Poly(ring, {key: c for key, c in num.items() if c})
    return NormalForm._raw(num, top)._reduce()


def word_ring(n: int, *words: Word) -> Ring:
    """The ring of the generators that occur in ``words``."""
    return _label_ring(frozenset(sym for w in words for sym, _ in w.letters), n)


def path_row(w: Word, i: int, ring: Ring) -> Tuple[List[Poly], Dict[str, int]]:
    """Row i of the normal-form numerators of Hol_w over ``ring``, with the
    det denominator: e_i^T X_1 ... X_m as one row-times-matrix product per
    letter, each column summed into one term dict."""
    row = [ring.one if c == i - 1 else ring.zero for c in range(ring.n)]
    den: Dict[str, int] = {}
    for sym, sgn in w.letters:
        x = _generator(ring, sym)[1] if sgn == -1 else _matrix(ring, sym)
        if sgn == -1:
            den[sym] = den.get(sym, 0) + 1
        cols: List[dict] = [{} for _ in row]
        for p, xrow in zip(row, x):
            for acc, xe in zip(cols, xrow):
                p._mul_into(xe, acc)
        row = [Poly(ring, {k: c for k, c in acc.items() if c}) for acc in cols]
    return row, den


def entry_nf(w: Word, i: int, j: int, ring: Ring, cache: dict) -> NormalForm:
    """Entry (i, j) of Hol_w over ``ring``; ``cache`` keeps the rows and the
    entries asked for."""
    key = (ring, w.letters, i, j)
    if key not in cache:
        if (ring, w.letters, i) not in cache:
            cache[(ring, w.letters, i)] = path_row(w, i, ring)
        row, den = cache[(ring, w.letters, i)]
        cache[key] = NormalForm._raw(row[j - 1], dict(den))._reduce()
    return cache[key]


def bracket_symbolic(phi, w_alpha: Word, psi, w_beta: Word, data: IntersectionData,
                     cache: Optional[dict] = None) -> NormalForm:
    """The bracket of the GL entry observables phi of alpha and psi of beta,
    {alpha_ij, beta_kl} with (i, j) and (k, l) their 1-based entries:
    tr(E_ji X E_lk Y) = X_il Y_kj, so each term c (X, Y) of the element E =
    double_bracket(data, alpha, beta) adds c X_il Y_kj, where the empty
    word's entry is a Kronecker delta.  The terms, as 2c times two entries,
    are summed over their common denominator, reduced once and halved."""
    n = phi.ctx.n
    if any(o.entry is None or (o.ctx.kind, o.ctx.n) != ("gl", n) for o in (phi, psi)):
        raise ValueError("the symbolic bracket takes two GL entry observables of one size")
    cache = cache if cache is not None else {}
    # the observables' entries are 0-based, goldman's entry names 1-based
    (i, j), (k, l) = ((r + 1, c + 1) for r, c in (phi.entry, psi.entry))
    ring = word_ring(n, w_alpha, w_beta)
    terms = [(int(2 * c), [entry_nf(x, i, l, ring, cache), entry_nf(y, k, j, ring, cache)])
             for (x, y), c in double_bracket(data, w_alpha, w_beta).items()
             if (x.letters or i == l) and (y.letters or k == j)]   # a zero delta drops out
    return sum_of_products(ring, terms).scale(Fraction(1, 2))
