"""Free words over the groupoid generators of a bordered surface.

Generators are named "A2".."Ab", "B2".."Bb", "C1".."Cg", "D1".."Dg".
"B1" is accepted on input but is not free: it always expands through the
boundary relation before reduction (see Word.from_string / b1_letters).

A letter is a pair (sym, sign) with sign in {+1, -1}.  Words are stored
freely reduced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Tuple

Letter = Tuple[str, int]


def free_reduce(letters: Iterable[Letter]) -> tuple:
    out: list = []
    for sym, sgn in letters:
        if sgn not in (1, -1):
            raise ValueError("letter sign must be +1 or -1")
        if out and out[-1][0] == sym and out[-1][1] == -sgn:
            out.pop()
        else:
            out.append((sym, sgn))
    return tuple(out)


def invert(letters: Sequence[Letter]) -> tuple:
    return tuple((sym, -sgn) for sym, sgn in reversed(letters))


def generator_symbols(genus: int, boundary: int) -> list:
    """Free generator names in the canonical order."""
    syms = []
    for i in range(2, boundary + 1):
        syms.append("A%d" % i)
        syms.append("B%d" % i)
    for j in range(1, genus + 1):
        syms.append("C%d" % j)
        syms.append("D%d" % j)
    return syms


def generator_endpoints(sym: str) -> Tuple[int, int]:
    """(source, target) marked-point indices of the generator path."""
    kind, idx = sym[0], int(sym[1:])
    if kind == "A":
        return (1, idx)
    if kind == "B":
        return (idx, idx)
    if kind in ("C", "D"):
        return (1, 1)
    raise ValueError("unknown generator %r" % sym)


def mu1_letters(genus: int, boundary: int) -> tuple:
    """Letters of mu_1 = u2 v2 u2^-1 ... ub vb ub^-1 [a1,b1]...[ag,bg]."""
    out = []
    for i in range(2, boundary + 1):
        out += [("A%d" % i, 1), ("B%d" % i, 1), ("A%d" % i, -1)]
    for j in range(1, genus + 1):
        c, d = "C%d" % j, "D%d" % j
        out += [(c, 1), (d, 1), (c, -1), (d, -1)]
    return tuple(out)


def b1_letters(genus: int, boundary: int) -> tuple:
    """beta_1 expanded to free generators: Hol_{beta_1} = mu_1^{-1}."""
    return invert(mu1_letters(genus, boundary))


@dataclass(frozen=True)
class Word:
    """A freely reduced composable word in the surface groupoid."""

    letters: tuple
    source: int
    target: int

    @staticmethod
    def make(letters: Iterable[Letter], genus: int, boundary: int) -> "Word":
        known = set(generator_symbols(genus, boundary))
        expanded: list = []
        for sym, sgn in letters:
            if sym == "B1":
                exp = b1_letters(genus, boundary)
                expanded += list(exp if sgn == 1 else invert(exp))
            elif sym not in known:
                raise ValueError("generator %r is not on the surface of genus %d "
                                 "with %d boundary components" % (sym, genus, boundary))
            else:
                expanded.append((sym, sgn))
        src = tgt = 1
        prev_tgt = None
        for sym, sgn in expanded:   # as written: a cancellation must not hide a break
            s, t = generator_endpoints(sym)
            if sgn == -1:
                s, t = t, s
            if prev_tgt is None:
                src = s
            elif prev_tgt != s:
                raise ValueError("word not composable at %r" % sym)
            prev_tgt = t
        if prev_tgt is not None:
            tgt = prev_tgt
        return Word(free_reduce(expanded), src, tgt)

    def __len__(self) -> int:
        return len(self.letters)

    def inverse(self) -> "Word":
        return Word(invert(self.letters), self.target, self.source)

    def concat(self, other: "Word") -> "Word":
        """The path self then other.  Both are freely reduced, so letters
        cancel only at the seam."""
        if self.target != other.source:
            raise ValueError("words not composable")
        a, b = self.letters, other.letters
        k, top = 0, min(len(a), len(b))
        while k < top and a[-1 - k][0] == b[k][0] and a[-1 - k][1] == -b[k][1]:
            k += 1
        return Word(a[:len(a) - k] + b[k:], self.source, other.target)

    @staticmethod
    def from_string(text: str, genus: int, boundary: int) -> "Word":
        """Parse e.g. "C1 D1 C1^-1" or "C1 D1 C1'" (' marks an inverse)."""
        letters = []
        for tok in text.split():
            sgn = 1
            if tok.endswith("^-1"):
                sgn, tok = -1, tok[:-3]
            elif tok.endswith("'"):
                sgn, tok = -1, tok[:-1]
            if not (len(tok) >= 2 and tok[0] in "ABCD" and tok[1:].isdigit()):
                raise ValueError("bad generator token %r" % tok)
            letters.append((tok, sgn))
        return Word.make(letters, genus, boundary)

    def __str__(self) -> str:
        return " ".join(s + ("" if g == 1 else "^-1") for s, g in self.letters) or "(empty)"


def substitute(w: Word, images: Mapping[str, Word]) -> Word:
    """The image of w under the groupoid homomorphism that sends each
    generator to its word in images, or to itself where images has none.
    Word.concat refuses an image whose endpoints are not its generator's."""
    out = Word((), w.source, w.source)
    for sym, sgn in w.letters:
        image = images.get(sym, Word(((sym, 1),), *generator_endpoints(sym)))
        out = out.concat(image if sgn == 1 else image.inverse())
    return out.concat(Word((), w.target, w.target))   # and a last image's target
