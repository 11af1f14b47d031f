"""Seeded request streams for the request-level benchmark.

A workload is a list of request templates. The stream visits the templates
round-robin: one pass over them is a *cycle*, and a run measures whole cycles
only, so every run carries the same mix of request kinds (see Stream for what
the seed changes).

Every request is an argv for ``surface_qp.cli.main`` plus the JSON input
files it names. Bracket requests never repeat within a run: each one draws a
fresh ``--seed`` and fresh words from the stream, so a cross-request memo in
the program cannot pass for a speed-up. ``verify`` requests are deterministic
by design; their repeats are the real traffic of a user re-running a suite.

This module uses only the standard library, so it can be imported before
numpy is configured.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional

# name -> why it was chosen, as in BENCHMARK.json. long-words is not gated
# there: four workloads at a steady run length do not fit the time budget of
# the benchmark's runs, and no planned change targets its dominant layer
# (exact segment intersection); run it with --workload long-words.
WORKLOADS = {
    "ambient-large":
        "bracket of mu_1 (trace) with a short word on g=b=3 n=3 and g=b=5 n=4, "
        "half GL half U: the cost of a large fused bivector, so the numeric "
        "pairing dominates",
    "long-words":
        "GL n=2 bracket of random closed words of 16-36 letters on g=b=2 and "
        "g=b=3: diagram realization and exact segment intersection dominate",
    "symbolic":
        "GL entry|entry brackets at exact points, g+b<=3, n=2 and 3: symbolic "
        "normal forms dominate. Add g=2 b=1 n=3 C1 D1 C1' D1'|C2 D2 (30 s "
        "today) once ROADMAP item 3 lands",
    "suites":
        "verify, all six suites at n=2 and the five GL suites at n=3, seeded "
        "order: about 1100 small pairings per pass, so per-call overhead "
        "dominates",
}

# Share of letters in a long word that follow the polygon boundary (see
# closed_word). Uniform words of 16-36 letters cross glued sides 100-160 times
# and exhaust realize_pair's 64 general-position tries on about one pair in
# five (the side-crossing jitter takes only 256 values), so they cannot be a
# workload on which no request fails.
LONG_FOLLOW = 0.7

# Percentile reported as request_tail_ms: the highest with at least ten
# requests beyond it (in steps of 5) in the slowest 32 s run expected when the
# benchmark was defined.
TAIL_PCT = {"ambient-large": 80, "long-words": 75, "symbolic": 80, "suites": 80}

SUITES_N2 = ("qp-identity", "moment", "main-theorem", "splitting", "goldman",
             "cross-section")
SUITES_N3 = ("qp-identity", "moment", "main-theorem", "splitting", "goldman")


@dataclass
class Request:
    """One ``surface-qp`` invocation. ``files`` maps an argv placeholder
    (e.g. ``{surface}``) to the JSON document written there."""
    kind: str                      # template label, e.g. "g3b3.n3.gl"
    argv: List[str]
    files: Dict[str, object] = field(default_factory=dict)
    key: tuple = ()                # identity of the request's content

    def resolve(self, paths: Dict[str, str]) -> List[str]:
        return [paths.get(a, a) for a in self.argv]


# --- words ------------------------------------------------------------------

def _letters_at(p: int, genus: int, boundary: int) -> list:
    """(letter, target) pairs of the groupoid generators leaving marked point p."""
    if p == 1:
        out = [(("A%d" % i, 1), i) for i in range(2, boundary + 1)]
        for j in range(1, genus + 1):
            for s in ("C%d" % j, "D%d" % j):
                out += [((s, 1), 1), ((s, -1), 1)]
        return out
    return [(("A%d" % p, -1), 1), (("B%d" % p, 1), p), (("B%d" % p, -1), p)]


def boundary_letters(genus: int, boundary: int) -> list:
    """Side labels of the polygon model, counterclockwise from beta_1."""
    out = [("B1", 1)]
    for i in range(2, boundary + 1):
        out += [("A%d" % i, 1), ("B%d" % i, 1), ("A%d" % i, -1)]
    for j in range(1, genus + 1):
        c, d = "C%d" % j, "D%d" % j
        out += [(c, 1), (d, 1), (c, -1), (d, -1)]
    return out


def closed_word(rng: random.Random, genus: int, boundary: int,
                lo: int, hi: int, follow: float = 0.0) -> str:
    """Freely reduced word from marked point 1 back to 1, lo..hi letters.

    With probability ``follow`` a letter is followed by the next side of the
    polygon boundary, which the realization joins without walking a vertex
    link; otherwise the next letter is uniform among the composable ones."""
    sides = boundary_letters(genus, boundary)
    succ = {sides[k]: sides[(k + 1) % len(sides)] for k in range(len(sides))}
    while True:
        length = rng.randint(lo, hi)
        word, p = [], 1
        while len(word) < length:
            choices = [(l, t) for l, t in _letters_at(p, genus, boundary)
                       if not word or l != (word[-1][0], -word[-1][1])]
            nxt = succ.get(word[-1]) if word else None
            follow_ok = [c for c in choices if c[0] == nxt]
            if follow_ok and rng.random() < follow:
                letter, p = follow_ok[0]
            else:
                letter, p = rng.choice(choices)
            word.append(letter)
        if p != 1:
            if word[-1] == ("A%d" % p, 1):
                word.pop()
            else:
                word.append(("A%d" % p, -1))
        if lo <= len(word) <= hi:
            return " ".join(s + ("'" if sgn == -1 else "") for s, sgn in word)


def mu1_word(genus: int, boundary: int) -> str:
    """mu_1 = prod A_i B_i A_i^-1 * prod [C_j, D_j] (the first boundary's moment)."""
    parts = ["A%d B%d A%d'" % (i, i, i) for i in range(2, boundary + 1)]
    parts += ["C%d D%d C%d' D%d'" % (j, j, j, j) for j in range(1, genus + 1)]
    return " ".join(parts)


def _entry(rng: random.Random, n: int) -> dict:
    return {"kind": "entry", "i": rng.randint(1, n), "j": rng.randint(1, n),
            "part": "re"}


def exact_point(rng: random.Random, genus: int, boundary: int, n: int) -> dict:
    """Rational GL_n point: I + 3/10 * k/256 entries, |det| > 1/10 exactly."""
    names = [s for i in range(2, boundary + 1) for s in ("A%d" % i, "B%d" % i)]
    names += [s for j in range(1, genus + 1) for s in ("C%d" % j, "D%d" % j)]
    out = {}
    for name in names:
        while True:
            rows = [[Fraction(int(r == c)) + Fraction(3, 10) *
                     Fraction(rng.randint(-256, 256), 256)
                     for c in range(n)] for r in range(n)]
            if abs(_det(rows)) > Fraction(1, 10):
                break
        out[name] = [[str(x) for x in row] for row in rows]
    return out


def _det(rows) -> Fraction:
    if len(rows) == 1:
        return rows[0][0]
    return sum(((-1) ** c) * rows[0][c] *
               _det([row[:c] + row[c + 1:] for row in rows[1:]])
               for c in range(len(rows)))


# --- request stream ---------------------------------------------------------

def _bracket(kind: str, genus: int, boundary: int, group: str, n: int,
             alpha: dict, beta: dict, cli_seed: int,
             point: Optional[dict] = None) -> Request:
    files = {"{surface}": {"genus": genus, "boundary_count": boundary},
             "{diagram}": {"alpha": alpha, "beta": beta}}
    argv = ["bracket", "--surface", "{surface}", "--diagram", "{diagram}",
            "--group", group, "--n", str(n), "--seed", str(cli_seed)]
    if point is not None:
        files["{point}"] = point
        argv += ["--point", "{point}"]
    return Request(kind, argv, files, (kind, repr(alpha), repr(beta)))


def _ambient_large(shape, draw, template):
    genus, n, group = template
    alpha = {"word": mu1_word(genus, genus), "observable": {"kind": "trace"}}
    beta = {"word": closed_word(shape, genus, genus, 1, 4),
            "observable": _entry(shape, n)}
    req = _bracket("g%db%d.n%d.%s" % (genus, genus, n, group), genus, genus,
                   group, n, alpha, beta, draw.randrange(1 << 30))
    req.key += (req.argv[-1],)  # alpha is always mu_1: the seed keeps it fresh
    return req


def _long_words(shape, draw, template):
    genus, boundary, lo, hi = template
    alpha = {"word": closed_word(shape, genus, boundary, lo, hi, LONG_FOLLOW),
             "observable": {"kind": "trace"}}
    beta = {"word": closed_word(shape, genus, boundary, lo, hi, LONG_FOLLOW),
            "observable": shape.choice([{"kind": "trace"}, _entry(shape, 2)])}
    return _bracket("g%db%d.n2.gl.%d-%d" % (genus, boundary, lo, hi), genus, boundary,
                    "gl", 2, alpha, beta, shape.randrange(1 << 30),
                    exact_point(draw, genus, boundary, 2))


def _symbolic(shape, draw, template):
    genus, boundary, n, len_a, len_b = template
    alpha = {"word": closed_word(shape, genus, boundary, len_a, len_a),
             "observable": _entry(shape, n)}
    beta = {"word": closed_word(shape, genus, boundary, len_b, len_b),
            "observable": _entry(shape, n)}
    return _bracket("g%db%d.n%d.sym" % (genus, boundary, n), genus, boundary,
                    "gl", n, alpha, beta, shape.randrange(1 << 30),
                    exact_point(draw, genus, boundary, n))


def _suite(shape, draw, template):
    suite, n = template
    return Request("%s.n%d" % (suite, n),
                   ["verify", "--suite", suite, "--n", str(n)], {},
                   ("verify", suite, n))


TEMPLATES = {
    # (genus = boundary count, n, group); g=b=5 twice, so that the median
    # request is a g=b=5 one rather than the gap between the two sizes
    "ambient-large": (_ambient_large, [(3, 3, "gl"), (3, 3, "u"),
                                       (5, 4, "gl"), (5, 4, "u"),
                                       (5, 4, "gl"), (5, 4, "u")]),
    # (genus, boundary count, min and max word length)
    "long-words": (_long_words, [(2, 2, 16, 26), (2, 2, 26, 36),
                                 (3, 3, 16, 26), (3, 3, 26, 36)]),
    # (genus, boundary count, n, |alpha|, |beta|)
    "symbolic": (_symbolic, [(1, 1, 2, 3, 3), (1, 2, 2, 3, 3), (2, 1, 2, 3, 2),
                             (1, 1, 3, 1, 2), (1, 2, 3, 1, 2), (2, 1, 3, 1, 2)]),
    "suites": (_suite, [(s, 2) for s in SUITES_N2] + [(s, 3) for s in SUITES_N3]),
}


class Stream:
    """Deterministic request stream of one workload for one seed.

    Two random streams feed it. The *shape* stream (words, observables and,
    where a point file is given, the realization seed ``--seed``) is the
    same for every seed, so request k of every run brackets the same words
    in the same diagrams. The seed draws what does not change the amount of
    work: the points, the ``--seed`` of ``ambient-large`` (its point), and
    the order of the suites. Without this, how many general-position
    retries a run happened to draw moved long-words throughput by 15-25 %
    from seed to seed (2-vCPU Xeon VM). Within a run no word pair repeats."""

    def __init__(self, workload: str, seed: int):
        if workload not in TEMPLATES:
            raise ValueError("unknown workload %r (have: %s)"
                             % (workload, ", ".join(TEMPLATES)))
        self.workload = workload
        self.shape = random.Random("%s:shapes" % workload)
        self.draw = random.Random("%s:%d" % (workload, seed))
        self.make, self.templates = TEMPLATES[workload]
        self.seen = set()

    def cycle(self) -> List[Request]:
        """One request per template; suites come in seeded order."""
        templates = list(self.templates)
        if self.workload == "suites":
            self.draw.shuffle(templates)
        out = []
        for t in templates:
            req = self.make(self.shape, self.draw, t)
            while req.key[0] != "verify" and req.key in self.seen:
                req = self.make(self.shape, self.draw, t)
            self.seen.add(req.key)
            out.append(req)
        return out
