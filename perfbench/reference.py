"""Independent reference answers for the benchmark's correctness checks.

Nothing here imports groupca: group arithmetic, word-metric balls,
ball-copy tests on graphs, symbol determinants and the sympy oracle for
the substitution product are re-derived from their definitions, so a
report is checked against an answer the code under test did not produce.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb

# -- groups: Z^d elements are int tuples, free-group words are tuples of
#    nonzero ints (+i is generator i, -i its inverse), always reduced.

LETTERS = "ab"


class RefZd:
    def __init__(self, d):
        self.d = d

    def identity(self):
        return (0,) * self.d

    def mul(self, g, h):
        return tuple(x + y for x, y in zip(g, h))

    def inv(self, g):
        return tuple(-x for x in g)

    def gens(self):
        out = []
        for i in range(self.d):
            for s in (1, -1):
                e = [0] * self.d
                e[i] = s
                out.append(tuple(e))
        return out

    def text(self, g):
        return "(" + ",".join(str(x) for x in g) + ")"

    def parse(self, text):
        return tuple(int(x) for x in text.strip().strip("()").split(","))


class RefFree:
    def __init__(self, rank=2):
        self.rank = rank

    def identity(self):
        return ()

    def mul(self, g, h):
        out = list(g)
        for x in h:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        return tuple(out)

    def inv(self, g):
        return tuple(-x for x in reversed(g))

    def gens(self):
        out = []
        for i in range(1, self.rank + 1):
            out.extend([i, -i])
        return [(x,) for x in out]

    def text(self, g):
        if not g:
            return "1"
        return "*".join(LETTERS[abs(x) - 1] + ("" if x > 0 else "^-1") for x in g)

    def parse(self, text):
        text = text.strip()
        if text == "1":
            return ()
        word = ()
        for part in text.split("*"):
            name, _, exp = part.strip().partition("^")
            n = int(exp) if exp else 1
            letter = LETTERS.index(name) + 1
            for _ in range(abs(n)):
                word = self.mul(word, (letter if n > 0 else -letter,))
        return word


def ref_group(spec):
    kind, _, arg = spec.partition(":")
    return RefZd(int(arg)) if kind == "zd" else RefFree(int(arg))


def ball(group, radius):
    """Word-metric ball around the identity, as a set."""
    seen = {group.identity()}
    layer = [group.identity()]
    for _ in range(radius):
        nxt = []
        for g in layer:
            for s in group.gens():
                h = group.mul(g, s)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        layer = nxt
    return seen


# -- Kaplansky searches: closed forms over F_p


def search_expectation(kind, p, group, support, degree):
    """Expected space size and finding count of an exhaustive search.

    Over F_p with a support S that contains the identity, the units are the
    pairs (aX_g + c, a^-1 X_{g^-1} - a^-1 c) with g and g^-1 in S, the
    idempotents are the p constants plus X_e, and there are no zero
    divisors.
    """
    support = set(support)
    space = p ** comb(len(support) + degree, degree)
    if kind == "unit":
        count = (p - 1) * p * sum(1 for g in support if group.inv(g) in support)
    elif kind == "idempotent":
        count = p + (1 if group.identity() in support else 0)
    else:
        count = 0
    return space, count


# -- sofic checks


def torus_good_count(n, d, radius):
    """Good vertices of the n-torus (or n-cycle) for Z^d at a radius.

    The radius-R ball copy at a vertex is a labeled-graph isomorphism onto
    the graph ball exactly when no two ball elements, and no ball element
    and a neighbour of the ball's boundary, differ by a multiple of n along
    an axis, i.e. when n >= 2R + 2.  The torus is vertex-transitive, so
    either every vertex is good or none is.
    """
    return n**d if n >= 2 * radius + 2 else 0


def free_ball_is_copied(steps, v, radius):
    """True when the radius-R ball around v in a free-group Schreier graph is a tree copy.

    ``steps[x][s]`` is the vertex reached from x along generator s (s is
    +i or -i).  The copy is good iff the reduced words of length <= R reach
    distinct vertices and no leaf has an edge back into the ball other
    than along its tree edge.
    """
    letters = [s for i in range(1, len(steps[0]) // 2 + 1) for s in (i, -i)]
    seen = {v}
    layer = [(v, 0)]
    for _ in range(radius):
        nxt = []
        for x, last in layer:
            for s in letters:
                if s == -last:
                    continue
                y = steps[x][s]
                if y in seen:
                    return False
                seen.add(y)
                nxt.append((y, s))
        layer = nxt
    for x, last in layer:
        for s in letters:
            if s != -last and steps[x][s] in seen:
                return False
    return True


# -- linear symbols: Laurent polynomials over Q or F_p as {exponent tuple: coeff}


def _reduce(poly, p):
    if p:
        poly = {w: c % p for w, c in poly.items()}
    return {w: c for w, c in poly.items() if c}


def laurent_mul(a, b, p):
    out = {}
    for u, x in a.items():
        for v, y in b.items():
            w = tuple(i + j for i, j in zip(u, v))
            out[w] = out.get(w, 0) + x * y
    return _reduce(out, p)


def laurent_det2(sym, p):
    """Determinant of a 2x2 matrix of Laurent polynomials (entries sym[i][j])."""
    out = laurent_mul(sym[0][0], sym[1][1], p)
    for w, c in laurent_mul(sym[0][1], sym[1][0], p).items():
        out[w] = out.get(w, 0) - c
    return _reduce(out, p)


# -- substitution product oracle (sympy)

_XVAR = re.compile(r"X\[([^\]]*)\]")


class StarOracle:
    """Expands alpha star beta with sympy from the generator's own term lists."""

    def __init__(self):
        import sympy

        self.sympy = sympy
        self.names = {}

    def symbol(self, g):
        if g not in self.names:
            self.names[g] = self.sympy.Symbol("x%d" % len(self.names))
        return self.names[g]

    def scalar(self, c):
        return self.sympy.Rational(c.numerator, c.denominator) if isinstance(c, Fraction) else self.sympy.Integer(c)

    def from_terms(self, group, terms, shift=None):
        """Sympy polynomial of [(coeff, [(g, e), ...]), ...], variables shifted by ``shift``."""
        out = 0
        for c, mono in terms:
            term = self.scalar(c)
            for g, e in mono:
                h = g if shift is None else group.mul(shift, g)
                term *= self.symbol(h) ** e
            out += term
        return out

    def star(self, group, alpha, beta):
        """alpha star beta: each X_g of alpha becomes beta shifted by g."""
        out = 0
        for c, mono in alpha:
            term = self.scalar(c)
            for g, e in mono:
                term *= self.from_terms(group, beta, shift=g) ** e
            out += term
        return out

    def from_text(self, group, text):
        """Sympy value of a report's polynomial text over Q or F_p."""
        expr = _XVAR.sub(lambda m: self.symbol(group.parse(m.group(1))).name, text)
        return self.sympy.sympify(expr.replace("^", "**"), locals={s.name: s for s in self.names.values()})

    def equal(self, a, b, p):
        sp = self.sympy
        diff = sp.expand(a - b)
        if not p or diff == 0:
            return diff == 0
        gens = sorted(diff.free_symbols, key=lambda s: s.name)
        if not gens:
            return diff % p == 0
        return sp.Poly(diff, *gens, modulus=p).is_zero
