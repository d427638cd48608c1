"""Polynomials in group-indexed variables with a substitution product.

An element is a sparse polynomial in variables X_g, one per group element.
Ordinary addition and multiplication are the usual commutative polynomial
operations (monomials are finitely supported exponent maps G -> N, added
pointwise).  The interesting product, written ``star`` here, substitutes
shifted copies of the right operand into the left one:

    star(a, b) = sum over monomials u of a of  a(u) * prod_g shift(g, b)^u(g)

where shift(g, b) relabels X_h to X_{g*h}.  This product is associative,
has X_identity as a two-sided unit, and distributes over addition on the
left only; right distributivity genuinely fails.

Exponent maps carry their own convolution (u*v)(g) = sum_h u(h) v(h^-1 g),
under which supports multiply and total degrees multiply; the leading-term
calculus for bi-invariantly ordered groups is built on it.

Canonical form: a monomial's ``items`` are sorted by its group's
``_sort_key`` and hold no zero exponent; a polynomial's ``terms`` hold no
zero coefficient.  The public constructors validate and then call
``_canonicalise``; results built from canonical operands go through
``_trusted``, which skips the validation only.
"""

from __future__ import annotations

import bisect
import collections
import functools
import itertools
import math
import os
import random
import sys
from dataclasses import dataclass, field as dc_field
from operator import itemgetter, or_, xor

from .group_ring import GroupRingElement, TwistedGroupRingElement
from .groups import FiniteSubset, GroupElement
from .rings import EXPONENT_DIGITS, IRREDUCIBLE, LOG_ZERO, TERM_CAP, WORK_CAP, Echelon, PrimeField, base_digits, chain_products
from .rings import field_tables, frobenius, log_add, power, scalar_inverse


_HASH_MODULUS = sys.hash_info.modulus
_EXPONENT_BOUND = 10**EXPONENT_DIGITS


class NearRingError(ValueError):
    pass


class TermCapExceeded(NearRingError):
    """Raised before a product, power or substitution may exceed TERM_CAP terms, or a product or power WORK_CAP term products."""


def _trusted(cls, *args):
    """An instance of cls from trusted data: __init__'s validation is skipped, its _canonicalise is not."""
    self = object.__new__(cls)
    self._canonicalise(*args)
    return self


class ExponentVector:
    """Finitely supported map group element -> positive exponent (a monomial)."""

    __slots__ = ("group", "items", "_hash")

    def __init__(self, group, items):
        clean = {}
        for g, e in dict(items).items():
            if not isinstance(g, GroupElement) or g.group != group:
                raise NearRingError("exponent key outside the group")
            e = int(e)
            if e < 0:
                raise NearRingError("negative exponent")
            clean[g] = e
        self._canonicalise(group, clean)

    _trusted = classmethod(_trusted)  # from a dict {element of group: int exponent >= 0}

    def _canonicalise(self, group, exponents):
        items = list(filter(itemgetter(1), exponents.items()))
        if len(items) > 1:
            key = group._sort_key
            items.sort(key=lambda kv: key(kv[0].value))
        self.group = group
        self.items = tuple(items)
        # ints hash modulo _HASH_MODULUS, so X^(2^j) and X^(2^(j+61)) would collide without their bit lengths
        if max(exponents.values(), default=0) < _HASH_MODULUS:
            self._hash = hash((group._hash_seed, self.items))
        else:
            self._hash = hash((group._hash_seed, self.items, tuple(e.bit_length() for _, e in items)))

    @classmethod
    def unit(cls, g: GroupElement, exponent: int = 1):
        return cls(g.group, {g: exponent})

    @classmethod
    def empty(cls, group):
        return cls(group, {})

    def degree(self) -> int:
        return sum(e for _, e in self.items)

    def support(self):
        return tuple(g for g, _ in self.items)

    def exponent(self, g) -> int:
        for h, e in self.items:
            if h == g:
                return e
        return 0

    def add(self, other: "ExponentVector") -> "ExponentVector":
        """Pointwise sum: the monomial product X^u * X^v = X^(u+v)."""
        if not (self.items and other.items):  # X^0 = 1
            return other if other.items else self
        out = dict(self.items)
        for g, e in other.items:
            out[g] = out.get(g, 0) + e
        return ExponentVector._trusted(self.group, out)

    def convolve(self, other: "ExponentVector") -> "ExponentVector":
        """(u*v)(g) = sum_h u(h) v(h^-1 g); supports multiply, degrees multiply."""
        out = {}
        for g, e in self.items:
            for h, f in other.items:
                t = g * h
                out[t] = out.get(t, 0) + e * f
        return ExponentVector._trusted(self.group, out)

    def translate(self, g: GroupElement) -> "ExponentVector":
        """Relabel by left multiplication: (g.u)(h) = u(g^-1 h)."""
        return ExponentVector._trusted(self.group, {g * h: e for h, e in self.items})

    def sort_key(self):
        key = self.group._sort_key
        return (self.degree(), tuple([(key(g.value), e) for g, e in self.items]))

    def __eq__(self, other):
        if not isinstance(other, ExponentVector):
            return NotImplemented
        return self.group == other.group and self.items == other.items

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return self.text({})

    def text(self, names) -> str:
        """The monomial's text, variables in descending order; "1" when empty.

        ``names`` memoises the text X[g] of each variable by g.value, across calls.
        """
        out = []
        for g, e in reversed(self.items):
            name = names.get(g.value)
            if name is None:
                name = names[g.value] = "X[%s]" % g
            if e >= _EXPONENT_BOUND:
                raise NearRingError("the exponent of %s has more than %d digits, the most a text may hold" % (name, EXPONENT_DIGITS))
            out.append(name if e == 1 else "%s^%d" % (name, e))
        return "*".join(out) or "1"


class NearRingElement:
    """Sparse polynomial over a field in group-indexed variables."""

    __slots__ = ("group", "field", "terms")

    def __init__(self, group, field, terms):
        for u in terms:
            if not isinstance(u, ExponentVector) or u.group != group:
                raise NearRingError("monomial outside the group")
        self._canonicalise(group, field, terms)

    _trusted = classmethod(_trusted)  # from a dict {monomial over group: coefficient in field}

    def _canonicalise(self, group, field, terms):
        self.group = group
        self.field = field
        self.terms = {u: c for u, c in terms.items() if c}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, group, field):
        return cls(group, field, {})

    @classmethod
    def constant(cls, group, field, c):
        return cls(group, field, {ExponentVector.empty(group): c})

    @classmethod
    def one(cls, group, field):
        return cls.constant(group, field, field.one())

    @classmethod
    def variable(cls, g: GroupElement, field, exponent: int = 1, coeff=None):
        c = field.one() if coeff is None else coeff
        return cls(g.group, field, {ExponentVector.unit(g, exponent): c})

    @classmethod
    def identity(cls, group, field):
        """The star unit X_{identity}."""
        return cls.variable(group.identity(), field)

    # -- ordinary polynomial structure ---------------------------------

    def _compat(self, other):
        if not isinstance(other, NearRingElement):
            raise NearRingError("not a near-ring element")
        if other.group != self.group or other.field != self.field:
            raise NearRingError("group or field mismatch")

    def __add__(self, other):
        self._compat(other)
        out = dict(self.terms)
        for u, c in other.terms.items():
            out[u] = out[u] + c if u in out else c
        return NearRingElement._trusted(self.group, self.field, out)

    def __neg__(self):
        return NearRingElement._trusted(self.group, self.field, {u: -c for u, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return NearRingElement._trusted(self.group, self.field, {u: v * c for u, v in self.terms.items()})

    def __mul__(self, other):
        """Ordinary commutative polynomial product (exponents add pointwise).

        Refused when its |a|*|b| term products exceed WORK_CAP, or when
        min(|a|*|b|, prod_g (m_g(a) + m_g(b) + 1)) exceeds TERM_CAP, m_g
        being the largest exponent of X_g in a factor: the product has at
        most that many terms.
        """
        self._compat(other)
        k, m = len(self.terms), len(other.terms)
        if k * m > WORK_CAP:
            raise TermCapExceeded("a product of %d and %d terms needs more than %d term products" % (k, m, WORK_CAP))
        if k * m > TERM_CAP:
            a, b = self._top_exponents(), other._top_exponents()
            if math.prod(a.get(g, 0) + b.get(g, 0) + 1 for g in a.keys() | b.keys()) > TERM_CAP:
                raise TermCapExceeded("a product of %d and %d terms may exceed %d terms" % (k, m, TERM_CAP))
        return self._times(other)

    def _times(self, other):
        """self * other without the size check."""
        out = {}
        for u, a in self.terms.items():
            for v, b in other.terms.items():
                w = u.add(v)
                c = a * b
                out[w] = out[w] + c if w in out else c
        return NearRingElement._trusted(self.group, self.field, out)

    def __pow__(self, n: int):
        """self^n; in characteristic p by base-p digits, a^(q*p + d) = F(a^q) * a^d.

        F is the Frobenius map c*X^u -> c^p*X^(p*u).  It is additive in
        characteristic p, so F(a) = a^p.  The size bound of self^n also
        bounds every partial power, so the products inside skip their check.
        """
        if n < 0:
            raise NearRingError("negative polynomial power")
        if n > 1 and len(self.terms) > 1:
            self._check_power(n)
        p = self.field.characteristic
        frob = (p, NearRingElement._frobenius) if p else None
        return power(self, n, NearRingElement.one(self.group, self.field), NearRingElement._times, frob)

    def _check_power(self, n: int):
        """Refuse self^n when size(n) exceeds TERM_CAP or its chain's term products exceed WORK_CAP.

        size(i) = min(multinomial count, box prod_g (i*m_g + 1)) bounds the
        terms of self^i, so the chain's product a^i * a^j forms at most
        size(i) * size(j) term products.
        """
        k, p, top = len(self.terms), self.field.characteristic, self._top_exponents().values()

        @functools.cache
        def size(i):
            return min(self._multinomial_bound([i]), math.prod(i * m + 1 for m in top))

        if size(n) > TERM_CAP:
            raise TermCapExceeded("a %d-term polynomial to the power %d may exceed %d terms" % (k, n, TERM_CAP))
        if sum(chain_products(n, size, p)) > WORK_CAP:
            raise TermCapExceeded("a %d-term polynomial to the power %d may need more than %d term products" % (k, n, WORK_CAP))

    def _frobenius(self):
        """F(self) = self^p in characteristic p: c*X^u -> c^p*X^(p*u)."""
        p, group = self.field.characteristic, self.group
        return NearRingElement._trusted(
            group,
            self.field,
            {ExponentVector._trusted(group, {g: p * e for g, e in u.items}): frobenius(c, 1) for u, c in self.terms.items()},
        )

    def _top_exponents(self):
        """{g: the largest exponent of X_g in self}."""
        top = {}
        for u in self.terms:
            for g, e in u.items:
                top[g] = max(e, top.get(g, 0))
        return top

    def _multinomial_bound(self, exponents) -> int:
        """prod_e C(e+k-1, k-1) over ``exponents``, k = len(self.terms); computed only until it exceeds TERM_CAP.

        It counts the products that form prod_(g, e) shift(g, self)^e.  In
        characteristic p it is taken per base-p digit d_i of e, since
        a^e = prod_i F^i(a^(d_i)) and F is injective on monomials.
        C(d+k-1, i) grows with i up to i = min(k-1, d).
        """
        k, count = len(self.terms), 1
        for d in [d for e in exponents for d in base_digits(e, self.field.characteristic)]:
            for i in range(1, min(k - 1, d) + 1):
                count = count * (d + k - i) // i
                if count > TERM_CAP:
                    return count
        return count

    def _box_bound(self, factors) -> int:
        """prod_x (sum_g e * m_{g^-1 x} + 1) over (g, e) in ``factors``, m_h the largest exponent of X_h in self.

        The exponents of prod shift(g, self)^e fit in this box: shift(g, .) moves X_h to X_{g*h}.
        """
        top, sides = self._top_exponents(), {}
        for g, e in factors:
            for h, m in top.items():
                sides[g * h] = sides.get(g * h, 0) + e * m
        return math.prod(side + 1 for side in sides.values())

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, NearRingElement):
            return NotImplemented
        return self.group == other.group and self.field == other.field and self.terms == other.terms

    def __hash__(self):
        return hash((self.group, frozenset(self.terms.items())))

    # -- structure maps ------------------------------------------------

    def shift(self, g: GroupElement) -> "NearRingElement":
        """Monomial-wise relabeling X_h -> X_{g*h}; a group action fixing constants."""
        return NearRingElement._trusted(self.group, self.field, {u.translate(g): c for u, c in self.terms.items()})

    def support_elements(self) -> FiniteSubset:
        """Union of the supports of all monomials (the memory set of the induced map)."""
        out = set()
        for u in self.terms:
            out.update(u.support())
        return FiniteSubset(self.group, out)

    def is_constant(self) -> bool:
        return all(u.degree() == 0 for u in self.terms)

    def constant_coefficient(self):
        return self.terms.get(ExponentVector.empty(self.group), self.field.zero())

    def star(self, other: "NearRingElement") -> "NearRingElement":
        """Substitution product: replace X_g in self by shift(g, other)."""
        out = {}
        for _, c, column in self._star_columns(other):
            _accumulate(out, column, c)
        return NearRingElement._trusted(self.group, self.field, out)

    def _star_columns(self, other):
        """(u, c, X^u star other) for each term c X^u of self; self star other is the sum of c times each column."""
        self._compat(other)
        shifted = {}
        for u, c in self.terms.items():
            # a single factor is checked by __pow__; the box is formed only when the count exceeds the cap
            if (
                len(u.items) > 1
                and other._multinomial_bound(e for _, e in u.items) > TERM_CAP
                and other._box_bound(u.items) > TERM_CAP
            ):
                raise TermCapExceeded(
                    "substituting a %d-term polynomial into %r may exceed %d terms" % (len(other.terms), u, TERM_CAP)
                )
            prod = None
            for g, e in u.items:
                if g not in shifted:
                    shifted[g] = other.shift(g)
                factor = shifted[g] ** e
                prod = factor if prod is None else prod * factor
            yield u, c, NearRingElement.one(self.group, self.field) if prod is None else prod

    def __repr__(self):
        from .expressions import format_element  # expressions imports this module

        return format_element(self)


def _accumulate(out, a: NearRingElement, c):
    """out += c * a, in place, on a dict of terms that may hold zero coefficients."""
    for u, v in a.terms.items():
        out[u] = out[u] + v * c if u in out else v * c


# ---------------------------------------------------------------------------
# embeddings


def embed_group_ring(a: GroupRingElement) -> NearRingElement:
    """K[G] -> near ring:  sum a(g) g  |->  sum a(g) X_g  (injective, multiplicative)."""
    if a.shape is not None:
        raise NearRingError("embedding needs scalar coefficients")
    terms = {ExponentVector.unit(g): c for g, c in a.coeffs.items()}
    return NearRingElement(a.group, a.field, terms)


def embed_twisted(a: TwistedGroupRingElement) -> NearRingElement:
    """K[t;F][G] -> near ring:  A g  |->  sum_k A_k X_g^(p^k)."""
    field = a.field
    p = field.characteristic
    if p == 0:
        raise NearRingError("twisted embedding needs positive characteristic")
    # distinct (g, k) give distinct monomials X_g^(p^k), so no two terms add up
    terms = {ExponentVector.unit(g, p**k): c for g, poly in a.coeffs.items() for k, c in enumerate(poly.coeffs) if c}
    return NearRingElement(a.group, field, terms)


# ---------------------------------------------------------------------------
# monomial order and leading terms


class MonomialOrder:
    """Total order on exponent vectors induced by a bi-invariant group order.

    u < v iff at the greatest group element (under the group order) where
    the exponents differ, u has the smaller exponent.
    """

    def __init__(self, group_order):
        self.group_order = group_order

    def compare(self, u: ExponentVector, v: ExponentVector) -> int:
        if u == v:
            return 0
        diff = []
        ue = dict(u.items)
        ve = dict(v.items)
        for g in set(ue) | set(ve):
            if ue.get(g, 0) != ve.get(g, 0):
                diff.append(g)
        top = diff[0]
        for g in diff[1:]:
            if self.group_order.less(top, g):
                top = g
        return -1 if ue.get(top, 0) < ve.get(top, 0) else 1

    def less(self, u, v) -> bool:
        return self.compare(u, v) < 0


def leading_term(a: NearRingElement, order: MonomialOrder):
    """Order-maximal monomial of ``a`` and its coefficient; errors on the zero element."""
    if not a:
        raise NearRingError("zero element has no leading term")
    best = None
    for u in a.terms:
        if best is None or order.less(best, u):
            best = u
    return a.terms[best], best


# ---------------------------------------------------------------------------
# unit-pair classification


@dataclass
class UnitClassification:
    verdict: str  # "not_unit_pair" | "trivial_unit" | "nontrivial_unit_witness"
    a: object = None
    g: object = None
    b: object = None
    product: object = None
    reverse_product: object = None


def classify_unit_pair(alpha: NearRingElement, beta: NearRingElement, product=None) -> UnitClassification:
    """Classify a pair with alpha*beta, or the given ``product`` equal to it, computed first.

    If the star product is X_identity, try to extract the trivial-unit
    shape alpha = a X_g - a b, beta = a^-1 X_{g^-1} + b; any unit pair not
    of that shape is returned as a witness (over a bi-invariantly ordered
    group and a domain this would contradict the unit theorem).
    """
    ident = NearRingElement.identity(alpha.group, alpha.field)
    prod = alpha.star(beta) if product is None else product
    rev = beta.star(alpha)
    if prod != ident:
        return UnitClassification("not_unit_pair", product=prod, reverse_product=rev)
    extracted = _trivial_unit_shape(alpha, beta)
    if extracted is not None:
        a, g, b = extracted
        return UnitClassification("trivial_unit", a=a, g=g, b=b, product=prod, reverse_product=rev)
    return UnitClassification("nontrivial_unit_witness", product=prod, reverse_product=rev)


def _trivial_unit_shape(alpha, beta):
    group, field = alpha.group, alpha.field
    nonconst = [(u, c) for u, c in alpha.terms.items() if u.degree() > 0]
    if len(nonconst) != 1:
        return None
    u, a = nonconst[0]
    if len(u.items) != 1 or u.items[0][1] != 1:
        return None
    g = u.items[0][0]
    const = alpha.constant_coefficient()
    a_inv = scalar_inverse(a)
    b = -(const * a_inv)
    expected_beta = NearRingElement.variable(g.inverse(), field, coeff=a_inv) + NearRingElement.constant(group, field, b)
    if beta == expected_beta:
        return a, g, b
    return None


# ---------------------------------------------------------------------------
# exhaustive search over finite coefficient spaces
#
# The space has p^m elements for the m = C(|S|+d, d) monomials of total
# degree at most d over the support S.  It is refused against the space cap
# from |S| and d alone, before any monomial is built.
#
# The star product is K-linear in its left argument, so for a fixed right
# operand beta the map alpha |-> alpha star beta is a linear map on the
# coefficient space.  A beta is a unit partner when alpha star beta = X_e
# is solvable, and a zero-divisor partner when alpha star beta = 0 has a
# nonzero solution; either way the search is exhaustive on both sides.
#
# Most betas need no system of their own.  For phi = a X_e + c with a != 0,
# phi star beta = a beta + c, and by associativity
#     alpha star (a beta + c) = (alpha star phi) star beta,
# where alpha |-> alpha star phi is a linear bijection of the coefficient
# space (substituting an affine form keeps supports and degrees).  So all
# betas of one affine orbit are live or dead together.  Phase 1 solves one
# representative per orbit of nonconstant betas: constant digit 0 and first
# nonzero digit 1 (alpha star c is constant, so no constant c is a partner).
# Phase 2 solves every member of the live orbits directly, in enumeration
# order, so the findings are exactly those of a full scan.  Both phases run
# the same solve loop.  Idempotents are found by direct enumeration.
#
# Before any column is built, the walk skips the betas and alphas that the
# augmentation rules out.  The map eps: X_g |-> t is a K-algebra map onto
# K[t] with eps(shift(g, b)) = eps(b), so eps(alpha star beta) =
# eps(alpha)(eps(beta)), composition in K[t], for every group.  On a
# digit vector eps = sum_k s_k t^k, s_k the digit sum mod p of the
# degree-k monomials, which the canonical order keeps in one block each.
# deg(f o g) = deg f * deg g for g not constant, so:
#   - alpha star beta = X_e forces deg eps(beta) = 1: s_k = 0 for k >= 2
#     and s_1 != 0.  The set is closed under beta |-> a beta + c, so the
#     live orbits stay whole.
#   - alpha star alpha = alpha forces eps(alpha) to be a constant or t:
#     s_k = 0 for k >= 2, and s_1 = 0, or s_1 = 1 and s_0 = 0.
#   - alpha star beta = 0 only constrains alpha, so zero-divisor betas are
#     all solved.
# Only associativity, left linearity and this homomorphism are used, never
# the theorem under test.
#
# Internals run on plain integers mod p.  A monomial is one int holding the
# exponent of variable i in bits [i*w, (i+1)*w), so the monomial product is
# integer addition, and shifting the search's own monomials is a table
# lookup.  The generic star product re-certifies every unit and zero-divisor
# finding and decides every idempotent.


@dataclass
class Finding:
    kind: str
    alpha: NearRingElement
    beta: object  # NearRingElement or None for idempotents
    product: NearRingElement
    classification: str
    detail: dict = dc_field(default_factory=dict)


@dataclass
class SearchResult:
    findings: list
    monomials: list
    space_size: int
    workers: int


def search_monomials(support: FiniteSubset, max_total_degree: int):
    """Canonical monomial list: exponent support inside ``support``, total
    degree bounded, ordered by (degree, sorted sparse form)."""
    monos = [
        ExponentVector(support.group, collections.Counter(combo))
        for d in range(max_total_degree + 1)
        for combo in itertools.combinations_with_replacement(support, d)
    ]
    monos.sort(key=ExponentVector.sort_key)
    return monos


# The point filters.  For a point x of L^U, L a field containing F_p and U = {e} u S u S.S, ev_x is a ring
# homomorphism, and substitution gives ev_x(alpha star beta) = sum_u a_u prod_g y_g^(u_g) with
# y_g = ev_x(shift(g, beta)).  An idempotent alpha has ev_x(alpha star alpha) = ev_x(alpha) at every x, so an
# alpha with a point where they differ is skipped before any product is formed.  A nonzero difference of degree
# at most d^2 vanishes at a fraction of at most d^2/|L| of the points (Schwartz-Zippel), and later points see
# only the alphas that earlier ones pass.  A unit partner beta over F2 has an alpha of F2 digits with
# sum_u a_u ev_x(X^u star beta) = ev_x(X_e) at every x: over L = GF(16) each point gives 4 equations over F2,
# and a beta whose projected system has no solution is skipped.  Over F2 both filters test a block of indices at
# once on bit-sliced lanes (_Lanes); for odd p the idempotent filter tests one index at a time (_IdempotentFilter)
# and unit betas are not projected, and zero-divisor searches walk every index unfiltered.  The generic star product
# decides each surviving alpha, and each surviving beta takes the full solve.
FILTER_POINTS = 4


def unit_point_count(m):
    """ceil(m/4) + 1 points of GF(16) for an F2 unit search over m monomials: 4 equations each, at least m + 4 in all."""
    return -(-m // 4) + 1


def filter_points(p, universe_size, support_size, max_total_degree, count=FILTER_POINTS):
    """(k, points): a filter's field L = GF(p^k) and ``count`` points, each a list of nonzero codes of L, one per variable.

    L is the largest shipped extension of F_p, and F_p itself (k = 1) for a
    prime without one.  The coordinates are drawn from a generator seeded
    with (p, |S|, d), so a longer list starts with a shorter one's points.
    """
    k = max([e for r, e in IRREDUCIBLE if r == p], default=1)
    rng = random.Random("idempotent filter %d %d %d" % (p, support_size, max_total_degree))
    return k, [[rng.randrange(1, p**k) for _ in range(universe_size)] for _ in range(count)]


def _monomial_log(key, logs, width):
    """The log of ev_x(X^key) for a packed monomial, at the point whose coordinates have these logs, not reduced."""
    total = pos = 0
    mask = (1 << width) - 1
    while key:
        total += (key & mask) * logs[pos]
        key >>= width
        pos += 1
    return total


class _PointFilter:
    """A filter's tables at its points, for one search.

    The index of an element is high * split + low, low holding its last
    m - m//2 digits.  ``parts`` gives, at one point, one table per part
    holding, for each value of that part, the log of sum_i a_i ev_x(X^key_i)
    over the part's digits a_i.  Logs are to the base of the generator of
    ``field_tables``, LOG_ZERO for 0.  ``points`` holds, for each point, its
    coordinates' codes and the parts of each shift table.
    """

    def __init__(self, fast, universe, width, max_total_degree, count):
        p, m = fast.p, len(fast.monomials)
        self.k, points = filter_points(p, len(universe), len(fast.shift_tables), max_total_degree, count)
        self.exp, self.log, self.zech = field_tables(p, self.k)
        self.p, self.m, self.width = p, m, width
        self.factors = fast.factors
        self.split = p ** (m - m // 2)
        self.points = []
        for codes in points:
            logs = [self.log[c] for c in codes]
            self.points.append((codes, [self.parts(table, logs) for table in fast.shift_tables]))

    def parts(self, keys, logs):
        """(high, low) for the packed monomials ``keys``, at the point whose coordinates have these logs."""
        p, m, log, zech = self.p, self.m, self.log, self.zech
        n = len(zech)
        terms = []
        for key in keys:
            total = _monomial_log(key, logs, self.width)
            terms.append([LOG_ZERO] + [(log[d] + total) % n for d in range(1, p)])
        out = []
        for lo, hi in ((0, m // 2), (m // 2, m)):
            table = [LOG_ZERO]
            for i in range(lo, hi):
                table = [log_add(table[v // p], terms[i][v % p], zech) for v in range(len(table) * p)]
            out.append(table)
        return out


class _IdempotentFilter(_PointFilter):
    """The idempotent filter: ``rejecting_point`` tests an alpha at FILTER_POINTS points.

    Its ``points`` hold, for each point, the parts of each shift table and
    those of the canonical monomials, which give ev_x(alpha).
    """

    def __init__(self, fast, universe, width, max_total_degree):
        super().__init__(fast, universe, width, max_total_degree, FILTER_POINTS)
        self.digit_logs = self.log[: self.p]
        self.points = [(shifts, self.parts(fast.mono_keys, [self.log[c] for c in codes])) for codes, shifts in self.points]

    def rejecting_point(self, index, digits):
        """The first point x with ev_x(alpha star alpha) != ev_x(alpha), for alpha of that index and digits; None if none.

        Each y_g and ev_x(alpha) is one Zech step over the logs of the
        index's two parts, each monomial's value one product from an earlier
        one's by ``factors``, and their sum goes by Zech's logarithm.
        """
        zech, digit_logs, factors = self.zech, self.digit_logs, self.factors
        n = len(zech)
        high, low = divmod(index, self.split)
        for point, (shifts, (plain_high, plain_low)) in enumerate(self.points):
            ys = [log_add(h[high], l[low], zech) for h, l in shifts]
            values = [0]
            for v, k in factors:
                values.append(values[v] + ys[k])
            acc = LOG_ZERO
            for d, v in zip(digits, values):
                if d and v < LOG_ZERO:
                    acc = log_add(acc, (digit_logs[d] + v) % n, zech)
            if acc != log_add(plain_high[high], plain_low[low], zech):
                return point
        return None


# The F2 lanes.  An aligned block [s, s + 2^k) of enumeration indices is tested at once: lane l holds index s + l, so
# the last k digits are the bits of l, the same patterns in every block, and the other digits are those of s, constant
# over it.  Each y_g and ev_x(alpha) is a sum over the digits of fixed GF(16) codes, so each of its 4 bit planes is
# an xor of digit patterns and a constant, and a product of two values is one bit-sliced product of their planes.
# A block holds at most 2^LANE_BITS lanes.  An op costs a Python step plus work in proportion to its lanes: a unit
# block at m = 21 took 1.9 ms on 2^6 lanes, 2.8 ms on 2^10 and 8.8 ms on 2^14, whose elimination rows take about 1 MB.
LANE_BITS = 14


def _gf16_times(a, b):
    """The product of two GF(16) values given as bit planes (coefficients of w^0..w^3), w^4 = 1 + w as in IRREDUCIBLE[(2, 4)]."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    r4 = a1 & b3 ^ a2 & b2 ^ a3 & b1
    r5 = a2 & b3 ^ a3 & b2
    r6 = a3 & b3
    return (
        a0 & b0 ^ r4,
        a0 & b1 ^ a1 & b0 ^ r4 ^ r5,
        a0 & b2 ^ a1 & b1 ^ a2 & b0 ^ r5 ^ r6,
        a0 & b3 ^ a1 & b2 ^ a2 & b1 ^ a3 & b0 ^ r6,
    )


def _outside_span(rows, m, full):
    """The lanes where the last entry of the rows lies outside the F2 span of their first m entries, taken as columns.

    An oblivious elimination, in place: at column c each lane picks as
    pivot its first row that is not yet a pivot and has a 1 there, and that
    row is added to its other unused rows with a 1 there.  Afterwards the
    unused rows are 0 on the m columns, so a lane is outside the span
    exactly when one of them holds a 1 in the last entry.
    """
    unused = [full] * len(rows)
    for c in range(m):
        rest, pivot = full, [0] * (m + 1 - c)
        for r, row in enumerate(rows):
            pick = row[c] & unused[r] & rest
            if pick:
                rest ^= pick
                unused[r] ^= pick
                for i, x in enumerate(row[c:]):
                    pivot[i] |= pick & x
        if rest == full:
            continue
        for r, row in enumerate(rows):
            hit = row[c] & unused[r]
            if hit:
                for i in range(1, m + 1 - c):
                    row[c + i] ^= hit & pivot[i]
    outside = 0
    for r, row in enumerate(rows):
        outside |= unused[r] & row[m]
    return outside


class _Lanes:
    """The F2 unit and idempotent filters on lanes: ``survivors`` gives the indices of a range that they pass.

    They evaluate at the points of ``filter_points`` in GF(16), FILTER_POINTS
    of them for idempotents and unit_point_count(m) for units, so they pass
    exactly the indices that eps and the per-point tests of the other fields'
    filters would.  A linear form sum_j d_j c_j of the digits with GF(16)
    codes c_j is held as 4 digit masks, bit m-1-j of mask b set when bit b of
    c_j is, each with its low planes, the xor of the patterns of its bits
    below ``bits``: its plane b on a block is those low planes and the parity
    of the block start's bits in mask b.  ``degree_blocks`` holds one mask
    per degree, whose planes are the digit sums that eps reads.  ``points``
    holds, for each point, the forms of y_g for each support element g, then,
    for idempotents, that of ev_x(alpha), and for units, the code of x_e.
    """

    def __init__(self, fast, universe, width, max_total_degree):
        self.kind, self.factors = fast.kind, fast.factors
        m = self.m = len(fast.monomials)
        count = FILTER_POINTS if fast.kind == "idempotent" else unit_point_count(m)
        k, points = filter_points(2, len(universe), len(fast.shift_tables), max_total_degree, count)
        exp, log, _ = field_tables(2, k)
        self.bits = min(LANE_BITS, m)
        full = (1 << (1 << self.bits)) - 1
        # the pattern of digit m-1-t: bit l set when bit t of l is
        self.patterns = [full // ((1 << (2 << t)) - 1) * (((1 << (1 << t)) - 1) << (1 << t)) for t in range(self.bits)]
        self.degree_blocks = self.form_of([sum(1 << (m - 1 - j) for j in range(a, b)) for a, b in zip(fast.bounds, fast.bounds[1:])])
        identity = universe.position(fast.group.identity())
        self.points = []
        for codes in points:
            logs = [log[c] for c in codes]

            def form(keys):
                values = [exp[_monomial_log(key, logs, width) % (len(exp) // 2)] for key in keys]
                return self.form_of([sum(1 << (m - 1 - j) for j, c in enumerate(values) if c >> b & 1) for b in range(k)])

            last = form(fast.mono_keys) if fast.kind == "idempotent" else codes[identity]
            self.points.append(([form(table) for table in fast.shift_tables], last))

    def form_of(self, masks):
        """The masks, each with its low planes."""
        return [(mask, functools.reduce(xor, (q for t, q in enumerate(self.patterns) if mask >> t & 1), 0)) for mask in masks]

    def survivors(self, ranges):
        """The indices of the ascending index ranges that eps and the points pass, ascending.

        Adjacent ranges are joined, and each piece of the result inside one
        aligned run of 2^bits indices is tested on the least aligned block
        that holds it, the block's other lanes masked off: the unit
        representatives [2^j, 2^(j+1)), j < bits, take one block.
        """
        pieces = []
        for r in ranges:
            if pieces and pieces[-1][1] == r.start:
                pieces[-1][1] = r.stop
            elif r:
                pieces.append([r.start, r.stop])
        for first, stop in pieces:
            while first < stop:
                end = min(stop, (first >> self.bits) + 1 << self.bits)
                k = (first ^ (end - 1)).bit_length()
                start = first >> k << k
                lanes = bin(self.block(start, k, (1 << end - start) - (1 << first - start)))[:1:-1]  # lane l at position l
                lane = lanes.find("1")
                while lane >= 0:
                    yield start + lane
                    lane = lanes.find("1", lane + 1)
                first = end

    def block(self, start, k, wanted):
        """The lanes of ``wanted`` whose indices start + lane eps and the points pass, for start a multiple of 2^k."""
        full = (1 << (1 << k)) - 1

        def planes(form):
            return [low & full ^ (full if (start & mask).bit_count() & 1 else 0) for mask, low in form]

        s0, s1, *higher = planes(self.degree_blocks)
        high = functools.reduce(or_, higher, 0)
        live = wanted & (s1 & ~high if self.kind == "unit" else ~(s0 & s1 | high))
        if not live:
            return 0
        m = self.m
        digits = [self.patterns[t] & full if t < k else full * (start >> t & 1) for t in range(m - 1, -1, -1)]
        one = (full, 0, 0, 0)
        rows = []
        for shifts, last in self.points:
            ys = [planes(form) for form in shifts]
            values = [one]
            for v, j in self.factors:
                values.append(ys[j] if v == 0 else _gf16_times(values[v], ys[j]))
            if self.kind == "unit":
                rows.extend([*(value[b] for value in values), full * (last >> b & 1)] for b in range(4))
                continue
            acc = planes(last)  # ev_x(alpha star alpha) - ev_x(alpha), zero where they agree
            for d, value in zip(digits, values):
                if d:
                    for b in range(4):
                        acc[b] ^= d & value[b]
            live &= ~(acc[0] | acc[1] | acc[2] | acc[3])
            if not live:
                return 0
        return live & ~_outside_span(rows, m, full) if rows else live


class _FastPoly:
    """Shared data for the integer-mod-p polynomial fast path of one search.

    Polynomials are dicts packed monomial -> coefficient in [1, p).  No
    exponent of X^u star beta exceeds d^2 for the degree bound d, so fields
    of w = bit_length(d^2) + 1 bits never carry into each other when
    monomials are added.  ``target`` is the right-hand side of
    the search's systems: X_e for units, 0 for zero divisors.  The digits
    of the degree-k monomials are digits[bounds[k]:bounds[k+1]].
    """

    def __init__(self, kind, field, support, max_total_degree):
        group = self.group = support.group
        self.kind = kind
        self.field = field
        self.p = field.p
        # variables of any product X^u star beta are 2-fold products g*h of
        # support elements, whatever the degree bound
        universe = FiniteSubset(group, [group.identity(), *support, *support.product(support)])
        width = (max_total_degree**2).bit_length() + 1

        def pack(items):
            return sum(e << (universe.position(g) * width) for g, e in items)

        self.monomials = search_monomials(support, max_total_degree)
        self.degrees = [u.degree() for u in self.monomials]
        self.bounds = [bisect.bisect_left(self.degrees, k) for k in range(max(max_total_degree, 1) + 2)]
        self.mono_keys = [pack(u.items) for u in self.monomials]
        self.target = {pack([(group.identity(), 1)]): 1} if kind == "unit" else {}
        # shift_tables[k][i] is the packed shift by the k-th support element
        # of the i-th canonical monomial
        elems = list(support)
        self.shift_tables = [[pack([(g * h, e) for h, e in u.items]) for u in self.monomials] for g in elems]
        # X^u star beta = (X^v star beta) * shift(g, beta) for u = v + X_g;
        # v comes before u, since the canonical order starts with the degree
        position = {u: i for i, u in enumerate(self.monomials)}
        self.factors = []
        for u in self.monomials[1:]:
            g, e = u.items[-1]
            rest = dict(u.items)
            rest[g] = e - 1
            self.factors.append((position[ExponentVector(group, rest)], elems.index(g)))
        if self.p == 2 and kind != "zero_divisor":
            self.filter = _Lanes(self, universe, width, max_total_degree)
        elif kind == "idempotent":
            self.filter = _IdempotentFilter(self, universe, width, max_total_degree)
        else:
            self.filter = None

    def block_sums(self, digits):
        """[s_0, s_1, ...] of the augmentation eps = sum_k s_k t^k of the digits."""
        return [sum(digits[a:b]) % self.p for a, b in zip(self.bounds, self.bounds[1:])]

    def admits(self, sums):
        """Whether the augmentation with these block sums allows a finding of the search's kind."""
        if self.kind == "zero_divisor":
            return True
        s0, s1, *higher = sums
        if any(higher):
            return False
        return s1 != 0 if self.kind == "unit" else s1 == 0 or (s1 == 1 and s0 == 0)

    def mul(self, a, b):
        p = self.p
        out = {}
        get = out.get
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                key = m1 + m2
                out[key] = get(key, 0) + c1 * c2
        return {m: c % p for m, c in out.items() if c % p}

    def columns(self, digits):
        """X^u star beta for every canonical monomial u, with beta given by its digits."""
        nonzero = [(i, d) for i, d in enumerate(digits) if d]
        shifted = [{table[i]: d for i, d in nonzero} for table in self.shift_tables]
        cols = [{0: 1}]
        for v, k in self.factors:
            cols.append(shifted[k] if v == 0 else self.mul(cols[v], shifted[k]))
        return cols

    def element(self, digits):
        """The public element with the given coefficient digits on the canonical monomials."""
        return NearRingElement(
            self.group, self.field, {u: self.field.from_int(c) for u, c in zip(self.monomials, digits) if c}
        )


def _enumerate_solutions(solution, kernel, m, p, cap=100000):
    """Each solution in m digits: ``solution`` plus a combination of e_j + y, (j, y) in ``kernel``."""
    count = p ** len(kernel)
    if count > cap:
        raise NearRingError("solution space too large to enumerate (%d)" % count)
    particular = [solution.get(i, 0) for i in range(m)]
    basis = []
    for j, y in kernel:
        vec = [y.get(i, 0) for i in range(m)]
        vec[j] = 1
        basis.append(vec)
    for combo in itertools.product(range(p), repeat=len(basis)):
        vec = particular
        for c, kv in zip(combo, basis):
            if c:
                vec = [(a + c * b) % p for a, b in zip(vec, kv)]
        yield tuple(vec)


def _representatives(p, m):
    """Enumeration-index ranges holding the nonconstant orbit representatives, ascending.

    The representative with its first nonzero digit at position m-1-j
    (digit 1, any digits after it) has an index in [p^j, 2 p^j).  No
    constant beta is a unit or zero-divisor partner, so beta = 0 is not
    scanned.
    """
    return [range(p**j, 2 * p**j) for j in range(m - 1)]


def _orbit(digits, p):
    """Enumeration indices of the betas a*beta + c, a != 0, for beta's digits."""
    out = set()
    for a in range(1, p):
        scaled = [(a * x) % p for x in digits]
        for c in range(p):
            scaled[0] = c
            out.add(_digits_to_index(scaled, p))
    return out


def _candidates(fast, ranges):
    """(index, digits) for each index of the ascending index ranges that eps and the search's filter pass.

    ``digits`` may be advanced in place for the next index; copy it to keep it.
    """
    screen = fast.filter
    if isinstance(screen, _Lanes):
        m = len(fast.monomials)
        return ((index, _index_to_digits(index, 2, m)) for index in screen.survivors(ranges))
    if screen is None:
        return _walk(fast, ranges)
    return ((index, digits) for index, digits in _walk(fast, ranges) if screen.rejecting_point(index, digits) is None)


def _solve(fast, index, digits):
    """(index, digits, (solution, kernel, m)) when beta of these digits is live, else None.

    A beta is live when alpha star beta = target has a nonzero solution
    alpha: any solution when the target is X_e, a nonzero kernel when it
    is 0 (alpha = 0 always solves the homogeneous system).
    """
    echelon = Echelon(fast.p, coordinates=True)
    for column in fast.columns(digits):
        echelon.add(column)
    solution = echelon.solve(fast.target)
    if solution is not None and (fast.target or echelon.kernel):
        return index, tuple(digits), (solution, echelon.kernel, echelon.size)
    return None


def _live_betas(fast, ranges):
    """(index, digits, (solution, kernel, m)) for each live beta in the ascending index ranges that eps and the filter pass."""
    return [record for index, digits in _candidates(fast, ranges) if (record := _solve(fast, index, digits))]


def _orbit_betas(fast, ranges):
    """_live_betas on indices all live: each solved, with neither eps nor a filter, which pass every beta of a live orbit."""
    p, m = fast.p, len(fast.monomials)
    return [record for r in ranges for index in r if (record := _solve(fast, index, _index_to_digits(index, p, m)))]


def _idempotents(fast, ranges):
    """(index, digits, None) for each alpha in the ascending index ranges that the filter passes, as every idempotent does."""
    return [(index, tuple(digits), None) for index, digits in _candidates(fast, ranges)]


def _walk(fast, ranges):
    """(index, digits) for each index of the ascending enumeration-index ranges that ``fast`` admits.

    ``digits`` is one list per range, advanced in place from one index to
    the next; copy it to keep it.  Its block sums move with it.
    """
    p, m, degrees = fast.p, len(fast.monomials), fast.degrees
    for r in ranges:
        digits = _index_to_digits(r.start, p, m)
        sums = fast.block_sums(digits)
        for index in r:
            if fast.admits(sums):
                yield index, digits
            _advance(digits, p, sums, degrees)


def _index_to_digits(index, p, m):
    digits = [0] * m
    for i in range(m - 1, -1, -1):
        digits[i] = index % p
        index //= p
    return digits


def _digits_to_index(digits, p):
    index = 0
    for d in digits:
        index = index * p + d
    return index


def _advance(digits, p, sums, degrees):
    """Step the digits to the next index, adding 1 mod p to the block sum of each digit that changes, a wrap to 0 too."""
    i = len(digits) - 1
    while i >= 0:
        k = degrees[i]
        sums[k] = (sums[k] + 1) % p
        digits[i] += 1
        if digits[i] < p:
            return
        digits[i] = 0
        i -= 1


def exhaustive_search(
    kind: str,
    field,
    support: FiniteSubset,
    max_total_degree: int,
    space_cap: int = 2**20,
    workers=None,
) -> SearchResult:
    """Deterministic exhaustive search for units, idempotents, or zero divisors.

    kind: "unit" (all pairs with alpha star beta = X_identity, classified),
    "idempotent" (all alpha with alpha star alpha = alpha), or
    "zero_divisor" (all pairs with alpha star beta = 0, alpha nonzero and
    beta nonconstant).  The search space is every element with exponent
    support in the monomials generated by ``support`` up to the given total
    degree and coefficients in F_p.  Enumeration order is canonical, so the
    findings list is independent of the worker count.
    """
    if kind not in ("unit", "idempotent", "zero_divisor"):
        raise NearRingError("unknown search kind %r" % kind)
    if not isinstance(field, PrimeField):
        raise NearRingError("exhaustive search runs over prime fields only")
    p = field.p
    m = math.comb(len(support) + max_total_degree, max_total_degree)
    # p^m >= 2^m is above the cap once m reaches its bit length, so p^m is
    # formed only when it is small
    if m >= space_cap.bit_length() or p**m > space_cap:
        raise NearRingError("search space has %d^%d elements, above the cap of %d" % (p, m, space_cap))
    size = p**m
    fast = _FastPoly(kind, field, support, max_total_degree)
    nworkers = max(1, int(workers or 1))
    pools = []  # forked by the first round of two or more chunks, shared with the next
    try:
        if kind == "idempotent":
            records = _run_chunks(pools, _idempotents, fast, [range(size)], nworkers)
        else:
            live = _run_chunks(pools, _live_betas, fast, _representatives(p, m), nworkers)
            betas = sorted(set().union(*(_orbit(digits, p) for _, digits, _ in live)))
            records = _run_chunks(pools, _orbit_betas, fast, [range(b, b + 1) for b in betas], nworkers)
    finally:
        for pool in pools:
            pool.terminate()
    findings = [finding for record in records for finding in _certify(kind, fast, record)]
    return SearchResult(findings=findings, monomials=fast.monomials, space_size=size, workers=nworkers)


# Least estimated work in a chunk, in units of about 1 us of one core (Python 3.11.7): an admitted index costs
# m^2 for a solve of m columns, m for a point test.  On lanes a block of L lanes costs about m^2 (3 + L/2048) for the
# unit projection and m (4 + L/1024) for the idempotent points, on average over whole rounds at m = 15 to 28 (a block
# stops once eps or a point rejects all its lanes), and about 2^(m - 4P) of the admitted unit betas pass P points to
# a solve.  Forking, feeding and stopping a two-process pool took 15-28 ms there, so a round forks only with twice
# this work, and each chunk outweighs the fork.
WORK_MIN = 50000


def _round_work(fn, fast, count):
    """The estimated work of fn on ``count`` indices: each one's cost on the share that eps admits, on lanes by blocks."""
    p, m, kind = fast.p, len(fast.monomials), fast.kind
    if fn is _orbit_betas:  # every beta is solved
        return count * m * m
    share = 1 if kind == "zero_divisor" else ((p - 1) / p if kind == "unit" else (p + 1) / p**2) / p ** (len(fast.bounds) - 3)
    if not isinstance(fast.filter, _Lanes):
        return count * share * (m if kind == "idempotent" else m * m)
    lanes = 1 << fast.filter.bits
    blocks = -(-count // lanes)
    if kind == "idempotent":
        return blocks * m * (4 + lanes / 1024)
    return blocks * m * m * (3 + lanes / 2048) + count * share * 2.0 ** (m - 4 * len(fast.filter.points)) * m * m


def _run_chunks(pools, fn, fast, ranges, nworkers):
    """fn(fast, chunk) over the index ranges cut into at most nworkers chunks of at least WORK_MIN estimated work.

    A single chunk runs in-process.  More run on the pool in ``pools``,
    forked here when the list is empty with one process per chunk, at most
    one per core.  Their results are concatenated in order, so chunking
    changes no record.
    """
    total = sum(map(len, ranges))
    step = max(1, -(-total // max(1, min(nworkers, int(_round_work(fn, fast, total) // WORK_MIN)))))
    chunks, chunk, room = [], [], step
    for r in ranges:
        while r:
            piece, r = r[:room], r[room:]
            chunk.append(piece)
            room -= len(piece)
            if not room:
                chunks.append((fast, chunk))
                chunk, room = [], step
    if chunk:
        chunks.append((fast, chunk))
    if len(chunks) < 2:
        return [record for _, chunk in chunks for record in fn(fast, chunk)]
    if not pools:
        import multiprocessing

        pools.append(multiprocessing.Pool(processes=min(len(chunks), os.cpu_count() or 1)))
    return [record for part in pools[0].starmap(fn, chunks) for record in part]


def _certify(kind, fast, record):
    """Rebuild a raw record as public findings, one per solution alpha, recomputing each product.

    An idempotent record is a filter survivor: the generic alpha star alpha
    decides it, and one that is not idempotent gives no finding.
    alpha star beta is linear in alpha (left distributivity), so it is
    summed from columns X^u star beta that the generic star's own
    substitution loop forms once per monomial u and beta.  beta star alpha
    is not linear in alpha and takes a full star.
    """
    _, digits, solved = record
    if kind == "idempotent":
        alpha = fast.element(digits)
        product = alpha.star(alpha)
        return [Finding("idempotent", alpha, None, product, "idempotent")] if product == alpha else []
    group, field = fast.group, fast.field
    beta = fast.element(digits)
    columns = {}  # monomial u -> X^u star beta
    findings = []
    for sol in _enumerate_solutions(*solved, fast.p):
        if not any(sol):
            continue  # alpha must be nonzero
        alpha = fast.element(sol)
        missing = NearRingElement._trusted(group, field, {u: c for u, c in alpha.terms.items() if u not in columns})
        columns.update((u, column) for u, _, column in missing._star_columns(beta))
        out = {}
        for u, c in alpha.terms.items():
            _accumulate(out, columns[u], c)
        product = NearRingElement._trusted(group, field, out)
        if kind == "unit":
            cls = classify_unit_pair(alpha, beta, product)  # forms beta * alpha
            if cls.verdict == "not_unit_pair":
                raise NearRingError("fast path disagreed with the generic star product")
            findings.append(Finding("unit", alpha, beta, cls.product, cls.verdict, {"reverse_product": cls.reverse_product}))
            continue
        if product:
            raise NearRingError("fast path disagreed with the generic star product")
        findings.append(Finding("zero_divisor", alpha, beta, product, "zero_divisor_pair"))
    return findings
