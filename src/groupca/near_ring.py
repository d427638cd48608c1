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
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
from dataclasses import dataclass, field as dc_field

from .group_ring import GroupRingElement, TwistedGroupRingElement
from .groups import FiniteSubset, GroupElement
from .rings import TERM_CAP, PrimeField, frobenius, power, scalar_inverse


class NearRingError(ValueError):
    pass


class TermCapExceeded(NearRingError):
    """Raised before a product, power or substitution whose size bound exceeds TERM_CAP."""


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
            if e:
                clean[g] = e
        self.group = group
        self.items = tuple(sorted(clean.items(), key=lambda kv: kv[0].sort_key()))
        self._hash = hash((group._hash_seed, self.items))

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
        out = dict(self.items)
        for g, e in other.items:
            out[g] = out.get(g, 0) + e
        return ExponentVector(self.group, out)

    def convolve(self, other: "ExponentVector") -> "ExponentVector":
        """(u*v)(g) = sum_h u(h) v(h^-1 g); supports multiply, degrees multiply."""
        out = {}
        for g, e in self.items:
            for h, f in other.items:
                t = g * h
                out[t] = out.get(t, 0) + e * f
        return ExponentVector(self.group, out)

    def translate(self, g: GroupElement) -> "ExponentVector":
        """Relabel by left multiplication: (g.u)(h) = u(g^-1 h)."""
        return ExponentVector(self.group, {g * h: e for h, e in self.items})

    def sort_key(self):
        return (self.degree(), tuple((g.sort_key(), e) for g, e in self.items))

    def __eq__(self, other):
        if not isinstance(other, ExponentVector):
            return NotImplemented
        return self.group == other.group and self.items == other.items

    def __hash__(self):
        return self._hash

    def __repr__(self):
        """The monomial's text, variables in descending order; "1" when empty."""
        if not self.items:
            return "1"
        return "*".join(
            "X[%s]" % g if e == 1 else "X[%s]^%d" % (g, e) for g, e in reversed(self.items)
        )


def _digits(n: int, p: int):
    """Base-p digits of n, least significant first; [n] when p = 0."""
    digits = [n % p if p else n]
    while p and n >= p:
        n //= p
        digits.append(n % p)
    return digits


class NearRingElement:
    """Sparse polynomial over a field in group-indexed variables."""

    __slots__ = ("group", "field", "terms")

    def __init__(self, group, field, terms):
        clean = {}
        for u, c in terms.items():
            if not isinstance(u, ExponentVector) or u.group != group:
                raise NearRingError("monomial outside the group")
            if c:
                clean[u] = c
        self.group = group
        self.field = field
        self.terms = clean

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
        return NearRingElement(self.group, self.field, out)

    def __neg__(self):
        return NearRingElement(self.group, self.field, {u: -c for u, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return NearRingElement(self.group, self.field, {u: v * c for u, v in self.terms.items()})

    def __mul__(self, other):
        """Ordinary commutative polynomial product (exponents add pointwise).

        Refused when min(|a|*|b|, prod_g (m_g(a) + m_g(b) + 1)) exceeds
        TERM_CAP, m_g being the largest exponent of X_g in a factor: the
        product has at most that many terms.
        """
        self._compat(other)
        if len(self.terms) * len(other.terms) > TERM_CAP:
            a, b = self._top_exponents(), other._top_exponents()
            if math.prod(a.get(g, 0) + b.get(g, 0) + 1 for g in a.keys() | b.keys()) > TERM_CAP:
                raise TermCapExceeded(
                    "a product of %d and %d terms may exceed %d terms" % (len(self.terms), len(other.terms), TERM_CAP)
                )
        return self._times(other)

    def _times(self, other):
        """self * other without the size check."""
        out = {}
        for u, a in self.terms.items():
            for v, b in other.terms.items():
                w = u.add(v)
                c = a * b
                if w in out:
                    out[w] = out[w] + c
                else:
                    out[w] = c
        return NearRingElement(self.group, self.field, out)

    def __pow__(self, n: int):
        """self^n; in characteristic p by base-p digits, a^(q*p + d) = F(a^q) * a^d.

        F is the Frobenius map c*X^u -> c^p*X^(p*u).  It is additive in
        characteristic p, so F(a) = a^p.  The size bound of self^n also
        bounds every partial power, so the products inside skip their check.
        """
        if n < 0:
            raise NearRingError("negative polynomial power")
        if n > 1 and self._expansion_exceeds_cap(((self.group.identity(), n),)):
            raise TermCapExceeded("a %d-term polynomial to the power %d may exceed %d terms" % (len(self.terms), n, TERM_CAP))
        one = NearRingElement.one(self.group, self.field)
        digits = _digits(n, self.field.characteristic)
        acc = power(self, digits[-1], one, NearRingElement._times)
        for d in reversed(digits[:-1]):
            acc = acc._frobenius()
            if d:
                acc = acc._times(power(self, d, one, NearRingElement._times))
        return acc

    def _frobenius(self):
        """F(self) = self^p in characteristic p: c*X^u -> c^p*X^(p*u)."""
        p = self.field.characteristic
        return NearRingElement(
            self.group,
            self.field,
            {ExponentVector(self.group, {g: p * e for g, e in u.items}): frobenius(c, 1) for u, c in self.terms.items()},
        )

    def _top_exponents(self):
        """{g: the largest exponent of X_g in self}."""
        top = {}
        for u in self.terms:
            for g, e in u.items:
                top[g] = max(e, top.get(g, 0))
        return top

    def _expansion_exceeds_cap(self, factors) -> bool:
        """Whether the product of shift(g, self)^e over (g, e) in ``factors`` may exceed TERM_CAP terms.

        With k terms in self and m_h the largest exponent of X_h, the
        product has at most min(prod_e C(e+k-1, k-1), prod_x (sum_g e *
        m_{g^-1 x} + 1)) terms: the multinomial count of its products, and
        the box of exponent vectors that fit, since shift(g, .) moves the
        exponent of X_h to X_{g*h}.  self^n is the factor (identity, n).  In
        characteristic p the count of a power is taken per base-p digit d_i
        of e, prod_i C(d_i+k-1, k-1), since a^e = prod_i F^i(a^(d_i)) and F
        is injective on monomials.  The count is computed only until it
        exceeds the cap; C(d+k-1, i) grows with i up to i = min(k-1, d).
        """
        k = len(self.terms)
        count = 1
        for d in [d for _, e in factors for d in _digits(e, self.field.characteristic)]:
            for i in range(1, min(k - 1, d) + 1):
                count = count * (d + k - i) // i
                if count > TERM_CAP:
                    break
            if count > TERM_CAP:
                break
        else:
            return False
        top, sides = self._top_exponents(), {}
        for g, e in factors:
            for h, m in top.items():
                sides[g * h] = sides.get(g * h, 0) + e * m
        return math.prod(side + 1 for side in sides.values()) > TERM_CAP

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
        return NearRingElement(
            self.group, self.field, {u.translate(g): c for u, c in self.terms.items()}
        )

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

    def coefficient_sum(self):
        acc = self.field.zero()
        for c in self.terms.values():
            acc = acc + c
        return acc

    def star(self, other: "NearRingElement") -> "NearRingElement":
        """Substitution product: replace X_g in self by shift(g, other)."""
        self._compat(other)
        out = NearRingElement.zero(self.group, self.field)
        shifted = {}
        for u, c in self.terms.items():
            # a single factor is checked by __pow__
            if len(u.items) > 1 and other._expansion_exceeds_cap(u.items):
                raise TermCapExceeded(
                    "substituting a %d-term polynomial into %r may exceed %d terms" % (len(other.terms), u, TERM_CAP)
                )
            prod = None
            for g, e in u.items:
                if g not in shifted:
                    shifted[g] = other.shift(g)
                factor = shifted[g] ** e
                prod = factor if prod is None else prod * factor
            if prod is None:
                prod = NearRingElement.one(self.group, self.field)
            out = out + prod.scale(c)
        return out

    def __repr__(self):
        from .expressions import format_element  # expressions imports this module

        return format_element(self)


def star(a: NearRingElement, b: NearRingElement) -> NearRingElement:
    return a.star(b)


def exp_convolve(u: ExponentVector, v: ExponentVector) -> ExponentVector:
    return u.convolve(v)


def shift(g: GroupElement, a: NearRingElement) -> NearRingElement:
    return a.shift(g)


def polynomial_apply(coeffs, a: NearRingElement) -> NearRingElement:
    """Evaluate c_0 + sum_{n>=1} c_n a^(star n); coeffs listed from degree 0 up."""
    coeffs = list(coeffs)
    if not coeffs:
        raise NearRingError("empty coefficient list")
    out = NearRingElement.constant(a.group, a.field, coeffs[0])
    power = None
    for n, c in enumerate(coeffs[1:], start=1):
        power = a if n == 1 else a.star(power)
        if c:
            out = out + power.scale(c)
    return out


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
    out = NearRingElement.zero(a.group, field)
    for g, poly in a.coeffs.items():
        terms = {}
        for k, c in enumerate(poly.coeffs):
            if c:
                terms[ExponentVector.unit(g, p**k)] = c
        out = out + NearRingElement(a.group, field, terms)
    return out


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

    def leading_term(self, a: NearRingElement):
        """Order-maximal monomial and its coefficient; errors on the zero element."""
        if not a:
            raise NearRingError("zero element has no leading term")
        best = None
        for u in a.terms:
            if best is None or self.less(best, u):
                best = u
        return a.terms[best], best


def leading_term(a: NearRingElement, order: MonomialOrder):
    return order.leading_term(a)


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


def classify_unit_pair(alpha: NearRingElement, beta: NearRingElement) -> UnitClassification:
    """Classify a pair with alpha*beta computed first.

    If the star product is X_identity, try to extract the trivial-unit
    shape alpha = a X_g - a b, beta = a^-1 X_{g^-1} + b; any unit pair not
    of that shape is returned as a witness (over a bi-invariantly ordered
    group and a domain this would contradict the unit theorem).
    """
    ident = NearRingElement.identity(alpha.group, alpha.field)
    prod = alpha.star(beta)
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
# representative per orbit: constant digit 0 and first nonzero digit 1, plus
# beta = 0 for the constants, which form one orbit of their own.  Phase 2
# solves every member of the live orbits directly, in enumeration order, so
# the findings are exactly those of a full scan.  Only associativity and
# left linearity are used, never the theorem under test.  Idempotents are
# found by direct enumeration.
#
# Internals run on plain integers mod p.  A monomial is one int holding the
# exponent of variable i in bits [i*w, (i+1)*w), so the monomial product is
# integer addition, and shifting the search's own monomials is a table
# lookup.  Every finding is re-certified through the generic star product.


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
    kind: str
    findings: list
    monomials: list
    space_size: int
    workers: int


def search_monomials(support: FiniteSubset, max_total_degree: int):
    """Canonical monomial list: exponent support inside ``support``, total
    degree bounded, ordered by (degree, sorted sparse form)."""
    elems = list(support)
    monos = []

    def rec(idx, remaining, current):
        if idx == len(elems):
            monos.append(ExponentVector(support.group, dict(current)))
            return
        for e in range(remaining + 1):
            if e:
                current[elems[idx]] = e
            rec(idx + 1, remaining - e, current)
            if e:
                del current[elems[idx]]

    rec(0, max_total_degree, {})
    monos.sort(key=lambda u: u.sort_key())
    return monos


def _universe(support: FiniteSubset, max_total_degree: int):
    """All products of at most max_total_degree support elements (plus identity)."""
    group = support.group
    layer = {group.identity()}
    universe = {group.identity()}
    for _ in range(max_total_degree):
        layer = {g * s for g in layer for s in support}
        universe |= layer
    return sorted(universe, key=lambda e: e.sort_key())


class _FastPoly:
    """Shared data for the integer-mod-p polynomial fast path.

    Polynomials are dicts packed monomial -> coefficient in [1, p).  No
    exponent of X^u star beta or alpha star alpha exceeds d^2 for the degree
    bound d, so fields of w = bit_length(d^2) + 1 bits never carry into each
    other when monomials are added.
    """

    def __init__(self, group, p, support, max_total_degree):
        self.group = group
        self.p = p
        # variables of any product X^u star beta are 2-fold products g*h of
        # support elements, whatever the degree bound
        self.universe = _universe(support, 2)
        self.var_index = {g: i for i, g in enumerate(self.universe)}
        self.width = (max_total_degree**2).bit_length() + 1
        self.monomials = search_monomials(support, max_total_degree)
        self.mono_keys = [self._pack(u.items) for u in self.monomials]
        self.ident_key = self._pack([(group.identity(), 1)])
        # shift_tables[k][i] is the packed shift by the k-th support element
        # of the i-th canonical monomial
        elems = list(support)
        self.shift_tables = [
            [self._pack([(g * h, e) for h, e in u.items]) for u in self.monomials] for g in elems
        ]
        # X^u star beta = (X^v star beta) * shift(g, beta) for u = v + X_g;
        # v comes before u, since the canonical order starts with the degree
        position = {u: i for i, u in enumerate(self.monomials)}
        self.factors = []
        for u in self.monomials[1:]:
            g, e = u.items[-1]
            rest = dict(u.items)
            rest[g] = e - 1
            self.factors.append((position[ExponentVector(group, rest)], elems.index(g)))

    def _pack(self, items):
        return sum(e << (self.var_index[g] * self.width) for g, e in items)

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

    def digits_to_poly(self, digits):
        return {self.mono_keys[i]: d for i, d in enumerate(digits) if d}

    def poly_to_element(self, poly, field):
        mask = (1 << self.width) - 1
        terms = {}
        for mono, c in poly.items():
            exponents = {}
            for g in self.universe:
                if mono & mask:
                    exponents[g] = mono & mask
                mono >>= self.width
            terms[ExponentVector(self.group, exponents)] = field.from_int(c)
        return NearRingElement(self.group, field, terms)


def _solve_mod_p(columns, target, p):
    """Solve sum_i x_i col_i = target over F_p; return (particular, kernel basis) or None.

    ``columns`` and ``target`` are dict polynomials.  Each column is reduced
    against the independent columns before it, keeping its coordinates in
    them: a column in their span gives the kernel vector e_j - coordinates,
    and the target's coordinates give the particular solution.  These are
    the answers of the reduced echelon form (free variables zero, one kernel
    vector per non-pivot column), whatever pivots the reduction picks.
    """
    basis = []  # (pivot monomial, vector with pivot coefficient 1, its coordinates)

    def reduce(vec, coords):
        for key, b, b_coords in basis:
            c = vec.get(key)
            if c:
                for m, x in b.items():
                    y = (vec.get(m, 0) - c * x) % p
                    if y:
                        vec[m] = y
                    else:
                        del vec[m]
                for i, x in b_coords.items():
                    coords[i] = (coords.get(i, 0) - c * x) % p

    ncols = len(columns)
    kernel = []
    for j, col in enumerate(columns):
        vec, coords = dict(col), {j: 1}
        reduce(vec, coords)
        if vec:
            key = next(iter(vec))
            inv = pow(vec[key], p - 2, p)
            basis.append(
                (key, {m: x * inv % p for m, x in vec.items()}, {i: x * inv % p for i, x in coords.items()})
            )
        else:
            kernel.append([coords.get(i, 0) for i in range(ncols)])
    vec, coords = dict(target), {}
    reduce(vec, coords)
    if vec:
        return None  # inconsistent
    return [(-coords.get(i, 0)) % p for i in range(ncols)], kernel


def _enumerate_solutions(particular, kernel, p, cap=100000):
    if len(kernel) == 0:
        yield tuple(particular)
        return
    count = p ** len(kernel)
    if count > cap:
        raise NearRingError("solution space too large to enumerate (%d)" % count)
    for combo in itertools.product(range(p), repeat=len(kernel)):
        vec = list(particular)
        for c, kv in zip(combo, kernel):
            if c:
                vec = [(a + c * b) % p for a, b in zip(vec, kv)]
        yield tuple(vec)


def _target(kind, fast):
    return {fast.ident_key: 1} if kind == "unit" else {}


def _orbit_segments(kind, p, m):
    """Enumeration-index ranges holding the orbit representatives, in order.

    The representative with its first nonzero digit at position m-1-j
    (digit 1, any digits after it) has an index in [p^j, 2 p^j).  Zero
    divisors need a nonconstant beta, so only units scan beta = 0.
    """
    constants = [(0, 1)] if kind == "unit" else []
    return constants + [(p**j, 2 * p**j) for j in range(m - 1)]


def _slice_segments(segments, start, stop):
    """The index ranges of representatives number start..stop-1."""
    for a, b in segments:
        n = b - a
        if start < n and stop > 0:
            yield a + max(start, 0), a + min(stop, n)
        start -= n
        stop -= n


def _live_representatives(kind, group, field, support, max_total_degree, start, stop):
    """Solve representatives number start..stop-1; return the live ones' digits.

    A unit representative is live when its system is solvable, a
    zero-divisor one when its kernel is nonzero (alpha = 0 always solves
    the homogeneous system).
    """
    p = field.p
    fast = _FastPoly(group, p, support, max_total_degree)
    m = len(fast.mono_keys)
    target = _target(kind, fast)
    live = []
    for a, b in _slice_segments(_orbit_segments(kind, p, m), start, stop):
        digits = _index_to_digits(a, p, m)
        for _ in range(a, b):
            solved = _solve_mod_p(fast.columns(digits), target, p)
            if solved is not None and (kind == "unit" or solved[1]):
                live.append(tuple(digits))
            _advance(digits, p)
    return live


def _orbit(digits, p):
    """Enumeration indices of the betas a*beta + c, a != 0, for beta's digits."""
    out = set()
    for a in range(1, p):
        scaled = [(a * x) % p for x in digits]
        for c in range(p):
            scaled[0] = c
            out.add(_digits_to_index(scaled, p))
    return out


def _solve_betas(kind, group, field, support, max_total_degree, indices):
    """Solve the systems of the betas at the given indices; raw findings in order."""
    p = field.p
    fast = _FastPoly(group, p, support, max_total_degree)
    m = len(fast.mono_keys)
    target = _target(kind, fast)
    findings = []
    for index in indices:
        digits = _index_to_digits(index, p, m)
        solved = _solve_mod_p(fast.columns(digits), target, p)
        if solved is None:
            continue
        particular, kernel = solved
        beta_digits = tuple(digits)
        for sol in _enumerate_solutions(particular, kernel, p):
            if kind == "zero_divisor" and not any(sol):
                continue  # alpha must be nonzero
            findings.append((index, beta_digits, sol))
    return findings


def _idempotent_chunk(group, field, support, max_total_degree, start, stop):
    """Scan enumeration indices [start, stop) for alpha star alpha = alpha."""
    p = field.p
    fast = _FastPoly(group, p, support, max_total_degree)
    digits = _index_to_digits(start, p, len(fast.mono_keys))
    findings = []
    for index in range(start, stop):
        acc = {}
        for d, col in zip(digits, fast.columns(digits)):
            if d:
                for mono, c in col.items():
                    acc[mono] = acc.get(mono, 0) + d * c
        square = {mono: c % p for mono, c in acc.items() if c % p}
        if square == fast.digits_to_poly(digits):
            findings.append((index, tuple(digits), None))
        _advance(digits, p)
    return findings


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


def _advance(digits, p):
    i = len(digits) - 1
    while i >= 0:
        digits[i] += 1
        if digits[i] < p:
            return
        digits[i] = 0
        i -= 1


def worker_count(explicit=None) -> int:
    if explicit is not None:
        return max(1, int(explicit))
    env = os.environ.get("GROUPCA_WORKERS")
    return max(1, int(env)) if env else 1


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
    group = support.group
    monomials = search_monomials(support, max_total_degree)
    m = len(monomials)
    p = field.p
    size = p**m
    if size > space_cap:
        raise NearRingError(
            "search space has %d elements, above the cap of %d" % (size, space_cap)
        )
    nworkers = worker_count(workers)
    space = (group, field, support, max_total_degree)
    pool = None
    if nworkers > 1:
        import multiprocessing

        pool = multiprocessing.Pool(processes=nworkers)
    with pool or contextlib.nullcontext():
        if kind == "idempotent":
            chunks = [space + r for r in _chunk_ranges(size, nworkers)]
            merged = _run_chunks(pool, _idempotent_chunk, chunks)
        else:
            reps = sum(b - a for a, b in _orbit_segments(kind, p, m))
            chunks = [(kind,) + space + r for r in _chunk_ranges(reps, nworkers)]
            live = _run_chunks(pool, _live_representatives, chunks)
            betas = sorted(set().union(*(_orbit(digits, p) for digits in live)))
            chunks = [(kind,) + space + (betas[a:b],) for a, b in _chunk_ranges(len(betas), nworkers)]
            merged = _run_chunks(pool, _solve_betas, chunks)
    fast = _FastPoly(group, p, support, max_total_degree)
    findings = [_certify(kind, fast, field, rec) for rec in merged]
    return SearchResult(kind=kind, findings=findings, monomials=monomials, space_size=size, workers=nworkers)


def _run_chunks(pool, fn, chunks):
    """fn over the chunks, on the pool when there is more than one; results concatenated in order."""
    if pool is not None and len(chunks) > 1:
        raw = pool.starmap(fn, chunks)
    else:
        raw = [fn(*c) for c in chunks]
    return [item for part in raw for item in part]


def _chunk_ranges(size, nworkers):
    n = min(nworkers, size) or 1
    step = max(1, (size + n - 1) // n)
    return [(i, min(i + step, size)) for i in range(0, size, step)]


def _certify(kind, fast, field, record):
    """Rebuild a raw finding as public elements and recompute its product."""
    index, beta_digits, alpha_sol = record
    if kind == "idempotent":
        alpha = fast.poly_to_element(fast.digits_to_poly(list(beta_digits)), field)
        product = alpha.star(alpha)
        if product != alpha:
            raise NearRingError("fast path disagreed with the generic star product")
        return Finding("idempotent", alpha, None, product, "idempotent")
    beta = fast.poly_to_element(fast.digits_to_poly(list(beta_digits)), field)
    alpha_poly = {fast.mono_keys[i]: c for i, c in enumerate(alpha_sol) if c}
    alpha = fast.poly_to_element(alpha_poly, field)
    product = alpha.star(beta)
    if kind == "unit":
        cls = classify_unit_pair(alpha, beta)
        if cls.verdict == "not_unit_pair":
            raise NearRingError("fast path disagreed with the generic star product")
        detail = {"reverse_product": cls.reverse_product}
        if cls.verdict == "trivial_unit":
            detail.update({"a": cls.a, "g": cls.g, "b": cls.b})
        return Finding("unit", alpha, beta, product, cls.verdict, detail)
    if product:
        raise NearRingError("fast path disagreed with the generic star product")
    return Finding("zero_divisor", alpha, beta, product, "zero_divisor_pair")
