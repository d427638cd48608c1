"""Group rings R[G] with scalar or square-matrix coefficients.

Elements are sparse maps from group elements to coefficients with the
convolution product (a*b)(t) = sum_h a(h) b(h^-1 t).  The module also
provides the entrywise transport between Mat_n(R)[G] and Mat_n(R[G]),
one-sided-inverse audits, twisted group rings over K[t;F], and an
exhaustive direct-finiteness scan for small finite coefficient rings.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .groups import FiniteGroup, FiniteSubset, GroupElement, ZdGroup
from .rings import TERM_CAP, ExactMatrix, RingError, TwistedPoly, power


class GroupRingError(ValueError):
    pass


def _convolve(a, b):
    """(a*b)(t) = sum_h a(h) b(h^-1 t); refused when |supp a| * |supp b| exceeds TERM_CAP."""
    if len(a) * len(b) > TERM_CAP:
        raise GroupRingError("a product of %d and %d terms exceeds %d term products" % (len(a), len(b), TERM_CAP))
    out = {}
    for g, x in a.items():
        for h, y in b.items():
            t = g * h
            c = x * y
            out[t] = out[t] + c if t in out else c
    return out


class GroupRingElement:
    """Sparse map group element -> coefficient; no explicit zeros stored.

    ``shape`` is None for scalar coefficients or n for n x n matrices.
    Scalar and matrix elements are distinct and never auto-promoted.
    """

    __slots__ = ("group", "field", "shape", "coeffs")

    def __init__(self, group, field, coeffs, shape=None):
        self.group = group
        self.field = field
        self.shape = shape
        clean = {}
        for g, c in coeffs.items():
            if not isinstance(g, GroupElement) or g.group != group:
                raise GroupRingError("support element outside the group")
            if shape is not None:
                if not isinstance(c, ExactMatrix) or c.nrows != shape or c.ncols != shape:
                    raise GroupRingError("coefficient is not a %dx%d matrix" % (shape, shape))
                if c.field != field:
                    raise GroupRingError("coefficient field mismatch")
            if c:
                clean[g] = c
        self.coeffs = clean

    @classmethod
    def zero(cls, group, field, shape=None):
        return cls(group, field, {}, shape=shape)

    @classmethod
    def identity(cls, group, field, shape=None):
        one = field.one() if shape is None else ExactMatrix.identity(field, shape)
        return cls(group, field, {group.identity(): one}, shape=shape)

    def support(self) -> FiniteSubset:
        return FiniteSubset(self.group, self.coeffs)

    def _compat(self, other):
        if not isinstance(other, GroupRingElement):
            raise GroupRingError("not a group-ring element")
        if other.group != self.group or other.field != self.field or other.shape != self.shape:
            raise GroupRingError("group, field, or coefficient shape mismatch")

    def __add__(self, other):
        self._compat(other)
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            out[g] = out[g] + c if g in out else c
        return GroupRingElement(self.group, self.field, out, shape=self.shape)

    def __neg__(self):
        return GroupRingElement(
            self.group, self.field, {g: -c for g, c in self.coeffs.items()}, shape=self.shape
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Convolution product; support(a*b) is contained in supp(a)*supp(b)."""
        self._compat(other)
        return GroupRingElement(self.group, self.field, _convolve(self.coeffs, other.coeffs), shape=self.shape)

    def __pow__(self, n: int):
        """self^n by square-and-multiply; on Q[Z^d] its largest products are checked first.

        With k terms, supp(self^i) lies in the box i*[lo_c, hi_c] and has at
        most C(i+k-1, k-1) points.  Both grow with i, so the largest products
        of the chain are its last squaring and its last multiply.  In
        characteristic p or with (nilpotent) matrix coefficients cancellation
        can keep the chain smaller, so only _convolve's rule applies there.
        """
        k = len(self.coeffs)
        if self.shape is None and self.field.characteristic == 0 and isinstance(self.group, ZdGroup) and k > 1 and n > 1:
            widths = [max(c) - min(c) for c in zip(*(g.value for g in self.coeffs))]

            def size(i):
                return min(math.comb(i + k - 1, k - 1), math.prod(i * w + 1 for w in widths))

            top = 1 << (n.bit_length() - 1)
            if size(top // 2) ** 2 > TERM_CAP or size(n - top) * size(top) > TERM_CAP:
                raise GroupRingError("a %d-term element to the power %d may exceed %d term products" % (k, n, TERM_CAP))
        return power(self, n, GroupRingElement.identity(self.group, self.field, self.shape))

    def scale(self, c):
        if self.shape is None:
            return GroupRingElement(
                self.group, self.field, {g: v * c for g, v in self.coeffs.items()}
            )
        return GroupRingElement(
            self.group,
            self.field,
            {g: v.scale(c) for g, v in self.coeffs.items()},
            shape=self.shape,
        )

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return (
            self.group == other.group
            and self.field == other.field
            and self.shape == other.shape
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.group, frozenset(self.coeffs.items())))

    def is_identity(self):
        return self == GroupRingElement.identity(self.group, self.field, self.shape)

    def __repr__(self):
        if self.shape is not None:
            return "GroupRingElement(%dx%d matrices on %r)" % (self.shape, self.shape, self.support())
        from .expressions import format_element  # expressions imports this module

        return format_element(self)


def gr_convolve(a: GroupRingElement, b: GroupRingElement) -> GroupRingElement:
    return a * b


def mat_transport(a: GroupRingElement):
    """Mat_n(R)[G] -> Mat_n(R[G]): entry (i,j) collects the (i,j) entries of all coefficients."""
    if a.shape is None:
        return [[GroupRingElement(a.group, a.field, dict(a.coeffs))]]
    n = a.shape
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            row.append(
                GroupRingElement(
                    a.group, a.field, {g: m.rows[i][j] for g, m in a.coeffs.items()}
                )
            )
        out.append(row)
    return out


def transported_product(ta, tb):
    """Multiply two matrices of scalar group-ring elements (for transport checks)."""
    n = len(ta)
    sample = ta[0][0]
    zero = GroupRingElement.zero(sample.group, sample.field)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = zero
            for k in range(n):
                acc = acc + ta[i][k] * tb[k][j]
            row.append(acc)
        out.append(row)
    return out


@dataclass
class InverseAudit:
    verdict: str  # "not_one_sided" | "two_sided" | "direct_finiteness_violation"
    witness: object = None  # group element where b*a differs from the identity


def one_sided_inverse_audit(a: GroupRingElement, b: GroupRingElement) -> InverseAudit:
    """If a*b = 1, check b*a = 1 and report a witness element on failure."""
    ident = GroupRingElement.identity(a.group, a.field, a.shape)
    if a * b != ident:
        return InverseAudit("not_one_sided")
    back = b * a
    if back == ident:
        return InverseAudit("two_sided")
    diff = back - ident
    witness = sorted(diff.coeffs, key=lambda e: e.sort_key())[0]
    return InverseAudit("direct_finiteness_violation", witness=witness)


def direct_finiteness_scan(group: FiniteGroup, field, shape=None, cap=2**20, samples=20000, seed=0):
    """Scan pairs of a finite group ring for one-sided inverses that are not two-sided.

    Enumerates every pair when the ring has at most ``cap`` elements,
    otherwise samples pairs with a fixed seed.  Returns (pairs_checked,
    one_sided_found, violations) where violations is a list of (a, b).
    """
    if not isinstance(group, FiniteGroup):
        raise GroupRingError("exhaustive scan needs a finite group")
    if field.size() is None:
        raise GroupRingError("exhaustive scan needs a finite coefficient field")
    n = 1 if shape is None else shape
    slots = group.order * n * n
    ring_size = field.size() ** slots
    elems = group.elements()
    scalars = field.elements()

    def element_from_digits(digits):
        if shape is None:
            return GroupRingElement(group, field, dict(zip(elems, digits)))
        coeffs = {}
        for idx, g in enumerate(elems):
            block = digits[idx * n * n : (idx + 1) * n * n]
            coeffs[g] = ExactMatrix(field, [list(block[r * n : (r + 1) * n]) for r in range(n)])
        return GroupRingElement(group, field, coeffs, shape=shape)

    if ring_size * ring_size <= cap:
        space = [element_from_digits(d) for d in itertools.product(scalars, repeat=slots)]
        pairs = itertools.product(space, repeat=2)
    else:
        rng = random.Random(seed)

        def draw():
            return element_from_digits([scalars[rng.randrange(len(scalars))] for _ in range(slots)])

        pairs = ((draw(), draw()) for _ in range(samples))
    pairs_checked = 0
    one_sided = 0
    violations = []
    for a, b in pairs:
        pairs_checked += 1
        audit = one_sided_inverse_audit(a, b)
        if audit.verdict != "not_one_sided":
            one_sided += 1
        if audit.verdict == "direct_finiteness_violation":
            violations.append((a, b))
    return pairs_checked, one_sided, violations


class TwistedGroupRingElement:
    """Element of K[t;F][G]: sparse map group element -> twisted polynomial."""

    __slots__ = ("group", "field", "coeffs")

    def __init__(self, group, field, coeffs):
        if field.characteristic == 0:
            raise RingError("twisted group rings need positive characteristic")
        self.group = group
        self.field = field
        self.coeffs = {g: c for g, c in coeffs.items() if c}

    @classmethod
    def zero(cls, group, field):
        return cls(group, field, {})

    @classmethod
    def identity(cls, group, field):
        return cls(group, field, {group.identity(): TwistedPoly.constant(field, field.one())})

    def _compat(self, other):
        if not isinstance(other, TwistedGroupRingElement):
            raise GroupRingError("not a twisted group-ring element")
        if other.group != self.group or other.field != self.field:
            raise GroupRingError("group or field mismatch")

    def __add__(self, other):
        self._compat(other)
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            out[g] = out[g] + c if g in out else c
        return TwistedGroupRingElement(self.group, self.field, out)

    def __neg__(self):
        return TwistedGroupRingElement(self.group, self.field, {g: -c for g, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._compat(other)
        return TwistedGroupRingElement(self.group, self.field, _convolve(self.coeffs, other.coeffs))

    def __pow__(self, n: int):
        return power(self, n, TwistedGroupRingElement.identity(self.group, self.field))

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, TwistedGroupRingElement):
            return NotImplemented
        return self.group == other.group and self.field == other.field and self.coeffs == other.coeffs

    def __repr__(self):
        from .expressions import format_element  # expressions imports this module

        return format_element(self)
