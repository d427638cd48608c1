"""Group rings R[G] with scalar or square-matrix coefficients.

Elements are sparse maps from group elements to coefficients with the
convolution product (a*b)(t) = sum_h a(h) b(h^-1 t).  The module also
provides twisted group rings over K[t;F].
"""

from __future__ import annotations

import math

from .groups import FiniteSubset, FreeGroup, GroupElement, ZdGroup
from .rings import TERM_CAP, ExactMatrix, RingError, TwistedPoly, chain_products, frobenius, power


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
        """self^n by square-and-multiply; on Q[Z^d] and Q[F_r] _convolve's rule is checked for the whole chain first.

        On Z^d, supp(self^i) lies in the box i*[lo_c, hi_c] and has at most
        C(i+k-1, k-1) points for k terms.  Pairwise commuting terms of a
        free group are powers w^e of their common root word w, so, as on
        Z^1, supp(self^i) has at most i*(max e - min e) + 1 points.  Terms
        that do not commute are left to _convolve's rule, as are powers in
        characteristic p or with (nilpotent) matrix coefficients, where
        cancellation can keep the chain smaller.  Scalar powers on a
        commutative group in characteristic p go by the base-p digits of n,
        as polynomial powers do.
        """
        k, p, group = len(self.coeffs), self.field.characteristic, self.group
        widths = None
        if self.shape is None and p == 0 and k > 1 and n > 1:
            if isinstance(group, ZdGroup):
                widths = [max(c) - min(c) for c in zip(*(g.value for g in self.coeffs))]
            elif isinstance(group, FreeGroup):
                roots = [group.root(g) for g in self.coeffs]
                if len({w for w, e in roots if e}) == 1:
                    exponents = [e for _, e in roots]
                    widths = [max(exponents) - min(exponents)]
        if widths is not None:

            def size(i):
                return min(math.comb(i + k - 1, k - 1), math.prod(i * w + 1 for w in widths))

            if max(chain_products(n, size)) > TERM_CAP:
                raise GroupRingError("a %d-term element to the power %d may exceed %d term products" % (k, n, TERM_CAP))
        frob = (p, GroupRingElement._frobenius) if p and self.shape is None and self.group.commutative else None
        return power(self, n, GroupRingElement.identity(self.group, self.field, self.shape), frobenius_map=frob)

    def _frobenius(self):
        """F(self) = self^p for scalar coefficients on a commutative group in characteristic p.

        F(sum c g) = sum c^p g^p: the binomial cross terms vanish mod p.
        """
        p, one = self.field.characteristic, self.group.identity()
        out = {}
        for g, c in self.coeffs.items():
            h, c = power(g, p, one), frobenius(c, 1)
            out[h] = out[h] + c if h in out else c
        return GroupRingElement(self.group, self.field, out)

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
