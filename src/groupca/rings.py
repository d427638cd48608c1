"""Exact coefficient arithmetic.

Scalars come in three flavours: arbitrary-precision rationals (plain
``fractions.Fraction``), prime fields F_p, and small extension fields
GF(p^k) in a fixed polynomial basis.  On top of those sit dense exact
matrices with a deterministic rank/kernel routine and Frobenius-twisted
polynomials (t*a = a^p*t).

No floating point is used anywhere; every operation is exact.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from fractions import Fraction


class RingError(ValueError):
    pass


TERM_CAP = 10**6  # size bound of polynomial and group-ring products, checked before forming them


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def power(x, n: int, one, mul=operator.mul):
    """x^n for n >= 0 by square-and-multiply, for any associative ``mul``; ``one`` is x^0.

    No squaring follows the last bit, and ``one`` is never multiplied in.
    """
    if n < 0:
        raise RingError("negative power")
    acc = None
    while n:
        if n & 1:
            acc = x if acc is None else mul(acc, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return one if acc is None else acc


# ---------------------------------------------------------------------------
# fields


class Rationals:
    """The field of rational numbers; elements are fractions.Fraction."""

    characteristic = 0

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def spec_string(self):
        return "q"

    def size(self):
        return None

    def elements(self):
        raise RingError("cannot enumerate an infinite field")

    def format(self, x) -> str:
        return str(x)

    def parse(self, text: str):
        try:
            return Fraction(text.strip())
        except ZeroDivisionError:
            raise RingError("zero denominator in %r" % text) from None

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Rationals")

    def __repr__(self):
        return "QQ"


QQ = Rationals()


class FpElement:
    __slots__ = ("p", "v")

    def __init__(self, p, v):
        self.p = p
        self.v = v % p

    def _lift(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise RingError("mixed prime fields F_%d and F_%d" % (self.p, other.p))
            return other
        if isinstance(other, int):
            return FpElement(self.p, other)
        return NotImplemented

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(self.p, self.v + other.v)

    __radd__ = __add__

    def __neg__(self):
        return FpElement(self.p, -self.v)

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(self.p, self.v - other.v)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(self.p, self.v * other.v)

    __rmul__ = __mul__

    def inverse(self):
        if self.v == 0:
            raise RingError("division by zero in F_%d" % self.p)
        return FpElement(self.p, pow(self.v, self.p - 2, self.p))

    def __truediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return FpElement(self.p, pow(self.v, n, self.p))

    def __bool__(self):
        return self.v != 0

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.v))

    def __repr__(self):
        return "%d mod %d" % (self.v, self.p)


class PrimeField:
    def __init__(self, p: int):
        if not _is_prime(p):
            raise RingError("%d is not prime" % p)
        self.p = p
        self.characteristic = p

    def zero(self):
        return FpElement(self.p, 0)

    def one(self):
        return FpElement(self.p, 1)

    def from_int(self, n):
        return FpElement(self.p, n)

    def spec_string(self):
        return "f%d" % self.p

    def size(self):
        return self.p

    def elements(self):
        return [FpElement(self.p, v) for v in range(self.p)]

    def format(self, x) -> str:
        return "%d mod %d" % (x.v, self.p)

    def parse(self, text: str):
        text = text.strip()
        if text.endswith("mod %d" % self.p):
            text = text[: text.rindex("mod")].strip()
        return FpElement(self.p, int(text))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p


# fixed irreducible polynomials (coefficients ascending, leading 1 included)
_IRREDUCIBLE = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 0, 0, 2, 1),
    (5, 2): (2, 4, 1),
    (5, 3): (3, 3, 0, 1),
    (5, 4): (2, 4, 4, 0, 1),
}


class ExtElement:
    """Element of GF(p^k), stored as a coefficient tuple of length k."""

    __slots__ = ("field", "c")

    def __init__(self, field, c):
        self.field = field
        self.c = tuple(v % field.p for v in c)

    def _lift(self, other):
        if isinstance(other, ExtElement):
            if other.field != self.field:
                raise RingError("mixed extension fields")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return NotImplemented

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return ExtElement(self.field, tuple(a + b for a, b in zip(self.c, other.c)))

    __radd__ = __add__

    def __neg__(self):
        return ExtElement(self.field, tuple(-a for a in self.c))

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return ExtElement(self.field, tuple(a - b for a, b in zip(self.c, other.c)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return ExtElement(self.field, self.field._polymul(self.c, other.c))

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise RingError("division by zero in %r" % self.field)
        return self ** (self.field.q - 2)

    def __truediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, self.field.one())

    def __bool__(self):
        return any(self.c)

    def __eq__(self, other):
        if isinstance(other, ExtElement):
            return self.field == other.field and self.c == other.c
        if isinstance(other, int):
            return self == self.field.from_int(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field.p, self.field.k, self.c))

    def __repr__(self):
        return self.field.format(self)


class ExtensionField:
    """GF(p^k) modulo a fixed irreducible polynomial, shipped for p in {2,3,5}, k <= 4."""

    def __init__(self, p: int, k: int):
        if k < 2:
            raise RingError("use PrimeField for k=1")
        if (p, k) not in _IRREDUCIBLE:
            raise RingError("no shipped modulus for GF(%d^%d)" % (p, k))
        self.p = p
        self.k = k
        self.q = p**k
        self.characteristic = p
        self.modulus = _IRREDUCIBLE[(p, k)]

    def _polymul(self, a, b):
        p, k = self.p, self.k
        prod = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        # reduce by the modulus (monic)
        for d in range(2 * k - 2, k - 1, -1):
            c = prod[d] % p
            if c:
                for j in range(k):
                    prod[d - k + j] -= c * self.modulus[j]
            prod[d] = 0
        return tuple(v % p for v in prod[:k])

    def zero(self):
        return ExtElement(self, (0,) * self.k)

    def one(self):
        return ExtElement(self, (1,) + (0,) * (self.k - 1))

    def gen(self):
        return ExtElement(self, (0, 1) + (0,) * (self.k - 2))

    def from_int(self, n):
        return ExtElement(self, (n,) + (0,) * (self.k - 1))

    def spec_string(self):
        return "gf%d" % self.q

    def size(self):
        return self.q

    def elements(self):
        out = []
        for idx in range(self.q):
            c = []
            m = idx
            for _ in range(self.k):
                c.append(m % self.p)
                m //= self.p
            out.append(ExtElement(self, tuple(c)))
        return out

    def format(self, x) -> str:
        terms = []
        for e in range(self.k - 1, 0, -1):
            c = x.c[e]
            if c == 0:
                continue
            terms.append(("w^%d" % e) if c == 1 else ("%d*w^%d" % (c, e)))
        if x.c[0] or not terms:
            terms.append(str(x.c[0]))
        return "+".join(terms) + " in GF(%d)" % self.q

    def parse(self, text: str):
        text = text.strip()
        suffix = " in GF(%d)" % self.q
        if text.endswith(suffix):
            text = text[: -len(suffix)]
        acc = self.zero()
        for part in text.replace("-", "+-").split("+"):
            part = part.strip()
            if not part:
                continue
            neg = part.startswith("-")
            if neg:
                part = part[1:].strip()
            if "w" in part:
                coeff, _, rest = part.partition("w")
                coeff = coeff.rstrip("*").strip()
                c = int(coeff) if coeff else 1
                e = int(rest[1:]) if rest.startswith("^") else 1
                term = self.from_int(c) * self.gen() ** e
            else:
                term = self.from_int(int(part))
            acc = acc - term if neg else acc + term
        return acc

    def __eq__(self, other):
        return isinstance(other, ExtensionField) and (other.p, other.k) == (self.p, self.k)

    def __hash__(self):
        return hash(("ExtensionField", self.p, self.k))

    def __repr__(self):
        return "GF(%d^%d)" % (self.p, self.k)


def field_from_spec(spec: str):
    """Parse a field spec: 'q', 'f5', 'gf9', ..."""
    spec = spec.strip().lower()
    if spec == "q":
        return QQ
    if spec.startswith("gf"):
        q = int(spec[2:])
        for p in (2, 3, 5):
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m == 1 and k >= 1:
                return PrimeField(p) if k == 1 else ExtensionField(p, k)
        raise RingError("unsupported field size %d" % q)
    if spec.startswith("f"):
        return PrimeField(int(spec[1:]))
    raise RingError("unknown field spec %r" % spec)


def frobenius(a, n: int):
    """n-fold Frobenius power a^(p^n); rejects characteristic 0."""
    if n < 0:
        raise RingError("negative Frobenius power")
    if isinstance(a, Fraction):
        raise RingError("Frobenius undefined in characteristic 0")
    if isinstance(a, FpElement):
        return a  # fixed by x -> x^p
    if isinstance(a, ExtElement):
        return a ** (a.field.p**n)
    raise RingError("not a scalar: %r" % (a,))


def scalar_field(x):
    """Field object a scalar belongs to."""
    if isinstance(x, Fraction):
        return QQ
    if isinstance(x, FpElement):
        return PrimeField(x.p)
    if isinstance(x, ExtElement):
        return x.field
    raise RingError("not a scalar: %r" % (x,))


# ---------------------------------------------------------------------------
# exact matrices


class ExactMatrix:
    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise RingError("ragged matrix")

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero(), field.one()
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field, nrows, ncols):
        z = field.zero()
        return cls(field, [[z] * ncols for _ in range(nrows)])

    @classmethod
    def from_ints(cls, field, rows):
        return cls(field, [[field.from_int(v) for v in r] for r in rows])

    def __add__(self, other):
        self._compat(other)
        return ExactMatrix(
            self.field,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
        )

    def __sub__(self, other):
        self._compat(other)
        return ExactMatrix(
            self.field,
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
        )

    def __neg__(self):
        return ExactMatrix(self.field, [[-a for a in r] for r in self.rows])

    def _compat(self, other):
        if not isinstance(other, ExactMatrix):
            raise RingError("not a matrix")
        if self.field != other.field or (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise RingError("matrix shape or field mismatch")

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.ncols != other.nrows or self.field != other.field:
                raise RingError("matrix shape or field mismatch")
            cols = list(zip(*other.rows)) if other.rows else []
            z = self.field.zero()
            out = []
            for r in self.rows:
                row = []
                for c in cols:
                    acc = z
                    for a, b in zip(r, c):
                        if a and b:
                            acc = acc + a * b
                    row.append(acc)
                out.append(row)
            if not cols:
                out = [[] for _ in self.rows]
            return ExactMatrix(self.field, out)
        # scalar
        return ExactMatrix(self.field, [[a * other for a in r] for r in self.rows])

    def scale(self, c):
        return ExactMatrix(self.field, [[a * c for a in r] for r in self.rows])

    def transpose(self):
        return ExactMatrix(self.field, [list(c) for c in zip(*self.rows)]) if self.rows and self.ncols else ExactMatrix.zeros(self.field, self.ncols, self.nrows)

    def apply(self, vec):
        if len(vec) != self.ncols:
            raise RingError("vector length mismatch")
        out = []
        for r in self.rows:
            acc = self.field.zero()
            for a, b in zip(r, vec):
                if a and b:
                    acc = acc + a * b
            out.append(acc)
        return out

    def __bool__(self):
        return any(any(a for a in r) for r in self.rows)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.field == other.field
            and (self.nrows, self.ncols) == (other.nrows, other.ncols)
            and all(r1 == r2 for r1, r2 in zip(self.rows, other.rows))
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, tuple(tuple(r) for r in self.rows)))

    def rank_kernel(self):
        """Rank and a deterministic reduced-echelon kernel basis."""
        sparse = [{j: v for j, v in enumerate(r) if v} for r in self.rows]
        return rank_kernel_sparse(self.field, sparse, self.ncols, want_kernel=True)

    def rank(self) -> int:
        sparse = [{j: v for j, v in enumerate(r) if v} for r in self.rows]
        rank, _ = rank_kernel_sparse(self.field, sparse, self.ncols, want_kernel=False)
        return rank

    def __repr__(self):
        return "ExactMatrix(%dx%d over %r)" % (self.nrows, self.ncols, self.field)


def rank_kernel_sparse(field, rows, ncols, want_kernel=True):
    """Gauss-Jordan elimination on sparse rows (dicts col->nonzero scalar).

    Pivot rule: first nonzero column, smallest surviving row index.  The
    kernel basis vectors come out in reduced echelon form, one per free
    column, in ascending column order.  Mutates ``rows``.

    Pivots are taken in columns below ``ncols`` only; entries at columns
    >= ``ncols`` (right-hand sides) are carried through every row
    operation.  With ``want_kernel`` the rows end fully reduced: a nonzero
    row's smallest column is its pivot, which holds 1 and is zero in every
    other row, and a nonzero row whose smallest column is >= ``ncols``
    has no pivot (an inconsistent right-hand side).

    Pivots and target rows are read from ``index``, which maps each column
    to the rows that are nonzero there: row ``i`` is in ``index[c]``
    exactly when ``rows[i].get(c)`` is nonzero.  It is built once from the
    input and updated wherever fill-in makes an entry nonzero or
    cancellation makes it zero, so the cost follows the nonzeros, not
    rows x columns.  The pivot rule and every row operation are those of a
    scan over the rows in row order (each target row depends only on
    itself and the pivot row, so the order targets are visited in does
    not matter), and the reduced rows and the kernel are the scan's.
    """
    zero, one = field.zero(), field.one()
    index = defaultdict(set)
    for i, row in enumerate(rows):
        for c, v in row.items():
            if v:
                index[c].add(i)
    live = set(range(len(rows)))
    pivots = {}  # col -> row index
    for col in range(ncols):
        hits = [i for i in index.get(col, ()) if i in live]
        if not hits:
            continue
        pivot_row = min(hits)
        live.remove(pivot_row)
        pivots[col] = pivot_row
        prow = rows[pivot_row]
        inv = scalar_inverse(prow[col])
        for j, v in list(prow.items()):
            prow[j] = v * inv
        prow[col] = one
        targets = index[col] if want_kernel else hits
        # a copy: eliminating row i removes it from index[col]
        for i in [i for i in targets if i != pivot_row]:
            ri = rows[i]
            f = ri[col]
            for j, v in prow.items():
                nv = ri.get(j, zero) - f * v
                if nv:
                    ri[j] = nv
                    index[j].add(i)
                elif j in ri:
                    del ri[j]
                    index[j].discard(i)
    rank = len(pivots)
    if not want_kernel:
        return rank, []
    # After full reduction only pivot rows are nonzero below ncols.
    pivot_col = {i: c for c, i in pivots.items()}
    kernel = []
    for col in range(ncols):
        if col in pivots:
            continue
        vec = [zero] * ncols
        vec[col] = one
        for i in index.get(col, ()):
            vec[pivot_col[i]] = -rows[i][col]
        kernel.append(tuple(vec))
    return rank, kernel


def scalar_inverse(x):
    """Inverse of a nonzero field scalar: a Fraction or a finite-field element."""
    if isinstance(x, Fraction):
        return 1 / x
    return x.inverse()


def matrix_rank_kernel(m: ExactMatrix):
    """Public rank/kernel oracle: rank plus reduced-echelon kernel basis."""
    if not isinstance(m.field, (Rationals, PrimeField, ExtensionField)):
        raise RingError("rank/kernel requires a field")
    return m.rank_kernel()


# ---------------------------------------------------------------------------
# twisted polynomials K[t;F], t*a = a^p*t


class TwistedPoly:
    """Polynomial in t over a positive-characteristic field, with t*a = a^p*t."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        if field.characteristic == 0:
            raise RingError("twisted polynomials need positive characteristic")
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.field = field
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, field):
        return cls(field, [])

    @classmethod
    def constant(cls, field, c):
        return cls(field, [c])

    @classmethod
    def t(cls, field, n=1):
        return cls(field, [field.zero()] * n + [field.one()])

    def degree(self):
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        self._compat(other)
        n = max(len(self.coeffs), len(other.coeffs))
        z = self.field.zero()
        a = list(self.coeffs) + [z] * (n - len(self.coeffs))
        b = list(other.coeffs) + [z] * (n - len(other.coeffs))
        return TwistedPoly(self.field, [x + y for x, y in zip(a, b)])

    def __neg__(self):
        return TwistedPoly(self.field, [-x for x in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def _compat(self, other):
        if not isinstance(other, TwistedPoly) or other.field != self.field:
            raise RingError("twisted polynomials over different fields")

    def __mul__(self, other):
        self._compat(other)
        if not self or not other:
            return TwistedPoly.zero(self.field)
        p = self.field.characteristic
        z = self.field.zero()
        out = [z] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if not b:
                    continue
                out[i + j] = out[i + j] + a * b ** (p**i)
        return TwistedPoly(self.field, out)

    def __eq__(self, other):
        if not isinstance(other, TwistedPoly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                parts.append(repr(c))
            else:
                tpow = "t" if i == 1 else "t^%d" % i
                parts.append(tpow if c == self.field.one() else "(%r)*%s" % (c, tpow))
        return " + ".join(parts)


def twisted_multiply(a: TwistedPoly, b: TwistedPoly) -> TwistedPoly:
    return a * b


def exact_decimal(x: Fraction, places: int = 6) -> str:
    """Decimal rendering of an exact rational, round-half-away, no floats."""
    sign = "-" if x < 0 else ""
    x = abs(x)
    scaled = x * 10**places
    n = scaled.numerator // scaled.denominator
    rem = scaled - n
    if 2 * rem >= 1:
        n += 1
    digits = str(n).rjust(places + 1, "0")
    return "%s%s.%s" % (sign, digits[:-places], digits[-places:])
