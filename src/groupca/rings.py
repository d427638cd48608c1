"""Exact coefficient arithmetic.

Scalars come in three flavours: arbitrary-precision rationals (plain
``fractions.Fraction``), prime fields F_p, and small extension fields
GF(p^k) in a fixed polynomial basis.  On top of those sit dense exact
matrices, one span solver (``Echelon``) for every rank, kernel and linear
system, and Frobenius-twisted polynomials (t*a = a^p*t).

No floating point is used anywhere; every operation is exact.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import operator
import re
from fractions import Fraction


class RingError(ValueError):
    pass


TERM_CAP = 10**6  # size bound of one polynomial or group-ring product, checked before forming it
WORK_CAP = 10**6  # term products of one polynomial product or power chain, checked before it starts
EXPONENT_DIGITS = 4300  # most digits of a number in a text: the interpreter's int-to-text limit would refuse more in its own terms
CERTIFY_PRIME = 2**31 - 1  # full Q ranks are certified modulo this prime (rank_kernel_sparse)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def base_digits(n: int, p: int):
    """Base-p digits of n, least significant first; [n] when p = 0."""
    digits = [n % p if p else n]
    while p and n >= p:
        n //= p
        digits.append(n % p)
    return digits


def power(x, n: int, one, mul=operator.mul, frobenius_map=None):
    """x^n for n >= 0 by square-and-multiply, for any associative ``mul``; ``one`` is x^0.

    No squaring follows the last bit, and ``one`` is never multiplied in.
    ``frobenius_map`` = (p, F), F(a) = a^p, goes by the base-p digits of n
    instead: x^(q*p + d) = F(x^q) * x^d, each x^d by square-and-multiply.
    """
    if n < 0:
        raise RingError("negative power")
    if frobenius_map is not None:
        p, F = frobenius_map
        digits = base_digits(n, p)
        acc = power(x, digits[-1], one, mul)
        for d in reversed(digits[:-1]):
            acc = F(acc)
            if d:
                acc = mul(acc, power(x, d, one, mul))
        return acc
    acc = None
    while n:
        if n & 1:
            acc = x if acc is None else mul(acc, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return one if acc is None else acc


def chain_products(n: int, size, p: int = 0) -> list:
    """size(i) * size(j) for each product x^i * x^j that ``power`` forms for x^n, found by running its chain on exponents.

    ``p`` > 0 runs the chain by base-p digits; a Frobenius step forms no product.
    """
    products = []

    def mul(i, j):
        products.append(size(i) * size(j))
        return i + j

    power(1, n, 0, mul, (p, lambda i: i * p) if p else None)
    return products


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

    def _value(self, other):
        """The value of an element of this field or of an int, None for any other operand."""
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise RingError("mixed prime fields F_%d and F_%d" % (self.p, other.p))
            return other.v
        return other if isinstance(other, int) else None

    def __add__(self, other):
        b = self._value(other)
        return NotImplemented if b is None else FpElement(self.p, self.v + b)

    __radd__ = __add__

    def __neg__(self):
        return FpElement(self.p, -self.v)

    def __sub__(self, other):
        b = self._value(other)
        return NotImplemented if b is None else FpElement(self.p, self.v - b)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        b = self._value(other)
        return NotImplemented if b is None else FpElement(self.p, self.v * b)

    __rmul__ = __mul__

    def inverse(self):
        if self.v == 0:
            raise RingError("division by zero in F_%d" % self.p)
        return FpElement(self.p, pow(self.v, self.p - 2, self.p))

    def __truediv__(self, other):
        b = self._value(other)
        return NotImplemented if b is None else self * FpElement(self.p, b).inverse()

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
IRREDUCIBLE = {
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


LOG_ZERO = 1 << 62  # the log of 0: a sum of logs that holds it stays above every log of a nonzero element


@functools.cache
def field_tables(p: int, k: int):
    """(exp, log, zech) of GF(p^k) on int codes, O(p^k) entries each, built on first use.

    c_0 + c_1 w + ... + c_(k-1) w^(k-1) has code sum c_i p^i, w a root of the
    shipped modulus, and F_p = F_p[w]/(w) is k = 1.  For g the first code of
    order q - 1 (a modulus need not be primitive), exp[i] = g^i for
    i < 2(q - 1), log[g^i] = i < q - 1 with log[0] = LOG_ZERO, and
    zech[n] = log(1 + g^n); ``log_add`` adds by it.
    """
    q, modulus = p**k, IRREDUCIBLE.get((p, k), (0, 1))
    digits = [[code // p**i % p for i in range(k)] for code in range(q)]

    def times(a, b):  # digit lists; a * b = (...(b_(k-1) a) w + ...) w + b_0 a, with w^k reduced by the modulus
        acc = [0] * k
        for c in reversed(b):
            top = acc[-1]
            acc = [(x + c * y - top * m) % p for x, y, m in zip([0] + acc[:-1], a, modulus)]
        return acc

    for g in range(1, q):
        exp, x = [1], digits[g]
        while x != digits[1]:
            exp.append(sum(c * p**i for i, c in enumerate(x)))
            x = times(x, digits[g])
        if len(exp) == q - 1:
            break
    log = [LOG_ZERO] * q
    for i, code in enumerate(exp):
        log[code] = i
    return exp * 2, log, [log[code - code % p + (code + 1) % p] for code in exp]


def log_add(a, b, zech):
    """log(g^a + g^b) = a + zech[b - a] mod q - 1 (Zech's logarithm), for a and b logs below q - 1 or LOG_ZERO."""
    if a == LOG_ZERO or b == LOG_ZERO:
        return b if a == LOG_ZERO else a
    z = zech[b - a]
    return z if z == LOG_ZERO else (a + z) % len(zech)


class ExtElement:
    """Element of GF(p^k), held as its int code (see ``field_tables``)."""

    __slots__ = ("field", "code")

    def __init__(self, field, code):
        self.field = field
        self.code = code

    def _code(self, other):
        """The code of an element of this field or of an int, None for any other operand."""
        if isinstance(other, ExtElement):
            if other.field is not self.field and other.field != self.field:
                raise RingError("mixed extension fields")
            return other.code
        return other % self.field.p if isinstance(other, int) else None

    def __add__(self, other):
        b = self._code(other)
        return NotImplemented if b is None else ExtElement(self.field, self.field._add(self.code, b))

    __radd__ = __add__

    def __neg__(self):
        return ExtElement(self.field, self.field._mul(self.code, self.field.p - 1))

    def __sub__(self, other):
        b = self._code(other)
        return NotImplemented if b is None else ExtElement(self.field, self.field._add(self.code, self.field._mul(b, self.field.p - 1)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        b = self._code(other)
        return NotImplemented if b is None else ExtElement(self.field, self.field._mul(self.code, b))

    __rmul__ = __mul__

    def inverse(self):
        if not self.code:
            raise RingError("division by zero in %r" % self.field)
        field = self.field
        return ExtElement(field, field._exp[field.q - 1 - field._log[self.code]])

    def __truediv__(self, other):
        b = self._code(other)
        return NotImplemented if b is None else self * ExtElement(self.field, b).inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        field = self.field  # 0^0 = 1
        return ExtElement(field, field._exp[field._log[self.code] * n % (field.q - 1)] if self.code else int(n == 0))

    def __bool__(self):
        return self.code != 0

    def __eq__(self, other):
        if isinstance(other, ExtElement):
            return self.code == other.code and (self.field is other.field or self.field == other.field)
        if isinstance(other, int):
            return self.code == other % self.field.p
        return NotImplemented

    def __hash__(self):
        return hash((self.field.p, self.field.k, self.field.coefficients(self)))

    def __repr__(self):
        return self.field.format(self)


# GF(p^k) texts: a monomial is c, w, w^e, c*w or c*w^e, a text a signed sum of them, and a
# term one signed monomial as (sign, coefficient of w, exponent of w, constant)
_GF_MONOMIAL = r"(?:(?:\d+\s*\*\s*)?w(?:\^\d+)?|\d+)"
_GF_SUM = re.compile(r"\s*[+-]?\s*{0}(?:\s*[+-]\s*{0})*\s*".format(_GF_MONOMIAL))
_GF_TERM = re.compile(r"([+-]?)\s*(?:(?:(\d+)\s*\*\s*)?w(?:\^(\d+))?|(\d+))")


class ExtensionField:
    """GF(p^k) modulo a fixed irreducible polynomial, shipped for p in {2,3,5}, k <= 4.

    Its elements are int codes, and sums, products and inverses are
    lookups in the exp, log and Zech tables of ``field_tables``.
    """

    def __init__(self, p: int, k: int):
        if k < 2:
            raise RingError("use PrimeField for k=1")
        if (p, k) not in IRREDUCIBLE:
            raise RingError("no shipped modulus for GF(%d^%d)" % (p, k))
        self.p = p
        self.k = k
        self.q = p**k
        self.characteristic = p
        self.modulus = IRREDUCIBLE[(p, k)]
        self._exp, self._log, self._zech = field_tables(p, k)

    def _add(self, a, b):
        s = log_add(self._log[a], self._log[b], self._zech)
        return 0 if s == LOG_ZERO else self._exp[s]

    def _mul(self, a, b):
        return self._exp[self._log[a] + self._log[b]] if a and b else 0

    def coefficients(self, x):
        """The coefficients (c_0, ..., c_(k-1)) of x = c_0 + c_1 w + ... + c_(k-1) w^(k-1)."""
        return tuple(x.code // self.p**i % self.p for i in range(self.k))

    def zero(self):
        return ExtElement(self, 0)

    def one(self):
        return ExtElement(self, 1)

    def gen(self):
        return ExtElement(self, self.p)

    def from_int(self, n):
        return ExtElement(self, n % self.p)

    def spec_string(self):
        return "gf%d" % self.q

    def size(self):
        return self.q

    def elements(self):
        return [ExtElement(self, code) for code in range(self.q)]

    def format(self, x) -> str:
        c = self.coefficients(x)
        terms = [("w^%d" % e) if c[e] == 1 else ("%d*w^%d" % (c[e], e)) for e in range(self.k - 1, 0, -1) if c[e]]
        if c[0] or not terms:
            terms.append(str(c[0]))
        return "+".join(terms) + " in GF(%d)" % self.q

    def parse(self, text: str):
        """A signed sum of terms c, w, w^e, c*w and c*w^e, with at most this field's " in GF(q)" suffix."""
        body = text.strip()
        suffix = " in GF(%d)" % self.q
        if body.endswith(suffix):
            body = body[: -len(suffix)]
        if not _GF_SUM.fullmatch(body):
            raise RingError("not an element of GF(%d): %r" % (self.q, text))
        acc = self.zero()
        for sign, coeff, exp, const in _GF_TERM.findall(body):
            if const:
                term = self.from_int(int(const))
            else:  # w^(q-1) = 1
                term = self.from_int(int(coeff or 1)) * self.gen() ** (int(exp or 1) % (self.q - 1))
            acc = acc - term if sign == "-" else acc + term
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
        if q < 2:
            raise RingError("field size must be at least 2 (got %d)" % q)
        for p in (2, 3, 5):
            k = len(base_digits(q, p)) - 1  # p^k <= q < p^(k+1)
            if q == p**k:
                return PrimeField(p) if k == 1 else ExtensionField(p, k)
        raise RingError("unsupported field size %d" % q)
    if spec.startswith("f"):
        return PrimeField(int(spec[1:]))
    raise RingError("unknown field spec %r" % spec)


def frobenius(a, n: int):
    """n-fold Frobenius power a^(p^n), with n mod k on GF(p^k); rejects characteristic 0."""
    if n < 0:
        raise RingError("negative Frobenius power")
    if isinstance(a, Fraction):
        raise RingError("Frobenius undefined in characteristic 0")
    if isinstance(a, FpElement):
        return a  # fixed by x -> x^p
    if isinstance(a, ExtElement):
        return a ** (a.field.p ** (n % a.field.k))
    raise RingError("not a scalar: %r" % (a,))


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
            return ExactMatrix(self.field, out)
        # scalar
        return ExactMatrix(self.field, [[a * other for a in r] for r in self.rows])

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

    def __repr__(self):
        return "ExactMatrix(%dx%d over %r)" % (self.nrows, self.ncols, self.field)


class Echelon:
    """The span of vectors added one at a time: its rank, kernel and solutions, exactly.

    A vector is a dict {orderable key: scalar}, zero entries ignored, and is
    never mutated.  Scalars are field elements, or ints in range(p) given a
    prime ``p``.  A vector is reduced against the basis in ascending key
    order until its smallest key is no pivot (it joins the basis, scaled to
    1 there) or it vanishes.  With ``coordinates``, basis vectors keep their
    coordinates in the vectors added, numbered from 0, and a dependent v_j
    appends (j, y) to ``kernel``, v_j + sum y_i v_i = 0.  Only independent
    vectors get coordinates, so they are the reduced-echelon answers with
    free variables zero, whatever the pivots.
    """

    def __init__(self, p=None, coordinates=False):
        self.p = p
        self.coordinates = coordinates
        self.size = 0  # vectors added
        self.kernel = []
        self._basis = {}  # pivot -> (the basis vector without its pivot, its coordinates)

    @property
    def rank(self) -> int:
        return len(self._basis)

    def add(self, vector) -> bool:
        """Add ``vector``; True when it is independent of the vectors added before."""
        j, p = self.size, self.p
        self.size += 1
        vec = dict(vector) if all(vector.values()) else {k: c for k, c in vector.items() if c}
        coords = {} if self.coordinates else None
        key = self._reduce(vec, coords)
        if key is None:
            if coords is not None:
                self.kernel.append((j, coords))
            return False
        c = vec.pop(key)
        inv = pow(c, -1, p) if p else scalar_inverse(c)
        if coords is not None:
            coords = self._scaled(coords, inv)
            coords[j] = inv
        self._basis[key] = (self._scaled(vec, inv), coords)
        return True

    def solve(self, target):
        """Coordinates {i: x_i}, free variables zero, with target = sum x_i v_i; None outside the span."""
        coords = {}
        if self._reduce({k: c for k, c in target.items() if c}, coords) is not None:
            return None
        return self._scaled(coords, -1)

    def _scaled(self, d, c):
        if c == 1:
            return d
        p = self.p
        return {k: x * c % p for k, x in d.items()} if p else {k: x * c for k, x in d.items()}

    def _reduce(self, vec, coords):
        """Reduce ``vec`` in place, and ``coords`` alike unless it is None.

        Returns the first key of ``vec`` that is not a pivot, None when
        ``vec`` vanishes.  The basis vector of pivot k has no key below k,
        so each key of ``vec`` is met once, in ascending order.
        """
        p, basis = self.p, self._basis
        heap = list(vec)
        heapq.heapify(heap)
        while heap:
            key = heapq.heappop(heap)
            if key not in vec:
                continue  # cancelled, or pushed twice
            if key not in basis:
                return key
            c = vec.pop(key)
            tail, tail_coords = basis[key]
            for k, x in tail.items():
                if k in vec:
                    y = (vec[k] - c * x) % p if p else vec[k] - c * x
                    if y:
                        vec[k] = y
                    else:
                        del vec[k]
                else:
                    vec[k] = -c * x % p if p else -c * x
                    heapq.heappush(heap, k)
            if coords is not None:
                for i, x in tail_coords.items():
                    y = (coords.get(i, 0) - c * x) % p if p else coords.get(i, 0) - c * x
                    if y:
                        coords[i] = y
                    else:
                        del coords[i]
        return None


def _full_rank_mod_prime(rows, ncols) -> bool:
    """Whether the rational rows have rank min(#rows, ncols) mod CERTIFY_PRIME, and so over Q.

    n/d -> n * d^-1 mod p is the row made integer by its denominators' lcm, mod p,
    times a unit; a minor nonzero mod p is a nonzero integer, so rank_p <= rank_Q.
    """
    p, spare, echelon = CERTIFY_PRIME, len(rows) - min(len(rows), ncols), Echelon(CERTIFY_PRIME)
    try:
        for row in rows:
            echelon.add({j: v.numerator * pow(v.denominator, -1, p) % p if v.denominator != 1 else v.numerator % p
                         for j, v in row.items() if j < ncols})
            if echelon.size - echelon.rank > spare:
                return False
    except ValueError:  # p divides a denominator: no inverse mod p
        return False
    return True


def rank_kernel_sparse(field, rows, ncols, want_kernel=True):
    """Rank of the sparse rows (dicts col -> scalar) and, with ``want_kernel``, a kernel basis.

    Columns >= ``ncols`` are ignored and ``rows`` are not mutated.  The
    basis is the reduced-echelon one: e_j + y for each column j that
    depends on those before it, in ascending j.  Over F_p it runs on ints.
    A rank alone over Q is first taken modulo CERTIFY_PRIME: when that is
    min(#rows, ncols) it is the Q rank, and otherwise Q eliminates.
    """
    if not want_kernel and isinstance(field, Rationals) and _full_rank_mod_prime(rows, ncols):
        return min(len(rows), ncols), []
    p = field.p if isinstance(field, PrimeField) else None
    if want_kernel:  # the columns, {row index: entry}
        vectors = [{} for _ in range(ncols)]
        for i, row in enumerate(rows):
            for j, v in row.items():
                if j < ncols:
                    vectors[j][i] = v.v if p else v
    else:
        vectors = ({j: v.v if p else v for j, v in row.items() if j < ncols} for row in rows)
    echelon = Echelon(p, coordinates=want_kernel)
    for vec in vectors:
        echelon.add(vec)
    kernel = []
    for j, y in echelon.kernel:
        vec = [field.zero()] * ncols
        for i, c in y.items():
            vec[i] = field.from_int(c) if p else c
        vec[j] = field.one()
        kernel.append(tuple(vec))
    return echelon.rank, kernel


def scalar_inverse(x):
    """Inverse of a nonzero field scalar: a Fraction or a finite-field element."""
    if isinstance(x, Fraction):
        return 1 / x
    return x.inverse()


# ---------------------------------------------------------------------------
# twisted polynomials K[t;F], t*a = a^p*t


class TwistedPoly:
    """Polynomial in t over a positive-characteristic field, with t*a = a^p*t.

    A product of more than TERM_CAP coefficients is refused before it is formed.
    """

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
        pairs = itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=self.field.zero())
        return TwistedPoly(self.field, [x + y for x, y in pairs])

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
        size = len(self.coeffs) + len(other.coeffs) - 1
        if size > TERM_CAP:
            raise RingError("a twisted product of %d coefficients exceeds %d" % (size, TERM_CAP))
        out = [self.field.zero()] * size
        nonzero = [(j, b) for j, b in enumerate(other.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in nonzero:
                    out[i + j] = out[i + j] + a * frobenius(b, i)
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
