import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from support import field_scalar, forbid_q_pivots, from_ints, gf_oracle_mul, rank_kernel_reference, solve_reduced

from groupca.rings import (
    CERTIFY_PRIME,
    IRREDUCIBLE,
    QQ,
    Echelon,
    ExactMatrix,
    ExtensionField,
    PrimeField,
    RingError,
    TwistedPoly,
    _full_rank_mod_prime,
    exact_decimal,
    field_from_spec,
    frobenius,
    rank_kernel_sparse,
    scalar_inverse,
)

F2, F3, F5 = PrimeField(2), PrimeField(3), PrimeField(5)
GF4 = ExtensionField(2, 2)


def test_shipped_moduli_are_irreducible():
    # brute force: no monic factor of degree <= k/2 divides the modulus
    for (p, k), coeffs in IRREDUCIBLE.items():
        def polydiv_rem(a, b):
            a = list(a)
            while len(a) >= len(b):
                f = a[-1] * pow(b[-1], p - 2, p) % p
                for i in range(len(b)):
                    a[len(a) - len(b) + i] = (a[len(a) - len(b) + i] - f * b[i]) % p
                while a and a[-1] == 0:
                    a.pop()
                if not a:
                    return []
            return a

        assert coeffs[-1] == 1 and len(coeffs) == k + 1
        for d in range(1, k // 2 + 1):
            for tail in itertools.product(range(p), repeat=d):
                factor = list(tail) + [1]
                assert polydiv_rem(coeffs, factor), (p, k, factor)


SHIPPED_EXTENSIONS = [ExtensionField(p, k) for p, k in sorted(IRREDUCIBLE)]


@pytest.mark.parametrize("field", SHIPPED_EXTENSIONS, ids=lambda field: field.spec_string())
def test_int_coded_arithmetic_matches_the_polynomial_oracle(field):
    """Sums and products on all q^2 pairs, and negations, inverses, p-th powers and texts, against coefficient tuples."""
    p, k, q = field.p, field.k, field.q
    elems = field.elements()
    coeffs = [field.coefficients(x) for x in elems]
    # elements() lists c_0 + c_1 w + ... + c_(k-1) w^(k-1) at index sum c_i p^i
    assert coeffs == [tuple(i // p**j % p for j in range(k)) for i in range(q)]
    index = {c: i for i, c in enumerate(coeffs)}
    one = (1,) + (0,) * (k - 1)
    for x, a in zip(elems, coeffs):
        for y, b in zip(elems, coeffs):
            assert x + y == elems[index[tuple((s + t) % p for s, t in zip(a, b))]], (x, y)
            assert x * y == elems[index[gf_oracle_mul(field, a, b)]] and x - y == x + (-y), (x, y)
        assert -x == elems[index[tuple(-s % p for s in a)]]
        power = one
        for _ in range(p):
            power = gf_oracle_mul(field, power, a)
        assert frobenius(x, 1) == elems[index[power]] and x ** p == frobenius(x, 1)
        assert field.parse(field.format(x)) == x and hash(x) == hash((p, k, a))
        if x:
            assert gf_oracle_mul(field, a, field.coefficients(x.inverse())) == one
            assert x ** (q - 1) == field.one() and x ** -1 == x.inverse()
    assert field.zero() ** 0 == field.one() and field.zero() ** 3 == field.zero()


def test_importing_groupca_builds_no_field_table():
    """The exp, log and Zech tables are built on first use of a field, once per (p, k), never at import."""
    code = (
        "import groupca, groupca.near_ring, groupca.rings as rings\n"
        "print(rings.field_tables.cache_info().currsize)\n"
        "rings.ExtensionField(5, 4), rings.field_from_spec('gf625')\n"
        "print(rings.field_tables.cache_info().currsize)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env).stdout
    assert out.split() == ["0", "1"]


def test_field_axioms_sampled():
    rng = random.Random(0)
    for field in (F3, F5, GF4, ExtensionField(3, 2), ExtensionField(5, 2)):
        elems = field.elements()
        for _ in range(300):
            a, b, c = (elems[rng.randrange(len(elems))] for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            assert a + (-a) == field.zero()
            if a:
                assert a * a.inverse() == field.one()


def test_prime_field_basics():
    assert F5.from_int(3) + F5.from_int(4) == F5.from_int(2)
    assert F5.from_int(3) / F5.from_int(4) == F5.from_int(2)
    with pytest.raises(RingError):
        F5.from_int(0).inverse()
    with pytest.raises(RingError):
        PrimeField(6)
    with pytest.raises(RingError):
        F5.from_int(1) + F3.from_int(1)


def test_frobenius_examples():
    assert frobenius(F3.from_int(2), 1) == F3.from_int(2)
    w = GF4.gen()
    assert frobenius(w, 1) == w + GF4.one()
    assert frobenius(w, 0) == w
    with pytest.raises(RingError):
        frobenius(Fraction(1, 2), 1)


def test_frobenius_is_the_p_power_map_iterated():
    """frobenius(a, n) == a ** (p**n) for every a and n <= 2k + 1, though n is reduced mod k."""
    for field, k in ((F3, 1), (F5, 1), (GF4, 2), (ExtensionField(2, 3), 3), (ExtensionField(3, 2), 2)):
        p = field.characteristic
        for a in field.elements():
            for n in range(2 * k + 2):
                assert frobenius(a, n) == a ** (p**n), (field, a, n)


def test_scalar_parse_format_round_trip():
    cases = [
        (QQ, Fraction(3, 4)),
        (QQ, Fraction(-7)),
        (F5, F5.from_int(2)),
        (GF4, GF4.gen() + GF4.one()),
        (GF4, GF4.zero()),
    ]
    for field, value in cases:
        assert field.parse(field.format(value)) == value
    assert QQ.format(Fraction(3, 4)) == "3/4"
    assert F5.format(F5.from_int(2)) == "2 mod 5"
    assert GF4.format(GF4.gen() + GF4.one()) == "w^1+1 in GF(4)"


def test_extension_field_texts():
    """Every element of the nine shipped fields round-trips; malformed and foreign texts raise."""
    for p, k in IRREDUCIBLE:
        field = ExtensionField(p, k)
        for x in field.elements():
            assert field.parse(field.format(x)) == x
    gf4 = ExtensionField(2, 2)
    w = gf4.gen()
    assert gf4.parse("w") == w and gf4.parse("w+1") == gf4.parse(" w + 1 ") == w + gf4.one()
    assert gf4.parse("-2*w^3 + w^2 - 1") == gf4.parse("w") and gf4.parse("w^0") == gf4.one()
    for text in ("w*w", "ww", "w5", "w+", "", "w in GF(9)", "2w", "--w", "1 2", "w^", "w in GF(4) in GF(4)"):
        with pytest.raises(RingError, match="not an element of GF"):
            gf4.parse(text)


def test_field_from_spec():
    assert field_from_spec("q") is QQ
    assert field_from_spec("f7").p == 7
    assert field_from_spec("gf9") == ExtensionField(3, 2)
    assert field_from_spec("gf5") == PrimeField(5)
    with pytest.raises(RingError):
        field_from_spec("gf6")


def _rank_kernel(m, want_kernel=True):
    """rank_kernel_sparse on the rows of a dense matrix."""
    rows = [{j: v for j, v in enumerate(r) if v} for r in m.rows]
    return rank_kernel_sparse(m.field, rows, m.ncols, want_kernel)


def test_rank_kernel_examples():
    ident = ExactMatrix.identity(QQ, 3)
    rank, kernel = _rank_kernel(ident)
    assert rank == 3 and kernel == []

    m = from_ints(QQ, [[1, 2], [2, 4]])
    rank, kernel = _rank_kernel(m)
    assert rank == 1
    assert kernel == [(Fraction(-2), Fraction(1))]

    m2 = from_ints(F2, [[1, 1], [1, 1]])
    rank, kernel = _rank_kernel(m2)
    assert rank == 1
    assert kernel == [(F2.one(), F2.one())]


def test_kernel_vectors_annihilate():
    rng = random.Random(7)
    for field in (QQ, F5):
        for _ in range(100):
            rows = [
                [field.from_int(rng.randint(-3, 3)) for _ in range(rng.randint(1, 5))]
            ]
            ncols = len(rows[0])
            for _ in range(rng.randint(0, 4)):
                rows.append([field.from_int(rng.randint(-3, 3)) for _ in range(ncols)])
            m = ExactMatrix(field, rows)
            rank, kernel = _rank_kernel(m)
            assert rank + len(kernel) == ncols
            for vec in kernel:
                assert all(not x for x in m.apply(list(vec)))


def _alt_rank_span(field, m):
    """Second elimination order: columns right to left, largest row index pivot."""
    rows = [{j: v for j, v in enumerate(r) if v} for r in m.rows]
    pivots = {}
    remaining = list(range(len(rows)))
    for col in range(m.ncols - 1, -1, -1):
        pr = None
        for i in reversed(remaining):
            if rows[i].get(col):
                pr = i
                break
        if pr is None:
            continue
        remaining.remove(pr)
        pivots[col] = pr
        prow = rows[pr]
        inv = scalar_inverse(prow[col])
        for j, v in list(prow.items()):
            prow[j] = v * inv
        for i in remaining:
            f = rows[i].get(col)
            if not f:
                continue
            for j, v in prow.items():
                nv = rows[i].get(j, field.zero()) - f * v
                if nv:
                    rows[i][j] = nv
                elif j in rows[i]:
                    del rows[i][j]
    return len(pivots)


def test_rank_against_second_elimination_order():
    rng = random.Random(11)
    for field in (QQ, F5):
        for _ in range(200):
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            m = ExactMatrix(
                field, [[field.from_int(rng.randint(-2, 2)) for _ in range(nc)] for _ in range(nr)]
            )
            assert _rank_kernel(m, want_kernel=False)[0] == _alt_rank_span(field, m)


def _dense(field, coords, size, p):
    """A sparse Echelon answer {i: scalar} as a tuple of field elements."""
    vec = [field.zero()] * size
    for i, c in coords.items():
        vec[i] = field.from_int(c) if p else c
    return tuple(vec)


@pytest.mark.parametrize(
    "field, ints",
    [(QQ, False), (GF4, False)] + [(PrimeField(p), ints) for p in (2, 3, 5, 7) for ints in (False, True)],
    ids=lambda x: repr(x) if not isinstance(x, bool) else ("ints" if x else "elements"),
)
def test_echelon_matches_reference(field, ints):
    """Echelon against the plain scan of the matrix whose columns are the added vectors.

    The vectors have non-contiguous int keys, explicit zeros, and empty,
    repeated and dependent members.  The rank, the kernel (e_j + y for each
    dependent vector j), and solve on consistent and inconsistent targets
    must be the reference's, over field elements and, for F_p, over ints in
    range(p); no input dict is mutated.
    """
    p = field.p if ints else None
    scalar = (lambda v: v.v) if ints else (lambda v: v)
    rng = random.Random(31)
    seen = {"explicit_zero": 0, "empty": 0, "repeated": 0, "kernel": 0, "consistent": 0, "inconsistent": 0}
    for _ in range(150):
        keys = rng.sample(range(-20, 80), rng.randint(0, 8))
        vectors = []
        for _ in range(rng.randint(0, 8)):
            shape = rng.random()
            if vectors and shape < 0.15:
                vec = dict(rng.choice(vectors))
            elif vectors and shape < 0.3:
                vec = {}
                for other in vectors:
                    c = field_scalar(field, rng)
                    for k, v in other.items():
                        vec[k] = vec.get(k, field.zero()) + c * v
            elif shape < 0.4:
                vec = {}
            else:
                vec = {k: field_scalar(field, rng) for k in keys if rng.random() < 0.6}
            vectors.append(vec)
        m = len(vectors)
        if rng.random() < 0.5:
            target = {k: field_scalar(field, rng) for k in keys}
        else:
            target = {}
            for vec in vectors:
                c = field_scalar(field, rng)
                for k, v in vec.items():
                    target[k] = target.get(k, field.zero()) + c * v
        rows = [{j: vec[k] for j, vec in enumerate(vectors) if vec.get(k)} for k in sorted(keys)]
        rhs = [target.get(k, field.zero()) for k in sorted(keys)]
        rank, kernel = rank_kernel_reference(field, [dict(r) for r in rows], m)
        x = solve_reduced(field, rows, rhs, m)
        seen["explicit_zero"] += any(not v for vec in vectors for v in vec.values())
        seen["empty"] += any(not vec for vec in vectors)
        seen["repeated"] += len({tuple(sorted(vec.items())) for vec in vectors}) < m
        seen["kernel"] += bool(kernel)
        seen["consistent" if x is not None else "inconsistent"] += 1

        args = [{k: scalar(v) for k, v in vec.items()} for vec in vectors]
        target_arg = {k: scalar(v) for k, v in target.items()}
        snapshot = [dict(a) for a in args], dict(target_arg)
        echelon, plain = Echelon(p, coordinates=True), Echelon(p)
        independent = [echelon.add(a) for a in args]
        assert [plain.add(a) for a in args] == independent
        assert echelon.rank == plain.rank == sum(independent) == rank
        assert echelon.size == m
        got_kernel = []
        for j, coords in echelon.kernel:
            assert not independent[j] and all(i < j and independent[i] for i in coords)
            vec = list(_dense(field, coords, m, p))
            vec[j] = field.one()
            got_kernel.append(tuple(vec))
        assert got_kernel == kernel
        solution = echelon.solve(target_arg)
        assert (solution is None) == (x is None)
        if solution is not None:
            assert all(independent[i] for i in solution)
            assert _dense(field, solution, m, p) == tuple(x)
        rows_echelon = Echelon(p)
        for row in rows:
            rows_echelon.add({j: scalar(v) for j, v in row.items()})
        assert rows_echelon.rank == rank
        assert (args, target_arg) == snapshot
    assert min(seen.values()) > 30, seen


def _random_sparse_rows(field, rng, nrows, width):
    """Sparse rows with explicit zero entries, empty rows, repeated rows and
    keys in random order."""
    rows = []
    for _ in range(nrows):
        shape = rng.random()
        if rows and shape < 0.15:
            rows.append(dict(rng.choice(rows)))
        elif shape < 0.25:
            rows.append({})
        else:
            density = rng.random()
            cols = [j for j in range(width) if rng.random() < density]
            rng.shuffle(cols)
            rows.append({j: field_scalar(field, rng) for j in cols})
    return rows


def test_rank_kernel_matches_reference_scan():
    """rank_kernel_sparse gives the plain scan's rank and kernel, ignores
    entries at columns >= ncols, and leaves its rows unchanged."""
    rng = random.Random(29)
    seen = {"explicit_zero": 0, "empty": 0, "repeated": 0, "rhs": 0, "kernel": 0}
    for field in (QQ, F2, F3, F5, GF4):
        for _ in range(120):
            nr, nc, nb = rng.randint(0, 9), rng.randint(0, 9), rng.randint(0, 2)
            rows = _random_sparse_rows(field, rng, nr, nc + nb)
            seen["explicit_zero"] += any(not v for row in rows for v in row.values())
            seen["empty"] += any(not row for row in rows)
            seen["repeated"] += len({tuple(sorted(row.items())) for row in rows}) < len(rows)
            seen["rhs"] += any(j >= nc for row in rows for j in row)
            for want_kernel in (True, False):
                before = [dict(r) for r in rows]
                got = rank_kernel_sparse(field, rows, nc, want_kernel)
                assert got == rank_kernel_reference(field, [dict(r) for r in rows], nc, want_kernel)
                assert rows == before
                seen["kernel"] += bool(got[1])
    assert min(seen.values()) > 50, seen


def test_certified_q_rank_matches_reference():
    """A rank over Q certified modulo the prime is the plain scan's rank.

    Seeded integer and fractional row sets, square, wide and tall, full rank
    and deficient, with explicit zeros, empty rows and entries at columns >=
    ncols; the certificate settles exactly the full-rank ones, and the rows
    stay unchanged.
    """
    rng = random.Random(43)
    seen = {"certified": 0, "fallback": 0, "fractional": 0, "square": 0, "wide": 0, "tall": 0}
    for _ in range(400):
        shape, n, k = rng.choice(("square", "wide", "tall")), rng.randint(0, 7), rng.randint(1, 3)
        nr, nc = {"square": (n, n), "wide": (n, n + k), "tall": (n + k, n)}[shape]
        rows = _random_sparse_rows(QQ, rng, nr, nc + rng.randint(0, 2))
        if rng.random() < 0.5:  # integer entries, some large
            rows = [{j: Fraction(int(v * 6) * rng.choice((1, 1, 10**12 + 39))) for j, v in row.items()} for row in rows]
        before = [dict(r) for r in rows]
        rank = rank_kernel_reference(QQ, [dict(r) for r in rows], nc, want_kernel=False)[0]
        certified = _full_rank_mod_prime(rows, nc)
        assert certified == (rank == min(nr, nc))
        assert rank_kernel_sparse(QQ, rows, nc, want_kernel=False) == (rank, [])
        assert rows == before
        seen["certified" if certified else "fallback"] += 1
        seen["fractional"] += any(v.denominator != 1 for row in rows for v in row.values())
        seen[shape] += 1
    assert min(seen.values()) > 50, seen


def test_rank_deficient_mod_the_prime_falls_back_to_q():
    p = CERTIFY_PRIME
    rows = [{0: Fraction(1), 1: Fraction(1)}, {0: Fraction(1), 1: Fraction(1 + p)}]  # determinant p
    assert not _full_rank_mod_prime(rows, 2)
    assert rank_kernel_sparse(QQ, rows, 2, want_kernel=False) == (2, [])
    multiples = [{0: Fraction(p), 1: Fraction(2 * p)}, {0: Fraction(3 * p)}]  # zero mod p
    assert not _full_rank_mod_prime(multiples, 2)
    assert rank_kernel_sparse(QQ, multiples, 2, want_kernel=False) == (2, [])


def test_denominator_of_the_prime_goes_to_q(monkeypatch):
    p = CERTIFY_PRIME
    rows = [{0: Fraction(1, p), 1: Fraction(1)}, {1: Fraction(1)}]
    assert not _full_rank_mod_prime(rows, 2)
    assert rank_kernel_sparse(QQ, rows, 2, want_kernel=False) == (2, [])
    forbid_q_pivots(monkeypatch)
    with pytest.raises(AssertionError, match="ranked over Q"):
        rank_kernel_sparse(QQ, rows, 2, want_kernel=False)
    assert rank_kernel_sparse(QQ, [{0: Fraction(1, 2 * p + 1)}, {1: Fraction(2, 7)}], 2, want_kernel=False) == (2, [])


def test_certificate_ignores_columns_past_ncols_and_keeps_rows():
    # rank 1 on columns 0, 1; the entries at columns 2 and 3 would make it 2
    rows = [{0: Fraction(1), 1: Fraction(2), 2: Fraction(1)}, {0: Fraction(2), 1: Fraction(4), 3: Fraction(1)}]
    before = [dict(r) for r in rows]
    assert not _full_rank_mod_prime(rows, 2)
    assert rank_kernel_sparse(QQ, rows, 2, want_kernel=False) == (1, [])
    assert _full_rank_mod_prime(rows, 4)
    assert rank_kernel_sparse(QQ, rows, 4, want_kernel=False) == (2, [])
    assert rows == before


def test_full_rank_integer_rows_are_ranked_without_fractions(monkeypatch):
    """The certificate runs on ints: with Q pivots made to raise, full-rank
    rows still get their rank, while kernels and deficient ranks reach Q."""
    rng = random.Random(5)
    full = []
    for _ in range(12):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        rows = [{j: Fraction(rng.randint(-9, 9)) for j in range(nc)} for _ in range(nr)]
        if rank_kernel_sparse(QQ, rows, nc, want_kernel=False)[0] == min(nr, nc):
            full.append((rows, nc))
    assert len(full) > 8
    forbid_q_pivots(monkeypatch)
    for rows, nc in full:
        assert rank_kernel_sparse(QQ, rows, nc, want_kernel=False)[0] == min(len(rows), nc)
    with pytest.raises(AssertionError, match="ranked over Q"):
        rank_kernel_sparse(QQ, full[0][0], full[0][1], want_kernel=True)
    with pytest.raises(AssertionError, match="ranked over Q"):
        rank_kernel_sparse(QQ, [{0: Fraction(1), 1: Fraction(1)}] * 2, 2, want_kernel=False)


def test_matrix_arithmetic():
    a = from_ints(QQ, [[1, 2], [3, 4]])
    b = from_ints(QQ, [[0, 1], [1, 0]])
    assert (a * b).rows[0] == [Fraction(2), Fraction(1)]
    assert (a + b - b) == a
    assert a.apply([Fraction(1), Fraction(1)]) == [Fraction(3), Fraction(7)]
    with pytest.raises(RingError):
        a * ExactMatrix.identity(F2, 2)


def test_twisted_examples():
    w = GF4.gen()
    t = TwistedPoly.t(GF4)
    const_w = TwistedPoly.constant(GF4, w)
    prod = t * const_w
    assert prod.coeffs == (GF4.zero(), w * w)  # t*w = w^2 t, and w^2 = w+1
    assert w * w == w + GF4.one()
    assert (t * t).coeffs == (GF4.zero(), GF4.zero(), GF4.one())


def test_twisted_product_uses_the_frobenius_power():
    """t^i * b = b^(p^i) * t^i, with b^(p^i) = b when k divides i."""
    w = GF4.gen()
    for i in range(6):
        prod = TwistedPoly.t(GF4, i) * TwistedPoly.constant(GF4, w)
        assert prod.coeffs[i] == w ** (2**i) == (w if i % 2 == 0 else w + GF4.one())


def test_twisted_prime_field_commutes():
    rng = random.Random(3)
    for _ in range(100):
        a = TwistedPoly(F5, [F5.from_int(rng.randint(0, 4)) for _ in range(rng.randint(0, 3))])
        b = TwistedPoly(F5, [F5.from_int(rng.randint(0, 4)) for _ in range(rng.randint(0, 3))])
        assert a * b == b * a


def test_twisted_noncommutative_over_gf4():
    t = TwistedPoly.t(GF4)
    cw = TwistedPoly.constant(GF4, GF4.gen())
    assert t * cw != cw * t


def test_twisted_ring_axioms_random():
    rng = random.Random(9)

    def rand_poly():
        return TwistedPoly(
            GF4, [GF4.elements()[rng.randrange(4)] for _ in range(rng.randint(0, 3))]
        )

    for _ in range(200):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c


def test_twisted_degree_additive():
    t = TwistedPoly.t(GF4)
    a = t * t + TwistedPoly.constant(GF4, GF4.one())
    b = t + TwistedPoly.constant(GF4, GF4.gen())
    assert (a * b).degree() == a.degree() + b.degree()


def test_twisted_rejects_characteristic_zero():
    with pytest.raises(RingError):
        TwistedPoly(QQ, [Fraction(1)])


def test_exact_decimal():
    assert exact_decimal(Fraction(1, 3)) == "0.333333"
    assert exact_decimal(Fraction(-1, 2)) == "-0.500000"
    assert exact_decimal(Fraction(2)) == "2.000000"
    assert exact_decimal(Fraction(1, 6), places=3) == "0.167"


def test_sparse_rank_matches_dense_on_wide_banded():
    # the window-matrix shape: banded with +/-1 entries
    n = 40
    rows = []
    for i in range(n):
        rows.append({i: Fraction(-1), i + 1: Fraction(1)})
    rank, kernel = rank_kernel_sparse(QQ, rows, n + 1, want_kernel=True)
    assert rank == n
    assert len(kernel) == 1
    assert all(x == kernel[0][0] for x in kernel[0])  # constants span the kernel
