import collections
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
import sympy

from support import (
    cpu_budget,
    cyclic_group,
    evaluate,
    field_scalar,
    rand_exponent_vector,
    rand_group_element,
    rand_group_ring,
    rand_near_ring,
)

import groupca.near_ring as nr_mod
from groupca.expressions import format_element
from groupca.group_ring import GroupRingElement, TwistedGroupRingElement
from groupca.groups import FiniteSubset, FreeGroup, LexOrder, MagnusOrder, ZdGroup, ball
from groupca.near_ring import (
    EXPONENT_DIGITS,
    ExponentVector,
    Finding,
    MonomialOrder,
    NearRingElement,
    NearRingError,
    TermCapExceeded,
    classify_unit_pair,
    embed_group_ring,
    embed_twisted,
    exhaustive_search,
    leading_term,
    search_monomials,
)
from groupca.rings import QQ, ExtensionField, PrimeField, TwistedPoly, field_tables, rank_kernel_sparse

Z = ZdGroup(1)
Z2 = ZdGroup(2)
FREE2 = FreeGroup(2)
F2, F3, F5, F7 = PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7)
GF4 = ExtensionField(2, 2)


def zel(n):
    return Z.element((n,))


def X(n, e=1, field=QQ):
    return NearRingElement.variable(zel(n), field, e)


def const(c, field=QQ, group=Z):
    return NearRingElement.constant(group, field, field.from_int(c) if isinstance(c, int) else c)


def ev(items):
    return ExponentVector(Z, {zel(k): v for k, v in items.items()})


# -- exponent convolution ------------------------------------------------


def test_exp_convolve_dirac():
    u, v = ev({2: 1}), ev({3: 1})
    assert u.convolve(v) == ev({5: 1})


def test_exp_convolve_scaled_dirac():
    assert ev({0: 2}).convolve(ev({1: 1})) == ev({1: 2})


def test_exp_convolve_example_direct_sum_oracle():
    u = ev({0: 1, 1: 1})
    out = u.convolve(u)
    # oracle: (u*v)(g) = sum_h u(h) v(h^-1 g), summed by hand over g in -1..3
    expected = {}
    for g in range(-1, 4):
        total = sum(u.exponent(zel(h)) * u.exponent(zel(g - h)) for h in range(-1, 4))
        if total:
            expected[g] = total
    assert out == ev(expected)
    assert out == ev({0: 1, 1: 2, 2: 1})


def test_exp_convolve_support_and_degree_laws():
    rng = random.Random(0)
    for group in (Z2, FREE2):
        for _ in range(300):
            u = rand_exponent_vector(group, rng)
            v = rand_exponent_vector(group, rng)
            w = u.convolve(v)
            assert w.degree() == u.degree() * v.degree()
            assert set(w.support()) == {g * h for g in u.support() for h in v.support()}


# -- shift ---------------------------------------------------------------


def test_shift_examples():
    a = NearRingElement(Z, QQ, {ev({0: 2, 2: 1}): Fraction(1)})
    assert a.shift(zel(1)) == NearRingElement(Z, QQ, {ev({1: 2, 3: 1}): Fraction(1)})
    c = const(7)
    assert c.shift(zel(5)) == c


def test_shift_is_group_action():
    rng = random.Random(1)
    for _ in range(100):
        a = rand_near_ring(Z2, F5, rng)
        g = Z2.element((rng.randint(-2, 2), rng.randint(-2, 2)))
        h = Z2.element((rng.randint(-2, 2), rng.randint(-2, 2)))
        assert a.shift(h).shift(g) == a.shift(g * h)
        assert a.shift(g).shift(g.inverse()) == a


# -- star ----------------------------------------------------------------


def to_sympy(a: NearRingElement, g=None):
    """a as a sympy expression over Z or Q, one symbol per variable, named by the group element's text.

    With g given, each X_h is written as X_{g*h}: the shift of a by g, formed here and not by ``NearRingElement.shift``.
    """
    expr = 0
    for u, c in a.terms.items():
        term = sympy.Rational(c) if isinstance(c, Fraction) else sympy.Integer(c.v)
        for h, e in u.items:
            term *= sympy.Symbol("X[%s]" % (h if g is None else g * h)) ** e
        expr += term
    return sympy.expand(expr)


def sympy_star(a: NearRingElement, b: NearRingElement):
    """Independent oracle: star is substitution X_g := shift(g, b)."""
    expr = 0
    for u, c in a.terms.items():
        term = sympy.Rational(c) if isinstance(c, Fraction) else sympy.Integer(c.v)
        for g, e in u.items:
            term *= to_sympy(b, g) ** e
        expr += term
    return sympy.expand(expr)


def test_star_worked_example():
    alpha = NearRingElement(Z, QQ, {ev({1: 3, 0: 1}): Fraction(1)}) + const(1)
    beta = X(2, 2) - X(3, 2)
    prod = alpha.star(beta)
    expected = (X(3, 2) - X(4, 2)) ** 3 * (X(2, 2) - X(3, 2)) + const(1)
    assert prod == expected
    assert to_sympy(prod) == sympy_star(alpha, beta)
    reverse = beta.star(alpha)
    expected_rev = (X(3, 1) ** 3 * X(2) + const(1)) ** 2 - (X(4) ** 3 * X(3) + const(1)) ** 2
    assert reverse == expected_rev


def test_star_identity_element():
    rng = random.Random(2)
    ident = NearRingElement.identity(Z, QQ)
    for _ in range(100):
        a = rand_near_ring(Z, QQ, rng)
        assert ident.star(a) == a
        assert a.star(ident) == a


def test_star_one_absorbs():
    rng = random.Random(3)
    one = NearRingElement.one(Z2, F5)
    for _ in range(100):
        a = rand_near_ring(Z2, F5, rng)
        assert one.star(a) == one
        assert a.star(one) == NearRingElement.constant(Z2, F5, sum(a.terms.values(), F5.zero()))


def test_constant_minus_and_star_one_is_zero():
    a = X(0) - const(1)
    assert not a.star(const(1))


def test_star_against_sympy_oracle():
    """star agrees with sympy's substitution over Z, Z^2 and the free group of rank 2, over Q and F5.

    Over F5 the oracle expands over Z and reduces mod 5 through sympy.Poly.
    """
    rng = random.Random(4)
    for group, field, draws in ((Z, QQ, 60), (Z2, QQ, 25), (FREE2, QQ, 25), (Z2, F5, 25), (FREE2, F5, 25), (Z, F5, 25)):
        p = field.characteristic
        for _ in range(draws):
            a = rand_near_ring(group, field, rng, radius=1, max_degree=3)
            b = rand_near_ring(group, field, rng, radius=1, max_degree=2)
            got, want = to_sympy(a.star(b)), sympy_star(a, b)
            if not p:
                assert got == want
                continue
            gens = sorted(got.free_symbols | want.free_symbols, key=str) or [sympy.Symbol("t")]
            assert sympy.Poly(got, *gens, modulus=p) == sympy.Poly(want, *gens, modulus=p)


def test_star_left_distributive_right_fails():
    rng = random.Random(5)
    for _ in range(200):
        a = rand_near_ring(Z2, QQ, rng)
        b = rand_near_ring(Z2, QQ, rng)
        c = rand_near_ring(Z2, QQ, rng)
        assert (a + b).star(c) == a.star(c) + b.star(c)
    # recorded witness for the failure of right distributivity
    sq = X(0, 2)
    lhs = sq.star(X(0) + X(0))
    rhs = sq.star(X(0)) + sq.star(X(0))
    assert lhs == sq.scale(Fraction(4))
    assert rhs == sq.scale(Fraction(2))
    assert lhs != rhs


def test_star_associative_random():
    rng = random.Random(6)
    for group in (Z, Z2):
        for field in (QQ, F5):
            for _ in range(60):
                a = rand_near_ring(group, field, rng, max_terms=2)
                b = rand_near_ring(group, field, rng, max_terms=2)
                c = rand_near_ring(group, field, rng, max_terms=2)
                assert a.star(b).star(c) == a.star(b.star(c))


def test_term_cap_guard(monkeypatch):
    monkeypatch.setattr(nr_mod, "TERM_CAP", 5)
    big = sum((X(i) for i in range(1, 4)), X(0))
    with pytest.raises(TermCapExceeded):
        (big ** 3).star(big)


def test_power_size_bound_rejects_before_expanding(capsys):
    from groupca.cli import run_job

    argv = ["star", "--group", "zd:1", "--field", "q", "--alpha", "X[(1)]^99999", "--beta", "X[(0)] + X[(1)] + X[(2)]"]
    with cpu_budget(2.0):
        assert run_job(argv) == 2
    assert capsys.readouterr().err.startswith("error: a 3-term polynomial to the power 99999")
    # C(29, 9) > TERM_CAP, but every exponent of (1 + X + ... + X^9)^20 fits in [0, 180]
    p = sum((NearRingElement.variable(zel(0), QQ, e) for e in range(1, 10)), NearRingElement.one(Z, QQ))
    with cpu_budget(2.0):
        assert len((p ** 20).terms) == 181


def test_power_size_bound_matches_its_formula(monkeypatch):
    """The capped loops raise exactly when min(C, prod_g (n*m_g + 1)) exceeds the cap.

    C is C(n+k-1, k-1) over Q and prod_i C(d_i+k-1, k-1) over the base-p
    digits d_i of n in characteristic p.
    """
    for field, draws in ((QQ, 150), (F2, 60), (F3, 60), (F5, 60)):
        rng = random.Random(6)
        for cap in (3, 20, 150):
            monkeypatch.setattr(nr_mod, "TERM_CAP", cap)
            for _ in range(draws):
                p = NearRingElement(Z, field, {rand_exponent_vector(Z, rng, radius=1): field.one() for _ in range(rng.randint(2, 6))})
                n = rng.randint(2, 12) if field is QQ else rng.randint(2, 40)
                k = len(p.terms)
                top = {}
                for u in p.terms:
                    for g, e in u.items:
                        top[g] = max(e, top.get(g, 0))
                digits = [n] if field is QQ else sympy.ntheory.digits(n, field.characteristic)[1:]
                multinomial = math.prod(math.comb(d + k - 1, k - 1) for d in digits)
                bound = min(multinomial, math.prod(n * m + 1 for m in top.values()))
                try:
                    size = len((p ** n).terms)
                except TermCapExceeded:
                    assert bound > cap
                else:
                    assert bound <= cap and size <= bound


def _chain_pairs(n, p):
    """(i, j) for each product a^i * a^j that a^n forms: square-and-multiply over the bits of n
    and, in characteristic p, a^(q*p + d) = F(a^q) * a^d over the base-p digits, most significant first."""

    def binary(n):
        pairs, acc, x = [], 0, 1
        while n:
            if n & 1:
                if acc:
                    pairs.append((acc, x))
                acc += x
            n >>= 1
            if n:
                pairs.append((x, x))
                x *= 2
        return pairs

    if not p:
        return binary(n)
    top, *rest = sympy.ntheory.digits(n, p)[1:]
    pairs, acc = binary(top), top
    for d in rest:
        acc *= p
        if d:
            pairs += binary(d) + [(acc, d)]
            acc += d
    return pairs


def test_power_work_bound_matches_its_formula(monkeypatch):
    """a^n raises for its work exactly when sum size(i) * size(j) over the chain's products a^i * a^j exceeds WORK_CAP.

    size(i) = min(C, prod_g (i*m_g + 1)) is the size bound of a^i, C as in the size-bound test above.
    """
    raised = kept = 0
    for field in (QQ, F2, F3, F5):
        rng = random.Random(12)
        p = field.characteristic
        for cap in (50, 400, 3000):
            monkeypatch.setattr(nr_mod, "WORK_CAP", cap)
            for _ in range(40):
                a = NearRingElement(Z, field, {rand_exponent_vector(Z, rng, radius=1): field.one() for _ in range(rng.randint(2, 5))})
                n = rng.randint(2, 12) if field is QQ else rng.randint(2, 60)
                k, top = len(a.terms), _top_exponents(a)

                def size(i):
                    digits = [i] if not p else sympy.ntheory.digits(i, p)[1:]
                    multinomial = math.prod(math.comb(d + k - 1, k - 1) for d in digits)
                    return min(multinomial, math.prod(i * m + 1 for m in top.values()))

                work = sum(size(i) * size(j) for i, j in _chain_pairs(n, p))
                try:
                    a**n
                except TermCapExceeded as exc:
                    assert work > cap and "term products" in str(exc)
                    raised += 1
                else:
                    assert work <= cap
                    kept += 1
    assert raised and kept


def test_power_work_bound_stops_long_chains_early(capsys):
    """Powers whose result fits TERM_CAP but whose chain is long exit 2 well under 2 s."""
    from groupca.cli import run_job

    stars = ["star", "--group", "zd:1", "--field", "q", "--alpha", "X[(0)]^700", "--beta", "X[(0)]+X[(1)]+X[(2)]"]
    embeds = [
        ("([1]+[a])^20000", 1, 2),
        ("([a]+[a^-1])^20000", 2, 2),
        ("([1]+[a]+[a^2])^20000", 1, 3),  # powers of the root word a, with exponents 0, 1, 2
        ("([b*a*b^-1]+[b*a^-2*b^-1]+[b*a^3*b^-1])^20000", 2, 3),  # powers of b*a*b^-1
    ]
    with cpu_budget(2.0):
        assert run_job(stars) == 2
    assert capsys.readouterr().err.startswith("error: a 3-term polynomial to the power 700 may need more than")
    for element, rank, k in embeds:
        argv = ["embed", "--group", "free:%d" % rank, "--field", "q", "--kind", "iota", "--element", element]
        with cpu_budget(2.0):
            assert run_job(argv) == 2
        assert capsys.readouterr().err.startswith("error: a %d-term element to the power 20000 may exceed" % k)
    argv = ["embed", "--group", "free:1", "--field", "q", "--kind", "iota", "--element", "([1]+[a]+[a^2])^100"]
    with cpu_budget(2.0):
        assert run_job(argv) == 0
    assert json.loads(capsys.readouterr().out)["element"].count(" + ") == 200


def test_char_p_powers_go_by_base_p_digits(capsys):
    """X[(0)]^(p^k) star a sum of variables is the sum of their p^k-th powers, in well under 2 s."""
    from groupca.cli import run_job

    cases = [("f2", 2**20, 2), ("f3", 3**8, 3), ("f3", 3**6, 3), ("f5", 5**4, 3)]
    for field, n, k in cases:
        beta = " + ".join("X[(%d)]" % i for i in range(k))
        argv = ["star", "--group", "zd:1", "--field", field, "--alpha", "X[(0)]^%d" % n, "--beta", beta]
        with cpu_budget(2.0):
            assert run_job(argv) == 0
        product = json.loads(capsys.readouterr().out)["product"]
        assert product == " + ".join("X[(%d)]^%d" % (i, n) for i in reversed(range(k)))


def test_char_p_powers_match_repeated_products():
    rng = random.Random(11)
    for field in (F2, F3, F5, GF4, ExtensionField(3, 2)):
        for _ in range(25):
            terms = {rand_exponent_vector(Z, rng, radius=1, max_degree=2): field_scalar(field, rng) for _ in range(3)}
            a = NearRingElement(Z, field, terms)
            n = rng.randint(0, 40)
            expected = NearRingElement.one(Z, field)
            for _ in range(n):
                expected = expected * a
            assert a ** n == expected


def test_group_ring_power_in_the_parser_is_fast(capsys):
    from groupca.cli import run_job

    argv = ["embed", "--group", "zd:1", "--field", "q", "--kind", "iota", "--element", "[(1)]^2000000"]
    with cpu_budget(2.0):
        assert run_job(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["element"], report["image"]) == ("[(2000000)]", "X[(2000000)]")


def test_long_sums_parse_in_near_linear_time():
    """An n-term sum is added pairwise, not by copying the growing sum n times, and equals the term-by-term sum."""
    from groupca.expressions import parse_element

    n = 4800
    with cpu_budget(2.0):
        a = parse_element(" + ".join("X[(0)]^%d" % i for i in range(1, n + 1)), Z, QQ)
    assert a.terms == {ExponentVector(Z, {zel(0): i}): 1 for i in range(1, n + 1)}
    with cpu_budget(2.0):
        b = parse_element(" + ".join("[(%d)]" % i for i in range(n)), Z, QQ)
    assert b == GroupRingElement(Z, QQ, {zel(i): Fraction(1) for i in range(n)})
    rng = random.Random(4)
    for kind, atom in (("near_ring", "X[(%d)]"), ("group_ring", "[(%d)]")):
        for count in range(1, 12):
            terms = ["%s%d*%s" % (rng.choice("+-"), rng.randint(1, 3), atom % rng.randint(-2, 2)) for _ in range(count)]
            acc = parse_element(terms[0], Z, QQ, kind)
            for t in terms[1:]:
                acc = acc + parse_element(t[1:], Z, QQ, kind) if t[0] == "+" else acc - parse_element(t[1:], Z, QQ, kind)
            assert parse_element(" ".join(terms), Z, QQ, kind) == acc, terms


def _top_exponents(p):
    top = {}
    for u in p.terms:
        for g, e in u.items:
            top[g] = max(e, top.get(g, 0))
    return top


def test_product_size_bound_matches_its_formula(monkeypatch):
    """a * b raises exactly when min(|a|*|b|, prod_g (m_g(a) + m_g(b) + 1)) exceeds TERM_CAP, or |a|*|b| exceeds WORK_CAP."""
    rng = random.Random(8)
    for cap in (3, 20, 150):
        monkeypatch.setattr(nr_mod, "TERM_CAP", cap)
        for _ in range(150):
            a, b = (rand_near_ring(Z, QQ, rng, radius=1, max_degree=4, max_terms=16) for _ in range(2))
            ta, tb = _top_exponents(a), _top_exponents(b)
            box = math.prod(ta.get(g, 0) + tb.get(g, 0) + 1 for g in ta.keys() | tb.keys())
            bound = min(len(a.terms) * len(b.terms), box)
            try:
                size = len((a * b).terms)
            except TermCapExceeded:
                assert bound > cap
            else:
                assert bound <= cap and size <= bound
    # and for its work exactly when |a|*|b| exceeds WORK_CAP, whatever the box
    monkeypatch.setattr(nr_mod, "TERM_CAP", 10**6)
    raised = 0
    for cap in (3, 20, 150):
        monkeypatch.setattr(nr_mod, "WORK_CAP", cap)
        for _ in range(150):
            a, b = (rand_near_ring(Z, QQ, rng, radius=1, max_degree=4, max_terms=16) for _ in range(2))
            try:
                a * b
            except TermCapExceeded as exc:
                assert len(a.terms) * len(b.terms) > cap and "term products" in str(exc)
                raised += 1
            else:
                assert len(a.terms) * len(b.terms) <= cap
    assert raised


def test_star_size_bound_matches_its_formula(monkeypatch):
    """star(X^u, b) for u with two or more variables raises exactly when
    min(prod_g C(u(g)+k-1, k-1), prod_x (sum_g u(g) * m_{g^-1 x}(b) + 1)) exceeds the cap."""
    rng = random.Random(9)
    for cap in (20, 150, 1000):
        monkeypatch.setattr(nr_mod, "TERM_CAP", cap)
        for _ in range(60):
            exps = {zel(i): rng.randint(1, 5) for i in rng.sample(range(-2, 3), rng.randint(2, 3))}
            alpha = NearRingElement(Z, QQ, {ExponentVector(Z, exps): QQ.one()})
            beta = rand_near_ring(Z, QQ, rng, radius=1, max_degree=2, max_terms=4, nonzero=True)
            k = len(beta.terms)
            sides = {}
            for g, e in exps.items():
                for h, m in _top_exponents(beta).items():
                    sides[g * h] = sides.get(g * h, 0) + e * m
            count = math.prod(math.comb(e + k - 1, k - 1) for e in exps.values())
            bound = min(count, math.prod(side + 1 for side in sides.values()))
            try:
                size = len(alpha.star(beta).terms)
            except TermCapExceeded as exc:  # before any factor is expanded
                assert bound > cap and str(exc).startswith("substituting")
            else:
                assert bound <= cap and size <= bound


def test_product_size_bounds_stop_large_products_early(capsys):
    """Products whose factors each pass their own size bound, or that need too many term products, exit 2 well under 2 s."""
    from groupca.cli import run_job

    stars = ["star", "--group", "zd:1", "--field", "q", "--alpha", "X[(0)]^700*X[(1)]^700", "--beta", "X[(0)]+X[(1)]+X[(2)]"]
    embed = ["embed", "--group", "zd:1", "--field", "q", "--kind", "iota", "--element", "([(0)]+[(1)])^20000"]
    for argv in (stars, embed):
        with cpu_budget(2.0):
            assert run_job(argv) == 2
    # (P)*(P) has at most 2401 terms, but forms 1200 * 1200 term products
    p = " + ".join("X[(0)]^%d" % e for e in range(1, 1201))
    square = ["star", "--group", "zd:1", "--field", "q", "--alpha", "(%s)*(%s)" % (p, p), "--beta", "X[(0)]"]
    capsys.readouterr()
    with cpu_budget(2.0):
        assert run_job(square) == 2
    assert capsys.readouterr().err == "error: a product of 1200 and 1200 terms needs more than 1000000 term products\n"


def test_char_p_group_ring_powers_are_not_refused(capsys):
    """In characteristic p, (a+b)^(p^k) = a^(p^k) + b^(p^k) keeps the power chain small."""
    from groupca.cli import run_job

    cases = [("f2", 2**20, 2), ("f2", 2**20, 3), ("f3", 3**8, 2), ("f3", 3**8, 3)]
    for field, n, k in cases:
        element = "(%s)^%d" % ("+".join("[(%d)]" % i for i in range(k)), n)
        argv = ["embed", "--group", "zd:1", "--field", field, "--kind", "iota", "--element", element]
        with cpu_budget(2.0):
            assert run_job(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["element"] == " + ".join(["1"] + ["[(%d)]" % (i * n) for i in range(1, k)])


@pytest.mark.parametrize("group", [Z, Z2, FREE2, cyclic_group(3)], ids=["zd:1", "zd:2", "free:2", "cyclic:3"])
def test_trusted_constructors_match_the_validating_ones(group):
    """Monomials and polynomials built by add, translate, convolve, _times, shift (and the other
    trusted paths) equal the same data rebuilt through the public, validating constructors."""
    rng = random.Random(13)

    def check_monomial(u):
        v = ExponentVector(group, dict(reversed(u.items)))
        assert u.items == v.items and hash(u) == hash(v) and u == v and u.sort_key() == v.sort_key()

    def check_poly(a):
        b = NearRingElement(group, a.field, {ExponentVector(group, dict(u.items)): c for u, c in a.terms.items()})
        assert a == b and all(a.terms.values())
        for u in a.terms:
            check_monomial(u)

    for field in (QQ, F5):
        for _ in range(60):
            u, v = (rand_exponent_vector(group, rng, radius=2, max_degree=4, max_support=3) for _ in range(2))
            g = rand_group_element(group, rng)
            for w in (u.add(v), u.translate(g), u.convolve(v), v.add(u)):
                check_monomial(w)
            a, b = (rand_near_ring(group, field, rng, radius=1, max_degree=3, max_terms=4) for _ in range(2))
            for c in (a._times(b), a.shift(g), a.scale(field_scalar(field, rng)), a + b, -a, a.star(b), a**3):
                check_poly(c)
            assert not a.scale(field.zero()).terms
    foreign = ZdGroup(3).element((1, 0, 0))
    g = group.identity()
    with pytest.raises(NearRingError, match="negative exponent"):
        ExponentVector(group, {g: -1})
    with pytest.raises(NearRingError, match="outside the group"):
        ExponentVector(group, {foreign: 1})
    with pytest.raises(NearRingError, match="outside the group"):
        NearRingElement(group, QQ, {ExponentVector(foreign.group, {foreign: 1}): QQ.one()})
    assert ExponentVector(group, {g: 0}).items == ()
    assert NearRingElement(group, F5, {ExponentVector.unit(g): F5.zero(), ExponentVector.empty(group): F5.one()}).terms == {
        ExponentVector.empty(group): F5.one()
    }


# -- embeddings ----------------------------------------------------------


def test_embed_group_ring_examples():
    g = GroupRingElement(Z, QQ, {zel(3): Fraction(1)})
    assert embed_group_ring(g) == X(3)
    assert not embed_group_ring(GroupRingElement.zero(Z, QQ))
    one_plus = GroupRingElement(Z, QQ, {zel(0): Fraction(1), zel(1): Fraction(1)})
    one_minus = GroupRingElement(Z, QQ, {zel(0): Fraction(1), zel(1): Fraction(-1)})
    lhs = embed_group_ring(one_plus * one_minus)
    rhs = embed_group_ring(one_plus).star(embed_group_ring(one_minus))
    # both sides are the embedded 1 - g^2; the group-ring unit maps to the
    # identity variable, not to the constant 1
    assert lhs == rhs == X(0) - X(2)


def test_embed_group_ring_rejects_matrix_coefficients():
    from groupca.rings import ExactMatrix

    m = GroupRingElement(Z, QQ, {zel(0): ExactMatrix.identity(QQ, 2)}, shape=2)
    with pytest.raises(NearRingError):
        embed_group_ring(m)


def test_embed_group_ring_homomorphism_random():
    rng = random.Random(7)
    for _ in range(300):
        a = rand_group_ring(Z2, QQ, rng)
        b = rand_group_ring(Z2, QQ, rng)
        assert embed_group_ring(a * b) == embed_group_ring(a).star(embed_group_ring(b))
        assert embed_group_ring(a + b) == embed_group_ring(a) + embed_group_ring(b)
        if a != b:
            assert embed_group_ring(a) != embed_group_ring(b)


def test_embed_twisted_examples():
    t = TwistedPoly.t(F2)
    tg = TwistedGroupRingElement(Z, F2, {zel(1): t})
    assert embed_twisted(tg) == NearRingElement.variable(zel(1), F2, 2)
    th = TwistedGroupRingElement(Z, F2, {zel(2): t})
    both = embed_twisted(tg * th)
    assert both == NearRingElement.variable(zel(3), F2, 4)
    assert both == embed_twisted(tg).star(embed_twisted(th))
    ident = TwistedGroupRingElement.identity(Z, F2)
    assert embed_twisted(ident) == NearRingElement.identity(Z, F2)


def rand_twisted(group, field, rng, max_terms=2, max_deg=2):
    coeffs = {}
    for _ in range(rng.randint(0, max_terms)):
        g = group.element((rng.randint(-2, 2),))
        poly = TwistedPoly(
            field, [field.elements()[rng.randrange(field.size())] for _ in range(rng.randint(0, max_deg + 1))]
        )
        if poly:
            coeffs[g] = poly
    return TwistedGroupRingElement(group, field, coeffs)


def test_embed_twisted_homomorphism_random():
    rng = random.Random(8)
    for field in (F2, GF4):
        for _ in range(150):
            a = rand_twisted(Z, field, rng)
            b = rand_twisted(Z, field, rng)
            assert embed_twisted(a * b) == embed_twisted(a).star(embed_twisted(b))
            assert embed_twisted(a + b) == embed_twisted(a) + embed_twisted(b)
            if a != b:
                assert embed_twisted(a) != embed_twisted(b)


def test_twisted_embedding_factors_the_plain_one():
    # over F_p, the group-ring embedding is the twisted one applied to
    # constant polynomials
    rng = random.Random(9)
    for _ in range(100):
        a = rand_group_ring(Z, F2, rng)
        lifted = TwistedGroupRingElement(
            Z, F2, {g: TwistedPoly.constant(F2, c) for g, c in a.coeffs.items()}
        )
        assert embed_twisted(lifted) == embed_group_ring(a)


# -- orders and leading terms ---------------------------------------------


def lex_order():
    return MonomialOrder(LexOrder(Z))


def test_leading_term_examples():
    order = lex_order()
    a = X(2) + X(1, 3)
    c, u = leading_term(a, order)
    assert c == Fraction(1) and u == ev({2: 1})
    c, u = leading_term(const(5), order)
    assert c == Fraction(5) and u == ev({})
    with pytest.raises(NearRingError):
        leading_term(NearRingElement.zero(Z, QQ), order)


def test_leading_term_product_law_on_worked_example():
    order = lex_order()
    alpha = NearRingElement(Z, QQ, {ev({1: 3, 0: 1}): Fraction(1)}) + const(1)
    beta = X(2, 2) - X(3, 2)
    ca, ua = leading_term(alpha, order)
    cb, ub = leading_term(beta, order)
    cp, up = leading_term(alpha.star(beta), order)
    assert up == ua.convolve(ub)
    assert cp == ca * cb ** ua.degree()


def order_lemma_assertions(order, group, rng, samples):
    zero = ExponentVector.empty(group)
    for _ in range(samples):
        u = rand_exponent_vector(group, rng)
        v = rand_exponent_vector(group, rng)
        w = rand_exponent_vector(group, rng)
        if w != zero:
            assert order.less(zero, w)
            assert order.less(u, u.add(w))
        g = list(ball(group, 1))[rng.randrange(len(ball(group, 1)))]
        c = order.compare(u, v)
        assert c == order.compare(u.translate(g), v.translate(g))
        assert c == order.compare(u.add(w), v.add(w))
        if c < 0 and w != zero:
            assert order.less(u.convolve(w), v.convolve(w))
            assert order.less(w.convolve(u), w.convolve(v))


def test_order_lemma_over_zd():
    rng = random.Random(10)
    order_lemma_assertions(MonomialOrder(LexOrder(Z)), Z, rng, 300)
    order_lemma_assertions(MonomialOrder(LexOrder(Z2)), Z2, rng, 300)


def test_order_lemma_over_free_group():
    rng = random.Random(11)
    order_lemma_assertions(MonomialOrder(MagnusOrder(FREE2)), FREE2, rng, 100)


def test_leading_term_product_formula_random():
    rng = random.Random(12)
    for group, g_order in ((Z, LexOrder(Z)), (Z2, LexOrder(Z2)), (FREE2, MagnusOrder(FREE2))):
        order = MonomialOrder(g_order)
        for field in (QQ, F5):
            for _ in range(60):
                a = rand_near_ring(group, field, rng, max_terms=2, nonzero=True)
                b = rand_near_ring(group, field, rng, max_terms=2, nonzero=True)
                if b.is_constant():
                    continue
                ca, ua = leading_term(a, order)
                cb, ub = leading_term(b, order)
                cp, up = leading_term(a.star(b), order)
                assert up == ua.convolve(ub)
                assert cp == ca * cb ** ua.degree()


# -- unit classification ---------------------------------------------------


def test_classify_unit_examples():
    a = X(1).scale(Fraction(2)) - const(6)
    b = X(-1).scale(Fraction(1, 2)) + const(3)
    cls = classify_unit_pair(a, b)
    assert cls.verdict == "trivial_unit"
    assert (cls.a, cls.g, cls.b) == (Fraction(2), zel(1), Fraction(3))

    cls = classify_unit_pair(X(0), X(0))
    assert cls.verdict == "trivial_unit"
    assert (cls.a, cls.g, cls.b) == (Fraction(1), zel(0), Fraction(0))

    cls = classify_unit_pair(X(0, 2), X(0))
    assert cls.verdict == "not_unit_pair"
    assert cls.product == X(0, 2)


# -- exhaustive search ------------------------------------------------------


def support_pm1():
    return FiniteSubset(Z, [zel(-1), zel(0), zel(1)])


def test_search_monomials_canonical():
    monos = search_monomials(support_pm1(), 2)
    assert len(monos) == 10
    degrees = [u.degree() for u in monos]
    assert degrees == sorted(degrees)
    assert monos[0] == ev({})


@pytest.mark.parametrize(
    "support",
    [support_pm1(), ball(Z2, 1), ball(FREE2, 1), ball(cyclic_group(3), 1)],
    ids=["zd:1", "zd:2", "free:2", "cyclic:3"],
)
def test_search_monomials_match_the_exponent_box(support):
    """Every exponent vector of total degree <= d, once each, in strictly increasing sort_key order."""
    elems = list(support)
    for d in range(4):
        monos = search_monomials(support, d)
        box = {
            ExponentVector(support.group, dict(zip(elems, exps)))
            for exps in itertools.product(range(d + 1), repeat=len(elems))
            if sum(exps) <= d
        }
        assert len(monos) == len(box) == math.comb(len(elems) + d, d)
        assert set(monos) == box
        keys = [u.sort_key() for u in monos]
        assert all(a < b for a, b in zip(keys, keys[1:]))


def test_search_space_cap():
    with pytest.raises(NearRingError):
        exhaustive_search("unit", F5, support_pm1(), 4, space_cap=100)
    with pytest.raises(NearRingError):
        exhaustive_search("unit", QQ, support_pm1(), 2)
    with pytest.raises(NearRingError):
        exhaustive_search("nonsense", F2, support_pm1(), 1)


@pytest.mark.parametrize(
    "group, degree, radius",
    [("zd:3", 1, 9), ("zd:2", 60, 10)],
    ids=["1160-monomials", "astronomical"],
)
def test_search_space_cap_exits_2_before_enumerating(capsys, group, degree, radius):
    """The space p^C(|S|+d, d) is refused from |S| and d alone, without building a monomial."""
    from groupca.cli import run_job

    argv = ["units", "--group", group, "--field", "f2", "--degree", str(degree), "--radius", str(radius)]
    with cpu_budget(2.0):
        assert run_job(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: search space has 2^") and "above the cap" in err and "Traceback" not in err


def test_idempotent_search_f2():
    res = exhaustive_search("idempotent", F2, support_pm1(), 2)
    found = {repr(f.alpha) for f in res.findings}
    assert found == {"0", "1", "X[(0)]"}


def test_zero_divisor_search_f2_empty():
    res = exhaustive_search("zero_divisor", F2, support_pm1(), 2)
    assert res.findings == []


def test_unit_search_f2_trivial_only():
    res = exhaustive_search("unit", F2, support_pm1(), 2)
    assert len(res.findings) == 6
    ident = NearRingElement.identity(Z, F2)
    for f in res.findings:
        assert f.classification == "trivial_unit"
        assert f.product == ident
        assert f.detail["reverse_product"] == ident


def test_unit_search_stars_one_column_per_monomial_and_beta(monkeypatch):
    """alpha * beta is summed from columns X^u * beta, one per monomial and beta; beta * alpha is one full star."""
    stars, columns = [], []
    generic_star, generic_columns = NearRingElement.star, NearRingElement._star_columns

    def counted_star(self, other):
        stars.append((self, other))
        return generic_star(self, other)

    def counted_columns(self, other):
        for u, c, column in generic_columns(self, other):
            columns.append((u, other))
            yield u, c, column

    monkeypatch.setattr(NearRingElement, "star", counted_star)
    monkeypatch.setattr(NearRingElement, "_star_columns", counted_columns)
    res = exhaustive_search("unit", PrimeField(3), support_pm1(), 1, workers=1)
    assert len(res.findings) == 18  # a X_g - a b for 3 g, 2 a and 3 b
    assert stars == [(f.beta, f.alpha) for f in res.findings]
    forward = {(u, f.beta) for f in res.findings for u in f.alpha.terms}
    reverse = [(u, f.alpha) for f in res.findings for u in f.beta.terms]
    assert collections.Counter(columns) == collections.Counter([*forward, *reverse])
    for f in res.findings:
        assert f.product == generic_star(f.alpha, f.beta)
        assert f.detail["reverse_product"] == generic_star(f.beta, f.alpha)


def brute_force_search(kind, field, support, degree):
    """Direct pair/element scan via the generic star product."""
    monos = search_monomials(support, degree)
    group = support.group
    scalars = field.elements()
    space = []
    for combo in itertools.product(scalars, repeat=len(monos)):
        space.append(NearRingElement(group, field, dict(zip(monos, combo))))
    ident = NearRingElement.identity(group, field)
    out = []
    if kind == "idempotent":
        for a in space:
            if a.star(a) == a:
                out.append(a)
        return out
    for b in space:
        for a in space:
            p = a.star(b)
            if kind == "unit" and p == ident:
                out.append((a, b))
            if kind == "zero_divisor" and not p and a and not b.is_constant():
                out.append((a, b))
    return out


def assert_search_matches_brute_force(kind, field, support, degree):
    fast = exhaustive_search(kind, field, support, degree)
    slow = brute_force_search(kind, field, support, degree)
    if kind == "idempotent":
        fast_found = [repr(f.alpha) for f in fast.findings]
        slow_found = [repr(a) for a in slow]
    else:
        fast_found = [(repr(f.alpha), repr(f.beta)) for f in fast.findings]
        slow_found = [(repr(a), repr(b)) for a, b in slow]
    if kind == "idempotent":
        assert fast_found == slow_found
    else:
        assert sorted(fast_found) == sorted(slow_found)
        # both list the findings in the enumeration order of beta
        assert [b for _, b in fast_found] == [b for _, b in slow_found]
    return fast_found


def test_search_matches_brute_force_small_space():
    support = FiniteSubset(Z, [zel(0), zel(1)])
    for kind in ("unit", "idempotent", "zero_divisor"):
        assert_search_matches_brute_force(kind, F2, support, 1)


@pytest.mark.parametrize("n, field, degree", [(2, F2, 1), (2, F2, 2), (3, F3, 1)])
def test_search_matches_brute_force_on_cyclic_groups(n, field, degree):
    # finite groups have nontrivial units and zero divisors, so the orbit
    # pruning is checked on spaces where it keeps live orbits
    support = ball(cyclic_group(n), 1)
    found = {
        kind: assert_search_matches_brute_force(kind, field, support, degree)
        for kind in ("unit", "idempotent", "zero_divisor")
    }
    assert found["unit"] and found["zero_divisor"]


@pytest.mark.parametrize("n, field, degree", [(2, F3, 2), (3, F2, 1)])
def test_idempotent_search_matches_brute_force_with_nontrivial_idempotents(n, field, degree):
    # p does not divide |G| here, so K[G] has idempotents such as (1 + g)/2
    # and 1 + g + g^2, and the search finds nonconstant ones besides X_e
    support = ball(cyclic_group(n), 1)
    found = assert_search_matches_brute_force("idempotent", field, support, degree)
    ident = repr(NearRingElement.identity(support.group, field))
    assert [a for a in found if "X" in a and a != ident]


def search_key(result):
    return [(repr(f.alpha), repr(f.beta), f.classification) for f in result.findings]


def test_search_deterministic_across_workers():
    tiny = FiniteSubset(Z, [zel(0)])  # fewer representatives and alphas than workers
    cases = [
        ("unit", F2, support_pm1(), 2, 4),
        ("zero_divisor", F2, ball(cyclic_group(2), 1), 2, 3),
        ("idempotent", F2, support_pm1(), 2, 3),
        ("idempotent", F3, ball(cyclic_group(2), 1), 1, 2),
        ("unit", F2, tiny, 1, 8),
        ("zero_divisor", F2, tiny, 1, 8),
        ("idempotent", F2, tiny, 1, 8),
    ]
    for kind, field, support, degree, workers in cases:
        res1 = exhaustive_search(kind, field, support, degree, workers=1)
        resn = exhaustive_search(kind, field, support, degree, workers=workers)
        assert search_key(res1) == search_key(resn)
        assert res1.findings or (kind == "zero_divisor" and support == tiny)


def cyclic_spaces():
    """(kind, field, support, degree) of the unit, idempotent and zero-divisor spaces over cyclic:2, F2, degree 2."""
    return [(kind, F2, ball(cyclic_group(2), 1), 2) for kind in ("unit", "idempotent", "zero_divisor")]


def test_pooled_search_matches_in_process(monkeypatch):
    """With every round cut into chunks, the pooled findings at 2 and 4 workers equal the in-process ones."""
    monkeypatch.setattr(nr_mod, "WORK_MIN", 1)
    for kind, field, support, degree in cyclic_spaces():
        res1 = exhaustive_search(kind, field, support, degree, workers=1)
        assert res1.findings
        for workers in (2, 4):
            assert search_key(exhaustive_search(kind, field, support, degree, workers=workers)) == search_key(res1)


# the spaces of perfbench's kaplansky workload; its seeded support of five zd:2 elements, no two of them
# inverse, is one such fixed support here: a round's estimated work reads only its kind, p, m and index count
KAPLANSKY_SPACES = [
    *[(kind, F2, support_pm1(), 2) for kind in ("unit", "idempotent", "zero_divisor")],
    *[(kind, F2, FiniteSubset(Z2, [Z2.identity(), Z2.element((1, 0)), Z2.element((0, 1))]), 2) for kind in ("unit", "idempotent", "zero_divisor")],
    *[(kind, F3, FiniteSubset(Z, [zel(0), zel(1)]), 2) for kind in ("unit", "idempotent", "zero_divisor")],
    ("unit", F5, FiniteSubset(Z2, [Z2.identity(), *(Z2.element(v) for v in ((1, 0), (0, 2), (-2, 1), (1, -2)))]), 1),
    ("idempotent", F5, ball(FREE2, 1), 1),
    ("unit", F7, support_pm1(), 1),
    ("zero_divisor", F7, support_pm1(), 1),
]


def test_small_searches_fork_no_pool(monkeypatch):
    """Rounds below twice WORK_MIN of estimated work run in-process at any worker count, the kaplansky workload's at 2.

    So do the F2 searches over 15 monomials of tools/report_diff.py (FILTER_SEARCH, UNIT_FILTER_SEARCH), which
    the lanes price by their blocks and the unit survivors' solves.
    """
    import multiprocessing

    def refuse(*args, **kwargs):
        raise AssertionError("a small search forked a pool")

    monkeypatch.setattr(multiprocessing, "Pool", refuse)
    fifteen = FiniteSubset(Z, [zel(n) for n in range(-2, 2)])
    for kind, field, support, degree in [
        *cyclic_spaces(), ("unit", F2, support_pm1(), 2), ("idempotent", F3, support_pm1(), 1), ("unit", F2, fifteen, 2), ("idempotent", F2, fifteen, 2)
    ]:
        assert exhaustive_search(kind, field, support, degree, workers=2).findings
    for kind, field, support, degree in KAPLANSKY_SPACES:
        assert exhaustive_search(kind, field, support, degree, workers=2).findings or kind == "zero_divisor"


class InProcessPool:
    """A stand-in for multiprocessing.Pool that records its size and runs the chunks in order, in-process."""

    sizes = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def starmap(self, fn, chunks):
        return list(itertools.starmap(fn, chunks))

    def terminate(self):
        pass


def test_pool_forks_one_process_per_chunk_at_most_one_per_core(monkeypatch):
    """--workers 1000 on a round of four chunks forks min(4, cores) processes, never 1000."""
    import multiprocessing
    import os

    sizes = InProcessPool.sizes
    space = ("unit", F3, ball(cyclic_group(3), 1), 2)
    expected = search_key(exhaustive_search(*space, workers=1))
    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    for cores, forked in ((64, 4), (2, 2), (None, 1)):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        sizes.clear()
        assert search_key(exhaustive_search(*space, workers=1000)) == expected
        assert sizes == [forked]


def test_pooled_search_of_report_diff_forks_at_its_workers(monkeypatch):
    """POOLED_SEARCH of tools/report_diff.py forks a pool at SEARCH_WORKERS, as its docstring says."""
    import multiprocessing
    import os

    from groupca.groups import parse_group_spec
    from groupca.rings import field_from_spec

    cmd, spec, field, degree = report_diff_constant("POOLED_SEARCH")
    workers = report_diff_constant("SEARCH_WORKERS")
    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    InProcessPool.sizes.clear()
    kinds = {"units": "unit", "idem": "idempotent", "zerodiv": "zero_divisor"}
    assert exhaustive_search(kinds[cmd], field_from_spec(field), ball(parse_group_spec(spec), 1), degree, workers=workers).findings
    assert InProcessPool.sizes == [workers]


def test_pool_placement_at_the_work_minimum(monkeypatch):
    """A round of just under twice WORK_MIN runs in-process and one of twice WORK_MIN forks; findings match at 1, 2 and 4 workers."""
    import multiprocessing
    import os

    kind, field, support, degree = cyclic_spaces()[1]  # idempotents: a single round of p^m alphas
    fast = nr_mod._FastPoly(kind, field, support, degree)
    work = nr_mod._round_work(nr_mod._idempotents, fast, field.p ** len(fast.monomials))
    expected = search_key(exhaustive_search(kind, field, support, degree, workers=1))
    assert expected
    forks, pool = [], multiprocessing.Pool

    def counting_pool(processes):
        forks.append(processes)
        return pool(processes=processes)

    monkeypatch.setattr(multiprocessing, "Pool", counting_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    for minimum, forked in ((work / 2 * (1 + 1e-9), []), (work / 2, [2, 2])):
        monkeypatch.setattr(nr_mod, "WORK_MIN", minimum)
        forks.clear()
        for workers in (1, 2, 4):
            assert search_key(exhaustive_search(kind, field, support, degree, workers=workers)) == expected
        assert forks == forked
    assert multiprocessing.active_children() == []


def _raising_chunk(fast, ranges):
    raise RuntimeError("chunk failed")


def test_failing_chunk_leaves_no_worker(monkeypatch):
    import multiprocessing

    monkeypatch.setattr(nr_mod, "WORK_MIN", 1)
    monkeypatch.setattr(nr_mod, "_idempotents", _raising_chunk)
    with pytest.raises(RuntimeError, match="chunk failed"):
        exhaustive_search("idempotent", F2, support_pm1(), 2, workers=2)
    assert multiprocessing.active_children() == []


def test_certify_refuses_a_flipped_solution_digit():
    """A unit or zero-divisor record with the constant digit of its solution flipped fails the generic check.

    1 star beta = 1 whatever beta is, so the flip adds 1 to alpha star beta
    for every alpha that the record lists.  An idempotent record is only a
    filter survivor, so an idempotent with its constant digit flipped
    certifies to no finding unless the flip is an idempotent of its own.
    """
    for kind, field, support, degree in cyclic_spaces():
        fast = nr_mod._FastPoly(kind, field, support, degree)
        m, p = len(fast.monomials), field.p
        if kind == "idempotent":
            records = nr_mod._idempotents(fast, [range(p**m)])
            found = {d for _, d, _ in records}
            flipped = [((d[0] + 1) % p, *d[1:]) for _, d, _ in records]
            bad = [(0, d, None) for d in flipped if d not in found]
        else:
            records = nr_mod._live_betas(fast, nr_mod._representatives(p, m))
            bad = [(i, d, ({**sol, 0: (sol.get(0, 0) + 1) % p}, kernel, size)) for i, d, (sol, kernel, size) in records]
        assert records and bad
        for record in records:
            assert nr_mod._certify(kind, fast, record)
        for record in bad:
            if kind == "idempotent":
                assert nr_mod._certify(kind, fast, record) == []
                continue
            with pytest.raises(NearRingError, match="fast path disagreed"):
                nr_mod._certify(kind, fast, record)


def report_diff_constant(name):
    """A module-level constant of tools/report_diff.py, read without importing the tool."""
    import ast
    import pathlib

    tree = ast.parse((pathlib.Path(__file__).resolve().parent.parent / "tools" / "report_diff.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError("tools/report_diff.py defines no %s" % name)


def test_cached_products_equal_the_generic_star():
    from groupca.groups import parse_group_spec
    from groupca.rings import field_from_spec

    kinds = {"units": "unit", "idem": "idempotent", "zerodiv": "zero_divisor"}
    searches = report_diff_constant("CYCLIC_SEARCHES")
    assert len(searches) == 8
    for cmd, spec, field, degree in searches:
        res = exhaustive_search(kinds[cmd], field_from_spec(field), ball(parse_group_spec(spec), 1), degree)
        assert res.findings
        for f in res.findings:
            assert f.product == f.alpha.star(f.alpha if f.beta is None else f.beta)


def test_affine_substitution_laws():
    # the facts behind the orbit pruning, through the generic star:
    # alpha star (a beta + c) = (alpha star phi) star beta for phi = a X_e + c,
    # and alpha |-> alpha star phi^-1 maps the canonical span onto itself
    rng = random.Random(10)
    for field, support, degree in ((F3, support_pm1(), 2), (F5, ball(Z2, 1), 1), (F3, ball(cyclic_group(3), 1), 2)):
        group = support.group
        monos = search_monomials(support, degree)
        span = set(monos)
        ident = NearRingElement.identity(group, field)

        def element(coeffs):
            return NearRingElement(group, field, {u: field.from_int(c) for u, c in zip(monos, coeffs)})

        for _ in range(20):
            a = field.from_int(rng.randrange(1, field.p))
            c = field.from_int(rng.randrange(field.p))
            phi = ident.scale(a) + NearRingElement.constant(group, field, c)
            phi_inv = ident.scale(a.inverse()) - NearRingElement.constant(group, field, a.inverse() * c)
            assert phi.star(phi_inv) == ident and phi_inv.star(phi) == ident
            alpha = element([rng.randrange(field.p) for _ in monos])
            beta = element([rng.randrange(field.p) for _ in monos])
            assert phi.star(beta) == beta.scale(a) + NearRingElement.constant(group, field, c)
            assert alpha.star(phi.star(beta)) == alpha.star(phi).star(beta)
            image = alpha.star(phi_inv)
            assert set(image.terms) <= span
            assert image.star(phi) == alpha
    # onto, exhaustively on a small space
    support = FiniteSubset(Z, [zel(0), zel(1)])
    monos = search_monomials(support, 2)
    ident = NearRingElement.identity(Z, F3)
    phi_inv = ident.scale(F3.from_int(2)) - NearRingElement.constant(Z, F3, F3.from_int(1))
    space = {
        NearRingElement(Z, F3, {u: F3.from_int(c) for u, c in zip(monos, coeffs)})
        for coeffs in itertools.product(range(3), repeat=len(monos))
    }
    assert {alpha.star(phi_inv) for alpha in space} == space


def augmentation(x):
    """eps(x) as {k: coefficient of t^k}: eps sends X_g to t, so X^u to t^deg(u)."""
    out = {}
    for u, c in x.terms.items():
        k = u.degree()
        out[k] = out[k] + c if k in out else c
    return {k: c for k, c in out.items() if c}


def compose(f, g, one):
    """f(g) for polynomials in t given as {k: coefficient of t^k}."""
    out, g_power = {}, {0: one}
    for k in range(max(f, default=0) + 1):
        if k in f:
            for i, c in g_power.items():
                out[i] = out[i] + f[k] * c if i in out else f[k] * c
        product = {}
        for i, a in g_power.items():
            for j, b in g.items():
                product[i + j] = product[i + j] + a * b if i + j in product else a * b
        g_power = product
    return {k: c for k, c in out.items() if c}


@pytest.mark.parametrize(
    "group", [Z, Z2, FREE2, cyclic_group(3)], ids=["zd:1", "zd:2", "free:2", "cyclic:3"]
)
def test_augmentation_is_a_homomorphism(group):
    """eps(alpha star beta) = eps(alpha) o eps(beta), the fact the search filters rest on."""
    rng = random.Random(12)
    for field in (F2, F3, F5, QQ):
        degrees = set()
        for _ in range(20):
            alpha = rand_near_ring(group, field, rng, radius=1)
            beta = rand_near_ring(group, field, rng, radius=1)
            image = augmentation(alpha.star(beta))
            assert image == compose(augmentation(alpha), augmentation(beta), field.one())
            degrees.add(max(image, default=-1))
        assert max(degrees) >= 2


def admits(fast, digits):
    """The eps test of ``fast`` on digits, with block sums computed from scratch."""
    return fast.admits(fast.block_sums(digits))


def _steered_digits(rng, monos, p):
    """Random digits whose degree-k digit sum is 0 for k >= 2 at least three times in four.

    The last digit of each degree is set to meet a drawn digit sum, so the
    elements near the filters' boundary (eps a constant, t or at + c) are
    common in the sample.
    """
    digits = [rng.randrange(p) for _ in monos]
    last = {u.degree(): i for i, u in enumerate(monos)}
    for k, i in last.items():
        want = 0 if k >= 2 and rng.random() < 0.75 else rng.randrange(p)
        rest = sum(d for j, d in enumerate(digits) if monos[j].degree() == k and j != i)
        digits[i] = (want - rest) % p
    return digits


@pytest.mark.parametrize(
    "field, support, degree",
    [
        (F2, support_pm1(), 2),
        (F3, support_pm1(), 2),
        (F5, ball(Z2, 1), 1),
        (F3, ball(cyclic_group(3), 1), 2),
        (F2, ball(FREE2, 1), 2),
    ],
    ids=["F2-zd:1", "F3-zd:1", "F5-zd:2", "F3-cyclic:3", "F2-free:2"],
)
def test_augmentation_filters_match_eps_of_the_element(field, support, degree):
    """The search's digit-sum filters agree with eps computed from the public element.

    Units keep exactly the betas with deg eps(beta) = 1, idempotents exactly
    the alphas with eps(alpha) o eps(alpha) = eps(alpha), and zero divisors
    keep every beta.
    """
    p = field.p
    units, idempotents, zero_divisors = (
        nr_mod._FastPoly(kind, field, support, degree) for kind in ("unit", "idempotent", "zero_divisor")
    )
    monos = units.monomials
    rng = random.Random(13)
    seen = set()
    for _ in range(300):
        digits = _steered_digits(rng, monos, p)
        eps = augmentation(units.element(digits))
        verdicts = (admits(units, digits), admits(idempotents, digits))
        assert verdicts == (max(eps, default=-1) == 1, compose(eps, eps, field.one()) == eps), digits
        assert admits(zero_divisors, digits)
        seen.add(verdicts)
    # (False, False) needs a term of degree >= 2 in eps
    assert seen == {(True, True), (True, False), (False, True)} | ({(False, False)} if degree > 1 else set())


def _generic_liveness(field, monos, digits):
    """(unit live, zero divisor live) for beta from the generic star and rank_kernel_sparse.

    The columns X^u star beta over the canonical monomials u are solvable
    against X_e when appending X_e keeps the rank, and have a nonzero
    kernel when the rank is below their number.
    """
    group = monos[0].group
    beta = NearRingElement(group, field, {u: field.from_int(c) for u, c in zip(monos, digits) if c})
    ncols = len(monos)
    rows = {}
    for j, u in enumerate(monos):
        for w, c in NearRingElement(group, field, {u: field.one()}).star(beta).terms.items():
            rows.setdefault(w, {})[j] = c
    ident = ExponentVector.unit(group.identity())
    rows.setdefault(ident, {})
    rank, _ = rank_kernel_sparse(field, [dict(r) for r in rows.values()], ncols, want_kernel=False)
    with_b = [{**r, ncols: field.one()} if w == ident else dict(r) for w, r in rows.items()]
    full_rank, _ = rank_kernel_sparse(field, with_b, ncols + 1, want_kernel=False)
    return rank == full_rank, rank < ncols


@pytest.mark.parametrize(
    "field, support, degree, outcomes",
    [
        (F2, FiniteSubset(Z, [zel(n) for n in range(-2, 3)]), 2, {(False, False), (True, False)}),
        (F3, ball(cyclic_group(3), 1), 2, {(False, False), (True, False), (False, True)}),
    ],
    ids=["F2-zd:1-2^21", "F3-cyclic:3"],
)
def test_search_liveness_matches_generic_elimination(field, support, degree, outcomes):
    """Negatives beyond brute force: the fast path's verdict on orbit representatives.

    The seeded sample holds representatives (constant digit 0, first
    nonzero digit 1), the betas X_g, whose unit orbits are live, and 30
    representatives that the unit search skips by their augmentation; the
    generic elimination must find no unit partner for those.  A seeded
    sample of alphas that the idempotent search skips must fail
    alpha star alpha = alpha under the generic star.
    """
    p = field.p
    units = nr_mod._FastPoly("unit", field, support, degree)
    zero_divisors = nr_mod._FastPoly("zero_divisor", field, support, degree)
    idempotents = nr_mod._FastPoly("idempotent", field, support, degree)
    monos = units.monomials
    m = len(monos)
    rng = random.Random(9)

    def representative():
        j = rng.randrange(m - 1)
        return rng.randrange(p**j, 2 * p**j)

    sample = {p ** (m - 1 - i) for i, u in enumerate(monos) if u.degree() == 1}
    while len(sample) < 80:
        sample.add(representative())
    skipped = set()
    while len(skipped) < 30:
        index = representative()
        if not admits(units, nr_mod._index_to_digits(index, p, m)):
            skipped.add(index)
    seen = set()
    for index in sorted(sample | skipped):
        digits = nr_mod._index_to_digits(index, p, m)
        beta = [range(index, index + 1)]
        fast = (bool(nr_mod._live_betas(units, beta)), bool(nr_mod._live_betas(zero_divisors, beta)))
        generic = _generic_liveness(field, monos, digits)
        assert fast == generic, digits
        assert admits(units, digits) or not generic[0], digits
        seen.add(fast)
    assert seen == outcomes  # (unit live, zero divisor live)
    alphas = 0
    while alphas < 20:
        digits = _steered_digits(rng, monos, p)
        if not admits(idempotents, digits):
            alpha = idempotents.element(digits)
            assert alpha.star(alpha) != alpha, digits
            alphas += 1


@pytest.mark.parametrize(
    "field, support, degree",
    [(F2, support_pm1(), 2), (F3, FiniteSubset(Z, [zel(0), zel(1)]), 2), (F5, FiniteSubset(Z, [zel(0), zel(1)]), 2)],
    ids=["F2-zd:1", "F3-zd:1", "F5-zd:1"],
)
def test_walk_block_sums_match_admits_on_every_index(field, support, degree):
    """The walk's incremental block sums admit exactly the indices that block sums from scratch admit.

    Whole spaces are walked, and seeded cuts into ranges that start and end
    mid-range, as chunks do.
    """
    rng = random.Random(5)
    p = field.p
    for kind in ("unit", "idempotent", "zero_divisor"):
        fast = nr_mod._FastPoly(kind, field, support, degree)
        m = len(fast.monomials)
        size = p**m
        expected = [i for i in range(size) if admits(fast, nr_mod._index_to_digits(i, p, m))]
        cuts = sorted(rng.sample(range(1, size), 7))
        for ranges in ([range(size)], [range(a, b) for a, b in zip([0, *cuts], [*cuts, size])]):
            walked = [(i, list(digits)) for i, digits in nr_mod._walk(fast, ranges)]
            assert [i for i, _ in walked] == expected
            assert all(digits == nr_mod._index_to_digits(i, p, m) for i, digits in walked)
        admitted = set(expected)
        for start in rng.sample(range(size), 20):
            part = range(start, min(size, start + 3 * p + 1))
            assert [i for i, _ in nr_mod._walk(fast, [part])] == [i for i in part if i in admitted]
        if kind == "zero_divisor":
            assert len(expected) == size


def test_finding_dataclass_shape():
    res = exhaustive_search("idempotent", F2, support_pm1(), 1)
    assert all(isinstance(f, Finding) for f in res.findings)
    assert res.space_size == 2 ** len(res.monomials)


# -- the idempotent filter: evaluation at points of GF(p^k) -------------------

# the field of the filter's points for each p: the largest shipped extension, and F_p itself for 7 and 13
FILTER_FIELDS = {2: ExtensionField(2, 4), 3: ExtensionField(3, 4), 5: ExtensionField(5, 4), 7: F7, 13: PrimeField(13)}


@pytest.mark.parametrize(
    "group", [Z, Z2, FREE2, cyclic_group(3)], ids=["zd:1", "zd:2", "free:2", "cyclic:3"]
)
def test_evaluation_takes_substitution_to_evaluation_at_the_shifts(group):
    """ev_x(alpha star beta) = sum_u a_u prod_g ev_x(shift(g, beta))^(u_g), the fact the idempotent filter rests on."""
    rng = random.Random(21)
    variables = list(ball(group, 2))  # alpha, beta and their shifts have variables in ball(1) and ball(1).ball(1)
    for p, L in FILTER_FIELDS.items():
        field, values = PrimeField(p), L.elements()
        for _ in range(10):
            alpha = rand_near_ring(group, field, rng, radius=1)
            beta = alpha if rng.random() < 0.3 else rand_near_ring(group, field, rng, radius=1)
            point = {g: rng.choice(values) for g in variables}
            substituted = L.zero()
            for u, c in alpha.terms.items():
                term = L.from_int(c.v)
                for g, e in u.items:
                    term = term * evaluate(beta.shift(g), point, L) ** e
                substituted = substituted + term
            assert evaluate(alpha.star(beta), point, L) == substituted


FILTER_SPACES = [
    (F2, support_pm1(), 2),
    (F2, FiniteSubset(Z2, [Z2.identity(), Z2.element((1, 0)), Z2.element((0, 1))]), 2),
    (F2, ball(cyclic_group(3), 1), 2),
    (F3, FiniteSubset(Z, [zel(0), zel(1)]), 2),
    (F5, FiniteSubset(Z, [zel(0), zel(1)]), 2),
    (F5, ball(FREE2, 1), 1),
    (F7, support_pm1(), 1),
    (PrimeField(13), support_pm1(), 1),
]
FILTER_IDS = ["F2-zd:1", "F2-zd:2", "F2-cyclic:3", "F3-zd:1", "F5-zd:1", "F5-free:2", "F7-zd:1", "F13-zd:1"]


def _idempotent_findings(fast, ranges):
    return [finding for record in nr_mod._idempotents(fast, ranges) for finding in nr_mod._certify("idempotent", fast, record)]


@pytest.mark.parametrize("field, support, degree", FILTER_SPACES, ids=FILTER_IDS)
def test_filtered_idempotent_records_equal_unfiltered(monkeypatch, field, support, degree):
    """The filter only skips alphas that are not idempotent: the findings match those of the generic star on every alpha eps admits.

    The filter also rejects at least 90 % of the admitted alphas that are
    not idempotent, so few survivors take a generic star in vain.
    """
    fast = nr_mod._FastPoly("idempotent", field, support, degree)
    assert isinstance(fast.filter, nr_mod._Lanes) == (field.p == 2)
    ranges = [range(field.p ** len(fast.monomials))]
    survivors = nr_mod._idempotents(fast, ranges)
    findings = _idempotent_findings(fast, ranges)
    monkeypatch.setattr(nr_mod, "FILTER_POINTS", 0)
    unfiltered = nr_mod._FastPoly("idempotent", field, support, degree)
    assert unfiltered.filter.points == []
    admitted = nr_mod._idempotents(unfiltered, ranges)
    assert [index for index, _ in nr_mod._walk(fast, ranges)] == [index for index, _, _ in admitted]
    assert _idempotent_findings(unfiltered, ranges) == findings
    assert findings and len(survivors) - len(findings) <= 0.1 * (len(admitted) - len(findings))


@pytest.mark.parametrize("field, support, degree", FILTER_SPACES, ids=FILTER_IDS)
def test_idempotent_findings_use_no_fast_product(monkeypatch, field, support, degree):
    """Idempotent verdicts read neither _FastPoly.columns nor _FastPoly.mul: with both raising, the findings are unchanged."""
    fast = nr_mod._FastPoly("idempotent", field, support, degree)
    ranges = [range(field.p ** len(fast.monomials))]
    findings = _idempotent_findings(fast, ranges)

    def refuse(*args):
        raise AssertionError("an idempotent verdict read the integer fast path")

    monkeypatch.setattr(nr_mod._FastPoly, "columns", refuse)
    monkeypatch.setattr(nr_mod._FastPoly, "mul", refuse)
    assert findings and _idempotent_findings(fast, ranges) == findings
    assert exhaustive_search("idempotent", field, support, degree).findings == findings


def lane_rejections(fast, indices):
    """The indices that eps admits and the F2 lanes of ``fast`` reject, read off the lane masks of the whole space."""
    m = len(fast.monomials)
    passed = set(fast.filter.survivors([range(2**m)]))
    return [index for index in indices if admits(fast, nr_mod._index_to_digits(index, 2, m)) and index not in passed]


@pytest.mark.parametrize("field, support, degree", FILTER_SPACES, ids=FILTER_IDS)
def test_rejected_alphas_fail_at_their_rejecting_point(monkeypatch, field, support, degree):
    """Each rejection is a certificate: at a point of the filter, alpha star alpha and alpha evaluate apart.

    A seeded sample of alphas from the whole space is re-checked with the
    public elements, the generic star and the field's own arithmetic, at the
    points' coordinates on U = {e} u S u S.S in canonical order, without
    _FastPoly's tables or the filter's: at the rejecting point for odd p,
    and at one of the points for a rejection that the F2 lane masks give.
    Every alpha that the F2 lanes pass evaluates alike at every point, and
    with the first point alone the lanes pass exactly the alphas that eps
    admits and that evaluate alike there.
    """
    p, group = field.p, support.group
    monos = search_monomials(support, degree)
    universe = FiniteSubset(group, [group.identity(), *support, *support.product(support)])
    _, points = nr_mod.filter_points(p, len(universe), len(support), degree)
    values, L = FILTER_FIELDS[p].elements(), FILTER_FIELDS[p]
    xs = [{g: values[code] for g, code in zip(universe, point)} for point in points]
    fast = nr_mod._FastPoly("idempotent", field, support, degree)
    rng = random.Random(17)
    if p == 2:
        rejected = lane_rejections(fast, rng.sample(range(2 ** len(monos)), 200))
        assert len(rejected) >= 30
        for index in fast.filter.survivors([range(2 ** len(monos))]):
            digits = nr_mod._index_to_digits(index, 2, len(monos))
            alpha = NearRingElement(group, field, {u: field.one() for u, d in zip(monos, digits) if d})
            assert all(evaluate(alpha.star(alpha), x, L) == evaluate(alpha, x, L) for x in xs), digits
        monkeypatch.setattr(nr_mod, "FILTER_POINTS", 1)
        passed = set(nr_mod._FastPoly("idempotent", field, support, degree).filter.survivors([range(2 ** len(monos))]))
        for index in range(2 ** len(monos)):
            digits = nr_mod._index_to_digits(index, 2, len(monos))
            if admits(fast, digits):
                alpha = NearRingElement(group, field, {u: field.one() for u, d in zip(monos, digits) if d})
                assert (index in passed) == (evaluate(alpha.star(alpha), xs[0], L) == evaluate(alpha, xs[0], L)), digits
    checked = 0
    while checked < 30:
        if p == 2:
            index, at = rejected[checked], xs
        else:
            index = rng.randrange(p ** len(monos))
            point = fast.filter.rejecting_point(index, nr_mod._index_to_digits(index, p, len(monos)))
            if point is None:
                continue
            at = [xs[point]]
        digits = nr_mod._index_to_digits(index, p, len(monos))
        alpha = NearRingElement(group, field, {u: field.from_int(d) for u, d in zip(monos, digits) if d})
        assert any(evaluate(alpha.star(alpha), x, L) != evaluate(alpha, x, L) for x in at), digits
        checked += 1


def test_filter_points_follow_the_fixed_rule():
    """The points depend on (p, |U|, |S|, d) alone, have nonzero coordinates in the largest shipped extension, and F7 uses F7."""
    for p, L in FILTER_FIELDS.items():
        k, points = nr_mod.filter_points(p, 9, 3, 2)
        assert p**k == L.size() and len(points) == nr_mod.FILTER_POINTS
        assert all(len(x) == 9 and all(0 < c < p**k for c in x) for x in points)
        assert (k, points) == nr_mod.filter_points(p, 9, 3, 2) != nr_mod.filter_points(p, 9, 3, 1)
    k, points = nr_mod.filter_points(1021, 3, 1, 1)  # the largest prime of a search space, p^2 <= 2^20
    assert k == 1 and len(points) == nr_mod.FILTER_POINTS and all(0 < c < 1021 for x in points for c in x)


# -- the unit projection: F2 unit systems evaluated at points of GF(16) --------

UNIT_SPACES = [
    (support_pm1(), 1),
    (support_pm1(), 2),
    (FiniteSubset(Z2, [Z2.identity(), Z2.element((1, 0)), Z2.element((0, 1))]), 1),
    (FiniteSubset(Z2, [Z2.identity(), Z2.element((1, 0)), Z2.element((0, 1))]), 2),
    (ball(FREE2, 1), 1),
    (FiniteSubset(FREE2, [FREE2.identity(), *FREE2.generators()[::2]]), 2),
    (ball(cyclic_group(2), 1), 1),
    (ball(cyclic_group(2), 1), 2),
    (ball(cyclic_group(3), 1), 1),
    (ball(cyclic_group(3), 1), 2),
]
UNIT_IDS = ["zd:1-d1", "zd:1-d2", "zd:2-d1", "zd:2-d2", "free:2-d1", "free:2-d2", "cyclic:2-d1", "cyclic:2-d2", "cyclic:3-d1", "cyclic:3-d2"]


@pytest.mark.parametrize("support, degree", UNIT_SPACES, ids=UNIT_IDS)
def test_projected_unit_records_equal_unprojected(monkeypatch, support, degree):
    """The projection only skips betas that are no unit partner: the live records match lanes without points.

    Without points the lanes pass exactly the betas that the walk's eps test admits.
    """
    fast = nr_mod._FastPoly("unit", F2, support, degree)
    ranges = [range(2 ** len(fast.monomials))]
    rejected = lane_rejections(fast, ranges[0])
    records = nr_mod._live_betas(fast, ranges)
    monkeypatch.setattr(nr_mod, "unit_point_count", lambda m: 0)
    unprojected = nr_mod._FastPoly("unit", F2, support, degree)
    assert unprojected.filter.points == []
    assert list(unprojected.filter.survivors(ranges)) == [index for index, _ in nr_mod._walk(fast, ranges)]
    assert nr_mod._live_betas(unprojected, ranges) == records
    dead = sum(1 for _ in nr_mod._walk(fast, ranges)) - len(records)
    # a dead beta's orbit a*beta + c shares its columns' span, so on a few dead betas one orbit is a large share
    assert records and (dead < 16 or len(rejected) >= 0.9 * dead)


@pytest.mark.parametrize("support, degree", [UNIT_SPACES[i] for i in (1, 3, 5, 9)], ids=[UNIT_IDS[i] for i in (1, 3, 5, 9)])
def test_rejected_betas_have_no_projected_solution(support, degree):
    """Each rejection is a certificate: at the points, no F2 combination of the X^u star beta evaluates to X_e.

    30 distinct rejections of the lane masks, from a seeded sample of the
    whole space, are re-checked with the public elements, the generic star
    and the arithmetic of GF(16), at the points' coordinates on
    U = {e} u S u S.S in canonical order, without _FastPoly's tables or the
    filter's: each column is the digit vectors of ev_x(X^u star beta) over
    the points, and X_e's lies outside their span.  The representatives
    that the lanes pass, the first 10 of them, have X_e's inside it.
    """
    group, L = support.group, ExtensionField(2, 4)
    monos = search_monomials(support, degree)
    universe = FiniteSubset(group, [group.identity(), *support, *support.product(support)])
    _, points = nr_mod.filter_points(2, len(universe), len(support), degree, nr_mod.unit_point_count(len(monos)))
    values = L.elements()
    xs = [{g: values[code] for g, code in zip(universe, point)} for point in points]
    fast = nr_mod._FastPoly("unit", F2, support, degree)
    sample = random.Random(23).sample(range(2 ** len(monos)), 400)
    rejected = lane_rejections(fast, sample)[:30]
    passed = list(fast.filter.survivors(nr_mod._representatives(2, len(monos))))[:10]
    assert len(rejected) == 30 and passed
    for index in rejected + passed:
        digits = nr_mod._index_to_digits(index, 2, len(monos))
        beta = NearRingElement(group, F2, {u: F2.one() for u, d in zip(monos, digits) if d})
        products = [NearRingElement(group, F2, {u: F2.one()}).star(beta) for u in monos]
        columns = [tuple(c for x in xs for c in L.coefficients(evaluate(a, x, L))) for a in products]
        span = {(0,) * (4 * len(xs))}
        for column in columns:
            span |= {tuple((a + b) % 2 for a, b in zip(v, column)) for v in span}
        target = tuple(c for x in xs for c in L.coefficients(x[group.identity()]))
        assert (target in span) == (index in passed), digits


def test_unit_point_count_follows_the_fixed_rule():
    """ceil(m/4) + 1 points give at least m + 4 equations over F2; only F2 unit searches project, on the shared points."""
    for m in range(1, 64):
        count = nr_mod.unit_point_count(m)
        assert count == math.ceil(m / 4) + 1 and m + 4 <= 4 * count < m + 8
    support = support_pm1()
    fast = nr_mod._FastPoly("unit", F2, support, 2)
    count = nr_mod.unit_point_count(len(fast.monomials))
    assert len(fast.monomials) == 10 and count == 4 and len(fast.filter.points) == count
    _, points = nr_mod.filter_points(2, 5, 3, 2, count)  # U = {-2..2}
    assert points[: nr_mod.FILTER_POINTS] == nr_mod.filter_points(2, 5, 3, 2)[1]
    assert nr_mod._FastPoly("unit", F3, support, 2).filter is None
    assert nr_mod._FastPoly("zero_divisor", F2, support, 2).filter is None


# -- the F2 lanes: one int per bit plane, one bit per enumeration index --------


def lane_planes(values, bits):
    """The bit planes of per-lane values: plane b holds bit b of the value of lane l at bit l."""
    return tuple(sum((v >> b & 1) << lane for lane, v in enumerate(values)) for b in range(bits))


def test_bit_sliced_gf16_product_matches_the_field_tables():
    """All 256 products of GF(16) codes in one call, one pair per lane, equal exp[log a + log b]."""
    exp, log, _ = field_tables(2, 4)
    pairs = [(a, b) for a in range(16) for b in range(16)]
    product = nr_mod._gf16_times(lane_planes([a for a, _ in pairs], 4), lane_planes([b for _, b in pairs], 4))
    assert product == lane_planes([exp[log[a] + log[b]] if a and b else 0 for a, b in pairs], 4)


def test_oblivious_elimination_matches_a_span_per_lane():
    """_outside_span flags exactly the lanes whose last entry lies outside the span of the columns, by brute force."""
    rng = random.Random(31)
    for rows, m in ((6, 4), (8, 5), (9, 9), (5, 1)):
        lanes = 128
        # low-rank columns are common: each lane draws its columns from a few random vectors
        matrices = []
        for _ in range(lanes):
            basis = [rng.getrandbits(rows) for _ in range(rng.randrange(1, m + 2))]
            matrices.append([rng.choice(basis) for _ in range(m + 1)])
        table = [[sum((matrix[c] >> r & 1) << lane for lane, matrix in enumerate(matrices)) for c in range(m + 1)] for r in range(rows)]
        outside = nr_mod._outside_span(table, m, (1 << lanes) - 1)
        for lane, matrix in enumerate(matrices):
            span = {0}
            for column in matrix[:m]:
                span |= {v ^ column for v in span}
            assert (outside >> lane & 1) == (matrix[m] not in span)


LANE_SPACES = [
    ("unit", support_pm1(), 2),
    ("idempotent", support_pm1(), 2),
    ("unit", FiniteSubset(Z2, [Z2.identity(), Z2.element((1, 0)), Z2.element((0, 1))]), 2),
    ("idempotent", ball(cyclic_group(3), 1), 2),
    ("unit", ball(cyclic_group(2), 1), 2),
]


@pytest.mark.parametrize("bits", [1, 2, 5, nr_mod.LANE_BITS])
def test_lane_records_equal_at_every_block_size_and_chunk_cut(monkeypatch, bits):
    """Records and findings do not depend on LANE_BITS, nor on range cuts that fall inside a block.

    Seeded cuts split each round's ranges mid-block, and with WORK_MIN = 1
    the searches run in 2 and 3 pooled chunks, whose cuts fall anywhere.
    """
    rng = random.Random(bits)
    expected = []
    for kind, support, degree in LANE_SPACES:
        fast = nr_mod._FastPoly(kind, F2, support, degree)
        fn, ranges = (nr_mod._idempotents, [range(2 ** len(fast.monomials))]) if kind == "idempotent" else (nr_mod._live_betas, nr_mod._representatives(2, len(fast.monomials)))
        expected.append((fn, ranges, fn(fast, ranges), search_key(exhaustive_search(kind, F2, support, degree))))
    monkeypatch.setattr(nr_mod, "LANE_BITS", bits)
    monkeypatch.setattr(nr_mod, "WORK_MIN", 1)
    for (kind, support, degree), (fn, ranges, records, findings) in zip(LANE_SPACES, expected):
        fast = nr_mod._FastPoly(kind, F2, support, degree)
        assert fast.filter.bits == min(bits, len(fast.monomials)) and records
        indices = [index for r in ranges for index in r]
        cuts = sorted(rng.sample(range(1, len(indices)), 9))
        pieces = [range(indices[a], indices[b - 1] + 1) for a, b in zip([0, *cuts], [*cuts, len(indices)])]
        assert [record for piece in pieces for record in fn(fast, [piece])] == records
        for workers in (2, 3):
            assert search_key(exhaustive_search(kind, F2, support, degree, workers=workers)) == findings


def test_f2_unit_and_idempotent_searches_run_on_lanes(monkeypatch):
    """Over F2, unit and idempotent searches read neither the per-index walk nor a Zech logarithm."""
    spaces = [(kind, F2, support_pm1(), 2) for kind in ("unit", "idempotent")]
    expected = [search_key(exhaustive_search(*space)) for space in spaces]

    def refuse(*args):
        raise AssertionError("an F2 search left the lanes")

    monkeypatch.setattr(nr_mod, "_walk", refuse)
    monkeypatch.setattr(nr_mod, "log_add", refuse)
    assert [search_key(exhaustive_search(*space)) for space in spaces] == expected
    with pytest.raises(AssertionError, match="left the lanes"):
        exhaustive_search("zero_divisor", F2, support_pm1(), 2)


def test_idempotent_search_over_fifteen_monomials_within_one_second():
    """zd:1 support {-2..1} at degree 2 (m = 15, 12 288 alphas past eps) keeps its 3 idempotents."""
    support = FiniteSubset(Z, [zel(n) for n in range(-2, 2)])
    with cpu_budget(1.0):
        result = exhaustive_search("idempotent", F2, support, 2)
    assert len(result.monomials) == 15 and len(result.findings) == 3


def test_monomials_with_huge_exponents_of_two_hash_apart():
    """Ints hash modulo 2^61 - 1, so 2^j repeats every 61 values of j; the monomials X^(2^j) must not."""
    vectors = [ExponentVector.unit(zel(0), 2**j) for j in range(300)]
    assert len({hash(u) for u in vectors}) == 300
    assert ExponentVector.unit(zel(0), 2**100) == ExponentVector(Z, {zel(0): 2**100})
    assert hash(ExponentVector.unit(zel(0), 2**100)) == hash(ExponentVector(Z, {zel(0): 2**100}))


def test_exponent_texts_hold_at_most_exponent_digits():
    """An exponent of EXPONENT_DIGITS digits prints; one more digit is a NearRingError, not the interpreter's refusal."""
    assert EXPONENT_DIGITS == 4300
    widest = 10**EXPONENT_DIGITS - 1
    assert ExponentVector.unit(zel(0), widest).text({}) == "X[(0)]^" + "9" * EXPONENT_DIGITS
    with pytest.raises(NearRingError, match="more than 4300 digits"):
        ExponentVector.unit(zel(0), widest + 1).text({})
    with pytest.raises(NearRingError, match="more than 4300 digits"):
        format_element(NearRingElement.variable(zel(1), F2, 2**16383))
