import contextlib
import itertools
import json
import math
import random
import signal
from fractions import Fraction

import pytest
import sympy

from support import cyclic_group, field_scalar, rand_exponent_vector, rand_group_ring, rand_near_ring, solve_reduced

import groupca.near_ring as nr_mod
from groupca.group_ring import GroupRingElement, TwistedGroupRingElement
from groupca.groups import FiniteSubset, FreeGroup, LexOrder, MagnusOrder, ZdGroup, ball
from groupca.near_ring import (
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
    exp_convolve,
    leading_term,
    polynomial_apply,
    search_monomials,
    shift,
    star,
)
from groupca.rings import QQ, ExtensionField, PrimeField, TwistedPoly, rank_kernel_sparse

Z = ZdGroup(1)
Z2 = ZdGroup(2)
FREE2 = FreeGroup(2)
F2, F3, F5 = PrimeField(2), PrimeField(3), PrimeField(5)
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
    assert exp_convolve(u, v) == ev({5: 1})


def test_exp_convolve_scaled_dirac():
    assert exp_convolve(ev({0: 2}), ev({1: 1})) == ev({1: 2})


def test_exp_convolve_example_direct_sum_oracle():
    u = ev({0: 1, 1: 1})
    out = exp_convolve(u, u)
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
    assert shift(zel(1), a) == NearRingElement(Z, QQ, {ev({1: 2, 3: 1}): Fraction(1)})
    c = const(7)
    assert shift(zel(5), c) == c


def test_shift_is_group_action():
    rng = random.Random(1)
    for _ in range(100):
        a = rand_near_ring(Z2, F5, rng)
        g = Z2.element((rng.randint(-2, 2), rng.randint(-2, 2)))
        h = Z2.element((rng.randint(-2, 2), rng.randint(-2, 2)))
        assert shift(g, shift(h, a)) == shift(g * h, a)
        assert shift(g.inverse(), shift(g, a)) == a


# -- star ----------------------------------------------------------------


def to_sympy(a: NearRingElement):
    expr = 0
    for u, c in a.terms.items():
        term = sympy.Rational(c) if isinstance(c, Fraction) else sympy.Integer(c.v)
        for g, e in u.items:
            term *= sympy.Symbol("x_%d" % g.value[0]) ** e
        expr += term
    return sympy.expand(expr)


def sympy_star(a: NearRingElement, b: NearRingElement):
    """Independent oracle: star is substitution X_g := shift(g, b)."""
    expr = 0
    for u, c in a.terms.items():
        term = sympy.Rational(c) if isinstance(c, Fraction) else sympy.Integer(c.v)
        for g, e in u.items:
            term *= to_sympy(shift(g, b)) ** e
        expr += term
    return sympy.expand(expr)


def test_star_worked_example():
    alpha = NearRingElement(Z, QQ, {ev({1: 3, 0: 1}): Fraction(1)}) + const(1)
    beta = X(2, 2) - X(3, 2)
    prod = star(alpha, beta)
    expected = (X(3, 2) - X(4, 2)) ** 3 * (X(2, 2) - X(3, 2)) + const(1)
    assert prod == expected
    assert to_sympy(prod) == sympy_star(alpha, beta)
    reverse = star(beta, alpha)
    expected_rev = (X(3, 1) ** 3 * X(2) + const(1)) ** 2 - (X(4) ** 3 * X(3) + const(1)) ** 2
    assert reverse == expected_rev


def test_star_identity_element():
    rng = random.Random(2)
    ident = NearRingElement.identity(Z, QQ)
    for _ in range(100):
        a = rand_near_ring(Z, QQ, rng)
        assert star(ident, a) == a
        assert star(a, ident) == a


def test_star_one_absorbs():
    rng = random.Random(3)
    one = NearRingElement.one(Z2, F5)
    for _ in range(100):
        a = rand_near_ring(Z2, F5, rng)
        assert star(one, a) == one
        assert star(a, one) == NearRingElement.constant(Z2, F5, a.coefficient_sum())


def test_constant_minus_and_star_one_is_zero():
    a = X(0) - const(1)
    assert not star(a, const(1))


def test_star_against_sympy_oracle():
    rng = random.Random(4)
    for _ in range(60):
        a = rand_near_ring(Z, QQ, rng, radius=1, max_degree=3)
        b = rand_near_ring(Z, QQ, rng, radius=1, max_degree=2)
        assert to_sympy(star(a, b)) == sympy_star(a, b)


def test_star_left_distributive_right_fails():
    rng = random.Random(5)
    for _ in range(200):
        a = rand_near_ring(Z2, QQ, rng)
        b = rand_near_ring(Z2, QQ, rng)
        c = rand_near_ring(Z2, QQ, rng)
        assert star(a + b, c) == star(a, c) + star(b, c)
    # recorded witness for the failure of right distributivity
    sq = X(0, 2)
    lhs = star(sq, X(0) + X(0))
    rhs = star(sq, X(0)) + star(sq, X(0))
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
                assert star(star(a, b), c) == star(a, star(b, c))


def test_polynomial_apply():
    a = X(0)
    assert polynomial_apply([QQ.zero(), QQ.one()], a) == a  # P = x
    p_sq_minus = [QQ.zero(), -QQ.one(), QQ.one()]  # x^2 - x
    assert not polynomial_apply(p_sq_minus, X(0))
    a2 = NearRingElement.variable(zel(0), F2) + NearRingElement.one(Z, F2)
    out = polynomial_apply([F2.zero(), F2.one(), F2.one()], a2)  # x^2 + x = x^2 - x
    assert out == NearRingElement.one(Z, F2)
    with pytest.raises(NearRingError):
        polynomial_apply([], a)


def test_term_cap_guard(monkeypatch):
    monkeypatch.setattr(nr_mod, "TERM_CAP", 5)
    big = sum((X(i) for i in range(1, 4)), X(0))
    with pytest.raises(TermCapExceeded):
        star(big ** 3, big)


class _OverBudget(Exception):
    """Not an input error, so run_job does not turn it into exit 2."""


@contextlib.contextmanager
def _wall_budget(seconds):
    def expire(signum, frame):
        raise _OverBudget("over the %g s wall budget" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_power_size_bound_rejects_before_expanding(capsys):
    from groupca.cli import run_job

    argv = ["star", "--group", "zd:1", "--field", "q", "--alpha", "X[(1)]^99999", "--beta", "X[(0)] + X[(1)] + X[(2)]"]
    with _wall_budget(2.0):
        assert run_job(argv) == 2
    assert capsys.readouterr().err.startswith("error: a 3-term polynomial to the power 99999")
    # C(29, 9) > TERM_CAP, but every exponent of (1 + X + ... + X^9)^20 fits in [0, 180]
    p = sum((NearRingElement.variable(zel(0), QQ, e) for e in range(1, 10)), NearRingElement.one(Z, QQ))
    with _wall_budget(2.0):
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


def test_char_p_powers_go_by_base_p_digits(capsys):
    """X[(0)]^(p^k) star a sum of variables is the sum of their p^k-th powers, in well under 2 s."""
    from groupca.cli import run_job

    cases = [("f2", 2**20, 2), ("f3", 3**8, 3), ("f3", 3**6, 3), ("f5", 5**4, 3)]
    for field, n, k in cases:
        beta = " + ".join("X[(%d)]" % i for i in range(k))
        argv = ["star", "--group", "zd:1", "--field", field, "--alpha", "X[(0)]^%d" % n, "--beta", beta]
        with _wall_budget(2.0):
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
    with _wall_budget(2.0):
        assert run_job(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["element"], report["image"]) == ("[(2000000)]", "X[(2000000)]")


def _top_exponents(p):
    top = {}
    for u in p.terms:
        for g, e in u.items:
            top[g] = max(e, top.get(g, 0))
    return top


def test_product_size_bound_matches_its_formula(monkeypatch):
    """a * b raises exactly when min(|a|*|b|, prod_g (m_g(a) + m_g(b) + 1)) exceeds the cap."""
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
                size = len(star(alpha, beta).terms)
            except TermCapExceeded as exc:  # before any factor is expanded
                assert bound > cap and str(exc).startswith("substituting")
            else:
                assert bound <= cap and size <= bound


def test_product_size_bounds_stop_large_products_early():
    """Products whose factors each pass their own size bound exit 2 well under 2 s."""
    from groupca.cli import run_job

    stars = ["star", "--group", "zd:1", "--field", "q", "--alpha", "X[(0)]^700*X[(1)]^700", "--beta", "X[(0)]+X[(1)]+X[(2)]"]
    embed = ["embed", "--group", "zd:1", "--field", "q", "--kind", "iota", "--element", "([(0)]+[(1)])^20000"]
    for argv in (stars, embed):
        with _wall_budget(2.0):
            assert run_job(argv) == 2


def test_char_p_group_ring_powers_are_not_refused(capsys):
    """In characteristic p, (a+b)^(p^k) = a^(p^k) + b^(p^k) keeps the power chain small."""
    from groupca.cli import run_job

    cases = [("f2", 2**20, 2), ("f2", 2**20, 3), ("f3", 3**8, 2)]
    for field, n, k in cases:
        element = "(%s)^%d" % ("+".join("[(%d)]" % i for i in range(k)), n)
        argv = ["embed", "--group", "zd:1", "--field", field, "--kind", "iota", "--element", element]
        with _wall_budget(2.0):
            assert run_job(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["element"] == " + ".join(["1"] + ["[(%d)]" % (i * n) for i in range(1, k)])


# -- embeddings ----------------------------------------------------------


def test_embed_group_ring_examples():
    g = GroupRingElement(Z, QQ, {zel(3): Fraction(1)})
    assert embed_group_ring(g) == X(3)
    assert not embed_group_ring(GroupRingElement.zero(Z, QQ))
    one_plus = GroupRingElement(Z, QQ, {zel(0): Fraction(1), zel(1): Fraction(1)})
    one_minus = GroupRingElement(Z, QQ, {zel(0): Fraction(1), zel(1): Fraction(-1)})
    lhs = embed_group_ring(one_plus * one_minus)
    rhs = star(embed_group_ring(one_plus), embed_group_ring(one_minus))
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
        assert embed_group_ring(a * b) == star(embed_group_ring(a), embed_group_ring(b))
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
    assert both == star(embed_twisted(tg), embed_twisted(th))
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
            assert embed_twisted(a * b) == star(embed_twisted(a), embed_twisted(b))
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
    cp, up = leading_term(star(alpha, beta), order)
    assert up == exp_convolve(ua, ub)
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
                cp, up = leading_term(star(a, b), order)
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


def test_search_space_cap():
    with pytest.raises(NearRingError):
        exhaustive_search("unit", F5, support_pm1(), 4, space_cap=100)
    with pytest.raises(NearRingError):
        exhaustive_search("unit", QQ, support_pm1(), 2)
    with pytest.raises(NearRingError):
        exhaustive_search("nonsense", F2, support_pm1(), 1)


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
            if star(a, a) == a:
                out.append(a)
        return out
    for b in space:
        for a in space:
            p = star(a, b)
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


def search_key(result):
    return [(repr(f.alpha), repr(f.beta), f.classification) for f in result.findings]


def test_search_deterministic_across_workers():
    res1 = exhaustive_search("unit", F2, support_pm1(), 2, workers=1)
    res4 = exhaustive_search("unit", F2, support_pm1(), 2, workers=4)
    assert search_key(res1) == search_key(res4)
    support = ball(cyclic_group(2), 1)
    res1 = exhaustive_search("zero_divisor", F2, support, 2, workers=1)
    res3 = exhaustive_search("zero_divisor", F2, support, 2, workers=3)
    assert res1.findings and search_key(res1) == search_key(res3)


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


def _combine(columns, coeffs, p):
    out = {}
    for col, c in zip(columns, coeffs):
        for m, x in col.items():
            out[m] = (out.get(m, 0) + c * x) % p
    return {m: x for m, x in out.items() if x}


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_solve_mod_p_matches_generic_elimination(p):
    """The search kernel's plain-int solver against rank_kernel_sparse over F_p."""
    field = PrimeField(p)
    rng = random.Random(p)
    seen = {True: 0, False: 0}
    for _ in range(750):
        keys = rng.sample(range(100), rng.randint(1, 6))
        columns = []
        for _ in range(rng.randint(1, 7)):
            if columns and rng.random() < 0.3:  # forced dependent column
                col = _combine(columns, [rng.randrange(p) for _ in columns], p)
            else:
                col = {m: rng.randrange(1, p) for m in rng.sample(keys, len(keys)) if rng.random() < 0.5}
            columns.append(col)
        if rng.random() < 0.5:
            target = _combine(columns, [rng.randrange(p) for _ in columns], p)
        else:
            target = {m: rng.randrange(1, p) for m in keys if rng.random() < 0.5}
        ncols = len(columns)
        rows = [{j: field.from_int(col[m]) for j, col in enumerate(columns) if m in col} for m in keys]
        rhs = [field.from_int(target.get(m, 0)) for m in keys]
        rank, basis = rank_kernel_sparse(field, [dict(r) for r in rows], ncols)
        with_b = [{**row, ncols: v} if v else row for row, v in zip(rows, rhs)]
        full_rank, _ = rank_kernel_sparse(field, with_b, ncols + 1, want_kernel=False)
        got = nr_mod._solve_mod_p(columns, target, p)
        x = solve_reduced(field, rows, rhs, ncols)
        assert (got is None) == (x is None) == (rank < full_rank)
        seen[got is None] += 1
        if got is not None:
            particular, kernel = got
            assert kernel == [[v.v for v in vec] for vec in basis]
            assert particular == [v.v for v in x]
    assert min(seen.values()) > 150


def test_finding_dataclass_shape():
    res = exhaustive_search("idempotent", F2, support_pm1(), 1)
    assert all(isinstance(f, Finding) for f in res.findings)
    assert res.space_size == 2 ** len(res.monomials)
