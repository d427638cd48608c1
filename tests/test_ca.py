import itertools
import random
from fractions import Fraction

import pytest

from support import from_ints, rand_group_ring, rand_near_ring, random_cell_value

from groupca.ca import (
    CAError,
    CellularAutomaton,
    LinearRule,
    Pattern,
    PolynomialRule,
    TableRule,
    ca_from_group_ring,
    ca_from_polynomial,
    compose,
    group_ring_of,
    pattern_from_json,
    pattern_to_json,
    rule_from_json,
    rule_to_json,
)
from groupca.group_ring import GroupRingElement
from groupca.groups import FiniteSubset, ZdGroup, ball
from groupca.near_ring import NearRingElement
from groupca.rings import QQ, ExactMatrix, PrimeField

Z = ZdGroup(1)
F3, F5, F7 = PrimeField(3), PrimeField(5), PrimeField(7)


def zel(n):
    return Z.element((n,))


def X(n, e=1, field=QQ):
    return NearRingElement.variable(zel(n), field, e)


def fsub(*ns):
    return FiniteSubset(Z, [zel(n) for n in ns])


def qpat(pairs):
    vals = {zel(k): Fraction(v) for k, v in pairs.items()}
    return Pattern(FiniteSubset(Z, vals), vals)


def pair_tau_sigma():
    ident = ExactMatrix.identity(QQ, 2)
    upper = from_ints(QQ, [[0, 1], [0, 0]])
    tau = CellularAutomaton(Z, LinearRule(2, QQ, {zel(0): ident, zel(1): upper}))
    sigma = CellularAutomaton(Z, LinearRule(2, QQ, {zel(0): ident, zel(1): -upper}))
    return tau, sigma


def test_apply_window_shift_rule():
    ca = ca_from_polynomial(X(1))
    p = qpat({0: 5, 1: 7, 2: 9})
    out = ca.apply_window(p, "plus", fsub(0, 1))
    assert out[zel(0)] == 5 + 2 and out[zel(1)] == 9


def test_apply_window_table_identity_is_restriction():
    memory = fsub(0)
    rule = TableRule([0, 1], memory, {(0,): 0, (1,): 1})
    ca = CellularAutomaton(Z, rule)
    vals = {zel(0): 1, zel(1): 0, zel(2): 1}
    p = Pattern(fsub(0, 1, 2), vals)
    out = ca.apply_window(p, "plus", fsub(0, 1, 2))
    assert out.values == vals
    out2 = ca.apply_window(p, "minus")
    assert out2.values == vals


def test_apply_window_linear_pair_example():
    tau, _ = pair_tau_sigma()
    p = Pattern(
        fsub(0, 1),
        {zel(0): (Fraction(1), Fraction(2)), zel(1): (Fraction(3), Fraction(4))},
    )
    out = tau.apply_window(p, "plus", fsub(0))
    assert out[zel(0)] == (Fraction(5), Fraction(2))


def test_interior_of_a_memory_without_the_identity_leaves_the_window():
    """The M-interior {g : gM in Omega} is not inside Omega when e is not in M."""
    shift = ca_from_polynomial(X(1))
    p = qpat({0: 5, 1: 7, 2: 9})
    expected = {zel(-1): 5, zel(0): 7, zel(1): 9}
    assert shift.apply_interior(p).values == expected
    assert shift.apply_window(p, "minus").values == expected


def test_apply_window_domain_mismatch():
    ca = ca_from_polynomial(X(1))
    with pytest.raises(CAError):
        ca.apply_window(qpat({0: 1}), "plus", fsub(0, 1))


def test_compose_shifts_to_identity():
    left = ca_from_polynomial(X(1, field=QQ))
    right = ca_from_polynomial(X(-1, field=QQ))
    comp = compose(left, right)
    assert comp.rule.poly == X(0)


def test_compose_pair_both_orders_identity():
    tau, sigma = pair_tau_sigma()
    for a, b in ((tau, sigma), (sigma, tau)):
        comp = compose(a, b)
        assert group_ring_of(comp).is_identity()


def test_compose_polynomial_matches_star():
    a = ca_from_polynomial(X(0, 2))
    b = ca_from_polynomial(X(1))
    comp = compose(a, b)
    assert comp.rule.poly == X(1, 2)
    assert comp.rule.poly == X(0, 2).star(X(1))


def test_compose_agrees_with_chained_windows():
    rng = random.Random(0)
    for _ in range(30):
        a = rand_near_ring(Z, F7, rng, radius=1, max_degree=2, nonzero=True)
        b = rand_near_ring(Z, F7, rng, radius=1, max_degree=2, nonzero=True)
        ca_a, ca_b = ca_from_polynomial(a), ca_from_polynomial(b)
        comp = compose(ca_a, ca_b)
        domain = ball(Z, 3)
        p = Pattern(domain, {g: F7.from_int(rng.randrange(7)) for g in domain})
        mid = ca_b.apply_interior(p)
        chained = ca_a.apply_interior(mid)
        direct = comp.apply_interior(p)
        common = chained.domain.intersection(direct.domain)
        for g in common:
            assert chained[g] == direct[g]


def test_compose_table_rules():
    memory = fsub(0, 1)
    alphabet = [0, 1]
    xor = {k: (k[0] + k[1]) % 2 for k in itertools.product(alphabet, repeat=2)}
    ca = CellularAutomaton(Z, TableRule(alphabet, memory, xor))
    comp = compose(ca, ca)
    assert set(comp.memory_set()) == set(fsub(0, 1, 2))
    vals = {zel(i): v for i, v in enumerate([1, 0, 1, 1, 0])}
    p = Pattern(FiniteSubset(Z, vals), vals)
    step1 = ca.apply_interior(p)
    step2 = ca.apply_interior(step1)
    direct = comp.apply_interior(p)
    for g in step2.domain:
        assert direct[g] == step2[g]


def test_phi_window_evaluation_examples():
    sq = ca_from_polynomial(NearRingElement.variable(zel(0), F5, 2))
    p = Pattern(fsub(0), {zel(0): F5.from_int(3)})
    out = sq.apply_window(p, "plus", fsub(0))
    assert out[zel(0)] == F5.from_int(4)


def test_phi_matches_direct_formula_on_random_windows():
    rng = random.Random(1)
    alpha = X(1, field=QQ) ** 3 * X(0, field=QQ) + NearRingElement.one(Z, QQ)
    ca = ca_from_polynomial(alpha)
    for _ in range(50):
        vals = {zel(i): Fraction(rng.randint(-3, 3)) for i in range(-1, 4)}
        p = Pattern(FiniteSubset(Z, vals), vals)
        out = ca.apply_interior(p)
        for g in out.domain:
            # direct evaluation: sum over monomials of prod x(g*h)^e
            acc = Fraction(0)
            for u, c in alpha.terms.items():
                term = c
                for h, e in u.items:
                    term *= vals[g * h] ** e
                acc += term
            assert out[g] == acc


def test_phi_multiplicative_on_windows():
    rng = random.Random(2)
    for field, span in ((F7, 7), (QQ, 9)):
        for _ in range(50):
            a = rand_near_ring(Z, field, rng, radius=1, max_degree=2, nonzero=True)
            b = rand_near_ring(Z, field, rng, radius=1, max_degree=2, nonzero=True)
            ca_ab = ca_from_polynomial(a.star(b))
            ca_a, ca_b = ca_from_polynomial(a), ca_from_polynomial(b)
            domain = ball(Z, 3)
            if field is QQ:
                p = Pattern(domain, {g: Fraction(rng.randint(-4, 4)) for g in domain})
            else:
                p = Pattern(domain, {g: field.from_int(rng.randrange(span)) for g in domain})
            chained = ca_a.apply_interior(ca_b.apply_interior(p))
            direct = ca_ab.apply_interior(p)
            common = chained.domain.intersection(direct.domain)
            assert len(common) > 0
            for g in common:
                assert chained[g] == direct[g]


def test_phi_identity_ca():
    ident = ca_from_polynomial(NearRingElement.identity(Z, QQ))
    p = qpat({0: 3, 1: -1})
    out = ident.apply_window(p, "plus", fsub(0, 1))
    assert out.values == p.values


def test_phi_injective_over_q_and_not_over_fp():
    rng = random.Random(3)
    # over the rationals, distinct representations act differently somewhere
    for _ in range(50):
        a = rand_near_ring(Z, QQ, rng, radius=1, max_degree=2)
        b = rand_near_ring(Z, QQ, rng, radius=1, max_degree=2)
        if a == b:
            continue
        diff_found = False
        window = fsub(0)
        for attempt in range(60):
            domain = ball(Z, 2)
            p = Pattern(domain, {g: Fraction(rng.randint(-6, 6)) for g in domain})
            oa = ca_from_polynomial(a).apply_window(p, "plus", window)
            ob = ca_from_polynomial(b).apply_window(p, "plus", window)
            if oa[zel(0)] != ob[zel(0)]:
                diff_found = True
                break
        assert diff_found
    # over F_p the map on configurations is not injective on representations
    p_char = 3
    Fp = PrimeField(p_char)
    lhs = ca_from_polynomial(NearRingElement.variable(zel(0), Fp, p_char))
    rhs = ca_from_polynomial(NearRingElement.variable(zel(0), Fp, 1))
    assert lhs.rule.poly != rhs.rule.poly
    for v in range(p_char):
        pat = Pattern(fsub(0), {zel(0): Fp.from_int(v)})
        assert lhs.apply_interior(pat).values == rhs.apply_interior(pat).values


def test_psi_examples():
    ident_elem = GroupRingElement.identity(Z, QQ, shape=2)
    ca = ca_from_group_ring(ident_elem)
    p = Pattern(fsub(0, 1), {zel(0): (Fraction(1), Fraction(2)), zel(1): (Fraction(0), Fraction(5))})
    out = ca.apply_window(p, "plus", fsub(0, 1))
    assert out.values == p.values
    assert group_ring_of(ca) == ident_elem


def test_psi_multiplicative_random():
    rng = random.Random(4)
    domain = ball(Z, 3)
    for _ in range(50):
        a = rand_group_ring(Z, F3, rng, radius=1, shape=2)
        b = rand_group_ring(Z, F3, rng, radius=1, shape=2)
        ca_ab = ca_from_group_ring(a * b)
        ca_a, ca_b = ca_from_group_ring(a), ca_from_group_ring(b)
        p = Pattern(
            domain,
            {g: (F3.from_int(rng.randrange(3)), F3.from_int(rng.randrange(3))) for g in domain},
        )
        chained = ca_a.apply_interior(ca_b.apply_interior(p))
        direct = ca_ab.apply_interior(p)
        common = chained.domain.intersection(direct.domain)
        for g in common:
            assert chained[g] == direct[g]
    assert ca_from_group_ring(a * b).memory_set() == (a * b).support()


def test_locality_probe():
    rng = random.Random(5)
    alpha = X(1, field=F5) * X(0, field=F5)
    ca = ca_from_polynomial(alpha)
    domain = ball(Z, 2)
    base = {g: F5.from_int(rng.randrange(5)) for g in domain}
    ref = ca._evaluate_at(Pattern(domain, base), zel(0))
    for g in domain:
        if g in (zel(0), zel(1)):
            continue
        for v in range(5):
            changed = dict(base)
            changed[g] = F5.from_int(v)
            assert ca._evaluate_at(Pattern(domain, changed), zel(0)) == ref


def _translated(pattern, g):
    """The shifted pattern (g p)(h) = p(g^-1 h) on the domain g*domain."""
    values = {g * h: v for h, v in pattern.values.items()}
    return Pattern(FiniteSubset(pattern.domain.group, values), values)


def _shift_mismatch(ca, samples, seed, radius=2):
    """A (shift, point) where stepping a shifted pattern differs from shifting the stepped one, or None."""
    rng = random.Random(seed)
    group = ca.group
    shifts = list(ball(group, radius))
    domain = ball(group, radius).product(ca.memory_set().union([group.identity()]))
    for _ in range(samples):
        pattern = Pattern(domain, {g: random_cell_value(ca.rule, rng) for g in domain})
        g = shifts[rng.randrange(len(shifts))]
        shifted_out = ca.apply_interior(_translated(pattern, g))
        expected = _translated(ca.apply_interior(pattern), g)
        for h in shifted_out.domain.intersection(expected.domain):
            if shifted_out[h] != expected[h]:
                return g, h
    return None


def test_equivariance_pass_and_fail():
    assert _shift_mismatch(ca_from_polynomial(X(1)), samples=20, seed=0) is None
    tau, _ = pair_tau_sigma()
    assert _shift_mismatch(tau, samples=100, seed=1) is None

    class PositionDependent(CellularAutomaton):
        def _evaluate_at(self, pattern, g):
            value = super()._evaluate_at(pattern, g)
            if g == self.group.element((0,)):
                return value + Fraction(1)
            return value

    assert _shift_mismatch(PositionDependent(Z, PolynomialRule(X(0))), samples=50, seed=2) is not None


def test_rule_json_round_trips():
    tau, _ = pair_tau_sigma()
    doc = rule_to_json(tau)
    back = rule_from_json(doc)
    assert group_ring_of(back) == group_ring_of(tau)

    poly_ca = ca_from_polynomial(X(1) ** 2 - X(0))
    doc = rule_to_json(poly_ca)
    assert rule_from_json(doc).rule.poly == poly_ca.rule.poly

    table = CellularAutomaton(Z, TableRule([0, 1], fsub(0, 1), {
        k: (k[0] + k[1]) % 2 for k in itertools.product([0, 1], repeat=2)
    }))
    doc = rule_to_json(table)
    back = rule_from_json(doc)
    assert back.rule.mapping == table.rule.mapping


def test_pattern_json_round_trip():
    tau, _ = pair_tau_sigma()
    p = Pattern(fsub(0, 1), {zel(0): (Fraction(1), Fraction(-2)), zel(1): (Fraction(0), Fraction(4))})
    doc = pattern_to_json(p, tau)
    assert pattern_from_json(doc, tau) == p


def test_rule_kinds_own_their_values_and_payloads():
    tau, _ = pair_tau_sigma()
    table = CellularAutomaton(Z, TableRule(["x", "y"], fsub(1), {("x",): "y", ("y",): "x"}))
    zero = CellularAutomaton(Z, LinearRule(1, QQ, {}))
    rng = random.Random(6)
    for ca in (tau, ca_from_polynomial(X(1, field=F5) ** 2), table, zero):
        rule = ca.rule
        for _ in range(10):
            value = random_cell_value(rule, rng)
            assert rule.parse_value(rule.format_value(value)) == value
        assert type(rule).from_payload(Z, rule.payload()).payload() == rule.payload()
        assert rule_to_json(rule_from_json(rule_to_json(ca))) == rule_to_json(ca)
    # a zero symbol names no group: the automaton supplies it, and every output is zero
    assert zero.memory_set() == FiniteSubset(Z, [])
    p = Pattern(fsub(0, 1), {zel(0): (Fraction(1),), zel(1): (Fraction(2),)})
    assert zero.apply_interior(p).values == {zel(0): (0,), zel(1): (0,)}


def test_compose_variant_mismatch():
    tau, _ = pair_tau_sigma()
    with pytest.raises(CAError):
        compose(tau, ca_from_polynomial(X(0)))
