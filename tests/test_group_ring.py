import itertools
import random

import pytest

import groupca.group_ring as gr_mod

from support import cyclic_group, field_scalar, from_ints, rand_group_ring

from groupca.expressions import format_element
from groupca.group_ring import (
    GroupRingElement,
    GroupRingError,
    TwistedGroupRingElement,
)
from groupca.groups import FreeGroup, ZdGroup, ball
from groupca.rings import QQ, ExactMatrix, ExtensionField, PrimeField, TwistedPoly

Z = ZdGroup(1)
Z2 = ZdGroup(2)
F2, F3 = PrimeField(2), PrimeField(3)


def zel(n):
    return Z.element((n,))


def scalar_elem(group, field, terms):
    return GroupRingElement(group, field, {group.element(v): field.from_int(c) for v, c in terms.items()})


def test_convolve_telescoping():
    one_plus_g = scalar_elem(Z, QQ, {(0,): 1, (1,): 1})
    one_minus_g = scalar_elem(Z, QQ, {(0,): 1, (1,): -1})
    prod = one_plus_g * one_minus_g
    assert prod == scalar_elem(Z, QQ, {(0,): 1, (2,): -1})
    assert {e.value[0] for e in prod.support()} == {0, 2}


def test_product_size_check(monkeypatch):
    """A group-ring product raises exactly when |supp a| * |supp b| exceeds the cap."""
    monkeypatch.setattr(gr_mod, "TERM_CAP", 6)
    rng = random.Random(4)
    for _ in range(100):
        a, b = (rand_group_ring(Z2, QQ, rng, max_terms=4) for _ in range(2))
        if len(a.coeffs) * len(b.coeffs) > 6:
            with pytest.raises(GroupRingError):
                a * b
        else:
            assert set((a * b).coeffs) <= {g * h for g in a.coeffs for h in b.coeffs}
    # (1 + t)^i has i + 1 terms; the chain of the 5th power is 2*2, 3*3, 2*5
    monkeypatch.setattr(gr_mod, "TERM_CAP", 10)
    one_plus_t = scalar_elem(Z, QQ, {(0,): 1, (1,): 1})
    assert len((one_plus_t**5).coeffs) == 6
    for n in (6, 8):  # 3*5 and 5*5, refused before the chain starts
        with pytest.raises(GroupRingError, match="to the power"):
            one_plus_t**n
    # cancellation keeps these chains small, so only the product rule applies
    assert len((scalar_elem(Z, F2, {(0,): 1, (1,): 1}) ** 8).coeffs) == 2
    upper = from_ints(QQ, [[0, 1], [0, 0]])
    nilpotent = GroupRingElement(Z, QQ, {zel(0): upper, zel(1): upper}, shape=2)
    assert not nilpotent**8


def test_power_size_check_on_commuting_supports(monkeypatch):
    """On a free group a power is checked up front when its terms commute, by Z^1's box on the exponents of their root word."""
    monkeypatch.setattr(gr_mod, "TERM_CAP", 10)
    free = FreeGroup(2)
    a, b = free.parse_element("a"), free.parse_element("b")
    one_plus_a = GroupRingElement(free, QQ, {free.identity(): QQ.one(), a: QQ.one()})
    assert len((one_plus_a**5).coeffs) == 6
    for n in (6, 8):
        with pytest.raises(GroupRingError, match="to the power"):
            one_plus_a**n
    a_plus_a2 = GroupRingElement(free, QQ, {a: QQ.one(), a * a: QQ.one()})
    with pytest.raises(GroupRingError, match="to the power"):
        a_plus_a2**6
    # a and b do not commute: (a + b)^6 stops at the product rule, 4 * 4 > 10
    a_plus_b = GroupRingElement(free, QQ, {a: QQ.one(), b: QQ.one()})
    with pytest.raises(GroupRingError, match="a product of 4 and 4 terms"):
        a_plus_b**6
    # three commuting terms: (1 + x + x^2)^i has 2i + 1 terms, so x^3's chain needs 3 * 3, then 3 * 5 > 10
    free1 = FreeGroup(1)
    x = free1.parse_element("a")
    one_x_x2 = GroupRingElement(free1, QQ, {free1.identity(): QQ.one(), x: QQ.one(), x * x: QQ.one()})
    assert len((one_x_x2**2).coeffs) == 5
    with pytest.raises(GroupRingError, match="3-term element to the power 3"):
        one_x_x2**3
    monkeypatch.setattr(gr_mod, "TERM_CAP", 10**6)
    assert len((one_x_x2**100).coeffs) == 201
    monkeypatch.setattr(gr_mod, "TERM_CAP", 10)
    # on a finite group the supports stay within the group: 3 * 3 products only
    c3 = cyclic_group(3)
    assert len((GroupRingElement(c3, QQ, {c3.element(0): QQ.one(), c3.element(1): QQ.one()}) ** 8).coeffs) == 3


def test_torsion_zero_divisor_f2():
    z2 = cyclic_group(2)
    one_plus_g = GroupRingElement(z2, F2, {z2.element(0): F2.one(), z2.element(1): F2.one()})
    assert not (one_plus_g * one_plus_g)


def make_invertible_pair():
    ident = ExactMatrix.identity(QQ, 2)
    upper = from_ints(QQ, [[0, 1], [0, 0]])
    alpha = GroupRingElement(Z, QQ, {zel(0): ident, zel(1): upper}, shape=2)
    beta = GroupRingElement(Z, QQ, {zel(0): ident, zel(1): -upper}, shape=2)
    return alpha, beta


def test_matrix_pair_inverse_both_ways():
    alpha, beta = make_invertible_pair()
    assert (alpha * beta).is_identity()
    assert (beta * alpha).is_identity()


def test_audit_examples():
    """The matrix pair and g, g^-1 are two-sided inverses; g, g is not even one-sided."""
    alpha, beta = make_invertible_pair()
    assert (alpha * beta).is_identity() and (beta * alpha).is_identity()
    g = scalar_elem(Z, QQ, {(1,): 1})
    ginv = scalar_elem(Z, QQ, {(-1,): 1})
    assert (g * ginv).is_identity() and (ginv * g).is_identity()
    assert not (g * g).is_identity()


def test_exhaustive_scan_f2_z2():
    """F2[C2] is directly finite: of its 16 pairs, every one-sided inverse pair is two-sided."""
    z2 = cyclic_group(2)
    space = [GroupRingElement(z2, F2, dict(zip(z2.elements(), digits))) for digits in itertools.product(F2.elements(), repeat=2)]
    one_sided = [(a, b) for a in space for b in space if (a * b).is_identity()]
    assert one_sided  # at least the identity pair
    assert all((b * a).is_identity() for a, b in one_sided)


def test_support_of_product_contained():
    rng = random.Random(4)
    for _ in range(200):
        a = rand_group_ring(Z2, QQ, rng)
        b = rand_group_ring(Z2, QQ, rng)
        prod = a * b
        allowed = {g * h for g in a.coeffs for h in b.coeffs}
        assert set(prod.coeffs) <= allowed
        if a and b:
            # over a domain with an orderable group the inclusion is equality
            assert set(prod.coeffs) == allowed


def test_ring_axioms_random():
    rng = random.Random(5)
    z6 = cyclic_group(6)
    spaces = [
        (Z2, QQ, None),
        (z6, F3, None),
        (Z, F2, 2),
    ]
    for group, field, shape in spaces:
        ident = GroupRingElement.identity(group, field, shape)
        for _ in range(150):
            a = rand_group_ring(group, field, rng, shape=shape)
            b = rand_group_ring(group, field, rng, shape=shape)
            c = rand_group_ring(group, field, rng, shape=shape)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a + b) * c == a * c + b * c
            assert a * ident == a and ident * a == a


def test_shape_mismatch_errors():
    a = scalar_elem(Z, QQ, {(0,): 1})
    b, _ = make_invertible_pair()
    with pytest.raises(GroupRingError):
        a * b
    with pytest.raises(GroupRingError):
        GroupRingElement(Z, QQ, {zel(0): ExactMatrix.identity(QQ, 2)}, shape=3)


def test_powers_equal_repeated_products():
    rng = random.Random(7)
    gf4 = ExtensionField(2, 2)
    free2 = FreeGroup(2)
    for _ in range(20):
        twisted = TwistedGroupRingElement(
            Z,
            gf4,
            {zel(rng.randint(-1, 1)): TwistedPoly(gf4, [field_scalar(gf4, rng) for _ in range(3)]) for _ in range(2)},
        )
        for elem, one in (
            (rand_group_ring(free2, QQ, rng, radius=1), GroupRingElement.identity(free2, QQ)),
            (rand_group_ring(Z, F3, rng, radius=1, shape=2), GroupRingElement.identity(Z, F3, 2)),
            (twisted, TwistedGroupRingElement.identity(Z, gf4)),
        ):
            n = rng.randint(0, 6)
            expected = one
            for _ in range(n):
                expected = expected * elem
            assert elem ** n == expected
    # scalar powers on commutative groups in characteristic p go by base-p
    # digits; on cyclic groups g^p can coincide for distinct g
    for group, field in ((Z2, gf4), (cyclic_group(3), F3), (cyclic_group(6), F2), (FreeGroup(1), PrimeField(5))):
        support = list(ball(group, 1))
        for _ in range(8):
            elem = GroupRingElement(group, field, {g: field_scalar(field, rng) for g in rng.sample(support, 3)})
            n = rng.randint(0, 40)
            expected = GroupRingElement.identity(group, field)
            for _ in range(n):
                expected = expected * elem
            assert elem ** n == expected


def test_matrix_elements_have_no_inline_text():
    a, _ = make_invertible_pair()
    assert repr(a) == "GroupRingElement(2x2 matrices on %r)" % (a.support(),)
    with pytest.raises(TypeError):
        format_element(a)


def test_twisted_group_ring_product():
    t = TwistedPoly.t(F2)
    a = TwistedGroupRingElement(Z, F2, {zel(1): t})
    b = TwistedGroupRingElement(Z, F2, {zel(2): t})
    prod = a * b
    # (t g)(t h) = t^2 (g+h)
    assert prod == TwistedGroupRingElement(Z, F2, {zel(3): t * t})
    ident = TwistedGroupRingElement.identity(Z, F2)
    assert a * ident == a and ident * a == a
