import random

import pytest

import groupca.group_ring as gr_mod

from support import cyclic_group, field_scalar, rand_group_ring

from groupca.expressions import format_element
from groupca.group_ring import (
    GroupRingElement,
    GroupRingError,
    TwistedGroupRingElement,
    direct_finiteness_scan,
    gr_convolve,
    mat_transport,
    one_sided_inverse_audit,
    transported_product,
)
from groupca.groups import FreeGroup, ZdGroup
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
    prod = gr_convolve(one_plus_g, one_minus_g)
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
    upper = ExactMatrix.from_ints(QQ, [[0, 1], [0, 0]])
    nilpotent = GroupRingElement(Z, QQ, {zel(0): upper, zel(1): upper}, shape=2)
    assert not nilpotent**8


def test_torsion_zero_divisor_f2():
    z2 = cyclic_group(2)
    one_plus_g = GroupRingElement(z2, F2, {z2.element(0): F2.one(), z2.element(1): F2.one()})
    assert not (one_plus_g * one_plus_g)


def make_invertible_pair():
    ident = ExactMatrix.identity(QQ, 2)
    upper = ExactMatrix.from_ints(QQ, [[0, 1], [0, 0]])
    alpha = GroupRingElement(Z, QQ, {zel(0): ident, zel(1): upper}, shape=2)
    beta = GroupRingElement(Z, QQ, {zel(0): ident, zel(1): -upper}, shape=2)
    return alpha, beta


def test_matrix_pair_inverse_both_ways():
    alpha, beta = make_invertible_pair()
    assert (alpha * beta).is_identity()
    assert (beta * alpha).is_identity()


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


def test_mat_transport_identity_and_constant():
    a = scalar_elem(Z, QQ, {(0,): 2, (3,): 5})
    assert mat_transport(a) == [[a]]
    const = GroupRingElement(Z, QQ, {zel(0): ExactMatrix.from_ints(QQ, [[1, 2], [3, 4]])}, shape=2)
    t = mat_transport(const)
    assert t[0][1] == scalar_elem(Z, QQ, {(0,): 2})
    assert t[1][0] == scalar_elem(Z, QQ, {(0,): 3})


def test_mat_transport_multiplicative_on_invertible_pair():
    alpha, beta = make_invertible_pair()
    left = mat_transport(alpha * beta)
    right = transported_product(mat_transport(alpha), mat_transport(beta))
    assert left == right
    ident_gr = GroupRingElement.identity(Z, QQ)
    zero_gr = GroupRingElement.zero(Z, QQ)
    assert right == [[ident_gr, zero_gr], [zero_gr, ident_gr]]


def test_mat_transport_round_trip_and_multiplicative_random():
    rng = random.Random(6)
    for _ in range(500):
        a = rand_group_ring(Z, F3, rng, shape=2)
        b = rand_group_ring(Z, F3, rng, shape=2)
        ta, tb = mat_transport(a), mat_transport(b)
        # round trip: reassemble the matrix coefficients
        rebuilt = {}
        for i in range(2):
            for j in range(2):
                for g, c in ta[i][j].coeffs.items():
                    rebuilt.setdefault(g, [[F3.zero()] * 2 for _ in range(2)])
                    rebuilt[g][i][j] = c
        rebuilt = GroupRingElement(
            Z, F3, {g: ExactMatrix(F3, rows) for g, rows in rebuilt.items()}, shape=2
        )
        assert rebuilt == a
        assert mat_transport(a * b) == transported_product(ta, tb)


def test_audit_examples():
    alpha, beta = make_invertible_pair()
    assert one_sided_inverse_audit(alpha, beta).verdict == "two_sided"
    g = scalar_elem(Z, QQ, {(1,): 1})
    ginv = scalar_elem(Z, QQ, {(-1,): 1})
    assert one_sided_inverse_audit(g, ginv).verdict == "two_sided"
    assert one_sided_inverse_audit(g, g).verdict == "not_one_sided"


def test_exhaustive_scan_f2_z2():
    z2 = cyclic_group(2)
    pairs, one_sided, violations = direct_finiteness_scan(z2, F2)
    assert pairs == 16
    assert violations == []
    assert one_sided >= 1  # at least the identity pair


def test_scan_sampling_path():
    z4 = cyclic_group(4)
    pairs, _, violations = direct_finiteness_scan(z4, F3, cap=10, samples=50, seed=1)
    assert pairs == 50
    assert violations == []


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
