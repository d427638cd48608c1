import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from support import rand_group_ring, rand_near_ring

from groupca.cli import _ERRORS
from groupca.expressions import ParseError, format_element, parse_element
from groupca.group_ring import GroupRingElement, TwistedGroupRingElement
from groupca.groups import FreeGroup, ZdGroup, parse_group_spec
from groupca.near_ring import EXPONENT_DIGITS, ExponentVector, NearRingElement
from groupca.rings import QQ, ExtensionField, PrimeField, RingError, TwistedPoly, field_from_spec

Z = ZdGroup(1)
Z2 = ZdGroup(2)
FREE2 = FreeGroup(2)
F2 = PrimeField(2)
GF4 = ExtensionField(2, 2)


def test_parse_worked_alpha():
    e = parse_element("X[(1)]^3*X[(0)] + 1", Z, QQ)
    expected = NearRingElement(
        Z, QQ, {ExponentVector(Z, {Z.element((1,)): 3, Z.element((0,)): 1}): Fraction(1)}
    ) + NearRingElement.constant(Z, QQ, Fraction(1))
    assert e == expected


def test_parse_normalizes_to_zero():
    assert not parse_element("0*X[(5)] + 2 - 2", Z, QQ)


def test_unbalanced_bracket_position():
    with pytest.raises(ParseError) as err:
        parse_element("X[(1)", Z, QQ)
    assert err.value.position == 4
    assert "offset 4" in str(err.value)


def test_number_literals_past_exponent_digits_are_refused_at_their_offset():
    """A digit run may hold EXPONENT_DIGITS digits, the most an exponent text may hold; a longer one is a ParseError."""
    most = "9" * EXPONENT_DIGITS
    assert parse_element("X[(0)]^" + most, Z, QQ) == NearRingElement.variable(Z.element((0,)), QQ, int(most))
    assert parse_element(most + "*X[(0)]", Z, QQ).terms == {ExponentVector.unit(Z.element((0,))): int(most)}
    for text, offset in (("X[(0)]^9" + most, 7), ("2 + 9%s*X[(1)]" % most, 4)):
        with pytest.raises(ParseError, match="more than %d digits" % EXPONENT_DIGITS) as err:
            parse_element(text, Z, QQ)
        assert err.value.position == offset


def test_group_element_texts_turn_only_value_errors_into_parse_errors(monkeypatch):
    """A bad word is a ParseError naming the element; any other failure inside the group's parser is not disguised as one."""
    with pytest.raises(ParseError, match="bad group element 'a\\^10000000000000' .*more than 1000000 letters"):
        parse_element("X[a^10000000000000]", FREE2, QQ)

    def out_of_memory(text):
        raise MemoryError

    monkeypatch.setattr(FREE2, "parse_element", out_of_memory)
    with pytest.raises(MemoryError):
        parse_element("X[a]", FREE2, QQ)


def test_unknown_element_and_coefficient_errors():
    with pytest.raises(ParseError):
        parse_element("X[(1,2)]", Z, QQ)  # wrong arity for Z
    with pytest.raises(ParseError):
        parse_element("X[q]", FREE2, QQ)  # unknown generator
    with pytest.raises(RingError):
        parse_element("1/2", Z, F2)  # 2 is not invertible in F_2
    with pytest.raises(ParseError):
        parse_element("w", Z, QQ)  # generator without an extension field
    with pytest.raises(ParseError):
        parse_element("2 +", Z, QQ)
    with pytest.raises(ParseError):
        parse_element("t", Z, F2, kind="near_ring")


def test_near_ring_round_trip_random():
    rng = random.Random(0)
    for group in (Z, Z2, FREE2):
        for field in (QQ, F2, GF4):
            for _ in range(60):
                elem = rand_near_ring(group, field, rng)
                text = format_element(elem)
                assert repr(elem) == text
                assert parse_element(text, group, field, kind="near_ring") == elem


def test_group_ring_round_trip_random():
    rng = random.Random(1)
    for group in (Z, Z2, FREE2):
        for _ in range(60):
            elem = rand_group_ring(group, QQ, rng)
            text = format_element(elem)
            assert repr(elem) == text
            assert parse_element(text, group, field=QQ, kind="group_ring") == elem


def test_twisted_round_trip():
    t = TwistedPoly.t(GF4)
    w = GF4.gen()
    elem = TwistedGroupRingElement(
        Z,
        GF4,
        {
            Z.element((1,)): t * t + TwistedPoly.constant(GF4, w),
            Z.element((0,)): TwistedPoly.constant(GF4, GF4.one()),
        },
    )
    text = format_element(elem)
    assert repr(elem) == text
    assert parse_element(text, Z, GF4, kind="twisted") == elem


def test_auto_kind_detection():
    assert isinstance(parse_element("X[(0)]", Z, QQ), NearRingElement)
    assert isinstance(parse_element("1 + [1]", Z, QQ), GroupRingElement)
    assert isinstance(parse_element("t*[1]", Z, F2), TwistedGroupRingElement)
    assert isinstance(parse_element("5", Z, QQ), NearRingElement)


def test_format_canonical_order():
    e = parse_element("1 + 3*X[(1,0)]^2*X[(0,0)]", Z2, QQ)
    assert format_element(e) == "3*X[(1,0)]^2*X[(0,0)] + 1"
    gr = parse_element("2*[1] + 1", Z, QQ, kind="group_ring")
    assert format_element(gr) == "1 + 2*[(1)]"


def test_whitespace_insensitive():
    a = parse_element("X[(1)]^3*X[(0)]+1", Z, QQ)
    b = parse_element("  X[(1)] ^ 3 * X[(0)]  +  1 ", Z, QQ)
    assert a == b


def test_parenthesized_subexpressions():
    e = parse_element("(X[(0)] + 1)^2", Z, QQ)
    x0 = NearRingElement.variable(Z.element((0,)), QQ)
    one = NearRingElement.one(Z, QQ)
    assert e == (x0 + one) * (x0 + one)


def test_gf4_coefficients_round_trip():
    e = parse_element("(w+1)*X[(0)] + w", Z, GF4)
    assert format_element(e) == "(w^1+1)*X[(0)] + w^1"
    assert parse_element(format_element(e), Z, GF4) == e


# Stray tokens: fragments of each group's syntax, operators, small numbers
# and foreign characters.  Tokens are joined with spaces, so numbers never
# run together and exponents stay small.
_TOKENS = [
    "X[", "[", "]", "(", ")", "(1)", "(0,1)", "a", "B", "#", "#1",
    "+", "-", "*", "^", "/", ",", "0", "1", "2", "3", "w", "t", "e", "?",
]
_GROUP_ATOMS = {
    "zd:1": ["(1)", "(-2)", "(0)"],
    "zd:2": ["(0,-1)", "(1,1)", "(0,0)"],
    "free:2": ["a", "b^-1*a", "1"],
    "cyclic:3": ["#0", "#1", "#2"],
}
_KINDS = {"near_ring": NearRingElement, "group_ring": GroupRingElement, "twisted": TwistedGroupRingElement}


@st.composite
def _element_texts(draw):
    """A group, a kind and a text: a well-formed element of that kind, noise,
    or a well-formed element followed by noise."""
    spec = draw(st.sampled_from(sorted(_GROUP_ATOMS)))
    kind = draw(st.sampled_from(sorted(_KINDS)))
    wrap = "X[%s]" if kind == "near_ring" else "[%s]"
    atoms = [wrap % g for g in _GROUP_ATOMS[spec]] + ["0", "1", "2", "1/2", "w"] + ["t"] * (kind == "twisted")
    factor = st.tuples(st.sampled_from(atoms), st.sampled_from(["", "^0", "^2", "^3"])).map("".join)
    term = st.lists(factor, min_size=1, max_size=3).map("*".join)
    expr = st.lists(st.tuples(st.sampled_from("+-"), term), min_size=1, max_size=4).map(
        lambda terms: " ".join(op + " " + t for op, t in terms)
    )
    noise = st.lists(st.sampled_from(_TOKENS), max_size=10).map(" ".join)
    text = draw(st.one_of(expr, expr.map(lambda e: "(%s)^2" % e), noise, st.tuples(expr, noise).map(" ".join)))
    return spec, kind, text


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(_element_texts(), st.sampled_from(["q", "f5", "gf4"]))
def test_parse_element_returns_an_element_or_a_typed_error(case, field):
    spec, kind, text = case
    try:
        value = parse_element(text, parse_group_spec(spec), field_from_spec(field), kind=kind)
    except _ERRORS:
        return
    assert isinstance(value, _KINDS[kind])
