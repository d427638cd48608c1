import random

import pytest

from groupca.groups import (
    FiniteGroup,
    FiniteSubset,
    FreeGroup,
    GroupError,
    LexOrder,
    MagnusOrder,
    UndecidableOrderError,
    ZdGroup,
    ball,
    box_window,
    default_order,
    folner_box,
    parse_group_spec,
    subset_calculus,
    word_distance,
)

Z = ZdGroup(1)
Z2 = ZdGroup(2)
F2 = FreeGroup(2)
Z4 = FiniteGroup.cyclic(4, generator_indices=[1])


def zel(*coords):
    group = Z if len(coords) == 1 else Z2
    return group.element(coords)


def test_multiply_examples():
    assert Z2.element((1, 2)) * Z2.element((3, -1)) == Z2.element((4, 1))
    ab = F2.element((1, 2))
    binv_a = F2.element((-2, 1))
    assert ab * binv_a == F2.element((1, 1))
    assert Z4.element(3) * Z4.element(2) == Z4.element(1)


def test_multiply_descriptor_mismatch():
    with pytest.raises(GroupError):
        Z.element((1,)) * Z2.element((1, 0))


def test_inverse_examples():
    assert Z2.element((1, -2)).inverse() == Z2.element((-1, 2))
    assert F2.element((1, -2)).inverse() == F2.element((2, -1))
    assert Z4.element(3).inverse() == Z4.element(1)


def test_free_words_stay_reduced():
    w = F2.element((1, 2, -2, -1, 1))
    assert w.value == (1,)


def test_ball_examples():
    assert set(e.value[0] for e in ball(Z, 2)) == {-2, -1, 0, 1, 2}
    assert len(ball(F2, 1)) == 5
    assert len(ball(F2, 2)) == 17
    assert list(ball(Z, 0)) == [Z.identity()]


def test_free_ball_against_string_oracle():
    # independent enumeration: reduced words over {a, A, b, B} up to length 3
    letters = {"a": 1, "A": -1, "b": 2, "B": -2}
    words = {()}
    frontier = {()}
    for _ in range(3):
        nxt = set()
        for w in frontier:
            for ch in letters.values():
                if w and w[-1] == -ch:
                    new = w[:-1]
                else:
                    new = w + (ch,)
                nxt.add(new)
        words |= nxt
        frontier = nxt
    oracle = {w for w in words if len(w) <= 3}
    assert {e.value for e in ball(F2, 3)} == oracle


def test_ball_nesting():
    smaller = set(ball(F2, 1))
    bigger = set(ball(F2, 2))
    assert smaller <= bigger


def test_subset_calculus_examples():
    omega = FiniteSubset(Z, [zel(i) for i in range(5)])
    memory = FiniteSubset(Z, [zel(0), zel(1)])
    interior, neighborhood, boundary = subset_calculus(omega, memory)
    assert {e.value[0] for e in interior} == {0, 1, 2, 3}
    assert {e.value[0] for e in neighborhood} == {0, 1, 2, 3, 4, 5}
    assert {e.value[0] for e in boundary} == {4, 5}

    ident_mem = FiniteSubset(Z, [Z.identity()])
    i2, n2, b2 = subset_calculus(omega, ident_mem)
    assert i2 == omega and n2 == omega and len(b2) == 0


def test_subset_calculus_z2_against_bruteforce():
    omega = FiniteSubset(Z2, [Z2.element((x, y)) for x in range(3) for y in range(3)])
    memory = FiniteSubset(Z2, [Z2.element(v) for v in ((0, 0), (1, 0), (0, 1))])
    interior, neighborhood, boundary = subset_calculus(omega, memory)
    assert {e.value for e in interior} == {(x, y) for x in range(2) for y in range(2)}
    # brute-force oracle straight from the definitions
    candidates = {(x, y) for x in range(-2, 6) for y in range(-2, 6)}
    oracle_interior = {
        c
        for c in candidates
        if all((c[0] + m.value[0], c[1] + m.value[1]) in {e.value for e in omega} for m in memory)
    }
    oracle_nbhd = {(e.value[0] + m.value[0], e.value[1] + m.value[1]) for e in omega for m in memory}
    assert {e.value for e in interior} == oracle_interior
    assert {e.value for e in neighborhood} == oracle_nbhd
    assert {e.value for e in boundary} == oracle_nbhd - oracle_interior


def test_subset_calculus_sandwich_when_identity_in_memory():
    rng = random.Random(5)
    for _ in range(50):
        omega = FiniteSubset(Z2, [Z2.element((rng.randint(-3, 3), rng.randint(-3, 3))) for _ in range(rng.randint(1, 8))])
        memory = FiniteSubset(
            Z2,
            [Z2.identity()] + [Z2.element((rng.randint(-1, 1), rng.randint(-1, 1))) for _ in range(rng.randint(0, 3))],
        )
        interior, neighborhood, _ = subset_calculus(omega, memory)
        assert set(interior) <= set(omega) <= set(neighborhood)


def test_group_laws_random():
    rng = random.Random(1)
    for group in (Z2, F2, Z4):
        elems = list(ball(group, 3))
        ident = group.identity()
        for _ in range(1000):
            a, b, c = (elems[rng.randrange(len(elems))] for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * ident == a and ident * a == a
            assert a * a.inverse() == ident


def _bfs_distance(group, gens, target):
    from collections import deque

    seen = {group.identity(): 0}
    q = deque([group.identity()])
    while q:
        e = q.popleft()
        if e == target:
            return seen[e]
        for s in gens:
            f = e * s
            if f not in seen:
                seen[f] = seen[e] + 1
                q.append(f)
    raise AssertionError("not generated")


def test_word_metric_properties_and_bfs_oracle():
    rng = random.Random(2)
    for group in (Z2, F2, Z4):
        gens = group.generators()
        elems = list(ball(group, 2))
        for _ in range(40):
            g, h, k = (elems[rng.randrange(len(elems))] for _ in range(3))
            dgh = word_distance(g, h)
            assert dgh == word_distance(h, g)
            assert word_distance(g, k) <= dgh + word_distance(h, k)
            assert dgh == _bfs_distance(group, gens, g.inverse() * h)


def test_word_distance_with_explicit_generators():
    gens = [zel(2), zel(-2), zel(3), zel(-3)]
    for n in range(-12, 13):
        assert word_distance(zel(n), gens=gens) == _bfs_distance(Z, gens, zel(n))
    assert word_distance(zel(1), zel(6), gens=gens) == 2
    z6 = FiniteGroup.cyclic(6)
    evens = [z6.element(2), z6.element(4)]
    for n in (0, 2, 4):
        assert word_distance(z6.element(n), gens=evens) == _bfs_distance(z6, evens, z6.element(n))
    for n in (1, 3, 5):
        with pytest.raises(GroupError):
            word_distance(z6.element(n), gens=evens)
    with pytest.raises(GroupError):
        word_distance(z6.element(0), z6.element(3), gens=evens)


def test_lex_order_examples():
    order = LexOrder(Z2)
    assert order.compare(Z2.element((0, 5)), Z2.element((1, -100))) < 0
    g = Z2.element((3, -1))
    assert order.compare(g, g) == 0
    # configurable priority
    order2 = LexOrder(Z2, priority=(1, 0))
    assert order2.compare(Z2.element((0, 5)), Z2.element((1, -100))) > 0


def test_magnus_commutator_example():
    order = MagnusOrder(F2)
    comm = F2.element((1, 2, -1, -2))
    assert order.compare(F2.identity(), comm) < 0
    assert order.compare(comm, F2.identity()) > 0
    assert order.compare(comm, comm) == 0


def test_magnus_undecidable_at_cap():
    # a depth-3 commutator only separates from 1 at series degree 3
    order = MagnusOrder(F2, max_degree=2)
    a, b = F2.element((1,)), F2.element((2,))
    comm = a * b * a.inverse() * b.inverse()
    deep = comm * a * comm.inverse() * a.inverse()
    assert not deep.is_identity()
    with pytest.raises(UndecidableOrderError):
        order.compare(F2.identity(), deep)
    # the default cap decides it
    assert MagnusOrder(F2).compare(F2.identity(), deep) != 0


@pytest.mark.parametrize("group,order_factory", [(Z2, lambda: LexOrder(Z2)), (F2, lambda: MagnusOrder(F2))])
def test_order_total_transitive_biinvariant(group, order_factory):
    rng = random.Random(3)
    order = order_factory()
    elems = list(ball(group, 2))
    for _ in range(200):
        f, g, h = (elems[rng.randrange(len(elems))] for _ in range(3))
        c_gh = order.compare(g, h)
        assert c_gh == -order.compare(h, g)
        if c_gh < 0:
            assert order.compare(f * g, f * h) < 0
            assert order.compare(g * f, h * f) < 0
        if order.compare(f, g) < 0 and order.compare(g, h) < 0:
            assert order.compare(f, h) < 0
        assert (order.compare(g, h) == 0) == (g == h)


def test_folner_examples():
    box = folner_box(Z, 5)
    assert {e.value[0] for e in box} == {0, 1, 2, 3, 4}
    assert len(folner_box(Z2, 3)) == 9
    memory = FiniteSubset(Z, [zel(0), zel(1)])
    ratios = []
    for i in range(1, 30):
        box = folner_box(Z, i)
        _, _, boundary = subset_calculus(box, memory)
        ratios.append((len(boundary), len(box)))
    # |boundary| / |box| = 2/i for this memory set, strictly decreasing
    assert all(b == 2 for b, _ in ratios)
    fracs = [b / n for b, n in ratios]
    assert all(x > y for x, y in zip(fracs, fracs[1:]))


def test_folner_wrong_group():
    with pytest.raises(GroupError):
        folner_box(F2, 3)  # type: ignore[arg-type]


def test_finite_group_table_validation():
    with pytest.raises(GroupError):
        FiniteGroup([[0, 1], [0, 1]])  # no inverse/identity structure
    with pytest.raises(GroupError):
        FiniteGroup([[0, 1, 2], [1, 2, 0]])  # not square


def test_finite_subset_dedup_and_order():
    s = FiniteSubset(Z, [zel(3), zel(1), zel(3), zel(-2)])
    assert [e.value[0] for e in s] == [-2, 1, 3]
    assert s.position(zel(1)) == 1


def test_group_spec_round_trip(tmp_path):
    assert parse_group_spec("zd:2") == Z2
    assert parse_group_spec("free:2") == F2
    table_file = tmp_path / "z4.txt"
    rows = ["%d %d %d %d" % tuple((a + b) % 4 for b in range(4)) for a in range(4)]
    table_file.write_text("\n".join(rows) + "\n")
    g = parse_group_spec("finite:%s" % table_file)
    assert g.order == 4 and g.element(3) * g.element(2) == g.element(1)


def test_element_text_round_trip():
    for group, text in ((Z2, "(1,-2)"), (F2, "a*b^-1"), (Z4, "#3")):
        e = group.parse_element(text)
        assert group.parse_element(group.format_element(e)) == e
    assert Z2.format_element(Z2.element((1, -2))) == "(1,-2)"
    assert F2.format_element(F2.element((1, -2))) == "a*b^-1"


def test_box_window():
    w = box_window(Z2, 1)
    assert len(w) == 9
    assert default_order(Z) is not None
    with pytest.raises(GroupError):
        default_order(Z4)
