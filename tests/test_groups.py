import random

import pytest

from support import SELF_INVERSE_LOOP_5, cpu_budget

import groupca.groups as groups_mod
from groupca.groups import (
    BALL_PLAN_CACHE,
    BallPlan,
    FiniteGroup,
    FiniteSubset,
    FreeGroup,
    GroupError,
    LexOrder,
    MagnusOrder,
    UndecidableOrderError,
    ZdGroup,
    ball,
    ball_plan,
    box_window,
    folner_box,
    parse_group_spec,
    subset_calculus,
)
from groupca.rings import power

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


def test_free_words_longer_than_term_cap_are_refused_before_they_are_built():
    """The exponents of a word text are summed first: 10^6 = TERM_CAP letters parse, one more is refused."""
    assert len(F2.parse_element("a^1000000").value) == 1000000
    assert F2.parse_element("a^999999*b^-1").value[-2:] == (1, -2)
    for text in ("a^1000001", "a^10000000000000", "a^600000*b^-600000"):
        with pytest.raises(GroupError, match="has more than 1000000 letters"):
            F2.parse_element(text)


def test_free_root_words():
    """e = w^m for root(e) = (w, m); two elements commute exactly when one is 1 or their roots agree."""
    assert F2.root(F2.identity()) == (F2.identity(), 0)
    # b^-1 (ab)^3 b = (b^-1 a b^2)^3, and b^-1 b^-1 a^-1 b is the lesser word of the root and its inverse
    assert F2.root(F2.parse_element("b^-1*a*b*a*b*a*b^2")) == (F2.parse_element("b^-2*a^-1*b"), -3)
    assert F2.root(F2.parse_element("a^3")) == (F2.parse_element("a^-1"), -3)

    def pw(g, m):
        return power(g if m >= 0 else g.inverse(), abs(m), F2.identity())

    elements = list(ball(F2, 2))
    elements += [pw(g, m) for g in elements[1:] for m in (2, 3)]
    roots = {g: F2.root(g) for g in elements}
    for g, (w, m) in roots.items():
        assert pw(w, m) == g and (m == 0 or F2.root(w) == (w, 1))
    for g in elements:
        for h in elements:
            commute = g * h == h * g
            assert commute == (not roots[g][1] or not roots[h][1] or roots[g][0] == roots[h][0]), (g, h)


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


def test_ball_plan_cache_keeps_at_most_its_cap():
    """Plans of many radii leave at most BALL_PLAN_CACHE cached, and the most recent ones are reused."""
    radii = range(3 * BALL_PLAN_CACHE)
    for r in radii:
        assert len(ball(Z, r)) == 2 * r + 1
        assert ball_plan.cache_info().currsize <= BALL_PLAN_CACHE
    gens = tuple(Z.generators())
    hits = ball_plan.cache_info().hits
    recent = [ball_plan(Z, r, gens) for r in radii[-BALL_PLAN_CACHE:]]
    assert ball_plan.cache_info().hits == hits + BALL_PLAN_CACHE
    assert all(len(plan) == 2 * r + 1 for plan, r in zip(recent, radii[-BALL_PLAN_CACHE:]))


def test_ball_plan_refuses_more_than_its_cap(monkeypatch):
    """A ball of exactly BALL_CAP elements is built; one element more is a GroupError."""
    assert groups_mod.BALL_CAP >= 1457  # the largest plan the benchmark workloads build
    monkeypatch.setattr(groups_mod, "BALL_CAP", 13)
    gens = tuple(Z2.generators())
    assert len(BallPlan(Z2, 2, gens)) == 13
    with pytest.raises(GroupError, match="radius-3 ball has more than 13 elements"):
        BallPlan(Z2, 3, gens)
    assert len(BallPlan(F2, 1, tuple(F2.generators()))) == 5
    with pytest.raises(GroupError):
        BallPlan(F2, 2, tuple(F2.generators()))


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
    """Balls are the word metric's: g is in ball(r) exactly when a breadth-first search reaches it in r steps."""
    for group in (Z2, F2, Z4):
        gens = group.generators()
        elems = list(ball(group, 3))
        for r in range(3):
            inner = ball(group, r)
            assert set(inner) == {g for g in elems if _bfs_distance(group, gens, g) <= r}
            assert set(inner.inverses()) == set(inner)
            assert set(inner.product(ball(group, 1))) == set(ball(group, r + 1))


def test_word_distance_with_explicit_generators():
    """Balls on explicit generators; on C6 the even ones stop at the subgroup they generate."""
    gens = [zel(2), zel(-2), zel(3), zel(-3)]
    for r in range(4):
        assert {g.value[0] for g in ball(Z, r, gens)} == {n for n in range(-12, 13) if _bfs_distance(Z, gens, zel(n)) <= r}
    # 1 and 6 are two steps apart: 1^-1 * 6 = 5 = 2 + 3
    assert zel(5) not in set(ball(Z, 1, gens)) and zel(5) in set(ball(Z, 2, gens))
    z6 = FiniteGroup.cyclic(6)
    evens = [z6.element(2), z6.element(4)]
    assert set(ball(z6, 5, evens)) == {z6.element(n) for n in (0, 2, 4)}


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


def _random_loop(rng, n):
    """A random Latin square with identity 0 in which a*b = 0 exactly when b*a = 0:
    a loop in which every element has a two-sided inverse.  Redrawn while the
    drawn inverse pairs admit no such square."""
    table = [[None] * n for _ in range(n)]
    for a in range(n):
        table[0][a] = table[a][0] = a
    others = rng.sample(range(1, n), n - 1)
    while others:
        a = others.pop()
        b = others.pop() if others and rng.random() < 0.5 else a
        table[a][b] = table[b][a] = 0
    cells = [(i, j) for i in range(1, n) for j in range(1, n) if table[i][j] is None]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        used = set(table[i]) | {table[r][j] for r in range(n)}
        for v in rng.sample(range(n), n):
            if v not in used:
                table[i][j] = v
                if fill(k + 1):
                    return True
        table[i][j] = None
        return False

    return table if fill(0) else _random_loop(rng, n)


def _relabelled(table, perm):
    n = len(table)
    out = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    return out


def test_finite_group_refuses_exactly_the_non_associative_tables():
    """Light's test, which checks generators only, against all n^3 triples.

    Random loops of order 4-6 are mostly not associative; relabelled group
    tables (cyclic, Klein four, S3) have their identity at a random index
    and must be accepted.
    """
    rng = random.Random(17)
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    s3 = [[perms.index(tuple(p[k] for k in q)) for q in perms] for p in perms]
    groups = [s3, [[a ^ b for b in range(4)] for a in range(4)]] + [
        [[(a + b) % n for b in range(n)] for a in range(n)] for n in (1, 2, 5, 6)
    ]
    seen = {"accepted": 0, "refused": 0}
    for _ in range(60):
        n = rng.randint(4, 6)
        table = _random_loop(rng, n) if rng.random() < 0.7 else rng.choice(groups)
        table = _relabelled(table, rng.sample(range(len(table)), len(table)))
        n = len(table)
        associative = all(
            table[table[a][b]][c] == table[a][table[b][c]] for a in range(n) for b in range(n) for c in range(n)
        )
        try:
            FiniteGroup(table)
            accepted = True
        except GroupError as exc:
            a, b, c = map(int, str(exc).split("not associative at (")[1].rstrip(")").split(","))
            assert table[table[a][b]][c] != table[a][table[b][c]]
            accepted = False
        assert accepted == associative
        seen["accepted" if accepted else "refused"] += 1
    assert min(seen.values()) > 10, seen
    with pytest.raises(GroupError, match="not associative"):
        FiniteGroup(SELF_INVERSE_LOOP_5)
    # loop x Z3, (l, z) at index 3l + z: the first generators (e, 1) and (e, 2)
    # associate with everything, so the refusal needs a later one
    loop_z3 = [[SELF_INVERSE_LOOP_5[a // 3][b // 3] * 3 + (a + b) % 3 for b in range(15)] for a in range(15)]
    with pytest.raises(GroupError, match=r"not associative at \(\d+,([3-9]|1\d),"):
        FiniteGroup(loop_z3)


def test_largest_cyclic_group_builds_within_budget():
    with cpu_budget(0.3):
        g = parse_group_spec("cyclic:256")
    assert g.order == 256 and g.element(255) * g.element(3) == g.element(2)


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
