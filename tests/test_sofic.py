import itertools
import random
from fractions import Fraction

import pytest

from support import ball_iso_reference, cyclic_group, pair_sigma, perturb_graph, z_fixtures

from groupca.groups import FreeGroup, ZdGroup, ball_plan
from groupca.rings import QQ, ExactMatrix
from groupca.ca import CellularAutomaton, LinearRule
from groupca.sofic import (
    BallPlan,
    LabeledGraph,
    SoficError,
    ball_iso,
    cayley_quotient,
    certificate,
    cycle_graph,
    finite_cayley_graph,
    graph_ca_rank_audit,
    graph_from_text,
    graph_to_text,
    greedy_pack,
    schreier_graph,
    torus_graph,
    v_r_set,
)

Z = ZdGroup(1)
Z2 = ZdGroup(2)
FREE2 = FreeGroup(2)


def zel(n):
    return Z.element((n,))


def test_cycle_graph_counts():
    g = cycle_graph(Z, 10)
    assert g.n == 10 and g.edge_count() == 20
    # involution is validated at construction; corrupt maps must raise
    with pytest.raises(SoficError):
        LabeledGraph(Z, [zel(1), zel(-1)], 3, {zel(1): {0: 1}, zel(-1): {0: 2}})


def test_torus_graph_counts():
    g = torus_graph(Z2, 4)
    assert g.n == 16 and g.edge_count() == 64


def test_schreier_graph_construction():
    g = schreier_graph(FREE2, 50, seed=7)
    assert g.n == 50 and len(g.labels) == 4
    assert g.edge_count() == 200
    # determinism in the seed
    g2 = schreier_graph(FREE2, 50, seed=7)
    assert list(g.edges()) == list(g2.edges())
    g3 = schreier_graph(FREE2, 50, seed=8)
    assert list(g.edges()) != list(g3.edges())


def test_cayley_quotient_dispatch():
    assert cayley_quotient(Z, "cycle:6").n == 6
    assert cayley_quotient(Z2, "torus:3").n == 9
    assert cayley_quotient(FREE2, "schreier:10:3").n == 10
    z4 = cyclic_group(4)
    assert cayley_quotient(z4, "full").n == 4
    with pytest.raises(SoficError):
        cayley_quotient(Z, "cycle:0")


def test_ball_iso_cycle():
    g = cycle_graph(Z, 10)
    for v in range(10):
        psi = ball_iso(g, v, 3)
        assert psi is not None
        assert psi[Z.identity()] == v
        assert psi[zel(1)] == (v + 1) % 10
        # determinism: rebuilding gives the identical map
        assert ball_iso(g, v, 3) == psi
    assert ball_iso(g, 0, 5) is None  # ball wraps


def test_ball_iso_z_against_small_cycle():
    # approximating Z by the 4-cycle: the wrap edge breaks the radius-2 copy
    g = cycle_graph(Z, 4)
    assert ball_iso(g, 0, 1) is not None
    assert ball_iso(g, 0, 2) is None


def test_ball_iso_finite_group_on_itself():
    # a finite group's full Cayley graph copies its own balls at any radius
    z4 = cyclic_group(4)
    g = finite_cayley_graph(z4)
    psi = ball_iso(g, 0, 2)
    assert psi is not None and len(psi) == 4


def test_v_r_set_examples():
    g = cycle_graph(Z, 10)
    assert v_r_set(g, 3) == list(range(10))
    assert v_r_set(g, 5) == []
    t = torus_graph(Z2, 8)
    assert v_r_set(t, 2) == list(range(64))


def test_greedy_pack_examples():
    g = cycle_graph(Z, 12)
    base = v_r_set(g, 3)
    assert base == list(range(12))
    assert greedy_pack(g, base, 1) == [0, 3, 6, 9]
    assert greedy_pack(g, [], 1) == []
    assert greedy_pack(g, [5], 1) == [5]


def test_certificate_examples():
    cert = certificate(cycle_graph(Z, 10), 3, Fraction(1, 10))
    assert cert.passed
    assert cert.counts()["V(r)"] == 10
    assert cert.ball_2r_size * len(cert.packing) >= len(cert.v_3r)

    cert = certificate(cycle_graph(Z, 10), 5, Fraction(1, 2))
    assert not cert.passed
    assert cert.counts()["V(r)"] == 0

    cert = certificate(torus_graph(Z2, 16), 3, Fraction(1, 100))
    assert cert.passed
    assert cert.counts()["V(r)"] == 256

    with pytest.raises(SoficError):
        certificate(cycle_graph(Z, 10), 3, Fraction(2))


def test_certificate_cycle12_packing():
    cert = certificate(cycle_graph(Z, 12), 1, Fraction(1, 10))
    assert cert.packing == [0, 3, 6, 9]
    assert cert.ball_2r_size == 5
    assert 5 * 4 >= 12


def test_certificates_on_seeded_schreier_graphs():
    for seed in range(20):
        g = schreier_graph(FREE2, 64, seed=seed)
        cert = certificate(g, 1, Fraction(1, 2))
        # the structural checks are enforced inside certificate(); spot-check
        assert set(cert.v_3r) <= set(cert.v_2r) <= set(cert.v_r)


def shift_ca():
    return CellularAutomaton(Z, LinearRule(1, QQ, {zel(1): ExactMatrix.identity(QQ, 1)}))


def shift_inverse():
    return CellularAutomaton(Z, LinearRule(1, QQ, {zel(-1): ExactMatrix.identity(QQ, 1)}))


def test_rank_audit_identity():
    ident = CellularAutomaton(Z, LinearRule(1, QQ, {zel(0): ExactMatrix.identity(QQ, 1)}))
    rep = graph_ca_rank_audit(cycle_graph(Z, 12), ident, 1)
    assert rep.transported_rank == rep.v_2r


def test_rank_audit_shift_with_inverse():
    rep = graph_ca_rank_audit(cycle_graph(Z, 16), shift_ca(), 2, left_inverse=shift_inverse())
    assert rep.projection_verified
    assert rep.inequality_holds
    assert rep.transported_rank >= rep.v_3r


def test_rank_audit_invertible_pair():
    tau = z_fixtures()["invertible_pair_tau"]
    rep = graph_ca_rank_audit(cycle_graph(Z, 16), tau, 1, left_inverse=pair_sigma())
    assert rep.projection_verified
    assert rep.inequality_holds
    assert rep.transported_rank >= 2 * rep.v_3r


def test_rank_audit_memory_radius_guard():
    rank1 = z_fixtures()["rank1_2x2"]  # memory {0,1,2}
    with pytest.raises(SoficError):
        graph_ca_rank_audit(cycle_graph(Z, 16), rank1, 1)


def test_graph_text_round_trip(tmp_path):
    g = cycle_graph(Z, 6)
    text = graph_to_text(g)
    assert text.splitlines()[0] == "labels: (1) (-1)"
    back = graph_from_text(Z, text)
    assert back.n == 6 and list(back.edges()) == list(g.edges())


def test_ball_iso_respects_edge_structure():
    # remove one edge pair from a cycle: vertices near the gap lose their copies
    g = cycle_graph(Z, 10)
    plus, minus = zel(1), zel(-1)
    steps = {s: dict(m) for s, m in g.step_maps.items()}
    del steps[plus][0]
    del steps[minus][1]
    broken = LabeledGraph(Z, [plus, minus], 10, steps)
    assert ball_iso(broken, 0, 1) is None
    assert ball_iso(broken, 5, 1) is not None


def _differential_graphs():
    rng = random.Random(20181)
    graphs = [cycle_graph(Z, n) for n in (1, 2, 3, 5, 8)]
    graphs += [torus_graph(Z2, n) for n in (1, 2, 3, 5)]
    graphs += [torus_graph(ZdGroup(3), n) for n in (2, 3)]
    graphs += [schreier_graph(FREE2, n, seed=seed) for n, seed in ((6, 1), (12, 2), (12, 3))]
    graphs += [finite_cayley_graph(cyclic_group(n)) for n in (2, 3, 4, 6)]
    perturbed = [perturb_graph(g, rng, moves) for g in graphs for moves in (1, 2, 3)]
    return graphs + perturbed


def test_ball_iso_matches_reference_on_seeded_graphs():
    accepted = rejected = 0
    for graph in _differential_graphs():
        for r in range(4):
            expected = {v: ball_iso_reference(graph, v, r) for v in range(graph.n)}
            for v in range(graph.n):
                got = ball_iso(graph, v, r)
                want = expected[v]
                assert (got is None) == (want is None), (graph.meta, r, v)
                if got is not None:
                    assert list(got.items()) == list(want.items()), (graph.meta, r, v)
                    accepted += 1
                else:
                    rejected += 1
            assert v_r_set(graph, r) == [v for v in range(graph.n) if expected[v] is not None]
    # the suite exercises both verdicts in quantity
    assert accepted > 500 and rejected > 500


def _group_ball_oracle(group, r):
    """The radius-r ball for the default generators: closed forms on Z^d and
    free groups (|v|_1 <= r, reduced words of length <= r), layers of
    products elsewhere."""
    if isinstance(group, ZdGroup):
        box = itertools.product(range(-r, r + 1), repeat=group.d)
        return {group.element(v) for v in box if sum(map(abs, v)) <= r}
    if isinstance(group, FreeGroup):
        letters = [s for i in range(1, group.rank + 1) for s in (i, -i)]
        words = [
            w
            for n in range(r + 1)
            for w in itertools.product(letters, repeat=n)
            if all(a != -b for a, b in zip(w, w[1:]))
        ]
        return {group.element(w) for w in words}
    members = {group.identity()}
    for _ in range(r):
        members |= {g * s for g in members for s in group.generators()}
    return members


def test_ball_plan_is_the_group_ball():
    for group in (Z, Z2, FREE2, cyclic_group(5)):
        labels = group.generators()
        for r in range(4):
            plan = BallPlan(group, r, labels)
            assert plan.elements[0] == group.identity()
            assert set(plan.elements) == _group_ball_oracle(group, r)
            assert len(plan.elements) == len(plan.index)
            assert all(plan.elements[i] * labels[k] == plan.elements[j] for i, k, j in plan.edges)
            assert all(plan.elements[i] * labels[k] not in plan.index for i, k in plan.outside)
            assert len(plan.edges) + len(plan.outside) == len(plan) * len(labels)
            assert ball_plan(group, r, tuple(labels)) is ball_plan(group, r, tuple(labels))
