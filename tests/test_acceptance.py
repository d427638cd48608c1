"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line (with its elapsed time against the
stated budget) after all of its assertions hold; a failure anywhere leaves
the criterion red.
"""

import json
import random
import time
from fractions import Fraction

import sympy

from support import (
    fixture_suite,
    pair_sigma,
    rand_exponent_vector,
    rand_group_ring,
    rand_near_ring,
    z_fixtures,
)

from groupca.ca import (
    CellularAutomaton,
    LinearRule,
    Pattern,
    ca_from_group_ring,
    ca_from_polynomial,
    compose,
    group_ring_of,
    rule_to_json,
)
from groupca.cli import run_job
from groupca.expressions import format_element, parse_element
from groupca.group_ring import GroupRingElement, TwistedGroupRingElement
from groupca.groups import (
    FiniteSubset,
    FreeGroup,
    LexOrder,
    MagnusOrder,
    ZdGroup,
    ball,
)
from groupca.linear_ca import chain_window, find_left_inverse, goe_report
from groupca.near_ring import (
    ExponentVector,
    MonomialOrder,
    NearRingElement,
    classify_unit_pair,
    embed_group_ring,
    embed_twisted,
    exhaustive_search,
    leading_term,
)
from groupca.rings import QQ, ExactMatrix, ExtensionField, PrimeField, TwistedPoly
from groupca.sofic import certificate, cycle_graph, graph_ca_rank_audit, schreier_graph, torus_graph

Z = ZdGroup(1)
Z2 = ZdGroup(2)
FREE2 = FreeGroup(2)
F2, F3, F5, F7 = PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7)
GF4 = ExtensionField(2, 2)


def zel(n):
    return Z.element((n,))


def report_pass(number, label, started, budget):
    elapsed = time.time() - started
    assert elapsed < budget, "criterion %d exceeded its %.0fs budget (%.1fs)" % (
        number,
        budget,
        elapsed,
    )
    print("ACCEPTANCE %2d %-28s: PASS (%.1fs < %.0fs)" % (number, label, elapsed, budget))


def test_criterion_01_star_worked_example():
    started = time.time()
    alpha = parse_element("X[(1)]^3*X[(0)] + 1", Z, QQ)
    beta = parse_element("X[(2)]^2 - X[(3)]^2", Z, QQ)
    product = alpha.star(beta)
    # independent oracle: expand the closed form with sympy
    x = {n: sympy.Symbol("x_%d" % n) for n in range(-1, 6)}
    closed = (x[3] ** 2 - x[4] ** 2) ** 3 * (x[2] ** 2 - x[3] ** 2) + 1
    expanded = sympy.expand(closed)
    got = 0
    for u, c in product.terms.items():
        term = sympy.Rational(c)
        for g, e in u.items:
            term *= x[g.value[0]] ** e
        got += term
    assert sympy.expand(got - expanded) == 0
    # and the reverse order against its printed closed form
    reverse = beta.star(alpha)
    rev_expected = parse_element(
        "(X[(3)]^3*X[(2)] + 1)^2 - (X[(4)]^3*X[(3)] + 1)^2", Z, QQ
    )
    assert reverse == rev_expected
    report_pass(1, "star worked example", started, 1)


def test_criterion_02_near_ring_axioms():
    started = time.time()
    rng = random.Random(202)
    count = 0
    for group in (Z, Z2):
        for field in (QQ, F5):
            for _ in range(250):
                a = rand_near_ring(group, field, rng, radius=2, max_degree=3, max_terms=2)
                b = rand_near_ring(group, field, rng, radius=2, max_degree=3, max_terms=2)
                c = rand_near_ring(group, field, rng, radius=2, max_degree=3, max_terms=2)
                assert (a + b).star(c) == a.star(c) + b.star(c)
                assert a.star(b).star(c) == a.star(b.star(c))
                count += 1
    assert count == 1000
    # right-distributivity failure witness
    sq = NearRingElement.variable(zel(0), QQ, 2)
    x0 = NearRingElement.variable(zel(0), QQ)
    lhs = sq.star(x0 + x0)
    rhs = sq.star(x0) + sq.star(x0)
    assert lhs == sq.scale(Fraction(4)) and rhs == sq.scale(Fraction(2)) and lhs != rhs
    print(
        "right-distributivity witness: X[(0)]^2 * (X[(0)]+X[(0)]) = %s != %s"
        % (format_element(lhs), format_element(rhs))
    )
    report_pass(2, "near-ring axioms x1000", started, 60)


def _order_lemma_instance(order, group, rng):
    zero = ExponentVector.empty(group)
    u = rand_exponent_vector(group, rng)
    v = rand_exponent_vector(group, rng)
    w = rand_exponent_vector(group, rng)
    if w != zero:
        assert order.less(zero, w)  # (i)
        assert order.less(u, u.add(w))  # (ii)
    gens = list(ball(group, 1))
    g = gens[rng.randrange(len(gens))]
    c = order.compare(u, v)
    assert c == order.compare(u.translate(g), v.translate(g))  # (iii)
    assert c == order.compare(u.add(w), v.add(w))  # (iii)
    if c < 0 and w != zero:
        assert order.less(u.convolve(w), v.convolve(w))  # (iv)
        assert order.less(w.convolve(u), w.convolve(v))  # (iv)


def _leading_term_instance(order, group, field, rng):
    a = rand_near_ring(group, field, rng, max_terms=2, nonzero=True)
    b = rand_near_ring(group, field, rng, max_terms=2, nonzero=True)
    if b.is_constant():
        return
    ca_, ua = leading_term(a, order)
    cb_, ub = leading_term(b, order)
    cp, up = leading_term(a.star(b), order)
    assert up == ua.convolve(ub)
    assert cp == ca_ * cb_ ** ua.degree()


def test_criterion_03_order_lemma_suite():
    started = time.time()
    rng = random.Random(303)
    for group, group_order in ((Z, LexOrder(Z)), (Z2, LexOrder(Z2))):
        order = MonomialOrder(group_order)
        for _ in range(500):
            _order_lemma_instance(order, group, rng)
            _leading_term_instance(order, group, QQ if rng.random() < 0.5 else F5, rng)
    magnus = MonomialOrder(MagnusOrder(FREE2))
    for _ in range(200):
        _order_lemma_instance(magnus, FREE2, rng)
        _leading_term_instance(magnus, FREE2, QQ, rng)
    report_pass(3, "order lemma suite", started, 120)


def test_criterion_04_kaplansky_searches():
    started = time.time()
    support = FiniteSubset(Z, [zel(-1), zel(0), zel(1)])
    ident = {F2: NearRingElement.identity(Z, F2), F3: NearRingElement.identity(Z, F3)}
    for field in (F2, F3):
        units = exhaustive_search("unit", field, support, 2)
        for f in units.findings:
            assert f.classification == "trivial_unit", (
                "nontrivial unit certificate: %s * %s = %s"
                % (format_element(f.alpha), format_element(f.beta), format_element(f.product))
            )
            assert f.detail["reverse_product"] == ident[field]
        # the trivial form (a X_g - a b, a^-1 X_{g^-1} + b) has
        # (p-1) * 3 * p instances in this space
        assert len(units.findings) == (field.p - 1) * 3 * field.p

        idem = exhaustive_search("idempotent", field, support, 2)
        found = {format_element(f.alpha) for f in idem.findings}
        expected = {str(c) for c in range(field.p)} | {"X[(0)]"}
        assert found == expected, "unexpected idempotents: %s" % (found - expected)

        zd = exhaustive_search("zero_divisor", field, support, 2)
        assert zd.findings == [], (
            "zero divisor certificate: "
            + "; ".join(
                "%s * %s = %s"
                % (format_element(f.alpha), format_element(f.beta), format_element(f.product))
                for f in zd.findings
            )
        )
    report_pass(4, "Kaplansky searches F2/F3", started, 600)


def test_criterion_05_embedding_homomorphisms():
    started = time.time()
    rng = random.Random(505)
    for _ in range(500):
        a = rand_group_ring(Z2, QQ, rng)
        b = rand_group_ring(Z2, QQ, rng)
        assert embed_group_ring(a * b) == embed_group_ring(a).star(embed_group_ring(b))
        assert embed_group_ring(a + b) == embed_group_ring(a) + embed_group_ring(b)
        if a != b:
            assert embed_group_ring(a) != embed_group_ring(b)

    def rand_twisted(field):
        coeffs = {}
        for _ in range(rng.randint(0, 2)):
            g = zel(rng.randint(-2, 2))
            poly = TwistedPoly(
                field,
                [field.elements()[rng.randrange(field.size())] for _ in range(rng.randint(0, 3))],
            )
            if poly:
                coeffs[g] = poly
        return TwistedGroupRingElement(Z, field, coeffs)

    for field in (F2, GF4):
        for _ in range(250):
            a = rand_twisted(field)
            b = rand_twisted(field)
            assert embed_twisted(a * b) == embed_twisted(a).star(embed_twisted(b))
            assert embed_twisted(a + b) == embed_twisted(a) + embed_twisted(b)
            if a != b:
                assert embed_twisted(a) != embed_twisted(b)
    report_pass(5, "embeddings iota and j", started, 60)


def test_criterion_06_induced_map_dictionaries():
    started = time.time()
    rng = random.Random(606)
    # polynomial dictionary: products act as composed maps on windows
    for field in (QQ, F7):
        for _ in range(50):
            a = rand_near_ring(Z, field, rng, radius=1, max_degree=2, nonzero=True)
            b = rand_near_ring(Z, field, rng, radius=1, max_degree=2, nonzero=True)
            ca_ab = ca_from_polynomial(a.star(b))
            ca_a, ca_b = ca_from_polynomial(a), ca_from_polynomial(b)
            domain = ball(Z, 3)
            if field is QQ:
                p = Pattern(domain, {g: Fraction(rng.randint(-4, 4)) for g in domain})
            else:
                p = Pattern(domain, {g: field.from_int(rng.randrange(field.p)) for g in domain})
            chained = ca_a.apply_interior(ca_b.apply_interior(p))
            direct = ca_ab.apply_interior(p)
            common = chained.domain.intersection(direct.domain)
            assert len(common) > 0
            for g in common:
                assert chained[g] == direct[g]
    # linear dictionary
    for _ in range(100):
        a = rand_group_ring(Z, F3, rng, radius=1, shape=2)
        b = rand_group_ring(Z, F3, rng, radius=1, shape=2)
        ca_ab = ca_from_group_ring(a * b)
        ca_a, ca_b = ca_from_group_ring(a), ca_from_group_ring(b)
        domain = ball(Z, 3)
        p = Pattern(
            domain,
            {g: (F3.from_int(rng.randrange(3)), F3.from_int(rng.randrange(3))) for g in domain},
        )
        chained = ca_a.apply_interior(ca_b.apply_interior(p))
        direct = ca_ab.apply_interior(p)
        for g in chained.domain.intersection(direct.domain):
            assert chained[g] == direct[g]
    # injectivity over the rationals, on distinct representation pairs
    window = FiniteSubset(Z, [zel(0)])
    tested = 0
    while tested < 100:
        a = rand_near_ring(Z, QQ, rng, radius=1, max_degree=2)
        b = rand_near_ring(Z, QQ, rng, radius=1, max_degree=2)
        if a == b:
            continue
        tested += 1
        separated = False
        for _ in range(80):
            domain = ball(Z, 2)
            p = Pattern(domain, {g: Fraction(rng.randint(-6, 6)) for g in domain})
            oa = ca_from_polynomial(a).apply_window(p, "plus", window)
            ob = ca_from_polynomial(b).apply_window(p, "plus", window)
            if oa[zel(0)] != ob[zel(0)]:
                separated = True
                break
        assert separated, "distinct rational polynomials acted identically"
    # positive characteristic loses injectivity: X^p acts as X
    frob = ca_from_polynomial(NearRingElement.variable(zel(0), F3, 3))
    lin = ca_from_polynomial(NearRingElement.variable(zel(0), F3, 1))
    assert frob.rule.poly != lin.rule.poly
    for v in range(3):
        pat = Pattern(window, {zel(0): F3.from_int(v)})
        assert frob.apply_interior(pat).values == lin.apply_interior(pat).values
    report_pass(6, "induced-map dictionaries", started, 120)


def test_criterion_07_invertible_pair():
    started = time.time()
    tau = z_fixtures()["invertible_pair_tau"]
    sigma = pair_sigma()
    rng = random.Random(707)
    # identity on every window with up to 16 cells, both orders
    windows = [chain_window(Z, r) for r in range(8)]
    windows.append(FiniteSubset(Z, [zel(n) for n in range(16)]))
    for omega in windows:
        assert len(omega) <= 16
        for first, second in ((tau, sigma), (sigma, tau)):
            needed = omega.product(second.memory_set()).product(first.memory_set())
            vals = {
                g: (Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))) for g in needed
            }
            p = Pattern(needed, vals)
            mid = first.apply_window(p, "plus", omega.product(second.memory_set()))
            out = second.apply_window(mid, "plus", omega)
            for g in omega:
                assert out[g] == vals[g]
    # inverse synthesis recovers the partner with memory set exactly {0,1}
    report = find_left_inverse(tau, 8)
    assert report.found and report.radius == 1
    assert [g.value[0] for g in report.inverse.memory_set()] == [0, 1]
    assert group_ring_of(report.inverse) == group_ring_of(sigma)
    report_pass(7, "invertible pair", started, 10)


def test_criterion_08_goe_consistency():
    started = time.time()
    suite = fixture_suite()
    assert len(suite) == 10
    reports = {}
    for name, ca in suite.items():
        rep = goe_report(ca, i_max=32, r_max=8)
        reports[name] = rep
        assert not rep.alarm, name
        assert rep.classification in ("consistent_surjective", "consistent_not_surjective"), name
        if rep.preinjectivity.verdict == "not_pre_injective":
            assert rep.surjectivity == "not_surjective", name
            assert rep.mdim.estimate < ca.rule.n, name
        else:
            assert rep.surjectivity == "full_rank_up_to", name
            assert rep.mdim.estimate == ca.rule.n, name
    # pinned exact mean-dimension values
    assert reports["z/identity"].mdim.estimate == Fraction(1)
    assert reports["z2/identity_f3"].mdim.estimate == Fraction(1)
    assert reports["z/diff"].mdim.estimate == Fraction(1)
    assert all(q == 1 for q in reports["z/diff"].mdim.sequence)
    rank1 = reports["z/rank1_2x2"].mdim
    assert all(q < 2 for q in rank1.sequence[1:])
    assert reports["z/invertible_pair_tau"].mdim.estimate == Fraction(2)
    report_pass(8, "GoE consistency suite", started, 300)


def test_criterion_09_sofic_certificates():
    started = time.time()
    cert = certificate(cycle_graph(Z, 10), 3, Fraction(1, 10))
    assert cert.passed and len(cert.v_r) == 10
    for eps in (Fraction(1, 10), Fraction(1, 2), Fraction(99, 100)):
        assert not certificate(cycle_graph(Z, 10), 5, eps).passed
    assert certificate(torus_graph(Z2, 16), 3, Fraction(1, 100)).passed
    for seed in range(20):
        cert = certificate(schreier_graph(FREE2, 64, seed=seed), 1, Fraction(1, 2))
        # certificate() raises if nesting, ball containment, or the packing
        # inequality fail; double-check the recorded transcripts
        assert cert.checks["nesting"] and cert.checks["ball_containment"]
        assert cert.ball_2r_size * len(cert.packing) >= len(cert.v_3r)
    report_pass(9, "sofic certificates", started, 120)


def test_criterion_10_rank_audit():
    started = time.time()
    one = ExactMatrix.identity(QQ, 1)
    shift = CellularAutomaton(Z, LinearRule(1, QQ, {zel(1): one}))
    unshift = CellularAutomaton(Z, LinearRule(1, QQ, {zel(-1): one}))
    rep = graph_ca_rank_audit(cycle_graph(Z, 16), shift, 2, left_inverse=unshift)
    assert rep.projection_verified is True
    assert rep.inequality_holds is True and rep.transported_rank >= rep.v_3r

    tau = z_fixtures()["invertible_pair_tau"]
    rep = graph_ca_rank_audit(cycle_graph(Z, 16), tau, 1, left_inverse=pair_sigma())
    assert rep.projection_verified is True
    assert rep.inequality_holds is True and rep.transported_rank >= 2 * rep.v_3r
    report_pass(10, "transported rank audit", started, 60)


def test_criterion_11_report_determinism(tmp_path):
    started = time.time()
    jobs = {
        "units": [
            "units", "--group", "zd:1", "--field", "f2", "--degree", "2", "--radius", "1",
        ],
        "goe": None,  # filled below with a rule file
        "sofic": [
            "sofic-check", "--group", "zd:1", "--graph", "schreier-placeholder", "--radius", "1",
            "--epsilon", "0.5",
        ],
    }
    rule_path = tmp_path / "rank1.json"
    rule_path.write_text(json.dumps(rule_to_json(z_fixtures()["rank1_2x2"])) + "\n")
    jobs["goe"] = ["goe", "--rule", str(rule_path), "--imax", "8", "--rmax", "4"]
    jobs["sofic"][4] = "schreier:32:5"
    # swap in the free group for the schreier job
    jobs["sofic"][2] = "free:2"
    for name, argv in jobs.items():
        outputs = []
        for tag, workers in (("a", None), ("b", None), ("w1", 1), ("w4", 4)):
            out = tmp_path / ("%s_%s.json" % (name, tag))
            extra = ["--workers", str(workers)] if workers and name == "units" else []
            code = run_job(argv + extra + ["--out", str(out)])
            assert code == 0
            outputs.append(out.read_bytes())
        assert all(o == outputs[0] for o in outputs[1:]), name
    report_pass(11, "report determinism", started, 120)
