import random
from fractions import Fraction

import pytest

from support import (
    fixture_suite,
    forbid_q_pivots,
    free2,
    from_ints,
    left_inverse_reference,
    pair_sigma,
    preinjectivity_reference,
    rank_kernel_reference,
    surjectivity_reference,
    z_fixtures,
    z2_fixtures,
)

from groupca.ca import CAError, CellularAutomaton, LinearRule, Pattern, ca_from_polynomial, compose, group_ring_of
from groupca.groups import FiniteSubset, GroupError, ZdGroup, ball, box_window, folner_box
import groupca.linear_ca as lca_mod
from groupca.linear_ca import (
    chain_window,
    find_left_inverse,
    gamma_dim,
    goe_report,
    mdim_estimate,
    preinjectivity_check,
    window_matrix,
)
from groupca.near_ring import NearRingElement
from groupca.rings import CERTIFY_PRIME, QQ, ExactMatrix, ExtensionField, PrimeField, _full_rank_mod_prime, rank_kernel_sparse

Z = ZdGroup(1)
Z2 = ZdGroup(2)


def zel(n):
    return Z.element((n,))


def fsub(*ns):
    return FiniteSubset(Z, [zel(n) for n in ns])


def test_window_matrix_banded_example():
    diff = z_fixtures()["diff"]
    window = fsub(0, 1, 2, 3)
    wm = window_matrix(diff, "plus", window)
    assert (wm.nrows, wm.ncols) == (4, 5)
    assert rank_kernel_sparse(wm.field, wm.matrix_rows, wm.ncols, want_kernel=False)[0] == 4
    assert gamma_dim(diff, window) == 4


def test_window_chains_past_the_ball_cap_are_refused_before_any_rank(monkeypatch):
    """The boxes [0,i)^d, i <= i_max, of mdim and [-r,r]^d, r <= r_max, of the walk hold at most BALL_CAP elements."""

    def no_elimination(*args, **kwargs):
        raise AssertionError("a window was eliminated")

    monkeypatch.setattr(lca_mod, "rank_kernel_sparse", no_elimination)
    monkeypatch.setattr(lca_mod, "Echelon", no_elimination)
    diff = z_fixtures()["diff"]
    # 1 + ... + 362 = 65 703 and 1 + 3 + ... + 513 = 257^2 = 66 049 pass 2^16 = 65 536
    with pytest.raises(GroupError):
        mdim_estimate(diff, 362)
    for audit in (preinjectivity_check, find_left_inverse):
        with pytest.raises(GroupError):
            audit(diff, 256)
    lca_mod._check_boxes(Z, range(1, 362))  # 65 341 elements
    lca_mod._check_boxes(Z, range(1, 512, 2))  # 65 536 elements: r_max = 255
    lca_mod._check_boxes(Z2, range(1, 25))  # the workloads' largest chain, 4 900 elements


def test_window_matrix_identity_is_restriction():
    ident = z_fixtures()["identity"]
    window = fsub(-1, 0, 1, 2, 3)
    wm = window_matrix(ident, "plus", window)
    assert rank_kernel_sparse(wm.field, wm.matrix_rows, wm.ncols, want_kernel=False)[0] == len(window)


def test_goe_refuses_an_oversized_chain_before_its_last_rank(monkeypatch):
    """goe ranks mdim's boxes, then walks the kernel chain, whose box check refuses
    r_max = 256 before the rank of the last window [0, 513) is taken."""
    sides = []

    def counted(ca, window):
        sides.append(len(window))
        return gamma_dim(ca, window)

    monkeypatch.setattr(lca_mod, "gamma_dim", counted)
    with pytest.raises(GroupError, match="would hold more than 65536 elements"):
        goe_report(z_fixtures()["diff"], i_max=2, r_max=256)
    assert sides == [1, 2]


def test_window_matrix_applies_like_the_automaton():
    rng = random.Random(0)
    for name, ca in fixture_suite().items():
        rule = ca.rule
        group = ca.group
        window = chain_window(group, 2)
        wm = window_matrix(ca, "plus", window)
        for _ in range(20):
            vals = {}
            for g in wm.in_domain:
                vals[g] = tuple(rule.field.from_int(rng.randint(-3, 3)) for _ in range(rule.n))
            flat = []
            for g in wm.in_domain:
                flat.extend(vals[g])
            out_flat = [sum((v * flat[j] for j, v in row.items()), rule.field.zero()) for row in wm.matrix_rows]
            if len(wm.in_domain) == 0:
                continue
            pattern = Pattern(wm.in_domain, vals)
            out = ca.apply_window(pattern, "plus", window)
            for g in window:
                base = window.position(g) * rule.n
                assert tuple(out_flat[base : base + rule.n]) == out[g], name


def test_gamma_dim_examples():
    ident2 = CellularAutomaton(
        Z, LinearRule(2, QQ, {zel(0): ExactMatrix.identity(QQ, 2)})
    )
    assert gamma_dim(ident2, fsub(0, 1, 2, 3, 4)) == 10

    diff = z_fixtures()["diff"]
    for n in (3, 6, 9):
        assert gamma_dim(diff, fsub(*range(n))) == n

    rank1 = z_fixtures()["rank1_2x2"]
    assert gamma_dim(rank1, fsub(*range(8))) < 16


def test_gamma_dim_bounds():
    rng = random.Random(1)
    for name, ca in fixture_suite().items():
        n = ca.rule.n
        for r in range(3):
            window = chain_window(ca.group, r)
            gd = gamma_dim(ca, window)
            assert 0 <= gd <= n * len(window)
    ident = z_fixtures()["identity"]
    for r in range(4):
        window = chain_window(Z, r)
        assert gamma_dim(ident, window) == len(window)


def test_mdim_examples():
    ident2 = CellularAutomaton(Z, LinearRule(2, QQ, {zel(0): ExactMatrix.identity(QQ, 2)}))
    report = mdim_estimate(ident2, 16)
    assert report.estimate == 2 and all(q == 2 for q in report.sequence)

    diff = z_fixtures()["diff"]
    report = mdim_estimate(diff, 16)
    assert report.estimate == 1 and all(q == 1 for q in report.sequence)

    rank1 = z_fixtures()["rank1_2x2"]
    report = mdim_estimate(rank1, 16)
    assert report.estimate < 2
    assert all(q < 2 for q in report.sequence[1:])
    with pytest.raises(CAError):
        mdim_estimate(ca_from_polynomial(NearRingElement.variable(zel(0), QQ)), 4)


def test_preinjectivity_examples():
    assert preinjectivity_check(z_fixtures()["diff"], 6).verdict == "kernel_free_up_to"
    assert preinjectivity_check(z_fixtures()["identity"], 4).verdict == "kernel_free_up_to"
    report = preinjectivity_check(z_fixtures()["rank1_2x2"], 6)
    assert report.verdict == "not_pre_injective"
    witness = report.witness
    support = [g for g in witness.domain if any(witness[g])]
    assert len(support) == 2
    vals = sorted(g.value[0] for g in support)
    assert vals[1] - vals[0] == 1  # two consecutive cells
    # the witness really maps to zero on a window
    ca = z_fixtures()["rank1_2x2"]
    big = ball(Z, 4)
    full_vals = {g: witness.values.get(g, (Fraction(0), Fraction(0))) for g in big}
    out = ca.apply_interior(Pattern(big, full_vals))
    assert all(not any(v) for v in out.values.values())


def test_surjectivity_examples():
    """goe reads the verdict from mdim's q_13 at i_max = 16 and ranks [0, 13) itself at i_max = 4."""
    for i_max in (16, 4):
        assert goe_report(z_fixtures()["diff"], i_max, 6).surjectivity == "full_rank_up_to"
        assert goe_report(z_fixtures()["rank1_2x2"], i_max, 6).surjectivity == "not_surjective"
    # the zero rule fails already at the singleton window
    assert goe_report(z2_fixtures()["zero"], 1, 0).surjectivity == "not_surjective"


def test_find_left_inverse_shift():
    shift = z_fixtures()["shift"]
    report = find_left_inverse(shift, 4)
    assert report.found and report.radius == 1
    assert [g.value[0] for g in report.inverse.memory_set()] == [-1]


def test_find_left_inverse_pair():
    tau = z_fixtures()["invertible_pair_tau"]
    report = find_left_inverse(tau, 4)
    assert report.found and report.radius == 1
    assert set(report.inverse.memory_set()) == set(fsub(0, 1))
    assert group_ring_of(report.inverse) == group_ring_of(pair_sigma())
    composed = compose(report.inverse, tau)
    assert group_ring_of(composed).is_identity()
    # verified on windows out to twice the radius
    rng = random.Random(2)
    for r in range(1, 3):
        window = chain_window(Z, r)
        wm_domain = window.product(tau.memory_set()).product(report.inverse.memory_set())
        vals = {g: (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))) for g in wm_domain}
        p = Pattern(wm_domain, vals)
        mid = tau.apply_interior(p)
        back = report.inverse.apply_interior(mid)
        for g in back.domain:
            assert back[g] == vals[g]


def test_find_left_inverse_diff_never():
    report = find_left_inverse(z_fixtures()["diff"], 5)
    assert not report.found


def test_non_homothety_one_cell_automaton():
    # an invertible matrix at the identity that is not a scalar multiple of
    # the identity: invertible at radius 0, yet not an affine shift
    m = from_ints(QQ, [[1, 1], [0, 1]])
    ca = CellularAutomaton(Z, LinearRule(2, QQ, {zel(0): m}))
    report = find_left_inverse(ca, 2)
    assert report.found and report.radius == 0
    inv_symbol = report.inverse.rule.symbol[zel(0)]
    assert inv_symbol == from_ints(QQ, [[1, -1], [0, 1]])
    diag = m.rows[0][0]
    assert m != ExactMatrix.identity(QQ, 2) * diag


def _chain_rules():
    """The fixture suite plus rules on the free:2 ball chain and with a first kernel at r = 1.

    The symbol [[1, g], [1, g]] maps x to x_1(h) + x_2(h*g) in both
    components, so x_2(1) = 1, x_1(g^-1) = -1 is a kernel vector on the
    radius-1 window and none fits in {1}.  free2/rank1_2x2 copies
    z/rank1_2x2 along a, so its first rank-deficient window is the
    radius-1 ball; free2/w_shift_gf4 has a left inverse of radius 1.
    """
    mat = lambda rows: from_ints(QQ, rows)
    F = free2()
    a = F.parse_element("a")
    gf4 = ExtensionField(2, 2)
    rules = dict(fixture_suite())
    for name, group, g in (("z", Z, zel(1)), ("free2", F, a)):
        symbol = {group.identity(): mat([[1, 0], [1, 0]]), g: mat([[0, 1], [0, 1]])}
        rules[name + "/rank1_first_kernel_r1"] = CellularAutomaton(group, LinearRule(2, QQ, symbol))
    rules["free2/one_minus_a"] = CellularAutomaton(F, LinearRule(1, QQ, {F.identity(): mat([[1]]), a: mat([[-1]])}))
    rules["free2/w_shift_gf4"] = CellularAutomaton(F, LinearRule(1, gf4, {a: ExactMatrix(gf4, [[gf4.gen()]])}))
    rank1 = {F.identity(): mat([[1, 0], [0, 0]]), a: mat([[0, 1], [1, 0]]), a * a: mat([[0, 0], [0, 1]])}
    rules["free2/rank1_2x2"] = CellularAutomaton(F, LinearRule(2, QQ, rank1))
    return rules


def test_preinjectivity_probe_matches_the_plain_scan():
    """The probes r = 0, r = r_max and the scan give the plain scan's report, witness included."""
    first_kernels = {}
    for name, ca in _chain_rules().items():
        for r_max in range(5):
            got, want = preinjectivity_check(ca, r_max), preinjectivity_reference(ca, r_max)
            assert (got.verdict, got.r_max, got.witness_radius) == (want.verdict, want.r_max, want.witness_radius), name
            if want.witness is None:
                assert got.witness is None, name
            else:
                domain = list(want.witness.domain)
                assert list(got.witness.domain) == domain, name
                assert [got.witness[g] for g in domain] == [want.witness[g] for g in domain], name
        first_kernels[name] = want.witness_radius
    # every branch runs: a kernel at 0, none up to 4, and a first kernel found by the scan
    assert first_kernels["z2/zero"] == 0 and first_kernels["free2/one_minus_a"] is None
    assert first_kernels["z/rank1_first_kernel_r1"] == first_kernels["free2/rank1_first_kernel_r1"] == 1


def test_surjectivity_probe_matches_the_plain_scan():
    """goe's verdict from the one rank of the box [0, 2 r_max + 1)^d is the plain scan's verdict on the
    Z^d chain rules, r_max = 0..4, whether mdim's boxes reach that side (i_max >= 2 r_max + 1) or not."""
    first_deficient = {}
    for name, ca in _chain_rules().items():
        if not isinstance(ca.group, ZdGroup):
            continue
        for r_max in range(5):
            want, window = surjectivity_reference(ca, r_max)
            for i_max in {max(1, 2 * r_max), 2 * r_max + 1, 9}:
                assert goe_report(ca, i_max, r_max).surjectivity == want, (name, i_max, r_max)
        first_deficient[name] = None if window is None else len(window)
    # deficient at 0, full rank up to 4, and a first deficiency at r = 1 that r_max = 4 must still see
    assert first_deficient["z2/zero"] == 1 and first_deficient["z/diff"] is None
    assert first_deficient["z/rank1_2x2"] == 3


def test_find_left_inverse_matches_the_transposed_system():
    """Solving each projection row in the rows of W gives the inverse that
    reducing the transposed, augmented system gives, field by field, on the
    chain rules, r_max = 0..4: radius, found and the inverse's symbol."""
    found = 0
    radii = {}
    for name, ca in _chain_rules().items():
        for r_max in range(5):
            got, want = find_left_inverse(ca, r_max), left_inverse_reference(ca, r_max)
            assert (got.found, got.radius, got.r_max) == (want.found, want.radius, want.r_max), name
            if want.found:
                g, w = got.inverse, want.inverse
                assert (g.group, g.rule.n, g.rule.field) == (w.group, w.rule.n, w.rule.field), name
                assert list(g.rule.symbol.items()) == list(w.rule.symbol.items()), name
                found += 1
        radii[name] = want.radius
    assert found == 26
    # inverses at radius 0 and, found by the scan below r_max = 4, at radius 1
    assert radii["z/identity"] == 0 and radii["z/shift"] == radii["free2/w_shift_gf4"] == 1


def test_finite_support_kernels_grow_along_the_chain():
    """A nonzero kernel of the supported window at r stays nonzero at r + 1."""
    for name, ca in _chain_rules().items():
        had_kernel = False
        for r in range(5):
            wm = window_matrix(ca, "supported", chain_window(ca.group, r))
            _, kernel = rank_kernel_sparse(wm.field, wm.matrix_rows, wm.ncols, want_kernel=True)
            assert bool(kernel) or not had_kernel, (name, r)
            had_kernel = bool(kernel)


def test_box_ranks_are_translation_invariant():
    """The plus window on [-r, r]^d has the rank of the plus window on [0, 2r + 1)^d, its translate,
    on the Z and Z^2 fixtures and on GF(4) rules, r <= 4; goe reads its surjectivity verdict from the latter."""
    gf4 = ExtensionField(2, 2)
    w, one = gf4.gen(), gf4.one()
    mat = lambda rows: ExactMatrix(gf4, rows)
    gf4_rules = [
        CellularAutomaton(Z, LinearRule(1, gf4, {zel(0): mat([[one]]), zel(1): mat([[w]])})),
        # rank 1 over GF(4)(t): the second row is w times the first
        CellularAutomaton(Z, LinearRule(2, gf4, {zel(0): mat([[one, w], [w, w * w]]), zel(1): mat([[w, one], [w * w, w]])})),
        CellularAutomaton(Z2, LinearRule(1, gf4, {Z2.element((0, 0)): mat([[one]]), Z2.element((1, 1)): mat([[w + one]])})),
    ]
    fields, deficient = set(), 0
    for ca in list(z_fixtures().values()) + list(z2_fixtures().values()) + gf4_rules:
        fields.add(ca.rule.field)
        for r in range(5):
            rank = gamma_dim(ca, box_window(ca.group, r))
            assert rank == gamma_dim(ca, folner_box(ca.group, 2 * r + 1)), (ca.rule.symbol, r)
            deficient += rank < ca.rule.n * (2 * r + 1) ** ca.group.d
    assert fields == {QQ, PrimeField(2), PrimeField(3), gf4} and deficient


def test_rank_deficiency_persists_along_the_chain():
    """A rank-deficient plus window at r stays rank-deficient at r + 1."""
    for name, ca in _chain_rules().items():
        was_deficient = False
        for r in range(5):
            window = chain_window(ca.group, r)
            deficient = gamma_dim(ca, window) < ca.rule.n * len(window)
            assert deficient or not was_deficient, (name, r)
            was_deficient = deficient


def test_left_inverse_solves_the_larger_windows():
    """An inverse with memory in the radius-r window, padded with zeros,
    solves h * W = P on the windows of radius r + 1 and r + 2."""
    checked = 0
    for name, ca in _chain_rules().items():
        report = find_left_inverse(ca, 2)
        if not report.found:
            continue
        n, field, symbol = ca.rule.n, ca.rule.field, report.inverse.rule.symbol
        for r in (report.radius + 1, report.radius + 2):
            window = chain_window(ca.group, r)
            wm = window_matrix(ca, "plus", window)
            id_base = wm.in_domain.position(ca.group.identity()) * n
            for k in range(n):
                hw = {}
                for g, m in symbol.items():
                    base = window.position(g) * n
                    for i in range(n):
                        for col, v in wm.matrix_rows[base + i].items():
                            hw[col] = hw.get(col, field.zero()) + m.rows[k][i] * v
                assert {col: v for col, v in hw.items() if v} == {id_base + k: field.one()}, (name, r, k)
                checked += 1
    assert checked == 14


def test_find_left_inverse_raises_when_the_composite_is_not_the_identity(monkeypatch):
    """A solved window system composes to the identity; a composite that does not is a fault, not a larger radius."""
    shift = z_fixtures()["shift"]
    monkeypatch.setattr(lca_mod, "compose", lambda inverse, ca: ca)
    with pytest.raises(CAError, match="did not compose to the identity"):
        find_left_inverse(shift, 3)


def test_compose_identity_neutral():
    ident = z_fixtures()["identity"]
    for name in ("shift", "diff"):
        ca = z_fixtures()[name]
        assert group_ring_of(compose(ca, ident)) == group_ring_of(ca)
        assert group_ring_of(compose(ident, ca)) == group_ring_of(ca)


def test_goe_fixture_suite_consistency():
    expectations = {
        "z/identity": ("consistent_surjective", Fraction(1)),
        "z/shift": ("consistent_surjective", Fraction(1)),
        "z/diff": ("consistent_surjective", Fraction(1)),
        "z/rank1_2x2": ("consistent_not_surjective", None),
        "z/invertible_pair_tau": ("consistent_surjective", Fraction(2)),
        "z2/identity_f3": ("consistent_surjective", Fraction(1)),
        "z2/shift_e1": ("consistent_surjective", Fraction(1)),
        "z2/diff_e1": ("consistent_surjective", Fraction(1)),
        "z2/zero": ("consistent_not_surjective", Fraction(0)),
        "z2/corner_f2": ("consistent_surjective", Fraction(1)),
    }
    suite = fixture_suite()
    assert set(expectations) == set(suite)
    for name, ca in suite.items():
        report = goe_report(ca, i_max=12, r_max=4)
        expected_class, expected_mdim = expectations[name]
        assert not report.alarm, name
        assert report.classification == expected_class, name
        if expected_mdim is not None:
            assert report.mdim.estimate == expected_mdim, name
        if report.preinjectivity.verdict == "not_pre_injective":
            assert report.surjectivity == "not_surjective", name
            assert report.mdim.estimate < ca.rule.n, name


def test_window_matrix_modes_validate():
    diff = z_fixtures()["diff"]
    for mode in ("sideways", "minus"):
        with pytest.raises(CAError):
            window_matrix(diff, mode, fsub(0))
    with pytest.raises(CAError):
        window_matrix(ca_from_polynomial(NearRingElement.variable(zel(0), QQ)), "plus", fsub(0))


def test_supported_mode_covers_inverse_side():
    # memory {0,1} is not symmetric: images of configurations supported in
    # the window live on window*{-1,0,1}
    diff = z_fixtures()["diff"]
    wm = window_matrix(diff, "supported", fsub(0))
    assert {e.value[0] for e in wm.out_domain} == {-1, 0, 1}
    rank, kernel = rank_kernel_sparse(wm.field, wm.matrix_rows, wm.ncols, want_kernel=True)
    assert (rank, kernel) == (wm.ncols, [])


def test_window_eliminations_match_reference_scan():
    """rank_kernel_sparse against the plain scan on the fixture rules' window
    matrices, r <= 4, in both modes and both want_kernel modes; the rows
    stay unchanged.  Plus windows give matrices with more columns than rows,
    and supported windows matrices with more rows than columns."""
    checked, shapes = 0, set()
    for ca in list(z_fixtures().values()) + list(z2_fixtures().values()):
        for r in range(5):
            window = chain_window(ca.group, r)
            for mode in ("plus", "supported"):
                wm = window_matrix(ca, mode, window)
                shapes.add((mode, (wm.nrows > wm.ncols) - (wm.nrows < wm.ncols)))
                for want_kernel in (True, False):
                    before = [dict(row) for row in wm.matrix_rows]
                    got = rank_kernel_sparse(wm.field, wm.matrix_rows, wm.ncols, want_kernel)
                    assert got == rank_kernel_reference(wm.field, [dict(row) for row in before], wm.ncols, want_kernel)
                    assert wm.matrix_rows == before
                    checked += 1
    assert checked == 2 * 5 * 2 * 10
    assert {("plus", -1), ("supported", 1)} <= shapes


def _scaled(ca, c):
    """The linear automaton with every symbol entry multiplied by ``c``."""
    rule = ca.rule
    return CellularAutomaton(ca.group, LinearRule(rule.n, rule.field, {g: m * c for g, m in rule.symbol.items()}))


def test_certified_window_ranks_match_reference_scan():
    """Over Q a window rank is certified modulo the prime when it is full:
    on the fixture rules, on them scaled by 2/7 and on them scaled by the
    prime itself (every certificate fails, and Q gives the rank), the rank
    is the plain scan's, r <= 4, in every mode."""
    counts = {"certified": 0, "fallback": 0}
    for name, ca in fixture_suite().items():
        if ca.rule.field != QQ:
            continue
        for c in (1, Fraction(2, 7), CERTIFY_PRIME):
            scaled = _scaled(ca, c)
            for r in range(5):
                window = chain_window(ca.group, r)
                for mode in ("plus", "supported"):
                    wm = window_matrix(scaled, mode, window)
                    rank = rank_kernel_reference(QQ, [dict(row) for row in wm.matrix_rows], wm.ncols, False)[0]
                    full = rank == min(len(wm.matrix_rows), wm.ncols)
                    certified = _full_rank_mod_prime(wm.matrix_rows, wm.ncols)
                    # scaled by the prime every entry is 0 mod p: only rank 0 is certified
                    assert certified == (full and (c != CERTIFY_PRIME or rank == 0)), (name, c, r, mode)
                    assert rank_kernel_sparse(QQ, wm.matrix_rows, wm.ncols, want_kernel=False) == (rank, [])
                    counts["certified" if certified else "fallback"] += 1
    assert min(counts.values()) > 50, counts


def test_surjective_rule_mdim_needs_no_fraction_elimination(monkeypatch):
    """Every plus window of a surjective rule with integer entries has full
    rank, so mdim and gamma_dim finish with Q pivots made to raise; the
    rank-deficient windows of rank1_2x2 still reach Q."""
    forbid_q_pivots(monkeypatch)
    fixtures = z_fixtures()
    report = mdim_estimate(fixtures["diff"], 8)
    assert report.estimate == 1
    assert gamma_dim(fixtures["invertible_pair_tau"], chain_window(Z, 4)) == 18
    with pytest.raises(AssertionError, match="ranked over Q"):
        mdim_estimate(fixtures["rank1_2x2"], 4)
