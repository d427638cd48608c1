"""Seeded job lists for the benchmark's workloads.

A workload is one pass of groupca CLI jobs, run in order in one process.
Each job carries the facts its report is checked against; those facts
come from ``reference`` (closed forms and independent recomputation), not
from groupca.  The same seed always gives the same jobs and files.

Element texts are passed as ``--flag=TEXT``: argparse reads a separate
argument that starts with ``-`` (a polynomial with a negative leading
term) as an unknown option and exits with status 2.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

import reference as ref

WORKLOADS = ("kaplansky", "exact")


@dataclass
class Job:
    argv: list
    check: str  # name of a check in checks.CHECKS
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    jobs: list
    files: dict = field(default_factory=dict)  # file name -> text, written at set-up
    workers: int = 1
    warmup: int = 0  # index of the job run once, untimed, before the passes

    def rerun_single_worker(self):
        """F2 search jobs again at --workers 1; their reports must not change."""
        out = []
        for i, job in enumerate(self.jobs):
            if job.check == "search" and job.expect["p"] == 2 and "--workers" in job.argv:
                argv = list(job.argv)
                argv[argv.index("--workers") + 1] = "1"
                out.append((i, Job(argv, job.check, job.expect)))
        return out


def build(name, seed, workdir, workers=1, tiny=False):
    if name == "kaplansky":
        return _kaplansky(random.Random("kaplansky:%d" % seed), str(workdir), workers, tiny)
    return _exact(seed, str(workdir), tiny)


def _exact(seed, workdir, tiny):
    """The in-process workload: sofic certificates and rank audits,
    Garden-of-Eden audits, then the small star and embed jobs."""
    jobs, files = [], {}
    for part in (_sofic, _goe, _star):
        wl = part(random.Random("%s:%d" % (part.__name__[1:], seed)), workdir, 1, tiny)
        jobs.extend(wl.jobs)
        files.update(wl.files)
    warmup = next(i for i, job in enumerate(jobs) if job.check == "star")
    return Workload("exact", jobs, files, warmup=warmup)


# -- kaplansky: exhaustive unit / idempotent / zero-divisor searches over F_p

KINDS = (("units", "unit"), ("idem", "idempotent"), ("zerodiv", "zero_divisor"))


def _search_job(cmd, kind, spec, p, degree, support, workers, radius=None):
    group = ref.ref_group(spec)
    argv = [cmd, "--group", spec, "--field", "f%d" % p, "--degree", str(degree)]
    if radius is None:
        argv.append("--support=" + ";".join(group.text(g) for g in support))
    else:
        argv += ["--radius", str(radius)]
        support = sorted(ref.ball(group, radius))
    argv += ["--workers", str(workers)]
    space, count = ref.search_expectation(kind, p, group, support, degree)
    expect = {
        "p": p,
        "space_size": space,
        "findings_count": count,
        "support": sorted(group.text(g) for g in support),
    }
    return Job(argv, "search", expect)


def _sidon_support(rng, group, radius, size):
    """Identity plus size-1 seeded elements of the ball whose pairwise products
    are all distinct, so every draw gives a search of the same shape."""
    pool = sorted(ref.ball(group, radius) - {group.identity()})
    while True:
        support = [group.identity()] + rng.sample(pool, size - 1)
        products = {group.mul(g, h) for g in support for h in support}
        if len(products) == size * (size + 1) // 2:
            return sorted(support)


def _kaplansky(rng, workdir, workers, tiny):
    if tiny:
        return Workload(
            "kaplansky",
            [_search_job(c, k, "zd:1", 2, 1, None, workers, radius=1) for c, k in KINDS],
            workers=workers,
        )
    jobs = []
    spaces = [
        ("zd:1", 2, 2, None, 1),
        ("zd:2", 2, 2, [(0, 0), (1, 0), (0, 1)], None),
        ("zd:1", 3, 2, [(0,), (1,)], None),
    ]
    for spec, p, degree, support, radius in spaces:
        for cmd, kind in KINDS:
            jobs.append(_search_job(cmd, kind, spec, p, degree, support, workers, radius))
    jobs.append(_search_job("units", "unit", "zd:2", 5, 1, _sidon_support(rng, ref.RefZd(2), 2, 5), workers))
    jobs.append(_search_job("idem", "idempotent", "free:2", 5, 1, None, workers, radius=1))
    jobs.append(_search_job("units", "unit", "zd:1", 7, 1, None, workers, radius=1))
    jobs.append(_search_job("zerodiv", "zero_divisor", "zd:1", 7, 1, None, workers, radius=1))
    return Workload("kaplansky", jobs, workers=workers)


# -- sofic: certificates on tori, cycles and a seeded Schreier graph


def _schreier(rng, n):
    """Two seeded permutations of n vertices: steps[v][s] for s in (1, -1, 2, -2)."""
    steps = [dict() for _ in range(n)]
    for letter in (1, 2):
        perm = list(range(n))
        rng.shuffle(perm)
        for v, w in enumerate(perm):
            steps[v][letter] = w
            steps[w][-letter] = v
    return steps


def _graph_text(steps):
    names = {1: "a", -1: "a^-1", 2: "b", -2: "b^-1"}
    lines = ["labels: a a^-1 b b^-1", "vertices: %d" % len(steps)]
    for s in (1, -1, 2, -2):
        lines.extend("%d %s %d" % (v, names[s], st[s]) for v, st in enumerate(steps))
    return "\n".join(lines) + "\n"


def _sofic_job(spec, graph, r, eps, good):
    """good: counts of V, V(r), V(2r), V(3r) from the reference."""
    v, v1, v2, v3 = good
    expect = {
        "counts": {"V": v, "V(r)": v1, "V(2r)": v2, "V(3r)": v3},
        "passed": Fraction(v1) >= (1 - Fraction(eps)) * v,
    }
    argv = ["sofic-check", "--group", spec, "--graph", graph, "--radius", str(r), "--epsilon", eps]
    return Job(argv, "sofic", expect)


def _torus_counts(n, d, r):
    return (n**d,) + tuple(ref.torus_good_count(n, d, k * r) for k in (1, 2, 3))


def _schreier_counts(steps, r):
    counts = [len(steps)]
    for k in (1, 2, 3):
        counts.append(sum(ref.free_ball_is_copied(steps, v, k * r) for v in range(len(steps))))
    return tuple(counts)


def _audit_job(spec, graph, n_vertices, d, rule, inverse, r, n_dim):
    good = ref.torus_good_count(n_vertices, d, 3 * r)
    expect = {
        "V": [ref.torus_good_count(n_vertices, d, k * r) for k in (1, 2, 3)],
        "min_rank": n_dim * good,
        "projection_verified": True if inverse else None,
    }
    argv = ["graph-audit", "--group", spec, "--graph", graph, "--rule", rule, "--radius", str(r)]
    if inverse:
        argv += ["--inverse", inverse]
    return Job(argv, "audit", expect)


def _sofic(rng, workdir, workers, tiny):
    n_schreier = 24 if tiny else 128
    steps = _schreier(rng, n_schreier)
    files = {
        "schreier.txt": _graph_text(steps),
        "tau.json": _rule_json(FIXTURES["z/invertible_pair_tau"]),
        "sigma.json": _rule_json(SIGMA),
        "corner_f2.json": _rule_json(FIXTURES["z2/corner_f2"]),
    }
    path = lambda name: "%s/%s" % (workdir, name)
    schreier = _sofic_job("free:2", "file:" + path("schreier.txt"), 1 if tiny else 2, "1/2",
                          _schreier_counts(steps, 1 if tiny else 2))
    if tiny:
        jobs = [
            _sofic_job("zd:1", "cycle:16", 1, "1/10", _torus_counts(16, 1, 1)),
            schreier,
            _audit_job("zd:1", "cycle:16", 16, 1, path("tau.json"), path("sigma.json"), 1, 2),
        ]
        return Workload("sofic", jobs, files)
    jobs = [
        _sofic_job("zd:2", "torus:16", 3, "1/10", _torus_counts(16, 2, 3)),
        _sofic_job("zd:3", "torus:6", 1, "1/10", _torus_counts(6, 3, 1)),
        schreier,
        _sofic_job("zd:1", "cycle:200", 6, "1/10", _torus_counts(200, 1, 6)),
        _audit_job("zd:1", "cycle:512", 512, 1, path("tau.json"), path("sigma.json"), 1, 2),
        _audit_job("zd:2", "torus:16", 16, 2, path("corner_f2.json"), None, 1, 1),
    ]
    return Workload("sofic", jobs, files)


# -- goe: Garden-of-Eden audits of linear rules
#
# A rule is (group spec, field spec, n, {element: n x n rows of scalars}).
# Scalars are ints (Q, F_p) or (c0, c1) pairs for c0 + c1*w in GF(4).

FIXTURES = {
    "z/identity": ("zd:1", "q", 1, {(0,): [[1]]}),
    "z/shift": ("zd:1", "q", 1, {(1,): [[1]]}),
    "z/diff": ("zd:1", "q", 1, {(0,): [[-1]], (1,): [[1]]}),
    "z/rank1_2x2": ("zd:1", "q", 2, {(0,): [[1, 0], [0, 0]], (1,): [[0, 1], [1, 0]], (2,): [[0, 0], [0, 1]]}),
    "z/invertible_pair_tau": ("zd:1", "q", 2, {(0,): [[1, 0], [0, 1]], (1,): [[0, 1], [0, 0]]}),
    "z2/identity_f3": ("zd:2", "f3", 1, {(0, 0): [[1]]}),
    "z2/shift_e1": ("zd:2", "q", 1, {(1, 0): [[1]]}),
    "z2/diff_e1": ("zd:2", "q", 1, {(0, 0): [[-1]], (1, 0): [[1]]}),
    "z2/zero": ("zd:2", "q", 1, {}),
    "z2/corner_f2": ("zd:2", "f2", 1, {(0, 0): [[1]], (1, 0): [[1]], (0, 1): [[1]]}),
}
SIGMA = ("zd:1", "q", 2, {(0,): [[1, 0], [0, 1]], (1,): [[0, -1], [0, 0]]})

# Rank over the fraction field of K[Z^d], from the symbol's determinant:
# rank1_2x2 has det = 1*x^2 - x*x = 0, the zero rule has rank 0.
FIXTURE_RANK = {"z/rank1_2x2": 1, "z2/zero": 0}


def _scalar_text(field, x):
    if field == "q":
        return str(x)
    if field == "gf4":
        c0, c1 = x
        terms = ["w^1"] if c1 else []
        if c0 or not terms:
            terms.append(str(c0))
        return "+".join(terms) + " in GF(4)"
    return "%d mod %s" % (x % int(field[1:]), field[1:])


def _rule_json(rule):
    spec, fld, n, symbol = rule
    group = ref.ref_group(spec)
    entries = [
        [group.text(g), [[_scalar_text(fld, v) for v in row] for row in symbol[g]]]
        for g in sorted(symbol)
    ]
    doc = {"group": spec, "variant": "linear", "payload": {"n": n, "field": fld, "symbol": entries}}
    return json.dumps(doc, sort_keys=True)


def _random_rule(rng, fld, n):
    """Linear rule on Z^2 with every matrix entry nonzero, drawn from ``rng``
    on a rotation or reflection of a corner memory, redrawn until the
    symbol's determinant is nonzero (so the rule is pre-injective and
    surjective)."""
    axes = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    a = rng.choice(axes)
    b = rng.choice([v for v in axes if v[0] * a[0] + v[1] * a[1] == 0])
    memory = [(0, 0), a, b]
    values, p = {"q": ([1, -1, 2], 0), "f3": ([1, 2], 3), "gf4": ([(0, 1), (1, 1)], None)}[fld]
    while True:
        symbol = {g: [[rng.choice(values) for _ in range(n)] for _ in range(n)] for g in memory}
        if n == 1:
            return ("zd:2", fld, n, symbol)
        entries = [[{g: symbol[g][i][j] for g in memory} for j in range(n)] for i in range(n)]
        if ref.laurent_det2(entries, p):
            return ("zd:2", fld, n, symbol)


def _goe(rng, workdir, workers, tiny):
    imax = {"zd:1": 4 if tiny else 64, "zd:2": 3 if tiny else 24}
    rmax = 2 if tiny else 10
    names = ["z/identity", "z/rank1_2x2", "z2/zero"] if tiny else list(FIXTURES)
    rules = {name: FIXTURES[name] for name in names}
    if not tiny:
        # The n = 2 rules are drawn once, not per seed: their elimination work
        # changes up to twofold with the entries and the memory's orientation,
        # while the n = 1 rules cost the same for every draw.
        for fld, n in (("q", 1), ("q", 2), ("f3", 2), ("gf4", 1)):
            draw = rng if n == 1 else random.Random("goe-%s-n%d" % (fld, n))
            rules["random_%s_n%d" % (fld, n)] = _random_rule(draw, fld, n)
    rules["sigma"] = SIGMA
    rules["tau"] = FIXTURES["z/invertible_pair_tau"]
    files = {name.replace("/", "_") + ".json": _rule_json(rule) for name, rule in rules.items()}
    path = lambda name: "%s/%s.json" % (workdir, name.replace("/", "_"))
    jobs = []
    for name in rules:
        if name in ("sigma", "tau"):
            continue
        spec, _, n, _ = rules[name]
        expect = {"n": n, "rank": FIXTURE_RANK.get(name, n)}
        argv = ["goe", "--rule", path(name), "--imax", str(imax[spec]), "--rmax", str(rmax)]
        jobs.append(Job(argv, "goe", expect))
    sigma_symbol = json.loads(files["sigma.json"])["payload"]["symbol"]
    jobs.append(Job(["ca-invert", "--rule", path("tau"), "--radius", "2" if tiny else "8"], "invert",
                    {"radius": 1, "symbol": sigma_symbol}))
    for name in ("tau", "z/rank1_2x2"):
        n = rules[name][2]
        expect = {"n": n, "rank": FIXTURE_RANK.get(name, n)}
        jobs.append(Job(["mdim", "--rule", path(name), "--imax", str(imax["zd:1"])], "mdim", expect))
    return Workload("goe", jobs, files)


# -- star: many small substitution products, plus embeddings

STAR_SPACES = [(g, f) for g in ("zd:1", "zd:2", "free:2") for f in ("q", "f5", "gf9")]
Q_COEFFS = [Fraction(c) for c in (1, 2, 3, -1, -2)] + [Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3)]
Q_POSITIVE = [c for c in Q_COEFFS if c > 0]
GF9_COEFFS = ["w", "(w+1)", "2*w", "(2*w+1)", "2", "(w+2)"]


def _coeff(rng, fld):
    if fld == "q":
        return rng.choice(Q_COEFFS)
    if fld == "f5":
        return rng.choice([1, 2, 3, 4, -1, -2])
    return rng.choice(GF9_COEFFS)


def _poly_terms(rng, group, fld, degree, nterms, radius):
    elems = sorted(ref.ball(group, radius))
    terms = [(_coeff(rng, fld), [])]  # a constant term keeps products dense
    for _ in range(nterms - 1):
        if degree == 1:
            mono = [(rng.choice(elems), 1)]
        else:
            g, h = rng.sample(elems, 2)
            first = rng.randint(1, degree - 1)
            mono = [(g, first), (h, degree - first)]
        terms.append((_coeff(rng, fld), mono))
    rng.shuffle(terms)
    return terms


def _poly_text(group, terms):
    """Input text of a polynomial; a negative leading coefficient gives a leading '-'."""
    out = ""
    for c, mono in terms:
        neg = not isinstance(c, str) and c < 0
        body = c if isinstance(c, str) else str(abs(c))
        factors = ["X[%s]" % group.text(g) + ("^%d" % e if e > 1 else "") for g, e in mono]
        text = "*".join(([body] if body != "1" or not factors else []) + factors)
        if out:
            out += (" - " if neg else " + ") + text
        else:
            out = ("-" if neg else "") + text
    return out


def _star(rng, workdir, workers, tiny):
    jobs = []
    per_space = 2 if tiny else 112
    for spec, fld in STAR_SPACES:
        group = ref.ref_group(spec)
        for i in range(per_space):
            alpha = _poly_terms(rng, group, fld, 4 + i % 3, 3, 1)
            beta = _poly_terms(rng, group, fld, 1 + i % 2, 2 + i % 2, 1)
            argv = ["star", "--group", spec, "--field", fld,
                    "--alpha=" + _poly_text(group, alpha), "--beta=" + _poly_text(group, beta)]
            jobs.append(Job(argv, "star", {"group": spec, "field": fld, "alpha": alpha, "beta": beta}))
    for spec, fld, kind in (("zd:1", "q", "iota"), ("zd:2", "f5", "iota"), ("free:2", "q", "iota"),
                            ("zd:1", "f5", "j"), ("zd:2", "f5", "j")):
        group = ref.ref_group(spec)
        elems = rng.sample(sorted(ref.ball(group, 1)), 2)
        terms = []
        for g in elems:
            c = rng.choice([1, 2, 3, 4]) if fld == "f5" else rng.choice(Q_POSITIVE)
            k = rng.randint(0, 2) if kind == "j" else 0
            terms.append((c, k, g))
        text = " + ".join("*".join([str(c)] + (["t^%d" % k] if k else []) + ["[%s]" % group.text(g)]) for c, k, g in terms)
        argv = ["embed", "--group", spec, "--field", fld, "--kind", kind, "--element=" + text]
        image = [(c, [(g, 5**k)]) for c, k, g in terms]
        jobs.append(Job(argv, "embed", {"group": spec, "field": fld, "image": image}))
    return Workload("star", jobs)
