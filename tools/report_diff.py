#!/usr/bin/env python3
"""Compare this checkout's CLI reports with those of another git revision.

    python3 tools/report_diff.py REF [--seed N]

Builds the seed-N ``exact`` and ``kaplansky`` job lists with this
checkout's ``perfbench/workloads.py`` and writes their input files to one
temporary directory that both sides share.  A ``ca-invert --radius 3`` job
follows for each of the 17 rule files of the ``exact`` list, whose
workload inverts only one rule, so that left-inverse synthesis is compared
over Q, F3 and GF(4), on Z and Z^2, with and without an inverse, and a
``goe`` job (``GOE_PAST_IMAX``) for each of them that is a linear rule on
Z^d, at ``--rmax 3`` past ``--imax 4``: the last window of the chain, the
box of side 7, is then ranked on its own rather than read off the
mean-dimension boxes.  Three more invert free:2 rules (``FREE_RULES``):
the shifts by a and by a^-1, which are each other's inverses, and 1 - a,
which has none, so that the walk along the window chain is compared on
balls, where ``goe`` does not run.  A ``graph-audit`` then transports the
shift by a and its inverse onto a 1024-vertex Schreier graph
(``FREE_AUDIT_GRAPH``) at radius 1, where V(3r) holds 114 vertices, so
that the audit's transport through ball copies that are not translations
is compared too.  The three Q rule files of ``Q_RULES`` each run ``goe``
(at ``--imax 8`` and with ``GOE_PAST_IMAX``), ``mdim``, ``ca-invert`` and
``graph-audit`` on a cycle or a torus (15 jobs): the workloads' Q rules
have small integer entries, so that a window rank over Q is settled by its
certificate modulo 2^31 - 1 whenever it is full, while these have
fractional entries, entries that are multiples of the prime and a
denominator equal to it, so that the fallbacks to Q are compared too.
Eight searches on cyclic groups follow (``CYCLIC_SEARCHES``): the
workloads' searches have only empty or trivial findings, while these find
nontrivial units, idempotents and zero divisors, so a search that loses a
finding changes the records.  A ninth, ``POOLED_SEARCH`` (162 unit
findings), runs at ``--workers 2``: its first round of 9841 betas, about
2 200 of them past eps and each a 10-column solve, holds enough estimated
work to be cut into chunks for a worker pool, so the pooled path is
compared with findings too.  A tenth, ``FILTER_SEARCH``, looks for the
idempotents over 15 monomials, where the point filter skips all but a few
of its 12 288 alphas, and an eleventh, ``UNIT_FILTER_SEARCH``, for the F2
units over the same 15 monomials (6 findings), where the unit projection
skips most betas past eps.  A twelfth, ``LANE_UNIT_SEARCH``, looks for the
F2 units over m = 21 monomials (10 findings), whose 2^20 representatives
cross 64 blocks of the lanes that test them.  Each writes its
``--findings`` file into the temporary directory.  Two ``star`` and two ``embed`` jobs follow for each
of the seven shipped extensions that no workload job reaches
(``EXTENSION_FIELDS``), with powers in their texts, so that near-ring,
group-ring and twisted powers are compared on int-coded fields.  The six
``PATH_JOBS`` enter CLI paths that no other job does: a ``sofic-check`` on
the full Cayley graph of cyclic:6, an ``embed`` whose Q power of
commuting free:2 terms is bounded through their root word, two ``star``
products whose substituted monomial exceeds ``TERM_CAP`` by its
multinomial count, so that its box of exponents decides: it refuses the
first (exit 2) and lets the second through, a ``star`` on texts of
cyclic:3 elements and one on a text that does not parse (exit 2).  Then
``ca-step``, ``ca-compose`` and ``ca-invert`` run on the rule files of
``CA_RULES``, of all three kinds, among them the zero linear rule, a
free:2 rule over GF(4), a rule on cyclic:3, and a linear and a table rule
whose memory lacks the identity, so that their M-interiors leave the
pattern's domain: each rule steps its pattern in minus mode and in plus
mode at ``--window`` 0 and 1 (27 jobs), ``CA_COMPOSE`` composes rules of
one kind and of two kinds (10 jobs) and ``CA_INVERT`` inverts three of
them.  That makes 1188 jobs for every seed.  It runs every job through
``groupca.cli.run_job`` twice, each time in one fresh interpreter: once on
REF's ``src/`` (extracted with ``git archive``) and once on this
checkout's ``src/``.  For each job it records the argv, the exit code,
stdout, stderr and the bytes of its ``--findings`` file (null for a job
that names none or writes none); each side deletes the file once read.

It prints each side's job count and the md5 of its records.  When the two
differ it names the first differing job and exits with status 1; it exits
with status 0 when they agree.  Nothing is written inside the repository.

CI runs it against a pull request's base commit in a job that does not
gate the merge: a change may alter reports on purpose.  The tier-1 job
runs ``HEAD --seed 1`` on every push and does gate: both sides then run
the same source, each in an interpreter with its own hash seed, so any
difference is a report that is not byte-deterministic.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.dont_write_bytecode = True  # imports from this checkout must leave no __pycache__ in it

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("exact", "kaplansky")
SEARCH_WORKERS = 2
# linear rules on free:2 over Q, as rule files: file name -> symbol
FREE_RULES = {
    "free2_shift_a.json": [["a", [["1"]]]],
    "free2_shift_a_inv.json": [["a^-1", [["1"]]]],
    "free2_one_minus_a.json": [["1", [["1"]]], ["a", [["-1"]]]],
}
# goe options whose last window, the box of side 2 * 3 + 1 = 7, lies past the mean-dimension boxes
GOE_PAST_IMAX = ["--imax", "4", "--rmax", "3"]
# the graph of the free:2 graph-audit: V(r), V(2r), V(3r) hold 988, 810 and 114 of its vertices at r = 1
FREE_AUDIT_GRAPH = "schreier:1024:1"
# Q rules off the rank certificate's small-integer path: file name -> (group,
# symbol, graph of the graph-audit job).  Fractional entries are certified
# mod 2^31 - 1; entries that are multiples of the prime make every window
# rank deficient mod p, and a denominator equal to the prime sends every
# window with that entry to Q.
_P = 2**31 - 1
Q_RULES = {
    "q_fractional.json": (
        "zd:1", [["(0)", [["1/2", "-1/3"], ["0", "2/7"]]], ["(1)", [["2/7", "0"], ["-1/3", "1/2"]]]], "cycle:12",
    ),
    "q_prime_multiples.json": (
        "zd:1", [["(0)", [["1", "0"], ["0", str(_P)]]], ["(1)", [["0", str(_P)], [str(2 * _P), "0"]]]], "cycle:12",
    ),
    "q_denominator_prime.json": (
        "zd:2", [["(0,0)", [["1/%d" % _P]]], ["(1,0)", [["1"]]], ["(0,1)", [["-2/3"]]]], "torus:6",
    ),
}
# (command, group, field, degree) of searches with nontrivial findings, all at --radius 1
CYCLIC_SEARCHES = (
    ("units", "cyclic:2", "f2", 2),
    ("idem", "cyclic:2", "f2", 2),
    ("zerodiv", "cyclic:2", "f2", 2),
    ("idem", "cyclic:2", "f3", 2),
    ("idem", "cyclic:3", "f2", 1),
    ("idem", "cyclic:3", "f2", 2),
    ("units", "cyclic:3", "f3", 1),
    ("zerodiv", "cyclic:3", "f3", 1),
)
# a search with findings whose first round forks a worker pool at SEARCH_WORKERS
POOLED_SEARCH = ("units", "cyclic:3", "f3", 2)
# an idempotent search over m = 15 monomials, 12 288 alphas past eps, whose 3 findings the point filter must keep
FILTER_SEARCH = ["idem", "--group", "zd:1", "--field", "f2", "--degree", "2", "--support=(-2);(-1);(0);(1)"]
# the F2 unit search over those 15 monomials, whose 6 trivial units the unit projection must keep
UNIT_FILTER_SEARCH = ["units"] + FILTER_SEARCH[1:]
# the F2 unit search over m = 21 monomials: 2^20 representatives, 64 full blocks of 2^LANE_BITS lanes
LANE_UNIT_SEARCH = ["units", "--group", "zd:1", "--field", "f2", "--degree", "2", "--support=(-2);(-1);(0);(1);(2)",
                    "--space-cap", "4194304"]
# the shipped extensions that no workload job reaches (those use gf9, and CA_RULES gf4), and texts with
# powers for them: the near-ring and group-ring powers go by base-p digits through the Frobenius map,
# and the twisted power through Frobenius-twisted products, all on int codes
EXTENSION_FIELDS = ("gf8", "gf16", "gf27", "gf81", "gf25", "gf125", "gf625")
EXTENSION_JOBS = (
    ["star", "--group", "zd:1", "--alpha=(w*X[(0)] + X[(1)])^7 + w^2", "--beta=(X[(0)] + w)^2 + w^3*X[(-1)]"],
    ["star", "--group", "free:2", "--alpha=X[a]^2*(w + X[b])^6", "--beta=w^2*X[1] + (X[a^-1] - w)^2"],
    ["embed", "--group", "zd:1", "--kind", "iota", "--element=(w*[(0)] + [(1)])^5 + w^2*[(2)]"],
    ["embed", "--group", "zd:2", "--kind", "j", "--element=(w + t)^7*[(1,0)] + w^3*t^2*[(0,1)]"],
)
# CLI paths that no job above enters: the full Cayley graph of a finite group, the size bound of a Q power
# whose free-group terms commute (through FreeGroup.root), the box bound of star's substituted monomials,
# which refuses the first product (exit 2) and lets the second through, texts of finite-group elements,
# and a text that does not parse (exit 2)
PATH_JOBS = (
    ["sofic-check", "--group", "cyclic:6", "--graph", "full", "--radius", "1", "--epsilon", "0.1"],
    ["embed", "--group", "free:2", "--field", "q", "--kind", "iota", "--element=([a] + 2*[a^2] + [a^-1])^4"],
    ["star", "--group", "zd:1", "--field", "q", "--alpha=X[(0)]^600*X[(1)]^600", "--beta=X[(0)] + X[(1)] + 1"],
    ["star", "--group", "zd:1", "--field", "q", "--alpha=X[(0)]^8*X[(1)]^8",
     "--beta=1 + X[(0)] + X[(0)]^2 + X[(0)]^3 + X[(0)]^4 + X[(0)]^5"],
    ["star", "--group", "cyclic:3", "--field", "f2", "--alpha=X[#1]*X[#2] + 1", "--beta=X[#0] + X[#1]"],
    ["star", "--group", "zd:1", "--field", "q", "--alpha=X[(0)] X[(1)]", "--beta=1"],
)
# pattern domains: the radius-2 balls of Z, Z^2 and free:2, and all of cyclic:3; letter i ^ 1 is the inverse of letter i
_LETTERS = ("a", "a^-1", "b", "b^-1")
CA_DOMAINS = {
    "zd:1": ["(%d)" % k for k in range(-2, 3)],
    "zd:2": ["(%d,%d)" % (x, y) for x in range(-2, 3) for y in range(-2, 3) if abs(x) + abs(y) <= 2],
    "free:2": ["1", *_LETTERS] + ["%s*%s" % (_LETTERS[i], _LETTERS[j]) for i in range(4) for j in range(4) if j != i ^ 1],
    "cyclic:3": ["#0", "#1", "#2"],
}
# rule files of all three kinds: file name -> (group, variant, payload, cell value texts of its pattern)
CA_RULES = {
    "ca_shift_q.json": ("zd:1", "linear", {"n": 1, "field": "q", "symbol": [["(1)", [["1"]]]]}, ["2", "-1", "0", "1/2", "3"]),
    "ca_zero_q.json": ("zd:1", "linear", {"n": 1, "field": "q", "symbol": []}, ["1", "-2", "5/3"]),
    "ca_pair_f3.json": (
        "zd:2", "linear",
        {"n": 2, "field": "f3", "symbol": [["(0,0)", [["1", "1"], ["0", "1"]]], ["(1,0)", [["0", "2"], ["1", "0"]]]]},
        ["0", "1", "2", "2", "1"],
    ),
    "ca_free2_gf4.json": ("free:2", "linear", {"n": 1, "field": "gf4", "symbol": [["1", [["1"]]], ["a", [["w"]]]]}, ["w", "1", "0", "w+1"]),
    "ca_poly_q.json": ("zd:1", "polynomial", {"field": "q", "expr": "X[(1)]^2 - 3*X[(0)] + 1/2"}, ["1", "-2", "0", "2/3"]),
    "ca_poly_free2_f5.json": ("free:2", "polynomial", {"field": "f5", "expr": "2*X[a]*X[b^-1] + X[1]^3"}, ["0", "1", "2", "3", "4"]),
    "ca_xor.json": (
        "zd:1", "table",
        {"alphabet": [0, 1], "memory": ["(0)", "(1)"], "map": [[[a, b], (a + b) % 2] for a in (0, 1) for b in (0, 1)]},
        [1, 0, 1, 1, 0],
    ),
    "ca_swap.json": ("zd:1", "table", {"alphabet": ["x", "y"], "memory": ["(1)"], "map": [[["x"], "y"], [["y"], "x"]]}, ["x", "y", "y"]),
    "ca_cyclic3_f2.json": ("cyclic:3", "linear", {"n": 1, "field": "f2", "symbol": [["#0", [["1"]]], ["#1", [["1"]]]]}, ["1", "0", "1"]),
}
# (tau, sigma) of the ca-compose jobs: the same kind, and the last two of different kinds
CA_COMPOSE = (
    ("ca_shift_q.json", "ca_zero_q.json"),
    ("ca_pair_f3.json", "ca_pair_f3.json"),
    ("ca_free2_gf4.json", "ca_free2_gf4.json"),
    ("ca_poly_q.json", "ca_poly_q.json"),
    ("ca_poly_free2_f5.json", "ca_poly_free2_f5.json"),
    ("ca_xor.json", "ca_xor.json"),
    ("ca_swap.json", "ca_swap.json"),
    ("ca_cyclic3_f2.json", "ca_cyclic3_f2.json"),
    ("ca_shift_q.json", "ca_poly_q.json"),
    ("ca_xor.json", "ca_shift_q.json"),
)
CA_INVERT = ("ca_zero_q.json", "ca_pair_f3.json", "ca_free2_gf4.json")


def ca_files(fname):
    """The rule document of CA_RULES[fname] and a pattern on its group's domain."""
    group, variant, payload, cells = CA_RULES[fname]
    domain = CA_DOMAINS[group]
    n = payload["n"] if variant == "linear" else None
    values = [cells[i % len(cells)] if n is None else [cells[(i + j) % len(cells)] for j in range(n)] for i in range(len(domain))]
    return {"group": group, "variant": variant, "payload": payload}, {"domain": domain, "values": values}


def build_jobs(seed, tmp):
    """The argv of every job of the seed's workloads, with their files written to ``tmp/jobs``.

    The argv name the files relative to ``tmp``, where both sides run, so
    the records and their md5 do not depend on the temporary directory.
    """
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    (tmp / "jobs").mkdir()
    argvs = []
    for name in WORKLOADS:
        wl = workloads.build(name, seed, "jobs", SEARCH_WORKERS)
        for fname, text in wl.files.items():
            (tmp / "jobs" / fname).write_text(text, encoding="utf-8")
        argvs.extend(job.argv for job in wl.jobs)
        if name == "exact":
            rules = sorted(fname for fname in wl.files if fname.endswith(".json"))
            argvs.extend(["ca-invert", "--rule", "jobs/" + fname, "--radius", "3"] for fname in rules)
            docs = {fname: json.loads(wl.files[fname]) for fname in rules}
            argvs.extend(["goe", "--rule", "jobs/" + fname, *GOE_PAST_IMAX] for fname, doc in docs.items()
                         if doc["variant"] == "linear" and doc["group"].startswith("zd:"))
    for fname, symbol in FREE_RULES.items():
        rule = {"group": "free:2", "variant": "linear", "payload": {"n": 1, "field": "q", "symbol": symbol}}
        (tmp / "jobs" / fname).write_text(json.dumps(rule), encoding="utf-8")
        argvs.append(["ca-invert", "--rule", "jobs/" + fname, "--radius", "3"])
    argvs.append(["graph-audit", "--group", "free:2", "--graph", FREE_AUDIT_GRAPH, "--rule", "jobs/free2_shift_a.json",
                  "--inverse", "jobs/free2_shift_a_inv.json", "--radius", "1"])
    for fname, (group, symbol, graph) in Q_RULES.items():
        rule = {"group": group, "variant": "linear", "payload": {"n": len(symbol[0][1]), "field": "q", "symbol": symbol}}
        (tmp / "jobs" / fname).write_text(json.dumps(rule), encoding="utf-8")
        path = "jobs/" + fname
        argvs += [
            ["goe", "--rule", path, "--imax", "8", "--rmax", "3"],
            ["goe", "--rule", path, *GOE_PAST_IMAX],
            ["mdim", "--rule", path, "--imax", "8"],
            ["ca-invert", "--rule", path, "--radius", "3"],
            ["graph-audit", "--group", group, "--graph", graph, "--rule", path, "--radius", "1"],
        ]
    for i, (cmd, group, field, degree) in enumerate(CYCLIC_SEARCHES + (POOLED_SEARCH,)):
        workers = ["--workers", str(SEARCH_WORKERS)] if i == len(CYCLIC_SEARCHES) else []
        argvs.append([cmd, "--group", group, "--field", field, "--degree", str(degree), "--radius", "1", *workers,
                      "--findings", "findings_%d.jsonl" % i])
    argvs.append(FILTER_SEARCH + ["--findings", "findings_filter.jsonl"])
    argvs.append(UNIT_FILTER_SEARCH + ["--findings", "findings_unit_filter.jsonl"])
    argvs.append(LANE_UNIT_SEARCH + ["--findings", "findings_lane_unit.jsonl"])
    argvs.extend(job + ["--field", field] for field in EXTENSION_FIELDS for job in EXTENSION_JOBS)
    argvs.extend(PATH_JOBS)
    for fname in CA_RULES:
        rule, pattern = ca_files(fname)
        (tmp / "jobs" / fname).write_text(json.dumps(rule), encoding="utf-8")
        (tmp / "jobs" / ("pattern_" + fname)).write_text(json.dumps(pattern), encoding="utf-8")
        step = ["ca-step", "--rule", "jobs/" + fname, "--pattern", "jobs/pattern_" + fname, "--mode"]
        argvs += [step + ["minus"], step + ["plus", "--window", "0"], step + ["plus", "--window", "1"]]
    argvs.extend(["ca-compose", "--rule", "jobs/" + tau, "--rule2", "jobs/" + sigma] for tau, sigma in CA_COMPOSE)
    argvs.extend(["ca-invert", "--rule", "jobs/" + fname, "--radius", "3"] for fname in CA_INVERT)
    return argvs


def read_findings(argv):
    """The text of the job's ``--findings`` file, deleted once read, or None."""
    if "--findings" not in argv:
        return None
    path = Path(argv[argv.index("--findings") + 1])
    if not path.exists():
        return None
    data = path.read_bytes().decode("utf-8")
    path.unlink()
    return data


def run_side(src, jobs_path, out_path):
    """Run every job on the groupca under ``src`` and write one record per job."""
    sys.path.insert(0, src)
    import groupca.cli

    if Path(groupca.__file__).resolve().parent != (Path(src) / "groupca").resolve():
        sys.exit("report_diff: imported groupca from %s, not from %s" % (groupca.__file__, src))
    records = []
    for argv in json.loads(Path(jobs_path).read_text(encoding="utf-8")):
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = groupca.cli.run_job(argv)
        except SystemExit as exc:
            code = "SystemExit(%r)" % (exc.code,)
        except Exception as exc:  # a crashing job is a record to compare, not a failed comparison
            code = "%s: %s" % (type(exc).__name__, exc)
        records.append([argv, code, out.getvalue(), err.getvalue(), read_findings(argv)])
    Path(out_path).write_text(json.dumps(records), encoding="utf-8")


def extract_src(ref, dest):
    """Unpack REF's ``src/`` under ``dest`` with ``git archive``; return the ``src`` path."""
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", ref, "src"],
        capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest / "src"


def side_records(src, jobs_path, out_path, tmp):
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--side", str(src), str(jobs_path), str(out_path)],
        cwd=tmp, check=True,
    )
    text = Path(out_path).read_text(encoding="utf-8")
    return json.loads(text), hashlib.md5(text.encode("utf-8")).hexdigest()


def first_difference(ref_records, head_records):
    for i, (a, b) in enumerate(zip(ref_records, head_records)):
        if a != b:
            fields = [name for name, x, y in zip(("argv", "exit code", "stdout", "stderr", "findings file"), a, b) if x != y]
            return "job %d (%s) differs in %s" % (i, " ".join(b[0]), ", ".join(fields))
    return "the job counts differ"


def main(argv=None):
    parser = argparse.ArgumentParser(description="Compare the seed's exact and kaplansky reports with REF's.")
    parser.add_argument("ref", help="git revision to compare against, e.g. HEAD or a commit id")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="report_diff-") as name:
        tmp = Path(name)
        jobs_path = tmp / "jobs.json"
        jobs_path.write_text(json.dumps(build_jobs(args.seed, tmp)), encoding="utf-8")
        ref_src = extract_src(args.ref, tmp / "ref")
        ref_records, ref_md5 = side_records(ref_src, jobs_path, tmp / "ref.json", tmp)
        head_records, head_md5 = side_records(ROOT / "src", jobs_path, tmp / "head.json", tmp)
    print("%s: %d jobs, md5 %s" % (args.ref, len(ref_records), ref_md5))
    print("checkout: %d jobs, md5 %s" % (len(head_records), head_md5))
    if ref_md5 != head_md5:
        print("DIFFERENT: " + first_difference(ref_records, head_records))
        return 1
    print("identical")
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 5 and sys.argv[1] == "--side":
        run_side(*sys.argv[2:])
    else:
        sys.exit(main())
