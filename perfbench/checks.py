"""Correctness checks of CLI reports against independent answers.

Each check takes a job's expectations (computed by ``reference`` when the
job was generated) and the parsed report, and returns a description of
the first mismatch, or None.  ``CORRUPT`` holds, per check, an edit that
turns a correct report into a wrong one; the self-test uses it to show
that every check can fail.
"""

from __future__ import annotations

import json
from fractions import Fraction

import reference as ref


def _mismatch(what, got, want):
    return "%s: got %r, expected %r" % (what, got, want)


def check_search(e, doc):
    for key in ("space_size", "findings_count"):
        if doc[key] != e[key]:
            return _mismatch(key, doc[key], e[key])
    if sorted(doc["support"]) != e["support"]:
        return _mismatch("support", doc["support"], e["support"])
    if len(doc["findings"]) != doc["findings_count"]:
        return "findings list does not match findings_count"
    if doc["alarms"]:
        return "search raised %d alarms" % doc["alarms"]
    return None


def check_sofic(e, doc):
    counts = {k: doc["counts"][k] for k in e["counts"]}
    if counts != e["counts"]:
        return _mismatch("counts", counts, e["counts"])
    if doc["passed"] != e["passed"]:
        return _mismatch("passed", doc["passed"], e["passed"])
    if not all(doc["checks"].values()):
        return "structural checks failed: %r" % doc["checks"]
    return None


def check_audit(e, doc):
    got = [doc["V(r)"], doc["V(2r)"], doc["V(3r)"]]
    if got != e["V"]:
        return _mismatch("V(r), V(2r), V(3r)", got, e["V"])
    if doc["projection_verified"] is not e["projection_verified"]:
        return _mismatch("projection_verified", doc["projection_verified"], e["projection_verified"])
    if doc["transported_rank"] < e["min_rank"]:
        return _mismatch("transported_rank (at least)", doc["transported_rank"], e["min_rank"])
    if doc["rank_inequality_holds"] is False:
        return "rank inequality reported false"
    return None


def check_goe(e, doc):
    """A linear rule on Z^d whose symbol has rank n over the fraction field is
    pre-injective and surjective, and every plus window has full rank, so
    each q_i is n; a rank-deficient symbol has a finite kernel witness."""
    n, rank = e["n"], e["rank"]
    if doc["alarm"]:
        return "Garden-of-Eden alarm raised"
    if rank == n:
        want = ("consistent_surjective", "kernel_free_up_to", "full_rank_up_to")
    else:
        want = ("consistent_not_surjective", "not_pre_injective", "not_surjective")
    got = (doc["classification"], doc["preinjectivity"], doc["surjectivity"])
    if got != want:
        return _mismatch("verdicts", got, want)
    return _check_sequence(n, rank, doc["q_sequence"], doc["mdim_estimate"])


def _check_sequence(n, rank, sequence, estimate):
    seq = [Fraction(q) for q in sequence]
    if rank in (0, n) and any(q != rank for q in seq):
        return _mismatch("q_sequence", sequence, [str(rank)] * len(seq))
    if rank < n and not all(q < n for q in seq[1:]):
        return "q_sequence reaches the alphabet dimension %d" % n
    if (Fraction(estimate) == n) != (rank == n):
        return _mismatch("mdim_estimate", estimate, "%d" % n if rank == n else "below %d" % n)
    return None


def check_mdim(e, doc):
    return _check_sequence(e["n"], e["rank"], doc["q_sequence"], doc["estimate"])


def check_invert(e, doc):
    if not doc["found"] or doc["radius"] != e["radius"]:
        return _mismatch("found/radius", (doc["found"], doc["radius"]), (True, e["radius"]))
    symbol = doc["inverse"]["payload"]["symbol"]
    if symbol != e["symbol"]:
        return _mismatch("inverse symbol", symbol, e["symbol"])
    return None


def check_star(e, doc):
    if (doc["group"], doc["field"]) != (e["group"], e["field"]):
        return _mismatch("group/field", (doc["group"], doc["field"]), (e["group"], e["field"]))
    if not doc["product"] or not doc["reverse_product"]:
        return "empty product text"
    return None


def check_embed(e, doc):
    if (doc["group"], doc["field"]) != (e["group"], e["field"]):
        return _mismatch("group/field", (doc["group"], doc["field"]), (e["group"], e["field"]))
    return None


CHECKS = {
    "search": check_search,
    "sofic": check_sofic,
    "audit": check_audit,
    "goe": check_goe,
    "mdim": check_mdim,
    "invert": check_invert,
    "star": check_star,
    "embed": check_embed,
}


def check_report(job, code, text):
    """None when the job exited 0 and its report passes the job's check."""
    if code != 0:
        return "exit code %r" % (code,)
    try:
        doc = json.loads(text)
    except ValueError:
        return "report is not JSON"
    try:
        return CHECKS[job.check](job.expect, doc)
    except (KeyError, TypeError, ValueError) as exc:
        return "malformed report: %r" % (exc,)


def oracle_check(oracle, job, text):
    """Sympy expansion of alpha star beta (both orders) or of an embedding image."""
    e = job.expect
    doc = json.loads(text)
    group = ref.ref_group(e["group"])
    p = 5 if e["field"] == "f5" else 0
    if job.check == "embed":
        want = oracle.from_terms(group, e["image"])
        if not oracle.equal(oracle.from_text(group, doc["image"]), want, p):
            return "embedding image differs from the sympy expansion"
        return None
    for key, (a, b) in (("product", (e["alpha"], e["beta"])), ("reverse_product", (e["beta"], e["alpha"]))):
        if not oracle.equal(oracle.from_text(group, doc[key]), oracle.star(group, a, b), p):
            return "%s differs from the sympy expansion" % key
    return None


def _bump(key):
    def edit(doc):
        doc[key] = doc[key] + 1

    return edit


def _corrupt_counts(doc):
    doc["counts"]["V(r)"] += 1


def _corrupt_product(doc):
    doc["product"] = doc["product"] + " + 1"


def _corrupt_image(doc):
    doc["image"] = doc["image"] + " + 1"


def _corrupt_verdict(doc):
    doc["classification"] = "unresolved"


def _corrupt_q(doc):
    n = str(doc["rule"]["payload"]["n"])
    doc["q_sequence"][-1] = "1/7" if doc["q_sequence"][-1] == n else n


def _corrupt_symbol(doc):
    doc["inverse"]["payload"]["symbol"] = doc["inverse"]["payload"]["symbol"][:-1]


# check name -> (edit for the per-report check, whether only the oracle sees it)
CORRUPT = {
    "search": (_bump("findings_count"), False),
    "sofic": (_corrupt_counts, False),
    "audit": (_bump("V(3r)"), False),
    "goe": (_corrupt_verdict, False),
    "mdim": (_corrupt_q, False),
    "invert": (_corrupt_symbol, False),
    "star": (_corrupt_product, True),
    "embed": (_corrupt_image, True),
}
