"""Command-line surface.

Subcommands dispatch into the library and emit deterministic reports:
identical inputs and seed produce byte-identical output, independent of
the worker count.  Reports are single JSON documents (sorted keys, exact
rationals as strings); search findings stream as JSON lines.

Exit codes: 0 success, 1 theorem-violation alarm, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .ca import (
    CAError,
    compose,
    pattern_from_json,
    pattern_to_json,
    rule_from_json,
    rule_to_json,
)
from .expressions import ParseError, format_element, parse_element
from .group_ring import GroupRingError
from .groups import FiniteSubset, GroupError, ball, parse_group_spec
from .linear_ca import find_left_inverse, goe_report, mdim_estimate
from .near_ring import NearRingError, embed_group_ring, embed_twisted, exhaustive_search
from .rings import QQ, RingError, exact_decimal, field_from_spec
from .sofic import SoficError, cayley_quotient, graph_ca_rank_audit, graph_from_text

_ERRORS = (CAError, GroupError, GroupRingError, NearRingError, ParseError, RingError, SoficError, ValueError, OSError)


def _write(text, path):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(doc, out_path):
    _write(json.dumps(doc, sort_keys=True, indent=2) + "\n", out_path)


def _emit_lines(lines, path):
    _write("".join(json.dumps(line, sort_keys=True) + "\n" for line in lines), path)


def _load_rule(path):
    with open(path, "r", encoding="utf-8") as fh:
        return rule_from_json(json.load(fh))


def _base_report(args, command):
    return {"command": command, "seed": args.seed, "version": __version__}


def _support_subset(group, args):
    if args.support:
        elems = [group.parse_element(t) for t in args.support.split(";") if t.strip()]
        return FiniteSubset(group, elems)
    return ball(group, args.radius)


# -- subcommand handlers ------------------------------------------------


def _cmd_star(args):
    group = parse_group_spec(args.group)
    field = field_from_spec(args.field)
    alpha = parse_element(args.alpha, group, field, kind="near_ring")
    beta = parse_element(args.beta, group, field, kind="near_ring")
    product = alpha.star(beta)
    reverse = beta.star(alpha)
    doc = _base_report(args, "star")
    doc.update(
        {
            "group": args.group,
            "field": args.field,
            "alpha": format_element(alpha),
            "beta": format_element(beta),
            "product": format_element(product),
            "reverse_product": format_element(reverse),
        }
    )
    _emit(doc, args.out)
    return 0


def _finding_doc(finding):
    doc = {
        "kind": finding.kind,
        "alpha": format_element(finding.alpha),
        "beta": format_element(finding.beta) if finding.beta is not None else None,
        "product": format_element(finding.product),
        "classification": finding.classification,
    }
    if "reverse_product" in finding.detail:
        doc["reverse_product"] = format_element(finding.detail["reverse_product"])
    return doc


def _search_alarms(kind, result, group, field):
    """Findings that would contradict the structure theorems."""
    from .near_ring import NearRingElement

    alarms = []
    ident = NearRingElement.identity(group, field)
    for f in result.findings:
        if kind == "unit":
            if f.classification != "trivial_unit":
                alarms.append(f)
            elif f.detail.get("reverse_product") != ident:
                alarms.append(f)
        elif kind == "zero_divisor":
            alarms.append(f)
        else:  # idempotent: constants and the star unit are the expected shapes
            if not f.alpha.is_constant() and f.alpha != ident:
                alarms.append(f)
    return alarms


def _cmd_search(kind):
    def handler(args):
        group = parse_group_spec(args.group)
        field = field_from_spec(args.field)
        support = _support_subset(group, args)
        result = exhaustive_search(
            kind, field, support, args.degree, space_cap=args.space_cap, workers=args.workers
        )
        findings = [_finding_doc(f) for f in result.findings]
        alarms = _search_alarms(kind, result, group, field)
        doc = _base_report(args, kind)
        doc.update(
            {
                "group": args.group,
                "field": args.field,
                "support": [str(g) for g in support],
                "max_total_degree": args.degree,
                "space_size": result.space_size,
                "monomials": len(result.monomials),
                "findings_count": len(findings),
                "alarms": len(alarms),
                "findings": findings,
            }
        )
        _emit(doc, args.out)
        if args.findings:
            _emit_lines(findings, args.findings)
        return 1 if alarms else 0

    return handler


def _cmd_embed(args):
    group = parse_group_spec(args.group)
    field = field_from_spec(args.field)
    doc = _base_report(args, "embed")
    if args.kind == "iota":
        elem = parse_element(args.element, group, field, kind="group_ring")
        image = embed_group_ring(elem)
    else:
        elem = parse_element(args.element, group, field, kind="twisted")
        image = embed_twisted(elem)
    doc.update(
        {
            "group": args.group,
            "field": args.field,
            "kind": args.kind,
            "element": format_element(elem),
            "image": format_element(image),
        }
    )
    _emit(doc, args.out)
    return 0


def _cmd_ca_step(args):
    ca = _load_rule(args.rule)
    with open(args.pattern, "r", encoding="utf-8") as fh:
        pattern = pattern_from_json(json.load(fh), ca)
    if args.mode == "plus":
        window = ball(ca.group, args.window)
        out = ca.apply_window(pattern, "plus", window)
    else:
        out = ca.apply_window(pattern, "minus")
    doc = _base_report(args, "ca-step")
    doc.update({"rule": rule_to_json(ca), "mode": args.mode, "output": pattern_to_json(out, ca)})
    _emit(doc, args.out)
    return 0


def _cmd_ca_compose(args):
    tau = _load_rule(args.rule)
    sigma = _load_rule(args.rule2)
    composite = compose(tau, sigma)
    doc = _base_report(args, "ca-compose")
    doc.update({"composite": rule_to_json(composite)})
    _emit(doc, args.out)
    return 0


def _cmd_ca_invert(args):
    ca = _load_rule(args.rule)
    report = find_left_inverse(ca, args.radius)
    doc = _base_report(args, "ca-invert")
    doc.update(
        {
            "rule": rule_to_json(ca),
            "found": report.found,
            "radius": report.radius,
            "inverse": rule_to_json(report.inverse) if report.found else None,
        }
    )
    _emit(doc, args.out)
    return 0


def _cmd_mdim(args):
    ca = _load_rule(args.rule)
    report = mdim_estimate(ca, args.imax)
    doc = _base_report(args, "mdim")
    doc.update(
        {
            "rule": rule_to_json(ca),
            "i_max": args.imax,
            "q_sequence": [str(q) for q in report.sequence],
            "q_decimal": [exact_decimal(q) for q in report.sequence],
            "estimate": str(report.estimate),
            "estimate_decimal": exact_decimal(report.estimate),
        }
    )
    _emit(doc, args.out)
    return 0


def _cmd_goe(args):
    ca = _load_rule(args.rule)
    report = goe_report(ca, i_max=args.imax, r_max=args.rmax)
    doc = _base_report(args, "goe")
    witness = None
    if report.preinjectivity.witness is not None:
        witness = pattern_to_json(report.preinjectivity.witness, ca)
    doc.update(
        {
            "rule": rule_to_json(ca),
            "classification": report.classification,
            "alarm": report.alarm,
            "mdim_estimate": str(report.mdim.estimate),
            "mdim_estimate_decimal": exact_decimal(report.mdim.estimate),
            "q_sequence": [str(q) for q in report.mdim.sequence],
            "preinjectivity": report.preinjectivity.verdict,
            "preinjectivity_witness": witness,
            "surjectivity": report.surjectivity.verdict,
            "notes": report.notes,
        }
    )
    _emit(doc, args.out)
    return 1 if report.alarm else 0


def _load_graph(args, group):
    if args.graph.startswith("file:"):
        with open(args.graph[5:], "r", encoding="utf-8") as fh:
            return graph_from_text(group, fh.read())
    return cayley_quotient(group, args.graph, seed=args.seed)


def _cmd_sofic_check(args):
    from .sofic import certificate

    group = parse_group_spec(args.group)
    graph = _load_graph(args, group)
    cert = certificate(graph, args.radius, QQ.parse(args.epsilon))
    doc = _base_report(args, "sofic-check")
    doc.update(
        {
            "group": args.group,
            "graph": cert.graph_meta,
            "r": cert.r,
            "epsilon": str(cert.epsilon),
            "counts": cert.counts(),
            "ball_2r_size": cert.ball_2r_size,
            "passed": cert.passed,
            "checks": {k: bool(v) for k, v in cert.checks.items()},
            "v_r": cert.v_r,
            "v_2r": cert.v_2r,
            "v_3r": cert.v_3r,
            "packing": cert.packing,
        }
    )
    _emit(doc, args.out)
    return 0


def _cmd_graph_audit(args):
    group = parse_group_spec(args.group)
    graph = _load_graph(args, group)
    ca = _load_rule(args.rule)
    inverse = _load_rule(args.inverse) if args.inverse else None
    report = graph_ca_rank_audit(graph, ca, args.radius, left_inverse=inverse)
    doc = _base_report(args, "graph-audit")
    doc.update(
        {
            "group": args.group,
            "graph": dict(graph.meta),
            "r": args.radius,
            "transported_rank": report.transported_rank,
            "n": report.n_dim,
            "V(r)": report.v_r,
            "V(2r)": report.v_2r,
            "V(3r)": report.v_3r,
            "projection_verified": report.projection_verified,
            "rank_inequality_holds": report.inequality_holds,
        }
    )
    _emit(doc, args.out)
    alarm = report.projection_verified is False or report.inequality_holds is False
    return 1 if alarm else 0


# -- parser -------------------------------------------------------------


def _add_common(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="report path (stdout when omitted)")
    p.add_argument("--job", default=None, help="JSON/TOML file with option defaults")


def build_parser():
    parser = argparse.ArgumentParser(prog="groupca", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("star", help="star-product of two near-ring elements")
    p.add_argument("--group", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_star)

    for name, kind in (("units", "unit"), ("idem", "idempotent"), ("zerodiv", "zero_divisor")):
        p = sub.add_parser(name, help="exhaustive %s search" % kind)
        p.add_argument("--group", required=True)
        p.add_argument("--field", required=True)
        p.add_argument("--degree", type=int, required=True)
        p.add_argument("--radius", type=int, default=1, help="support = ball of this radius")
        p.add_argument("--support", default=None, help="explicit support, ';'-separated elements")
        p.add_argument("--space-cap", type=int, default=2**20)
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--findings", default=None, help="JSONL findings path")
        _add_common(p)
        p.set_defaults(handler=_cmd_search(kind))

    p = sub.add_parser("embed", help="embed a (twisted) group-ring element")
    p.add_argument("--group", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--kind", choices=["iota", "j"], required=True)
    p.add_argument("--element", required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_embed)

    p = sub.add_parser("ca-step", help="apply a rule to a pattern on a window")
    p.add_argument("--rule", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--mode", choices=["plus", "minus"], default="minus")
    p.add_argument("--window", type=int, default=1, help="plus-mode window radius")
    _add_common(p)
    p.set_defaults(handler=_cmd_ca_step)

    p = sub.add_parser("ca-compose", help="compose two rules")
    p.add_argument("--rule", required=True)
    p.add_argument("--rule2", required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_ca_compose)

    p = sub.add_parser("ca-invert", help="synthesize a left inverse")
    p.add_argument("--rule", required=True)
    p.add_argument("--radius", type=int, default=8)
    _add_common(p)
    p.set_defaults(handler=_cmd_ca_invert)

    p = sub.add_parser("mdim", help="mean-dimension estimate along boxes")
    p.add_argument("--rule", required=True)
    p.add_argument("--imax", type=int, default=16)
    _add_common(p)
    p.set_defaults(handler=_cmd_mdim)

    p = sub.add_parser("goe", help="Garden-of-Eden consistency audit")
    p.add_argument("--rule", required=True)
    p.add_argument("--imax", type=int, default=16)
    p.add_argument("--rmax", type=int, default=8)
    _add_common(p)
    p.set_defaults(handler=_cmd_goe)

    p = sub.add_parser("sofic-check", help="sofic approximation certificate")
    p.add_argument("--group", required=True)
    p.add_argument("--graph", required=True, help="cycle:N | torus:N | schreier:N:SEED | full | file:PATH")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--epsilon", required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_sofic_check)

    p = sub.add_parser("graph-audit", help="transported rank audit on a labeled graph")
    p.add_argument("--group", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--rule", required=True)
    p.add_argument("--inverse", default=None)
    p.add_argument("--radius", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_graph_audit)

    return parser


def _apply_job_file(argv):
    """Use a job file's keys as defaults for the named subcommand.

    The file is named by ``--job PATH`` or ``--job=PATH`` and holds a JSON
    object or a TOML table whose values are strings or numbers.
    """
    i = next((i for i, arg in enumerate(argv) if arg == "--job" or arg.startswith("--job=")), None)
    if i is None:
        return argv
    _, eq, path = argv[i].partition("=")
    if not eq:
        if i + 1 >= len(argv):
            raise ValueError("--job needs a file path")
        path = argv[i + 1]
    if path.endswith(".toml"):
        import tomllib

        with open(path, "rb") as fh:
            job = tomllib.load(fh)
    else:
        with open(path, "r", encoding="utf-8") as fh:
            job = json.load(fh)
    if not isinstance(job, dict):
        raise ValueError("job file %s must hold a JSON object or a TOML table" % path)
    given = {arg.split("=", 1)[0] for arg in argv}
    extra = []
    for key, value in job.items():
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ValueError("job file %s: the value of %r must be a string or a number" % (path, key))
        flag = "--" + key.replace("_", "-")
        if flag not in given:
            extra.extend([flag, str(value)])
    return argv + extra


# flags whose value is an element text, which may start with "-"
_TEXT_FLAGS = ("--alpha", "--beta", "--element")


def _attach_texts(argv):
    """Rewrite ``--alpha TEXT`` as ``--alpha=TEXT`` (also --beta, --element),
    so that argparse does not read a text such as "-X[(1)]" as an option."""
    out = []
    i = 0
    while i < len(argv):
        if argv[i] in _TEXT_FLAGS and i + 1 < len(argv):
            out.append("%s=%s" % (argv[i], argv[i + 1]))
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def _validate_bounds(args):
    positive = {"degree": 1, "imax": 1}
    nonnegative = {"radius": 0, "rmax": 0, "window": 0, "workers": 1, "space_cap": 1}
    for name, low in {**positive, **nonnegative}.items():
        value = getattr(args, name, None)
        if value is not None and value < low:
            raise ValueError("--%s must be at least %d (got %d)" % (name, low, value))


# the parser of this process, built by the first run_job
_shared_parser = functools.cache(build_parser)


def run_job(argv) -> int:
    """Run one CLI job and return its exit code.

    The argparse parser is built on the first call and reused by every
    later one.  Each call is independent: ``parse_args`` fills a fresh
    namespace from the parser's defaults, so no option of one job reaches
    the next.
    """
    try:
        argv = _attach_texts(_apply_job_file(list(argv)))
        try:
            args = _shared_parser().parse_args(argv)
        except SystemExit as exc:  # argparse printed its usage (code 2) or a help text (code 0)
            return exc.code
        _validate_bounds(args)
        return args.handler(args)
    except _ERRORS as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


def main():
    sys.exit(run_job(sys.argv[1:]))


if __name__ == "__main__":
    main()
