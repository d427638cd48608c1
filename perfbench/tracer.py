"""Outside-in tracing of groupca's public functions.

``Tracer.install`` replaces each function in ``TARGETS`` with a wrapper
that records a span (id, parent id, job id, name, start, end) and, for
some functions, a few counts taken from the arguments or the result.  A
function imported by name into another module is replaced there too, so
calls through every import site are seen.  ``GroupElement.__mul__`` is
never wrapped: it runs millions of times per pass.

Spans stay in memory; ``per_layer`` turns them into the benchmark's
per-layer metrics and ``write_jsonl`` saves them when the run ends.  A
span's self time is its duration minus the time its child spans cover,
including the wrappers' own bookkeeping around those children.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time


def _children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _rank_before(args, kwargs):
    field, rows = args[0], args[1]
    want = kwargs.get("want_kernel", args[3] if len(args) > 3 else True)
    return type(field).__name__, sum(len(r) for r in rows), len(rows), bool(want)


def _rank_after(args, kwargs, result, ctx):
    field, nnz, nrows, want = ctx
    return {"field": field, "nnz": nnz, "rows": nrows, "kernel": want, "rank": result[0]}


def _search_after(args, kwargs, result, cpu_before):
    return {
        "betas": result.space_size,
        "findings": len(result.findings),
        "workers": result.workers,
        "worker_cpu": _children_cpu() - cpu_before,
    }


# (module, attribute, hook run before the call, hook run after it)
TARGETS = [
    ("groups", "ball", None, lambda a, k, r, c: {"elements": len(r)}),
    ("groups", "subset_calculus", None, None),
    ("groups", "FiniteSubset.product", None, None),
    ("rings", "rank_kernel_sparse", _rank_before, _rank_after),
    ("group_ring", "GroupRingElement.__mul__", None, None),
    ("near_ring", "exhaustive_search", lambda a, k: _children_cpu(), _search_after),
    ("near_ring", "NearRingElement.star", None, None),
    ("near_ring", "NearRingElement.__mul__", None, None),
    ("ca", "rule_from_json", None, None),
    ("ca", "compose", None, None),
    ("linear_ca", "window_matrix", None, lambda a, k, r, c: {"nnz": sum(len(row) for row in r.matrix_rows)}),
    ("linear_ca", "mdim_estimate", None, None),
    ("linear_ca", "preinjectivity_check", None, None),
    ("linear_ca", "surjectivity_check", None, None),
    ("linear_ca", "find_left_inverse", None, None),
    ("sofic", "ball_iso", None, lambda a, k, r, c: {"ok": r is not None}),
    ("sofic", "LabeledGraph.ball_vertices", None, None),
    ("sofic", "greedy_pack", None, None),
    ("sofic", "certificate", None, None),
    ("sofic", "graph_ca_rank_audit", None, None),
    ("sofic", "cayley_quotient", None, None),
    ("expressions", "parse_element", None, None),
    ("expressions", "format_element", None, None),
    ("cli", "run_job", None, None),
]

# span fields
ID, PARENT, JOB, NAME, START, END, OVERHEAD, INFO = range(8)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self._undo = []

    def _wrap(self, name, fn, before, after):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = clock()
            ctx = before(args, kwargs) if before else None
            span = [len(spans), stack[-1][ID] if stack else None, tracer.job, name, 0.0, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if after:
                span[INFO] = after(args, kwargs, result, ctx)
            span[OVERHEAD] = clock() - entered - (span[END] - span[START])
            return result

        return traced

    def install(self):
        modules = [importlib.import_module("groupca." + m) for m in
                   ("groups", "rings", "group_ring", "near_ring", "ca", "linear_ca", "sofic", "expressions", "cli")]
        modules.append(sys.modules["groupca"])
        for mod_name, attr, before, after in TARGETS:
            owner = sys.modules["groupca." + mod_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self._wrap("%s.%s" % (mod_name, attr), original, before, after)
            if path:  # a method: replacing it on the class covers every caller
                self._patch(owner, leaf, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)

    def _patch(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def self_times(self):
        """Self time of every span, by span id."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                own[s[PARENT]] -= s[END] - s[START] + s[OVERHEAD]
        return own

    def write_jsonl(self, path):
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for s, self_s in zip(self.spans, own):
                rec = {"id": s[ID], "parent": s[PARENT], "job": s[JOB], "name": s[NAME],
                       "start": s[START], "end": s[END], "self_s": self_s}
                if s[INFO]:
                    rec.update(s[INFO])
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


LAYER_STATS = [
    ("groups.ball", ["calls", "self_s", "elements"]),
    ("groups.subset_calculus", ["self_s"]),
    ("groups.FiniteSubset.product", ["self_s"]),
    ("rings.rank_kernel_sparse", ["calls", "kernel_calls", "self_s", "nnz_in", "rank_per_row",
                                  "q_self_s", "fp_self_s", "gf_self_s"]),
    ("near_ring.exhaustive_search", ["calls", "self_s", "betas", "hit_ratio", "worker_cpu_s", "worker_util"]),
    ("near_ring.NearRingElement.star", ["calls", "self_s"]),
    ("near_ring.NearRingElement.__mul__", ["calls", "self_s"]),
    ("linear_ca.window_matrix", ["calls", "self_s", "nnz"]),
    ("linear_ca.mdim_estimate", ["self_s"]),
    ("linear_ca.preinjectivity_check", ["self_s"]),
    ("linear_ca.surjectivity_check", ["self_s"]),
    ("linear_ca.find_left_inverse", ["self_s"]),
    ("sofic.ball_iso", ["calls", "self_s", "success_ratio"]),
    ("sofic.LabeledGraph.ball_vertices", ["calls", "self_s"]),
    ("sofic.greedy_pack", ["self_s"]),
    ("sofic.certificate", ["self_s"]),
    ("sofic.graph_ca_rank_audit", ["self_s"]),
    ("sofic.cayley_quotient", ["self_s"]),
    ("ca.rule_from_json", ["self_s"]),
    ("ca.compose", ["self_s"]),
    ("group_ring.GroupRingElement.__mul__", ["calls", "self_s"]),
    ("expressions.parse_element", ["calls", "self_s"]),
    ("expressions.format_element", ["calls", "self_s"]),
    ("cli.run_job", ["calls", "self_s", "report_bytes"]),
]


def _unit(stat):
    if stat.endswith("_s"):
        return "s", "lower"
    if stat.endswith("ratio") or stat in ("worker_util", "rank_per_row"):
        return "ratio", "higher"
    if stat == "report_bytes":
        return "B", "lower"
    return "count", "lower"


# per-layer metric name -> (unit, better)
PER_LAYER = {"%s.%s" % (fn, stat): _unit(stat) for fn, stats in LAYER_STATS for stat in stats}
PER_LAYER["trace.overhead_frac"] = ("ratio", "lower")


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tracer, passes, report_bytes, overhead_frac):
    """Per-layer metrics from the spans of ``passes`` traced passes, per pass."""
    own = tracer.self_times()
    agg = {}
    for s, self_s in zip(tracer.spans, own):
        a = agg.setdefault(s[NAME], {"calls": 0, "self_s": 0.0, "infos": []})
        a["calls"] += 1
        a["self_s"] += self_s
        if s[INFO] is not None:
            a["infos"].append((s, self_s))
    values = {"cli.run_job.report_bytes": report_bytes, "trace.overhead_frac": overhead_frac}
    for fn, stats in LAYER_STATS:
        a = agg.get(fn, {"calls": 0, "self_s": 0.0, "infos": []})
        for stat in stats:
            name = "%s.%s" % (fn, stat)
            if name not in values:
                values[name] = a[stat] if stat in ("calls", "self_s") else _derived(stat, a)
    for name, (unit, _) in PER_LAYER.items():
        if unit != "ratio":
            values[name] /= passes
    return {name: {"value": values[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}


def _sum(a, key):
    return sum(s[INFO][key] for s, _ in a["infos"])


def _derived(stat, a):
    infos = a["infos"]
    if stat in ("elements", "nnz", "betas"):
        return _sum(a, stat)
    if stat == "kernel_calls":
        return sum(1 for s, _ in infos if s[INFO]["kernel"])
    if stat == "nnz_in":
        return _sum(a, "nnz")
    if stat == "rank_per_row":
        return _ratio(_sum(a, "rank"), _sum(a, "rows"))
    if stat in ("q_self_s", "fp_self_s", "gf_self_s"):
        field = {"q": "Rationals", "fp": "PrimeField", "gf": "ExtensionField"}[stat[:-7]]
        return sum(own for s, own in infos if s[INFO]["field"] == field)
    if stat == "hit_ratio":
        return _ratio(_sum(a, "findings"), _sum(a, "betas"))
    if stat == "worker_cpu_s":
        return _sum(a, "worker_cpu")
    if stat == "worker_util":
        capacity = sum((s[END] - s[START]) * s[INFO]["workers"] for s, _ in infos)
        return _ratio(_sum(a, "worker_cpu"), capacity)
    if stat == "success_ratio":
        return _ratio(sum(1 for s, _ in infos if s[INFO]["ok"]), len(infos))
    raise KeyError(stat)
