"""Finite labeled graphs approximating Cayley graphs.

A labeled graph carries one partial bijection per generator label, with
the involution consistency (v, s, w) in E iff (w, s^-1, v) in E.  The key
primitive is label-following: starting from a vertex, try to copy the
radius-r ball of the group's Cayley graph into the graph; when the copy is
a bijective homomorphism with homomorphic inverse on the induced
subgraphs, the vertex looks exactly like the group out to radius r.

On top of that sit the good-vertex sets V(r), greedy ball packings,
approximation certificates with exact counts, and a rank-counting audit
that transports a linear automaton onto the graph through the ball
isomorphisms and compares exact ranks against the certified counts.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .groups import (
    BALL_CAP,
    FiniteGroup,
    FreeGroup,
    ZdGroup,
    ball_plan,
)
from .ca import check_composable
from .linear_ca import _require_linear, placed_rows
from .rings import _number, rank_kernel_sparse


class SoficError(ValueError):
    pass


def _check_vertices(n):
    """Refuse a graph of more than BALL_CAP vertices before any step map is built."""
    if n > BALL_CAP:
        raise SoficError("a graph of %d vertices is larger than %d" % (n, BALL_CAP))


class LabeledGraph:
    """Finite graph with one out-edge map per generator label."""

    def __init__(self, group, labels, n_vertices, step_maps, meta=None):
        if not isinstance(n_vertices, int) or n_vertices < 1:
            raise SoficError("need at least one vertex (got %r)" % (n_vertices,))
        _check_vertices(n_vertices)
        self.group = group
        self.labels = tuple(labels)
        self.n = n_vertices
        self.step_maps = {s: dict(m) for s, m in step_maps.items()}
        self.meta = dict(meta or {})
        label_set = set(self.labels)
        if len(label_set) != len(self.labels):
            raise SoficError("a label is listed twice")
        for s in self.labels:
            if s.inverse() not in label_set:
                raise SoficError("label set is not symmetric")
        for s, m in self.step_maps.items():
            if s not in label_set:
                raise SoficError("edge label %s is not a graph label" % s)
            inv = self.step_maps.get(s.inverse(), {})
            for v, w in m.items():
                if not (0 <= v < n_vertices and 0 <= w < n_vertices):
                    raise SoficError("edge (%s, %s, %s) leaves the vertices 0..%d" % (v, s, w, n_vertices - 1))
                if inv.get(w) != v:
                    raise SoficError("edge involution violated at (%s, %s, %s)" % (v, s, w))

    def step(self, v, s):
        return self.step_maps.get(s, {}).get(v)

    def ball_vertices(self, v, r):
        """BFS ball in the graph metric (labels are symmetric, so this is undirected)."""
        seen = {v: 0}
        frontier = deque([v])
        while frontier:
            x = frontier.popleft()
            d = seen[x]
            if d == r:
                continue
            for s in self.labels:
                y = self.step(x, s)
                if y is not None and y not in seen:
                    seen[y] = d + 1
                    frontier.append(y)
        return seen


def cycle_graph(group: ZdGroup, n: int) -> LabeledGraph:
    """Z approximated by the n-cycle v --(+1)--> v+1 mod n: the torus graph on Z."""
    if not isinstance(group, ZdGroup) or group.d != 1:
        raise SoficError("cycle graphs approximate Z")
    if n < 1:
        raise SoficError("need at least one vertex")
    graph = torus_graph(group, n)
    graph.meta = {"kind": "cycle", "n": n}
    return graph


def torus_graph(group: ZdGroup, n: int) -> LabeledGraph:
    """Z^d approximated by the d-torus with n vertices per axis."""
    if not isinstance(group, ZdGroup):
        raise SoficError("torus graphs approximate Z^d")
    if n < 1:
        raise SoficError("need at least one vertex per axis")
    d = group.d
    total = n**d
    _check_vertices(total)
    steps = {}
    labels = []
    for i in range(d):
        stride = n**i
        for delta in (1, -1):
            s = group.element(tuple(delta if j == i else 0 for j in range(d)))
            labels.append(s)
            # v's coordinate c on axis i becomes (c + delta) mod n
            steps[s] = {v: v + ((v // stride + delta) % n - v // stride % n) * stride for v in range(total)}
    return LabeledGraph(group, labels, total, steps, meta={"kind": "torus", "n": n, "d": d})


def schreier_graph(group: FreeGroup, n: int, seed: int) -> LabeledGraph:
    """Free group approximated by seeded random permutations, one per generator."""
    if not isinstance(group, FreeGroup):
        raise SoficError("Schreier graphs approximate free groups")
    if n < 1:
        raise SoficError("need at least one vertex")
    _check_vertices(n)
    rng = random.Random(seed)
    steps = {}
    labels = []
    for i in range(1, group.rank + 1):
        perm = list(range(n))
        rng.shuffle(perm)
        fwd = group.element((i,))
        bwd = fwd.inverse()
        labels.extend([fwd, bwd])
        steps[fwd] = {v: perm[v] for v in range(n)}
        steps[bwd] = {perm[v]: v for v in range(n)}
    return LabeledGraph(group, labels, n, steps, meta={"kind": "schreier", "n": n, "seed": seed})


def finite_cayley_graph(group: FiniteGroup) -> LabeledGraph:
    """The full Cayley graph of a finite group with respect to its generating set."""
    if not isinstance(group, FiniteGroup):
        raise SoficError("full Cayley graphs need a finite group")
    gens = group.generators()
    steps = {s: {v: group.table[v][s.value] for v in range(group.order)} for s in gens}
    return LabeledGraph(group, gens, group.order, steps, meta={"kind": "cayley", "n": group.order})


def cayley_quotient(group, params: str, seed: int = 0) -> LabeledGraph:
    """Dispatch on a textual spec: 'cycle:10', 'torus:16', 'schreier:50:7', 'full'."""
    head, _, rest = params.partition(":")
    if head == "cycle":
        return cycle_graph(group, _number(rest))
    if head == "torus":
        return torus_graph(group, _number(rest))
    if head == "schreier":
        parts = rest.split(":")
        n = _number(parts[0])
        s = _number(parts[1]) if len(parts) > 1 else seed
        return schreier_graph(group, n, s)
    if head == "full":
        return finite_cayley_graph(group)
    raise SoficError("unknown graph spec %r" % params)


# ---------------------------------------------------------------------------
# ball isomorphisms


def ball_iso(graph: LabeledGraph, v, r: int):
    """Label-following copy of the group's radius-r ball rooted at v.

    Returns the unique candidate map as {group element: vertex} when it is
    a bijective labeled-graph homomorphism onto the graph ball with
    homomorphic inverse on the induced subgraphs, else None.  The copy
    replays the ball plan for (graph.group, r, graph.labels).

    A completed walk maps the group ball onto the graph ball of radius r at
    v, so the image needs no comparison with ``graph.ball_vertices``.  Every
    element of depth < r has all of its labelled out-edges among the plan
    edges, and the walk checked each of them; so by induction on t, a graph
    path of length t <= r from v ends at the image of an element of depth
    <= t.  Conversely, an element is first reached from its BFS parent, so
    every image vertex lies at the end of a tree path of length <= r.
    """
    plan = ball_plan(graph.group, r, graph.labels)
    steps = [graph.step_maps.get(s, {}) for s in plan.labels]
    img = [None] * len(plan.elements)
    img[0] = v
    used = {v}
    for i, k, j in plan.edges:
        w = steps[k].get(img[i])
        if w is None:
            return None
        if img[j] is None:
            if w in used:
                return None  # not injective
            img[j] = w
            used.add(w)
        elif img[j] != w:
            return None
    # inverse homomorphism on the induced subgraph of the graph ball
    for i, k in plan.outside:
        if steps[k].get(img[i]) in used:
            return None
    return dict(zip(plan.elements, img))


def v_r_set(graph: LabeledGraph, r: int):
    """Vertices whose radius-r ball copies the group's ball exactly."""
    return [v for v in range(graph.n) if ball_iso(graph, v, r) is not None]


def greedy_pack(graph: LabeledGraph, base, r: int):
    """Greedy maximal subset of ``base`` with pairwise disjoint radius-r balls.

    Vertices are scanned in ascending index order; the result covers the
    base with radius-2r balls by maximality.
    """
    taken = []
    covered = set()
    for v in sorted(base):
        b = graph.ball_vertices(v, r).keys()
        if covered.isdisjoint(b):
            taken.append(v)
            covered.update(b)
    return taken


@dataclass
class SoficCertificate:
    graph_meta: dict
    r: int
    epsilon: Fraction
    n_vertices: int
    v_r: list
    v_2r: list
    v_3r: list
    packing: list
    ball_2r_size: int
    passed: bool
    checks: dict = dc_field(default_factory=dict)

    def counts(self):
        return {
            "V": self.n_vertices,
            "V(r)": len(self.v_r),
            "V(2r)": len(self.v_2r),
            "V(3r)": len(self.v_3r),
            "packing": len(self.packing),
        }


def certificate(graph: LabeledGraph, r: int, epsilon) -> SoficCertificate:
    """Approximation certificate at radius r and tolerance epsilon.

    Records V(r), V(2r), V(3r), a greedy packing of V(3r), and the exact
    pass/fail of |V(r)| >= (1 - epsilon)|V|, plus the structural checks
    that must hold on every instance: nesting, ball containment
    (B(v,r) inside V(kr) for v in V((k+1)r)), the covering property of the
    packing, and the packing inequality |B_S(2r)| * |V'| >= |V(3r)|.
    """
    epsilon = Fraction(epsilon)
    if not (0 < epsilon < 1):
        raise SoficError("epsilon must lie in (0, 1)")
    v1, v2, v3 = (v_r_set(graph, k * r) for k in (1, 2, 3))
    pack = greedy_pack(graph, v3, r)
    checks = {}
    s1, s2, s3 = set(v1), set(v2), set(v3)
    checks["nesting"] = s2 <= s1 and s3 <= s2
    checks["ball_containment"] = all(
        graph.ball_vertices(v, r).keys() <= inner for outer, inner in ((v2, s1), (v3, s2)) for v in outer
    )
    checks["packing_covers"] = s3 <= set().union(*(graph.ball_vertices(v, 2 * r) for v in pack))
    balls = [graph.ball_vertices(v, r) for v in pack]
    checks["packing_disjoint"] = sum(map(len, balls)) == len(set().union(*balls))
    ball_2r = len(ball_plan(graph.group, 2 * r, graph.labels))
    checks["packing_inequality"] = ball_2r * len(pack) >= len(v3)
    passed = Fraction(len(v1)) >= (1 - epsilon) * graph.n
    if not all(checks.values()):
        raise SoficError("structural certificate checks failed: %r" % checks)
    return SoficCertificate(
        graph_meta=dict(graph.meta),
        r=r,
        epsilon=epsilon,
        n_vertices=graph.n,
        v_r=v1,
        v_2r=v2,
        v_3r=v3,
        packing=pack,
        ball_2r_size=ball_2r,
        passed=passed,
        checks=checks,
    )


# ---------------------------------------------------------------------------
# rank-counting audit


@dataclass
class RankAuditReport:
    transported_rank: int
    n_dim: int
    v_r: int
    v_2r: int
    v_3r: int
    projection_verified: bool = None  # None when no inverse supplied
    inequality_holds: bool = None


def graph_ca_rank_audit(graph: LabeledGraph, ca, r: int, left_inverse=None) -> RankAuditReport:
    """Transport a linear automaton onto the graph and count ranks exactly.

    Builds the forward map A^(V(r)) -> A^(V(2r)) whose v-component applies
    the local rule through the ball copy at v, and computes its rank.  With
    a left inverse of radius r, the inverse's symbol is transported the
    same way onto V(3r); the composite of the two transported maps must be
    the projection onto A^(V(3r)) exactly, and the forward rank must then
    be at least n * |V(3r)|.  Both transports read the ball copies of the
    one sweep that finds V(r), and ``linear_ca.placed_rows`` lays the rules
    onto the cells those copies name.  The rule must be over the graph's
    group and the inverse composable with it, as ``ca.check_composable``
    checks.
    """
    if ca.group != graph.group:
        raise SoficError("the rule is over %s, the graph over %s" % (ca.group.spec_string(), graph.group.spec_string()))
    rule = _require_linear(ca)
    if left_inverse is not None:
        check_composable(left_inverse, ca)
    n = rule.n
    radius_ball = ball_plan(graph.group, r, graph.labels).index
    for name, audited in (("memory set", ca), ("inverse memory set", left_inverse)):
        if audited is not None and any(g not in radius_ball for g in audited.memory_set()):
            raise SoficError("%s exceeds the audit radius" % name)
    copies = {v: c for v in range(graph.n) if (c := ball_iso(graph, v, r)) is not None}
    v1, v2, v3 = list(copies), v_r_set(graph, 2 * r), v_r_set(graph, 3 * r)
    if not v2:
        raise SoficError("V(2r) is empty; the graph is too coarse at this radius")
    pos1 = {v: i for i, v in enumerate(v1)}
    pos2 = {v: i for i, v in enumerate(v2)}

    def transported_rows(symbol, out_vertices, in_pos):
        """The rule read at each output vertex through its ball copy, onto the cells ``in_pos``."""
        placements = []
        for v in out_vertices:
            if v not in copies:
                raise SoficError("vertex %r lost its ball isomorphism" % v)
            copy_v = copies[v]
            if any(copy_v[h] not in in_pos for h in symbol):
                raise SoficError("transported memory leaves the good set")
            placements.append([in_pos[copy_v[h]] for h in symbol])
        return placed_rows(symbol, n, placements)

    forward_rows = transported_rows(rule.symbol, v2, pos1)
    transported_rank, _ = rank_kernel_sparse(rule.field, forward_rows, n * len(v1), want_kernel=False)
    report = RankAuditReport(
        transported_rank=transported_rank, n_dim=n, v_r=len(v1), v_2r=len(v2), v_3r=len(v3)
    )
    if left_inverse is None:
        return report
    inverse_rows = transported_rows(left_inverse.rule.symbol, v3, pos2)
    one = rule.field.one()

    def composite_is_projection(ri, erow):
        """Whether inverse row ri times the forward rows is its row of the projection A^V(r) -> A^V(3r)."""
        acc = {}
        for k, ev in erow.items():
            for j, mv in forward_rows[k].items():
                acc[j] = acc[j] + ev * mv if j in acc else ev * mv
        v = v3[ri // n]
        return {j: x for j, x in acc.items() if x} == ({pos1[v] * n + ri % n: one} if v in pos1 else {})

    report.projection_verified = all(composite_is_projection(ri, erow) for ri, erow in enumerate(inverse_rows))
    report.inequality_holds = transported_rank >= n * len(v3)
    return report


# ---------------------------------------------------------------------------
# graph files


def graph_from_text(group, text: str) -> LabeledGraph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("labels:"):
        raise SoficError("graph file must start with a labels header")
    labels = [group.parse_element(t) for t in lines[0].split(":", 1)[1].split()]
    if len(lines) < 2 or not lines[1].startswith("vertices:"):
        raise SoficError("graph file must declare the vertex count")
    n = _number(lines[1].split(":", 1)[1])
    steps = {s: {} for s in labels}
    for ln in lines[2:]:
        v_text, s_text, w_text = ln.split()
        s = group.parse_element(s_text)
        if s not in steps:
            raise SoficError("edge label %s is not in the labels header" % s)
        v = _number(v_text)
        if v in steps[s]:
            raise SoficError("vertex %d has two edges labeled %s" % (v, s))
        steps[s][v] = _number(w_text)
    return LabeledGraph(group, labels, n, steps, meta={"kind": "file"})
