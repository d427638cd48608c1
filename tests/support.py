"""Shared randomized generators and the linear fixture suite."""

from fractions import Fraction

from groupca.ca import CellularAutomaton, LinearRule
from groupca.groups import FiniteGroup, FreeGroup, ZdGroup, ball
from groupca.near_ring import ExponentVector, NearRingElement
from groupca.rings import QQ, ExactMatrix, PrimeField, rank_kernel_sparse, scalar_inverse


def rand_group_element(group, rng, radius=2):
    elems = list(ball(group, radius))
    return elems[rng.randrange(len(elems))]


def rand_scalar(field, rng, lo=-4, hi=4):
    if field is QQ or getattr(field, "characteristic", None) == 0:
        d = rng.randint(1, 3)
        return Fraction(rng.randint(lo, hi), d)
    return field.from_int(rng.randint(0, field.size() - 1))


def rand_nonzero_scalar(field, rng):
    while True:
        c = rand_scalar(field, rng)
        if c:
            return c


def rand_exponent_vector(group, rng, radius=2, max_degree=3, max_support=2):
    items = {}
    remaining = max_degree
    for _ in range(rng.randint(0, max_support)):
        if remaining <= 0:
            break
        g = rand_group_element(group, rng, radius)
        e = rng.randint(1, remaining)
        items[g] = items.get(g, 0) + e
        remaining -= e
    return ExponentVector(group, items)


def rand_near_ring(group, field, rng, radius=2, max_degree=3, max_terms=3, nonzero=False):
    terms = {}
    for _ in range(rng.randint(0 if not nonzero else 1, max_terms)):
        u = rand_exponent_vector(group, rng, radius, max_degree)
        c = rand_scalar(field, rng)
        if c:
            terms[u] = c
    elem = NearRingElement(group, field, terms)
    if nonzero and not elem:
        return NearRingElement.constant(group, field, field.one())
    return elem


def rand_group_ring(group, field, rng, radius=2, max_terms=3, shape=None):
    from groupca.group_ring import GroupRingElement

    coeffs = {}
    for _ in range(rng.randint(0, max_terms)):
        g = rand_group_element(group, rng, radius)
        if shape is None:
            coeffs[g] = rand_scalar(field, rng)
        else:
            coeffs[g] = rand_matrix(field, rng, shape)
    return GroupRingElement(group, field, coeffs, shape=shape)


def rand_matrix(field, rng, n):
    return ExactMatrix(field, [[rand_scalar(field, rng) for _ in range(n)] for _ in range(n)])


def field_scalar(field, rng):
    """A random scalar drawn from the whole field (small fractions over Q)."""
    if field.characteristic == 0:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return rng.choice(field.elements())


def rank_kernel_reference(field, rows, ncols, want_kernel=True):
    """rank_kernel_sparse as a plain scan over the rows, for differential tests.

    Every column looks for its pivot by probing the surviving rows in
    index order, and every pivot probes every candidate target row.  The
    pivot rule and the row arithmetic are rank_kernel_sparse's; only the
    search for pivots and targets differs.  Mutates ``rows``.
    """
    pivots = {}  # col -> row index
    remaining = list(range(len(rows)))
    for col in range(ncols):
        pivot_row = None
        for i in remaining:
            if rows[i].get(col):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        remaining.remove(pivot_row)
        pivots[col] = pivot_row
        prow = rows[pivot_row]
        inv = scalar_inverse(prow[col])
        for j, v in list(prow.items()):
            prow[j] = v * inv
        prow[col] = field.one()
        targets = remaining if not want_kernel else [i for i in range(len(rows)) if i != pivot_row]
        for i in targets:
            f = rows[i].get(col)
            if not f:
                continue
            ri = rows[i]
            for j, v in prow.items():
                nv = ri.get(j, field.zero()) - f * v
                if nv:
                    ri[j] = nv
                elif j in ri:
                    del ri[j]
    rank = len(pivots)
    if not want_kernel:
        return rank, []
    kernel = []
    zero, one = field.zero(), field.one()
    for col in range(ncols):
        if col in pivots:
            continue
        vec = [zero] * ncols
        vec[col] = one
        for pcol, prow_idx in pivots.items():
            v = rows[prow_idx].get(col)
            if v:
                vec[pcol] = -v
        kernel.append(tuple(vec))
    return rank, kernel


def solve_reduced(field, rows, rhs, ncols):
    """Solve A x = b with one rank_kernel_sparse pass over [A | b].

    ``rows`` are the sparse rows of A and ``rhs`` the entries of b.  The
    answer is read from the reduced rows as find_left_inverse reads it:
    free variables zero, None when a row's smallest column is the
    right-hand side.
    """
    aug = [dict(row) for row in rows]
    for row, v in zip(aug, rhs):
        if v:
            row[ncols] = v
    rank_kernel_sparse(field, aug, ncols)
    x = [field.zero()] * ncols
    for row in aug:
        if row:
            lead = min(row)
            if lead >= ncols:
                return None
            x[lead] = row.get(ncols, field.zero())
    return x


# ---------------------------------------------------------------------------
# linear fixture suite (10 automata over Z and Z^2)


def _mat(field, rows):
    return ExactMatrix.from_ints(field, rows)


def z_fixtures():
    Z = ZdGroup(1)
    el = lambda n: Z.element((n,))
    F = QQ
    identity = CellularAutomaton(Z, LinearRule(1, F, {el(0): _mat(F, [[1]])}))
    shift = CellularAutomaton(Z, LinearRule(1, F, {el(1): _mat(F, [[1]])}))
    diff = CellularAutomaton(
        Z, LinearRule(1, F, {el(0): _mat(F, [[-1]]), el(1): _mat(F, [[1]])})
    )
    rank1 = CellularAutomaton(
        Z,
        LinearRule(
            2,
            F,
            {
                el(0): _mat(F, [[1, 0], [0, 0]]),
                el(1): _mat(F, [[0, 1], [1, 0]]),
                el(2): _mat(F, [[0, 0], [0, 1]]),
            },
        ),
    )
    pair_tau = CellularAutomaton(
        Z,
        LinearRule(
            2, F, {el(0): ExactMatrix.identity(F, 2), el(1): _mat(F, [[0, 1], [0, 0]])}
        ),
    )
    return {
        "identity": identity,
        "shift": shift,
        "diff": diff,
        "rank1_2x2": rank1,
        "invertible_pair_tau": pair_tau,
    }


def pair_sigma():
    Z = ZdGroup(1)
    el = lambda n: Z.element((n,))
    return CellularAutomaton(
        Z,
        LinearRule(
            2,
            QQ,
            {el(0): ExactMatrix.identity(QQ, 2), el(1): _mat(QQ, [[0, -1], [0, 0]])},
        ),
    )


def z2_fixtures():
    Z2 = ZdGroup(2)
    el = lambda x, y: Z2.element((x, y))
    F2, F3 = PrimeField(2), PrimeField(3)
    identity_f3 = CellularAutomaton(Z2, LinearRule(1, F3, {el(0, 0): _mat(F3, [[1]])}))
    shift_e1 = CellularAutomaton(Z2, LinearRule(1, QQ, {el(1, 0): _mat(QQ, [[1]])}))
    diff_e1 = CellularAutomaton(
        Z2, LinearRule(1, QQ, {el(0, 0): _mat(QQ, [[-1]]), el(1, 0): _mat(QQ, [[1]])})
    )
    zero = CellularAutomaton(Z2, LinearRule(1, QQ, {}))
    corner_f2 = CellularAutomaton(
        Z2,
        LinearRule(
            1,
            F2,
            {el(0, 0): _mat(F2, [[1]]), el(1, 0): _mat(F2, [[1]]), el(0, 1): _mat(F2, [[1]])},
        ),
    )
    return {
        "identity_f3": identity_f3,
        "shift_e1": shift_e1,
        "diff_e1": diff_e1,
        "zero": zero,
        "corner_f2": corner_f2,
    }


def fixture_suite():
    suite = {}
    suite.update({"z/" + k: v for k, v in z_fixtures().items()})
    suite.update({"z2/" + k: v for k, v in z2_fixtures().items()})
    return suite


def cyclic_group(n):
    return FiniteGroup.cyclic(n, generator_indices=[1])


def free2():
    return FreeGroup(2)


# ---------------------------------------------------------------------------
# reference ball isomorphism and graph perturbations (sofic layer)


def ball_iso_reference(graph, v, r):
    """``ball_iso`` from its definition, for differential tests.

    Each element of the radius-r ball is sent to the end of the path from v
    that follows the labels of a geodesic word for it.  The map is returned
    (in BFS order of the words, identity first) when it is a bijection onto
    the graph ball and maps the labeled edges of the group ball exactly onto
    the labeled edges of the induced subgraph, else None.
    """
    group, labels = graph.group, graph.labels
    words = {group.identity(): ()}
    frontier = [group.identity()]
    for _ in range(r):
        nxt = []
        for g in frontier:
            for s in labels:
                h = g * s
                if h not in words:
                    words[h] = words[g] + (s,)
                    nxt.append(h)
        frontier = nxt
    members = set(words)
    image = {}
    for g, word in words.items():
        x = v
        for s in word:
            x = graph.step(x, s)
            if x is None:
                return None
        image[g] = x
    graph_ball = set(graph.ball_vertices(v, r))
    if len(set(image.values())) != len(image) or set(image.values()) != graph_ball:
        return None
    group_edges = {(image[g], s, image[g * s]) for g in members for s in labels if g * s in members}
    graph_edges = {
        (x, s, graph.step(x, s)) for x in graph_ball for s in labels if graph.step(x, s) in graph_ball
    }
    return image if group_edges == graph_edges else None


def perturb_graph(graph, rng, moves):
    """A copy of ``graph`` with ``moves`` random edge-pair deletions or swaps.

    A deletion drops (a, s, b) together with (b, s^-1, a); a swap rewires
    (a, s, b), (c, s, d) to (a, s, d), (c, s, b) and fixes the s^-1 edges, so
    the edge involution still holds.
    """
    from groupca.sofic import LabeledGraph

    steps = {s: dict(m) for s, m in graph.step_maps.items()}
    for _ in range(moves):
        s = graph.labels[rng.randrange(len(graph.labels))]
        t = s.inverse()
        fwd, bwd = steps[s], steps[t]
        if not fwd:
            continue
        a = rng.choice(sorted(fwd))
        b = fwd[a]
        others = [c for c in sorted(fwd) if c != a]
        if s == t or not others or rng.random() < 0.5:
            del fwd[a]
            bwd.pop(b, None)
            continue
        c = rng.choice(others)
        d = fwd[c]
        fwd[a], fwd[c] = d, b
        bwd[d], bwd[b] = a, c
    meta = dict(graph.meta, perturbed=moves)
    return LabeledGraph(graph.group, graph.labels, graph.n, steps, meta=meta)
