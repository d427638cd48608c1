"""Finitely generated groups in canonical form.

Three group kinds are supported: free abelian Z^d (elements are integer
vectors), free groups (elements are reduced words over signed generator
indices), and finite groups given by a multiplication table (elements are
table indices).  Equality of elements is equality of canonical forms, so
elements hash and sort deterministically.

The module also provides the finite-subset calculus (interiors,
neighborhoods, boundaries), word-metric balls, Folner boxes for Z^d, and
two bi-invariant total orders: coordinate-lexicographic on Z^d and a
truncated power-series (Magnus) order on free groups.
"""

from __future__ import annotations

import functools
import itertools
import math

from .rings import TERM_CAP, RingError, _number


class GroupError(ValueError):
    pass


class UndecidableOrderError(GroupError):
    """Raised when the truncated free-group order cannot separate two elements."""


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class GroupElement:
    __slots__ = ("group", "value", "_hash")

    def __init__(self, group, value):
        self.group = group
        self.value = value
        self._hash = hash((group._hash_seed, value))

    def __mul__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        if other.group is not self.group and other.group != self.group:
            raise GroupError("elements from different group descriptors")
        return GroupElement(self.group, self.group._mul(self.value, other.value))

    def inverse(self):
        return GroupElement(self.group, self.group._inv(self.value))

    def is_identity(self):
        return self.value == self.group._identity_value()

    def sort_key(self):
        return self.group._sort_key(self.value)

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.value == other.value and (self.group is other.group or self.group == other.group)

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __str__(self):
        return self.group.format_element(self)

    def __repr__(self):
        return self.group.format_element(self)


class Group:
    """Base descriptor; concrete kinds fill in the canonical-form arithmetic."""

    kind = "?"
    commutative = False  # whether g*h == h*g for all elements

    def identity(self) -> GroupElement:
        return GroupElement(self, self._identity_value())

    def element(self, value) -> GroupElement:
        return GroupElement(self, self._canonical(value))

    def generators(self):
        """Symmetric generating list S, in a fixed order with involution pairing."""
        raise NotImplementedError

    def format_element(self, e: GroupElement) -> str:
        raise NotImplementedError

    def parse_element(self, text: str) -> GroupElement:
        raise NotImplementedError

    def spec_string(self) -> str:
        raise NotImplementedError


CLIP = 32  # the most characters of an input text that an error line echoes


def clip(text) -> str:
    """repr(text) for an error line; a text of more than CLIP characters shows only its first CLIP and its length."""
    if len(text) <= CLIP:
        return repr(text)
    return "%r... (%d characters)" % (text[:CLIP], len(text))


class ZdGroup(Group):
    kind = "zd"
    commutative = True

    def __init__(self, d: int):
        if d < 1:
            raise GroupError("rank must be >= 1")
        if 2 * d * d > BALL_CAP:  # the 2d generators hold d coordinates each
            raise GroupError("rank above %d not supported" % math.isqrt(BALL_CAP // 2))
        self.d = d
        self._hash_seed = hash(("zd", d))

    def _identity_value(self):
        return (0,) * self.d

    def _canonical(self, value):
        v = tuple(int(x) for x in value)
        if len(v) != self.d:
            raise GroupError("expected %d coordinates" % self.d)
        return v

    def _mul(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def _inv(self, a):
        return tuple(-x for x in a)

    def _sort_key(self, a):
        return a

    def generators(self):
        gens = []
        for i in range(self.d):
            e = [0] * self.d
            e[i] = 1
            gens.append(self.element(tuple(e)))
            e[i] = -1
            gens.append(self.element(tuple(e)))
        return gens

    def format_element(self, e):
        return "(" + ",".join(str(x) for x in e.value) + ")"

    def parse_element(self, text):
        text = text.strip()
        if text.startswith("(") and text.endswith(")"):
            text = text[1:-1]
        try:
            coords = [_number(x) for x in text.split(",") if x.strip() != ""]
        except RingError:
            raise
        except ValueError:
            raise GroupError("bad Z^d element %s" % clip(text)) from None
        return self.element(tuple(coords))

    def spec_string(self):
        return "zd:%d" % self.d

    def __eq__(self, other):
        return isinstance(other, ZdGroup) and other.d == self.d

    def __hash__(self):
        return self._hash_seed

    def __repr__(self):
        return "Z^%d" % self.d


class FreeGroup(Group):
    """Free group of finite rank; elements are reduced words of signed 1-based indices."""

    kind = "free"

    def __init__(self, rank: int):
        if rank < 1:
            raise GroupError("rank must be >= 1")
        if rank > len(_LETTERS):
            raise GroupError("rank above %d not supported" % len(_LETTERS))
        self.rank = rank
        self.commutative = rank == 1
        self._hash_seed = hash(("free", rank))

    def _identity_value(self):
        return ()

    def _canonical(self, value):
        letters = tuple(int(s) for s in value)
        for s in letters:
            if s == 0 or abs(s) > self.rank:
                raise GroupError("bad letter %r" % s)
        return self._mul((), letters)

    def _mul(self, a, b):
        word = list(a)
        for s in b:
            if word and word[-1] == -s:
                word.pop()
            else:
                word.append(s)
        return tuple(word)

    def _inv(self, a):
        return tuple(-s for s in reversed(a))

    def _sort_key(self, a):
        return (len(a), a)

    def root(self, e):
        """(w, m) with e = w^m and w not a proper power, w the lesser word of w and w^-1; (1, 0) for e = 1.

        Two elements of a free group commute exactly when one is 1 or their roots are equal.
        """
        v = e.value
        if not v:
            return e, 0
        i = 0
        while v[i] == -v[len(v) - 1 - i]:  # v = u * core * u^-1, core cyclically reduced
            i += 1
        core = v[i : len(v) - i]
        period = next(p for p in range(1, len(core) + 1) if len(core) % p == 0 and core == core[:p] * (len(core) // p))
        w = v[:i] + core[:period] + self._inv(v[:i])
        m = len(core) // period
        return (GroupElement(self, w), m) if w <= self._inv(w) else (GroupElement(self, self._inv(w)), -m)

    def generators(self):
        gens = []
        for i in range(1, self.rank + 1):
            gens.append(GroupElement(self, (i,)))
            gens.append(GroupElement(self, (-i,)))
        return gens

    def format_element(self, e):
        if not e.value:
            return "1"
        parts = []
        for s in e.value:
            name = _LETTERS[abs(s) - 1]
            parts.append(name if s > 0 else name + "^-1")
        return "*".join(parts)

    def parse_element(self, text):
        text = text.strip()
        if text == "1":
            return self.identity()
        powers = []
        for part in text.split("*"):
            part = part.strip()
            if "^" in part:
                name, _, exp = part.partition("^")
                exp = _number(exp)
            else:
                name, exp = part, 1
            idx = _LETTERS.find(name.strip())
            if idx < 0 or idx >= self.rank:
                raise GroupError("unknown generator %s" % clip(part))
            powers.append((idx + 1 if exp > 0 else -(idx + 1), abs(exp)))
        if sum(count for _, count in powers) > TERM_CAP:
            raise GroupError("the word %s has more than %d letters" % (clip(text), TERM_CAP))
        return self.element(tuple(itertools.chain.from_iterable([letter] * count for letter, count in powers)))

    def spec_string(self):
        return "free:%d" % self.rank

    def __eq__(self, other):
        return isinstance(other, FreeGroup) and other.rank == self.rank

    def __hash__(self):
        return self._hash_seed

    def __repr__(self):
        return "Free(%d)" % self.rank


class FiniteGroup(Group):
    """Finite group from a multiplication table (checked at construction).

    A table of more than BALL_CAP entries (order above 256) is refused
    before it is built or checked: each check takes n^2 steps or more.
    ``spec`` is the group spec that ``parse_group_spec`` reads back into
    this group; a table built in code has none.
    """

    kind = "finite"

    def __init__(self, table, generator_indices=None, spec=None):
        _check_order(len(table))
        table = tuple(tuple(int(x) for x in row) for row in table)
        n = len(table)
        if n == 0 or any(len(row) != n for row in table):
            raise GroupError("table must be square and nonempty")
        if any(x < 0 or x >= n for row in table for x in row):
            raise GroupError("table entries out of range")
        identity = None
        for e in range(n):
            if all(table[e][a] == a and table[a][e] == a for a in range(n)):
                identity = e
                break
        if identity is None:
            raise GroupError("no identity element in table")
        inverses = [None] * n
        for a in range(n):
            for b in range(n):
                if table[a][b] == identity and table[b][a] == identity:
                    inverses[a] = b
                    break
            if inverses[a] is None:
                raise GroupError("element %d has no inverse" % a)
        # Light's test: the b with (a*b)*c == a*(b*c) for all a, c are closed
        # under products, so it suffices to check a greedy set whose right
        # products, from the identity, reach every element: n^2 steps each.
        gens, reached = [], {identity}
        for s in range(n):
            if s not in reached:
                gens.append(s)
                frontier = reached
                while frontier:
                    frontier = {table[x][g] for x in frontier for g in gens} - reached
                    reached |= frontier
        for b in gens:
            for a in range(n):
                ab, row = table[table[a][b]], table[a]
                for c in range(n):
                    if ab[c] != row[table[b][c]]:
                        raise GroupError("table is not associative at (%d,%d,%d)" % (a, b, c))
        self.table = table
        self.order = n
        self.identity_index = identity
        self.inverses = tuple(inverses)
        if generator_indices is None:
            generator_indices = [i for i in range(n) if i != identity]
        gens = set()
        for i in generator_indices:
            gens.add(i)
            gens.add(inverses[i])
        self.generator_indices = tuple(sorted(gens))
        self.commutative = all(table[a][b] == table[b][a] for a in range(n) for b in range(a))
        self.spec = spec
        self._hash_seed = hash(("finite", table))

    @classmethod
    def cyclic(cls, n: int, generator_indices=None):
        _check_order(n)
        table = [[(a + b) % n for b in range(n)] for a in range(n)]
        return cls(table, generator_indices=generator_indices, spec="cyclic:%d" % n if generator_indices is None else None)

    def _identity_value(self):
        return self.identity_index

    def _canonical(self, value):
        v = int(value)
        if v < 0 or v >= self.order:
            raise GroupError("index out of range")
        return v

    def _mul(self, a, b):
        return self.table[a][b]

    def _inv(self, a):
        return self.inverses[a]

    def _sort_key(self, a):
        return a

    def generators(self):
        return [GroupElement(self, i) for i in self.generator_indices]

    def format_element(self, e):
        return "#%d" % e.value

    def parse_element(self, text):
        text = text.strip()
        if not text.startswith("#"):
            raise GroupError("bad finite-group element %s" % clip(text))
        return self.element(_number(text[1:]))

    def spec_string(self):
        """The spec this group was read from; a table built in code has none, and its text names only the order."""
        return self.spec or "finite:order%d" % self.order

    def elements(self):
        return [GroupElement(self, i) for i in range(self.order)]

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and other.table == self.table and other.generator_indices == self.generator_indices

    def __hash__(self):
        return self._hash_seed

    def __repr__(self):
        return "Finite(order=%d)" % self.order


def _check_order(n: int):
    if n * n > BALL_CAP:
        raise GroupError("a group of order %d has a table of more than %d entries" % (n, BALL_CAP))


def parse_group_spec(spec: str) -> Group:
    """Parse 'zd:2', 'free:2', 'finite:<table file>' or 'cyclic:6'."""
    spec = spec.strip()
    head, _, arg = spec.partition(":")
    if head == "zd":
        return ZdGroup(_number(arg))
    if head == "free":
        return FreeGroup(_number(arg))
    if head == "cyclic":
        return FiniteGroup.cyclic(_number(arg))
    if head == "finite":
        with open(arg, "r", encoding="utf-8") as fh:
            rows = [[_number(x) for x in line.split()] for line in fh if line.strip() and not line.startswith("#")]
        return FiniteGroup(rows, spec=spec)
    raise GroupError("unknown group spec %s" % clip(spec))


# ---------------------------------------------------------------------------
# finite subsets


class FiniteSubset:
    """Deduplicated ordered set of group elements; iteration order is canonical."""

    __slots__ = ("group", "elements", "_pos")

    def __init__(self, group, elements):
        seen = {}
        for e in elements:
            if not isinstance(e, GroupElement) or e.group != group:
                raise GroupError("element does not belong to the subset's group")
            seen[e] = None
        ordered = sorted(seen, key=lambda e: e.sort_key())
        self.group = group
        self.elements = tuple(ordered)
        self._pos = {e: i for i, e in enumerate(ordered)}

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, e):
        return e in self._pos

    def position(self, e):
        """The index of e in the canonical order, None when e is not in the subset."""
        return self._pos.get(e)

    def union(self, other):
        return FiniteSubset(self.group, self.elements + tuple(other))

    def difference(self, other):
        o = set(other)
        return FiniteSubset(self.group, [e for e in self.elements if e not in o])

    def intersection(self, other):
        o = set(other)
        return FiniteSubset(self.group, [e for e in self.elements if e in o])

    def product(self, other):
        """Pointwise set product {g*h}."""
        out = set()
        for g in self.elements:
            for h in other:
                out.add(g * h)
        return FiniteSubset(self.group, out)

    def inverses(self):
        return FiniteSubset(self.group, [e.inverse() for e in self.elements])

    def __eq__(self, other):
        if not isinstance(other, FiniteSubset):
            return NotImplemented
        return self.group == other.group and self.elements == other.elements

    def __hash__(self):
        return hash((self.group._hash_seed, self.elements))

    def __repr__(self):
        return "{" + ", ".join(str(e) for e in self.elements) + "}"


def subset_calculus(omega: FiniteSubset, memory: FiniteSubset):
    """Interior, neighborhood, and boundary of omega relative to a memory set.

    interior = {g : g*memory subset of omega}, computed as the intersection
    of the translates omega*m^-1; neighborhood = omega*memory; boundary is
    their difference.
    """
    if len(memory) == 0:
        raise GroupError("memory set must be nonempty")
    group = omega.group
    mems = list(memory)
    interior = set(g * mems[0].inverse() for g in omega)
    for m in mems[1:]:
        minv = m.inverse()
        interior &= set(g * minv for g in omega)
    interior = FiniteSubset(group, interior)
    neighborhood = omega.product(memory)
    boundary = neighborhood.difference(interior)
    return interior, neighborhood, boundary


class BallPlan:
    """The radius-r ball of the Cayley graph for ``labels`` (right multiplication), walked once.

    ``elements`` lists the ball in BFS order, identity first, and ``index``
    maps each element to its position.  ``edges`` holds the induced edges
    as int triples (i, k, j) meaning elements[i] * labels[k] == elements[j],
    in the order the BFS visits them, and ``outside`` the pairs (i, k) whose
    edge leaves the ball.  ``sofic.ball_iso`` replays the triples at a graph
    vertex as dict lookups in the graph's step maps, so checking every
    vertex multiplies no group elements.  On the induced edges the copy is
    then a homomorphism, so its inverse is one exactly when no outside edge
    of an image vertex lands back in the image.  A ball of more than
    BALL_CAP elements is refused during the walk.  ``ball_plan`` keeps the
    BALL_PLAN_CACHE most recently used plans, one per (group, r, labels
    tuple); one pass of the ``exact`` benchmark workload uses 17.
    """

    __slots__ = ("labels", "elements", "index", "edges", "outside")

    def __init__(self, group, r: int, labels):
        if r < 0:
            raise GroupError("radius must be >= 0")
        self.labels = tuple(labels)
        ident = group.identity()
        elements, depth, index = [ident], [0], {ident: 0}
        edges, outside = [], []
        i = 0
        while i < len(elements):
            # BFS: every element within distance r is indexed before the
            # first element at distance r is expanded
            g, d = elements[i], depth[i]
            for k, s in enumerate(self.labels):
                h = g * s
                j = index.get(h)
                if j is None:
                    if d == r:
                        outside.append((i, k))
                        continue
                    j = index[h] = len(elements)
                    if j >= BALL_CAP:
                        raise GroupError("a radius-%d ball has more than %d elements" % (r, BALL_CAP))
                    elements.append(h)
                    depth.append(d + 1)
                edges.append((i, k, j))
            i += 1
        self.elements = tuple(elements)
        self.index = index
        self.edges = tuple(edges)
        self.outside = tuple(outside)

    def __len__(self):
        return len(self.elements)


BALL_PLAN_CACHE = 32
BALL_CAP = 1 << 16  # most elements of one ball plan; the workloads' largest has 1 457
ball_plan = functools.lru_cache(maxsize=BALL_PLAN_CACHE)(BallPlan)


def ball(group, radius: int, gens=None) -> FiniteSubset:
    """Word-metric ball of the given radius around the identity."""
    if gens is None:
        gens = group.generators()
    return FiniteSubset(group, ball_plan(group, radius, tuple(gens)).elements)


def box_window(group: ZdGroup, radius: int) -> FiniteSubset:
    """Box [-r, r]^d; the window chain used for Z^d checks."""
    if not isinstance(group, ZdGroup):
        raise GroupError("box windows only for Z^d")
    return _box(group, range(-radius, radius + 1))


def folner_box(group: ZdGroup, i: int) -> FiniteSubset:
    """i-th Folner set for Z^d: the box [0, i)^d."""
    if not isinstance(group, ZdGroup):
        raise GroupError("Folner boxes are only provided for Z^d")
    if i < 1:
        raise GroupError("index must be >= 1")
    return _box(group, range(i))


def _box(group: ZdGroup, side) -> FiniteSubset:
    """The box side^d, coordinates taken from ``side``."""
    return FiniteSubset(group, [group.element(c) for c in itertools.product(side, repeat=group.d)])


# ---------------------------------------------------------------------------
# bi-invariant orders


class LexOrder:
    """Lexicographic order on Z^d under a coordinate priority permutation."""

    kind = "lex_zd"

    def __init__(self, group: ZdGroup, priority=None):
        if not isinstance(group, ZdGroup):
            raise GroupError("lexicographic order needs Z^d")
        self.group = group
        if priority is None:
            priority = tuple(range(group.d))
        priority = tuple(priority)
        if sorted(priority) != list(range(group.d)):
            raise GroupError("priority must be a permutation of 0..d-1")
        self.priority = priority

    def compare(self, g: GroupElement, h: GroupElement) -> int:
        for i in self.priority:
            if g.value[i] != h.value[i]:
                return -1 if g.value[i] < h.value[i] else 1
        return 0

    def less(self, g, h) -> bool:
        return self.compare(g, h) < 0


def _series_mul(a, b, degree):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            if len(m1) + len(m2) > degree:
                continue
            m = m1 + m2
            v = out.get(m, 0) + c1 * c2
            if v:
                out[m] = v
            elif m in out:
                del out[m]
    return out


def _letter_series(letter: int, degree: int):
    # generator -> 1 + x; inverse -> alternating geometric series, truncated
    idx = abs(letter) - 1
    if letter > 0:
        return {(): 1, (idx,): 1}
    out = {}
    sign = 1
    for n in range(degree + 1):
        out[(idx,) * n] = sign
        sign = -sign
    return out


def _magnus_series(word, degree):
    series = {(): 1}
    for letter in word:
        series = _series_mul(series, _letter_series(letter, degree), degree)
    return series


class MagnusOrder:
    """Bi-invariant order on a free group via truncated power-series expansions.

    Generators map to 1 + x_i in the ring of noncommutative power series;
    two elements compare by the first monomial (graded, then lexicographic)
    at which their expansions differ.  The truncation degree starts at the
    word lengths and doubles up to a cap; hitting the cap without finding a
    difference raises rather than guessing.
    """

    kind = "magnus_free"

    def __init__(self, group: FreeGroup, max_degree: int = 16):
        if not isinstance(group, FreeGroup):
            raise GroupError("Magnus order needs a free group")
        self.group = group
        self.max_degree = max_degree

    def compare(self, g: GroupElement, h: GroupElement) -> int:
        if g.value == h.value:
            return 0
        degree = max(1, len(g.value), len(h.value))
        degree = min(degree, self.max_degree)
        while True:
            sg = _magnus_series(g.value, degree)
            sh = _magnus_series(h.value, degree)
            diff = [m for m in set(sg) | set(sh) if sg.get(m, 0) != sh.get(m, 0)]
            if diff:
                m = min(diff, key=lambda mono: (len(mono), mono))
                return -1 if sg.get(m, 0) < sh.get(m, 0) else 1
            if degree >= self.max_degree:
                raise UndecidableOrderError(
                    "order undecided at truncation degree %d" % self.max_degree
                )
            degree = min(2 * degree, self.max_degree)

    def less(self, g, h) -> bool:
        return self.compare(g, h) < 0

