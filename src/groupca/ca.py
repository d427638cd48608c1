"""Cellular automata over groups with table, linear, and polynomial rules.

A cellular automaton is a group descriptor plus a local rule with a finite
memory set M; the induced global map sends a configuration c to the
configuration g |-> local((g^-1 c)|_M).  Everything here is evaluated on
finite windows: a pattern (finite domain plus values) determines outputs
exactly on the M-interior of its domain, so no infinite data is ever
materialized.

Polynomial rules are near-ring elements acting by substitution on scalar
configurations; linear rules are finitely supported matrix symbols acting
by convolution on vector configurations.  Both directions of the
rule-to-automaton dictionaries live here: near-ring elements to polynomial
automata (and syntactically back), and matrix group-ring elements to
linear automata.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .group_ring import GroupRingElement
from .groups import FiniteSubset, GroupElement, ball, subset_calculus
from .near_ring import NearRingElement
from .rings import ExactMatrix


class CAError(ValueError):
    pass


class Pattern:
    """Finite assignment domain -> alphabet value."""

    __slots__ = ("domain", "values")

    def __init__(self, domain: FiniteSubset, values):
        missing = [g for g in domain if g not in values]
        extra = [g for g in values if g not in domain]
        if missing or extra:
            raise CAError("pattern values must cover the domain exactly")
        self.domain = domain
        self.values = dict(values)

    def __getitem__(self, g):
        return self.values[g]

    def translate(self, g: GroupElement):
        """The shifted pattern (g p)(h) = p(g^-1 h) on the domain g*domain."""
        vals = {g * h: v for h, v in self.values.items()}
        return Pattern(FiniteSubset(self.domain.group, vals), vals)

    def __eq__(self, other):
        if not isinstance(other, Pattern):
            return NotImplemented
        return self.domain == other.domain and self.values == other.values

    def __repr__(self):
        return "Pattern(%s)" % {str(g): self.values[g] for g in self.domain}


class TableRule:
    variant = "table"

    def __init__(self, alphabet, memory: FiniteSubset, mapping):
        self.alphabet = list(alphabet)
        self.memory = memory
        self.mapping = dict(mapping)
        size = len(self.alphabet) ** len(memory)
        if len(self.mapping) != size:
            raise CAError("table must be total on alphabet^memory")
        for key, val in self.mapping.items():
            if len(key) != len(memory) or any(v not in self.alphabet for v in key):
                raise CAError("bad table key %r" % (key,))
            if val not in self.alphabet:
                raise CAError("table value outside alphabet")

    def local(self, window_values):
        return self.mapping[tuple(window_values)]


class LinearRule:
    variant = "linear"

    def __init__(self, n: int, field, symbol):
        if n < 1:
            raise CAError("dimension must be >= 1")
        self.n = n
        self.field = field
        clean = {}
        for g, m in symbol.items():
            if not isinstance(m, ExactMatrix) or (m.nrows, m.ncols) != (n, n) or m.field != field:
                raise CAError("symbol entries must be n x n matrices over the field")
            if m:
                clean[g] = m
        self.symbol = clean
        group = None
        for g in clean:
            group = g.group
        self.memory = FiniteSubset(group, clean) if group is not None else None

    def memory_for(self, group) -> FiniteSubset:
        return self.memory if self.memory is not None else FiniteSubset(group, [])

    def local(self, memory_elems, window_values):
        out = [self.field.zero()] * self.n
        for g, vec in zip(memory_elems, window_values):
            m = self.symbol.get(g)
            if m is None:
                continue
            for i in range(self.n):
                row = m.rows[i]
                acc = out[i]
                for j in range(self.n):
                    if row[j] and vec[j]:
                        acc = acc + row[j] * vec[j]
                out[i] = acc
        return tuple(out)


class PolynomialRule:
    variant = "polynomial"

    def __init__(self, poly: NearRingElement):
        self.poly = poly
        self.field = poly.field
        self.memory = poly.support_elements()

    def local(self, memory_elems, window_values):
        assign = dict(zip(memory_elems, window_values))
        acc = self.field.zero()
        for u, c in self.poly.terms.items():
            term = c
            for g, e in u.items:
                term = term * assign[g] ** e
            acc = acc + term
        return acc


class CellularAutomaton:
    def __init__(self, group, rule):
        self.group = group
        self.rule = rule

    def memory_set(self) -> FiniteSubset:
        if self.rule.variant == "table":
            return self.rule.memory
        if self.rule.variant == "linear":
            return self.rule.memory_for(self.group)
        return self.rule.memory

    def _evaluate_at(self, pattern: Pattern, g: GroupElement):
        memory = self.memory_set()
        vals = []
        for m in memory:
            vals.append(pattern[g * m])
        if self.rule.variant == "table":
            return self.rule.local(vals)
        return self.rule.local(list(memory), vals)

    def apply_interior(self, pattern: Pattern) -> Pattern:
        """Evaluate on every point whose whole memory window lies in the pattern."""
        memory = self.memory_set()
        if len(memory) == 0:
            out = {g: self._evaluate_at(pattern, g) for g in pattern.domain}
            return Pattern(pattern.domain, out)
        interior, _, _ = subset_calculus(pattern.domain, memory)
        out = {g: self._evaluate_at(pattern, g) for g in interior}
        return Pattern(interior, out)

    def apply_window(self, pattern: Pattern, mode: str, window: FiniteSubset = None) -> Pattern:
        """Window-restricted application.

        mode "plus": the pattern must cover window*M; output on the window.
        mode "minus": the pattern is the window; output on its M-interior.
        """
        memory = self.memory_set()
        if mode == "plus":
            if window is None:
                raise CAError("plus mode needs a window")
            needed = window.product(memory) if len(memory) else window
            if any(g not in pattern.domain for g in needed):
                raise CAError("pattern does not cover the window's neighborhood")
            out = {g: self._evaluate_at(pattern, g) for g in window}
            return Pattern(window, out)
        if mode == "minus":
            if window is not None and window != pattern.domain:
                raise CAError("minus mode evaluates on the pattern domain")
            return self.apply_interior(pattern)
        raise CAError("unknown mode %r" % mode)


def compose(tau: CellularAutomaton, sigma: CellularAutomaton) -> CellularAutomaton:
    """The automaton of tau after sigma; memory set M_tau * M_sigma."""
    if tau.group != sigma.group:
        raise CAError("automata over different groups")
    rt, rs = tau.rule, sigma.rule
    if rt.variant != rs.variant:
        raise CAError("compose needs matching rule variants")
    if rt.variant == "polynomial":
        if rt.field != rs.field:
            raise CAError("field mismatch")
        return CellularAutomaton(tau.group, PolynomialRule(rt.poly.star(rs.poly)))
    if rt.variant == "linear":
        if rt.field != rs.field or rt.n != rs.n:
            raise CAError("alphabet mismatch")
        return ca_from_group_ring(group_ring_of(tau) * group_ring_of(sigma))
    # table rules: tabulate on the product memory set
    if rt.alphabet != rs.alphabet:
        raise CAError("alphabet mismatch")
    memory = tau.memory_set().product(sigma.memory_set())
    size = len(rt.alphabet) ** len(memory)
    if size > 4096:
        raise CAError("table composition would need %d entries" % size)
    group = tau.group
    mapping = {}
    for combo in itertools.product(rt.alphabet, repeat=len(memory)):
        pat = Pattern(memory, dict(zip(memory, combo)))
        mid = sigma.apply_window(pat, "plus", tau.memory_set())
        mapping[combo] = tau._evaluate_at(mid, group.identity())
    return CellularAutomaton(group, TableRule(rt.alphabet, memory, mapping))


def ca_from_polynomial(poly: NearRingElement) -> CellularAutomaton:
    """Polynomial automaton of a near-ring element (acts by substitution)."""
    return CellularAutomaton(poly.group, PolynomialRule(poly))


def polynomial_of(ca: CellularAutomaton) -> NearRingElement:
    """Read back the stored polynomial; purely syntactic.

    Semantic identification is refused by design: over a finite field,
    distinct polynomials can induce the same map on every window.
    """
    if ca.rule.variant != "polynomial":
        raise CAError("not a polynomial-rule automaton")
    return ca.rule.poly


def ca_from_group_ring(alpha: GroupRingElement) -> CellularAutomaton:
    """Linear automaton of a matrix group-ring element: x |-> sum_h alpha(h) x(g h)."""
    if alpha.shape is None:
        raise CAError("linear automata need matrix coefficients")
    return CellularAutomaton(alpha.group, LinearRule(alpha.shape, alpha.field, dict(alpha.coeffs)))


def group_ring_of(ca: CellularAutomaton) -> GroupRingElement:
    if ca.rule.variant != "linear":
        raise CAError("not a linear-rule automaton")
    return GroupRingElement(ca.group, ca.rule.field, dict(ca.rule.symbol), shape=ca.rule.n)


@dataclass
class MemoryReport:
    memory: FiniteSubset
    verified: bool


def minimal_memory_set(ca: CellularAutomaton, probes: int = 8, seed: int = 0) -> MemoryReport:
    """Memory set read from the rule, probed for minimality.

    For linear and polynomial rules the declared support is returned and
    probed: perturbing inputs at sampled points just outside the set must
    not change the output at the identity, and each member must admit a
    perturbation that does.  Table rules return their declared memory
    unverified.
    """
    memory = ca.memory_set()
    if ca.rule.variant == "table":
        return MemoryReport(memory, False)
    rng = random.Random(seed)
    group = ca.group
    near = ball(group, 1).product(memory.union([group.identity()]))
    outside = [g for g in near if g not in memory]
    domain = memory.union(outside)

    def sample_value():
        if ca.rule.variant == "linear":
            return tuple(ca.rule.field.from_int(rng.randrange(-3, 4)) for _ in range(ca.rule.n))
        return ca.rule.field.from_int(rng.randrange(-3, 4))

    verified = True
    for _ in range(probes):
        base = {g: sample_value() for g in domain}
        ref = ca._evaluate_at(Pattern(domain, base), group.identity())
        for g in outside:
            changed = dict(base)
            changed[g] = sample_value()
            if ca._evaluate_at(Pattern(domain, changed), group.identity()) != ref:
                return MemoryReport(memory, False)
    for g in memory:
        hit = False
        for _ in range(probes * 4):
            base = {h: sample_value() for h in domain}
            changed = dict(base)
            changed[g] = sample_value()
            ref = ca._evaluate_at(Pattern(domain, base), group.identity())
            new = ca._evaluate_at(Pattern(domain, changed), group.identity())
            if new != ref:
                hit = True
                break
        if not hit:
            verified = False
    return MemoryReport(memory, verified)


@dataclass
class EquivarianceReport:
    ok: bool
    samples: int
    witness: object = None


def equivariance_check(ca, samples: int = 20, seed: int = 0, radius: int = 2) -> EquivarianceReport:
    """Sampled check that shifting a pattern commutes with the automaton.

    ``ca`` only needs apply_interior and a group; test fixtures may pass
    position-dependent evaluators to exercise the failure path.
    """
    rng = random.Random(seed)
    group = ca.group
    memory = ca.memory_set()
    shifts = list(ball(group, radius))
    base_domain = ball(group, radius)
    if len(memory):
        base_domain = base_domain.product(memory.union([group.identity()]))

    def sample_value():
        if ca.rule.variant == "linear":
            return tuple(ca.rule.field.from_int(rng.randrange(-3, 4)) for _ in range(ca.rule.n))
        if ca.rule.variant == "polynomial":
            return ca.rule.field.from_int(rng.randrange(-3, 4))
        return rng.choice(ca.rule.alphabet)

    for i in range(samples):
        pattern = Pattern(base_domain, {g: sample_value() for g in base_domain})
        g = shifts[rng.randrange(len(shifts))]
        out = ca.apply_interior(pattern)
        shifted_out = ca.apply_interior(pattern.translate(g))
        expected = out.translate(g)
        common = shifted_out.domain.intersection(expected.domain)
        for h in common:
            if shifted_out[h] != expected[h]:
                return EquivarianceReport(False, i + 1, witness=(g, h))
    return EquivarianceReport(True, samples)


# ---------------------------------------------------------------------------
# JSON forms for rules and patterns


def rule_to_json(ca: CellularAutomaton) -> dict:
    group = ca.group
    rule = ca.rule
    payload: dict
    if rule.variant == "polynomial":
        from .expressions import format_element

        payload = {"field": rule.field.spec_string(), "expr": format_element(rule.poly)}
    elif rule.variant == "linear":
        field = rule.field
        symbol = []
        for g in sorted(rule.symbol, key=lambda e: e.sort_key()):
            m = rule.symbol[g]
            symbol.append([str(g), [[field.format(v) for v in row] for row in m.rows]])
        payload = {"n": rule.n, "field": field.spec_string(), "symbol": symbol}
    else:
        payload = {
            "alphabet": rule.alphabet,
            "memory": [str(g) for g in rule.memory],
            "map": [[list(k), v] for k, v in sorted(rule.mapping.items(), key=lambda kv: repr(kv[0]))],
        }
    return {"group": group.spec_string(), "variant": rule.variant, "payload": payload}


_SYMBOL = (str, int)  # table alphabets hold JSON strings or integers

_RULE_SHAPE = {"group": str, "variant": str, "payload": dict}
_PAYLOAD_SHAPES = {
    "polynomial": {"field": str, "expr": str},
    "linear": {"n": int, "field": str, "symbol": [(str, [[str]])]},
    "table": {"alphabet": [_SYMBOL], "memory": [str], "map": [([_SYMBOL], _SYMBOL)]},
}
_PATTERN_VALUES = {"linear": [[str]], "polynomial": [str], "table": [_SYMBOL]}


def _check_json(value, shape, where):
    """Raise CAError unless a decoded JSON value has the given shape.

    A shape is a type or a tuple of types, ``{key: shape}`` for an object
    with at least those keys, ``[shape]`` for an array of items of one
    shape, or a tuple of shapes that are not all types for an array of
    exactly those items.  Loaders read files, so a wrong shape must be an
    input error, not a KeyError or a TypeError deep inside the parse.
    """
    if isinstance(shape, type) or (isinstance(shape, tuple) and all(isinstance(t, type) for t in shape)):
        if not isinstance(value, shape) or isinstance(value, bool):
            types = shape if isinstance(shape, tuple) else (shape,)
            raise CAError("%s must be of JSON type %s" % (where, " or ".join(t.__name__ for t in types)))
    elif isinstance(shape, dict):
        if not isinstance(value, dict):
            raise CAError("%s must be a JSON object" % where)
        for key, sub in shape.items():
            if key not in value:
                raise CAError("%s lacks the key %r" % (where, key))
            _check_json(value[key], sub, "%s.%s" % (where, key))
    elif isinstance(shape, list):
        if not isinstance(value, list):
            raise CAError("%s must be a JSON array" % where)
        for i, item in enumerate(value):
            _check_json(item, shape[0], "%s[%d]" % (where, i))
    else:
        if not isinstance(value, list) or len(value) != len(shape):
            raise CAError("%s must be a JSON array of %d items" % (where, len(shape)))
        for i, (item, sub) in enumerate(zip(value, shape)):
            _check_json(item, sub, "%s[%d]" % (where, i))


def rule_from_json(doc: dict) -> CellularAutomaton:
    from .expressions import parse_element
    from .groups import parse_group_spec
    from .rings import field_from_spec

    _check_json(doc, _RULE_SHAPE, "rule")
    variant = doc["variant"]
    if variant not in _PAYLOAD_SHAPES:
        raise CAError("unknown rule variant %r" % variant)
    payload = doc["payload"]
    _check_json(payload, _PAYLOAD_SHAPES[variant], "rule.payload")
    group = parse_group_spec(doc["group"])
    if variant == "polynomial":
        field = field_from_spec(payload["field"])
        poly = parse_element(payload["expr"], group, field, kind="near_ring")
        return ca_from_polynomial(poly)
    if variant == "linear":
        field = field_from_spec(payload["field"])
        symbol = {}
        for elem_text, rows in payload["symbol"]:
            g = group.parse_element(elem_text)
            if g in symbol:
                raise CAError("rule.payload.symbol lists %s twice" % g)
            symbol[g] = ExactMatrix(field, [[field.parse(v) for v in row] for row in rows])
        return CellularAutomaton(group, LinearRule(payload["n"], field, symbol))
    memory = FiniteSubset(group, [group.parse_element(t) for t in payload["memory"]])
    mapping = {}
    for key, value in payload["map"]:
        if tuple(key) in mapping:
            raise CAError("rule.payload.map lists the key %r twice" % (key,))
        mapping[tuple(key)] = value
    return CellularAutomaton(group, TableRule(payload["alphabet"], memory, mapping))


def pattern_to_json(pattern: Pattern, ca: CellularAutomaton) -> dict:
    field = getattr(ca.rule, "field", None)
    values = []
    for g in pattern.domain:
        v = pattern[g]
        if ca.rule.variant == "linear":
            values.append([field.format(x) for x in v])
        elif ca.rule.variant == "polynomial":
            values.append(field.format(v))
        else:
            values.append(v)
    return {"domain": [str(g) for g in pattern.domain], "values": values}


def pattern_from_json(doc: dict, ca: CellularAutomaton) -> Pattern:
    _check_json(doc, {"domain": [str], "values": _PATTERN_VALUES[ca.rule.variant]}, "pattern")
    if len(doc["domain"]) != len(doc["values"]):
        raise CAError("pattern domain and values differ in length")
    group = ca.group
    field = getattr(ca.rule, "field", None)
    values = {}
    for elem_text, raw in zip(doc["domain"], doc["values"]):
        g = group.parse_element(elem_text)
        if g in values:
            raise CAError("pattern.domain lists %s twice" % g)
        if ca.rule.variant == "linear":
            values[g] = tuple(field.parse(x) for x in raw)
        elif ca.rule.variant == "polynomial":
            values[g] = field.parse(raw)
        else:
            values[g] = raw
    return Pattern(FiniteSubset(group, values), values)
