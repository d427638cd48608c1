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
automata, and matrix group-ring elements to linear automata and back.

Each rule kind is one class that owns its memory, its local map on the
cell values in memory order, the set its cell values come from, its JSON
payload and its cell-value codec; evaluation, composition checks and the
JSON forms call those methods instead of testing which kind a rule is.
"""

from __future__ import annotations

import itertools

from .expressions import format_element, parse_element
from .group_ring import GroupRingElement
from .groups import FiniteSubset, GroupElement, parse_group_spec, subset_calculus
from .near_ring import NearRingElement
from .rings import ExactMatrix, field_from_spec


class CAError(ValueError):
    pass


# largest cell dimension n of a linear rule: a zero symbol names no n x n
# matrix, so nothing else bounds the n-fold columns of its windows
DIMENSION_CAP = 1024


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

    def __eq__(self, other):
        if not isinstance(other, Pattern):
            return NotImplemented
        return self.domain == other.domain and self.values == other.values

    def __repr__(self):
        return "Pattern(%s)" % {str(g): self.values[g] for g in self.domain}


_SYMBOL = (str, int)  # table alphabets hold JSON strings or integers


class TableRule:
    """A rule given by its table on alphabet^M; cell values are alphabet symbols, as in JSON."""

    variant = "table"
    payload_shape = {"alphabet": [_SYMBOL], "memory": [str], "map": [([_SYMBOL], _SYMBOL)]}
    value_shape = _SYMBOL

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

    def local(self, values):
        return self.mapping[tuple(values)]

    def cells(self):
        return self.alphabet

    def format_value(self, value):
        return value

    def parse_value(self, raw):
        if raw not in self.alphabet:
            raise CAError("cell value %r is not in the alphabet" % (raw,))
        return raw

    def payload(self):
        return {
            "alphabet": self.alphabet,
            "memory": [str(g) for g in self.memory],
            "map": [[list(k), v] for k, v in sorted(self.mapping.items(), key=lambda kv: repr(kv[0]))],
        }

    @classmethod
    def from_payload(cls, group, payload):
        memory = FiniteSubset(group, [group.parse_element(t) for t in payload["memory"]])
        mapping = {}
        for key, value in payload["map"]:
            if tuple(key) in mapping:
                raise CAError("rule.payload.map lists the key %r twice" % (key,))
            mapping[tuple(key)] = value
        return cls(payload["alphabet"], memory, mapping)


class LinearRule:
    """An n x n matrix symbol acting by convolution; cell values are n-tuples of field elements."""

    variant = "linear"
    payload_shape = {"n": int, "field": str, "symbol": [(str, [[str]])]}
    value_shape = [str]

    def __init__(self, n: int, field, symbol):
        if not 1 <= n <= DIMENSION_CAP:
            raise CAError("dimension must be between 1 and %d" % DIMENSION_CAP)
        self.n = n
        self.field = field
        clean = {}
        for g, m in symbol.items():
            if not isinstance(m, ExactMatrix) or (m.nrows, m.ncols) != (n, n) or m.field != field:
                raise CAError("symbol entries must be n x n matrices over the field")
            if m:
                clean[g] = m
        self.symbol = clean
        # a zero symbol names no group; CellularAutomaton.memory_set supplies it
        self.memory = FiniteSubset(next(iter(clean)).group if clean else None, clean)
        self._blocks = [clean[g] for g in self.memory]

    def local(self, values):
        out = [self.field.zero()] * self.n
        for m, vec in zip(self._blocks, values):
            out = [a + b for a, b in zip(out, m.apply(vec))]
        return tuple(out)

    def cells(self):
        return self.field, self.n

    def format_value(self, value):
        return [self.field.format(x) for x in value]

    def parse_value(self, raw):
        return tuple(self.field.parse(x) for x in raw)

    def payload(self):
        fmt = self.field.format
        symbol = [[str(g), [[fmt(v) for v in row] for row in m.rows]] for g, m in zip(self.memory, self._blocks)]
        return {"n": self.n, "field": self.field.spec_string(), "symbol": symbol}

    @classmethod
    def from_payload(cls, group, payload):
        field = field_from_spec(payload["field"])
        symbol = {}
        for elem_text, rows in payload["symbol"]:
            g = group.parse_element(elem_text)
            if g in symbol:
                raise CAError("rule.payload.symbol lists %s twice" % g)
            symbol[g] = ExactMatrix(field, [[field.parse(v) for v in row] for row in rows])
        return cls(payload["n"], field, symbol)


class PolynomialRule:
    """A near-ring element acting by substitution; cell values are field elements."""

    variant = "polynomial"
    payload_shape = {"field": str, "expr": str}
    value_shape = str

    def __init__(self, poly: NearRingElement):
        self.poly = poly
        self.field = poly.field
        self.memory = poly.support_elements()

    def local(self, values):
        assign = dict(zip(self.memory, values))
        acc = self.field.zero()
        for u, c in self.poly.terms.items():
            term = c
            for g, e in u.items:
                term = term * assign[g] ** e
            acc = acc + term
        return acc

    def cells(self):
        return self.field

    def format_value(self, value):
        return self.field.format(value)

    def parse_value(self, raw):
        return self.field.parse(raw)

    def payload(self):
        return {"field": self.field.spec_string(), "expr": format_element(self.poly)}

    @classmethod
    def from_payload(cls, group, payload):
        field = field_from_spec(payload["field"])
        return cls(parse_element(payload["expr"], group, field, kind="near_ring"))


class CellularAutomaton:
    def __init__(self, group, rule):
        self.group = group
        self.rule = rule

    def memory_set(self) -> FiniteSubset:
        """The rule's memory; an empty one as a subset of this automaton's group."""
        return self.rule.memory or FiniteSubset(self.group, [])

    def _evaluate_at(self, pattern: Pattern, g: GroupElement):
        return self.rule.local([pattern[g * m] for m in self.memory_set()])

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


def check_composable(tau: CellularAutomaton, sigma: CellularAutomaton):
    """Raise CAError unless tau after sigma is defined: one group, one rule kind and one set of cell values."""
    if tau.group != sigma.group:
        raise CAError("automata over different groups")
    rt, rs = tau.rule, sigma.rule
    if type(rt) is not type(rs):
        raise CAError("compose needs matching rule variants")
    if rt.cells() != rs.cells():
        raise CAError("alphabet mismatch")


def compose(tau: CellularAutomaton, sigma: CellularAutomaton) -> CellularAutomaton:
    """The automaton of tau after sigma; memory set M_tau * M_sigma."""
    check_composable(tau, sigma)
    rt, rs = tau.rule, sigma.rule
    if isinstance(rt, PolynomialRule):
        return CellularAutomaton(tau.group, PolynomialRule(rt.poly.star(rs.poly)))
    if isinstance(rt, LinearRule):
        return ca_from_group_ring(group_ring_of(tau) * group_ring_of(sigma))
    # table rules: tabulate on the product memory set
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


def ca_from_group_ring(alpha: GroupRingElement) -> CellularAutomaton:
    """Linear automaton of a matrix group-ring element: x |-> sum_h alpha(h) x(g h)."""
    if alpha.shape is None:
        raise CAError("linear automata need matrix coefficients")
    return CellularAutomaton(alpha.group, LinearRule(alpha.shape, alpha.field, dict(alpha.coeffs)))


def group_ring_of(ca: CellularAutomaton) -> GroupRingElement:
    if not isinstance(ca.rule, LinearRule):
        raise CAError("not a linear-rule automaton")
    return GroupRingElement(ca.group, ca.rule.field, dict(ca.rule.symbol), shape=ca.rule.n)


# ---------------------------------------------------------------------------
# JSON forms for rules and patterns


def rule_to_json(ca: CellularAutomaton) -> dict:
    return {"group": ca.group.spec_string(), "variant": ca.rule.variant, "payload": ca.rule.payload()}


_RULE_SHAPE = {"group": str, "variant": str, "payload": dict}
_RULES = {cls.variant: cls for cls in (TableRule, LinearRule, PolynomialRule)}


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
    _check_json(doc, _RULE_SHAPE, "rule")
    cls = _RULES.get(doc["variant"])
    if cls is None:
        raise CAError("unknown rule variant %r" % doc["variant"])
    _check_json(doc["payload"], cls.payload_shape, "rule.payload")
    group = parse_group_spec(doc["group"])
    return CellularAutomaton(group, cls.from_payload(group, doc["payload"]))


def pattern_to_json(pattern: Pattern, ca: CellularAutomaton) -> dict:
    values = [ca.rule.format_value(pattern[g]) for g in pattern.domain]
    return {"domain": [str(g) for g in pattern.domain], "values": values}


def pattern_from_json(doc: dict, ca: CellularAutomaton) -> Pattern:
    _check_json(doc, {"domain": [str], "values": [ca.rule.value_shape]}, "pattern")
    if len(doc["domain"]) != len(doc["values"]):
        raise CAError("pattern domain and values differ in length")
    group = ca.group
    values = {}
    for elem_text, raw in zip(doc["domain"], doc["values"]):
        g = group.parse_element(elem_text)
        if g in values:
            raise CAError("pattern.domain lists %s twice" % g)
        values[g] = ca.rule.parse_value(raw)
    return Pattern(FiniteSubset(group, values), values)
