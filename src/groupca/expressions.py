"""Text forms for near-ring, group-ring, and twisted group-ring elements.

Grammar (whitespace-insensitive):

    expr    := ['+'|'-'] term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := atom ('^' INT)?
    atom    := INT ('/' INT)? | 'w' | 't' | 'X[' element ']' | '[' element ']'
             | '(' expr ')'

``X[g]`` is a polynomial variable indexed by a group element, ``[g]`` a
group-ring basis element, ``w`` the extension-field generator, ``t`` the
twisted indeterminate (t*a = a^p*t).  Group-element literals follow the
group's own syntax: ``(1,-2)``, ``a*b^-1``, ``#3``.  Printing is canonical
(like terms combined, zeros dropped, fixed term order), so parse/print
round-trips to an equal element.
"""

from __future__ import annotations

from fractions import Fraction

from .group_ring import GroupRingElement, TwistedGroupRingElement
from .groups import clip
from .near_ring import EXPONENT_DIGITS, ExponentVector, NearRingElement
from .rings import ExtensionField, TwistedPoly


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__("syntax error at offset %d: %s" % (position, message))
        self.position = position


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j - i > EXPONENT_DIGITS:
                raise ParseError("a number of more than %d digits, the most a text may hold" % EXPONENT_DIGITS, i)
            tokens.append(("num", int(text[i:j]), i))
            i = j
            continue
        if ch == "X" and i + 1 < n and text[i + 1] == "[":
            j = text.find("]", i + 2)
            if j < 0:
                raise ParseError("unbalanced bracket", n - 1)
            tokens.append(("xvar", text[i + 2 : j], i))
            i = j + 1
            continue
        if ch == "[":
            j = text.find("]", i + 1)
            if j < 0:
                raise ParseError("unbalanced bracket", n - 1)
            tokens.append(("gelem", text[i + 1 : j], i))
            i = j + 1
            continue
        if ch in "+-*^/()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch in "wt":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError("unexpected character %r" % ch, i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text, group, field, kind):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.group = group
        self.field = field
        self.kind = kind

    def peek(self):
        return self.tokens[self.pos][0]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message):
        raise ParseError(message, self.tokens[self.pos][2])

    # value constructors per kind ---------------------------------------

    def constant(self, c):
        if self.kind == "near_ring":
            return NearRingElement.constant(self.group, self.field, c)
        if self.kind == "group_ring":
            return GroupRingElement(self.group, self.field, {self.group.identity(): c})
        return TwistedGroupRingElement(
            self.group, self.field, {self.group.identity(): TwistedPoly.constant(self.field, c)}
        )

    def parse_group_element(self, text, position):
        try:
            return self.group.parse_element(text)
        except ValueError as exc:
            raise ParseError("bad group element %s (%s)" % (clip(text), exc), position)

    # grammar ------------------------------------------------------------

    def parse(self):
        value = self.expr()
        if self.peek() != "end":
            self.fail("trailing input")
        return value

    def expr(self):
        """The sum of the signed terms, added pairwise: a long sum is not copied once per term."""
        terms = []
        op = self.next()[0] if self.peek() in ("+", "-") else "+"
        while op:
            t = self.term()
            terms.append(-t if op == "-" else t)
            op = self.next()[0] if self.peek() in ("+", "-") else None
        while len(terms) > 1:
            odd = terms[-1:] if len(terms) % 2 else []
            terms = [a + b for a, b in zip(terms[::2], terms[1::2])] + odd
        return terms[0]

    def term(self):
        acc = self.factor()
        while self.peek() == "*":
            self.next()
            acc = acc * self.factor()
        return acc

    def factor(self):
        a = self.atom()
        if self.peek() == "^":
            self.next()
            kind, value, pos = self.next()
            if kind != "num":
                raise ParseError("exponent must be a nonnegative integer", pos)
            a = a**value
        return a

    def atom(self):
        kind, value, pos = self.next()
        if kind == "num":
            c = self.field.from_int(value)
            if self.peek() == "/":
                self.next()
                k2, v2, p2 = self.next()
                if k2 != "num":
                    raise ParseError("malformed rational literal", p2)
                if v2 == 0:
                    raise ParseError("zero denominator", p2)
                c = c / self.field.from_int(v2)
            return self.constant(c)
        if kind == "w":
            if not isinstance(self.field, ExtensionField):
                raise ParseError("'w' needs an extension field", pos)
            return self.constant(self.field.gen())
        if kind == "t":
            if self.kind != "twisted":
                raise ParseError("'t' only appears in twisted elements", pos)
            return TwistedGroupRingElement(
                self.group,
                self.field,
                {self.group.identity(): TwistedPoly.t(self.field)},
            )
        if kind == "xvar":
            if self.kind != "near_ring":
                raise ParseError("X[...] only appears in near-ring elements", pos)
            g = self.parse_group_element(value, pos)
            return NearRingElement.variable(g, self.field)
        if kind == "gelem":
            if self.kind == "near_ring":
                raise ParseError("[...] is group-ring syntax", pos)
            g = self.parse_group_element(value, pos)
            if self.kind == "group_ring":
                return GroupRingElement(self.group, self.field, {g: self.field.one()})
            return TwistedGroupRingElement(
                self.group, self.field, {g: TwistedPoly.constant(self.field, self.field.one())}
            )
        if kind == "(":
            inner = self.expr()
            k2, _, p2 = self.next()
            if k2 != ")":
                raise ParseError("expected ')'", p2)
            return inner
        raise ParseError("unexpected token", pos)


def parse_element(text, group, field, kind="auto"):
    """Parse a textual element.

    kind: "near_ring", "group_ring", "twisted", or "auto" (near-ring when the
    text mentions X[...], group-ring when it has bare [...], twisted when it
    has a bare t, near-ring otherwise).  Text nested deeper than the
    interpreter's recursion limit is a ParseError.
    """
    if kind == "auto":
        if "X[" in text:
            kind = "near_ring"
        elif "[" in text:
            kind = "twisted" if _has_bare_t(text) else "group_ring"
        elif _has_bare_t(text):
            kind = "twisted"
        else:
            kind = "near_ring"
    parser = _Parser(text, group, field, kind)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("expression nested too deeply", parser.tokens[parser.pos][2]) from None


def _has_bare_t(text):
    depth = 0
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == "t" and depth == 0:
            return True
    return False


# ---------------------------------------------------------------------------
# printing


def _coeff_text(c, field):
    """Inline coefficient form (no field suffix); parenthesized when composite."""
    if isinstance(c, Fraction):
        return str(c)
    if isinstance(field, ExtensionField):
        body = field.format(c).rsplit(" in ", 1)[0]
        if "+" in body or "-" in body:
            return "(%s)" % body
        return body
    return str(c.v)


def _coeff_is_negative(c):
    return isinstance(c, Fraction) and c < 0


def format_element(x) -> str:
    if isinstance(x, NearRingElement):
        return _format_near_ring(x)
    if isinstance(x, GroupRingElement):
        return _format_group_ring(x)
    if isinstance(x, TwistedGroupRingElement):
        return _format_twisted(x)
    raise TypeError("cannot format %r" % (x,))


def _join_terms(parts):
    if not parts:
        return "0"
    out = [parts[0][1] if not parts[0][0] else "-" + parts[0][1]]
    out += [(" - " if neg else " + ") + text for neg, text in parts[1:]]
    return "".join(out)


def _format_near_ring(x: NearRingElement) -> str:
    parts, names = [], {}
    for u in sorted(x.terms, key=ExponentVector.sort_key, reverse=True):
        c = x.terms[u]
        neg = _coeff_is_negative(c)
        if neg:
            c = -c
        ctext = _coeff_text(c, x.field)
        if not u.items:
            parts.append((neg, ctext))
        elif ctext == "1":
            parts.append((neg, u.text(names)))
        else:
            parts.append((neg, "%s*%s" % (ctext, u.text(names))))
    return _join_terms(parts)


def _format_group_ring(x: GroupRingElement) -> str:
    if x.shape is not None:
        raise TypeError("matrix group-ring elements have no inline text form")
    parts = []
    for g in sorted(x.coeffs, key=lambda e: e.sort_key()):
        c = x.coeffs[g]
        neg = _coeff_is_negative(c)
        if neg:
            c = -c
        ctext = _coeff_text(c, x.field)
        if g.is_identity():
            parts.append((neg, ctext))
        elif ctext == "1":
            parts.append((neg, "[%s]" % g))
        else:
            parts.append((neg, "%s*[%s]" % (ctext, g)))
    return _join_terms(parts)


def _format_twisted(x: TwistedGroupRingElement) -> str:
    parts = []
    for g in sorted(x.coeffs, key=lambda e: e.sort_key()):
        poly = x.coeffs[g]
        for k in range(len(poly.coeffs) - 1, -1, -1):
            c = poly.coeffs[k]
            if not c:
                continue
            bits = []
            ctext = _coeff_text(c, x.field)
            if ctext != "1" or k == 0:
                bits.append(ctext)
            if k == 1:
                bits.append("t")
            elif k > 1:
                bits.append("t^%d" % k)
            if not g.is_identity():
                bits.append("[%s]" % g)
            parts.append((False, "*".join(bits) if bits else "1"))
    return _join_terms(parts)
