"""Rule, pattern and graph files drawn at random exit 0 or 2 through ``run_job``, never 1.

Each strategy draws a well-formed file and then, about half of the time,
breaks it in one way: a zero denominator, a repeated key, a text that is
not an element or a scalar, a wrong count or a value of the wrong JSON type.
"""

import itertools
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from groupca.cli import run_job
from groupca.groups import GroupError, ZdGroup
from groupca.near_ring import EXPONENT_DIGITS
from groupca.rings import PrimeField, RingError
from support import cpu_budget

_FUZZ = settings(derandomize=True, database=None, max_examples=150, deadline=None)

_ELEMENTS = {"zd:1": ["(0)", "(1)", "(-1)", "(2)"], "zd:2": ["(0,0)", "(1,0)", "(0,-1)"]}
_SCALARS = {"q": ["0", "1", "-1", "2", "1/2"], "f3": ["0", "1", "2"], "gf4": ["0", "1", "w", "w + 1"]}
_BAD_TEXTS = st.sampled_from(["1/0", "x", "", "(1", "1/2/3"])
_JUNK = st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=4) | st.lists(st.integers(0, 1), max_size=2)


def _flaws(draw):
    """0 for a well-formed file, else the number of the flaw to put in."""
    return draw(st.integers(0, 10)) if draw(st.booleans()) else 0


@st.composite
def _rules(draw):
    group = draw(st.sampled_from(sorted(_ELEMENTS)))
    elements = st.sampled_from(_ELEMENTS[group])
    variant = draw(st.sampled_from(["linear", "linear", "table", "polynomial"]))
    flaw = _flaws(draw)
    if variant == "linear":
        field, n = draw(st.sampled_from(sorted(_SCALARS))), draw(st.integers(1, 2))
        scalars = st.sampled_from(_SCALARS[field])
        support = draw(st.lists(elements, min_size=1, max_size=3, unique=True))
        symbol = [[g, [[draw(scalars) for _ in range(n)] for _ in range(n)]] for g in support]
        if flaw == 1:
            symbol.append([symbol[0][0], symbol[-1][1]])  # a repeated key
        elif flaw == 2:
            symbol[-1][1][0][-1] = draw(_BAD_TEXTS)
        elif flaw == 3:
            symbol[0][1].append(list(symbol[0][1][0]))  # one row too many
        elif flaw == 4:
            symbol[0][0] = draw(_BAD_TEXTS)
        payload = {"n": n, "field": field, "symbol": symbol}
    elif variant == "table":
        memory = draw(st.lists(elements, min_size=1, max_size=2, unique=True))
        table = [[list(key), draw(st.sampled_from([0, 1]))] for key in itertools.product([0, 1], repeat=len(memory))]
        if flaw == 1:
            table.append([table[0][0], 1 - table[0][1]])  # a repeated key
        elif flaw == 2:
            table.pop()
        elif flaw == 3:
            table[0][1] = 2  # outside the alphabet
        elif flaw == 4:
            memory[0] = draw(_BAD_TEXTS)
        payload = {"alphabet": [0, 1], "memory": memory, "map": draw(st.permutations(table))}
    else:
        expr = " + ".join("%s*X[%s]" % (draw(st.sampled_from(["1", "2", "1/2"])), g)
                          for g in draw(st.lists(elements, min_size=1, max_size=3)))
        if flaw in (1, 2):
            expr = "1/0*" + expr
        payload = {"field": draw(st.sampled_from(["q", "f2"])), "expr": expr}
    doc = {"group": group, "variant": variant, "payload": payload}
    if flaw >= 9:
        doc[draw(st.sampled_from(["group", "variant", "payload"]))] = draw(_JUNK)
    elif flaw >= 7:
        payload[draw(st.sampled_from(sorted(payload)))] = draw(_JUNK)
    return doc


@st.composite
def _patterns(draw, cell, bad_cell):
    """A pattern on Z whose values are drawn from ``cell``; a flaw may put in one from ``bad_cell``."""
    domain = draw(st.lists(st.sampled_from(_ELEMENTS["zd:1"]), max_size=4, unique=True))
    values = [draw(cell) for _ in domain]
    flaw = _flaws(draw) if domain else 0
    if flaw == 1:
        domain, values = domain + domain[:1], values + [draw(cell)]  # a repeated key
    elif flaw == 2:
        values[-1] = draw(bad_cell)
    elif flaw == 3:
        domain[0] = draw(_BAD_TEXTS)
    elif flaw == 4:
        values.pop()
    elif flaw == 5:
        values[0] = draw(_JUNK)
    return {"domain": domain, "values": values}


@st.composite
def _graph_texts(draw):
    """A cycle with labels (1) and (-1), in a file."""
    n = draw(st.integers(1, 6))
    labels = ["(1)", "(-1)"]
    count = str(n)
    edges = [[str(v), "(1)", str((v + 1) % n)] for v in range(n)] + [[str((v + 1) % n), "(-1)", str(v)] for v in range(n)]
    flaw = _flaws(draw)
    if flaw == 1:
        edges.append(list(draw(st.sampled_from(edges))))  # a repeated edge
    elif flaw == 2:
        edges.pop(draw(st.integers(0, len(edges) - 1)))
    elif flaw == 3:
        edges[draw(st.integers(0, len(edges) - 1))][draw(st.sampled_from([0, 2]))] = draw(
            st.sampled_from([str(n), "-1", "1/0", "x"]))
    elif flaw == 4:
        count = draw(st.sampled_from(["0", "-1", "1/0", "x", str(n - 1)]))
    elif flaw == 5:
        labels.append(draw(st.sampled_from(["(1)", "(2)", "x"])))
    elif flaw == 6:
        edges[0][1] = draw(st.sampled_from(["(2)", "(0)", "1/0"]))
    elif flaw == 7:
        edges.insert(draw(st.integers(0, len(edges))), draw(st.sampled_from([["0", "(1)"], ["junk"], ["0", "(1)", "1", "2"]])))
    lines = ["labels: " + " ".join(labels), "vertices: " + count] + [" ".join(e) for e in draw(st.permutations(edges))]
    return "\n".join(lines) + "\n"


def _run_with_files(argv, **files):
    """Write ``files`` into a fresh directory and run ``argv`` with ``{name}`` filled in by their paths."""
    with tempfile.TemporaryDirectory() as d:
        paths = {}
        for name, content in files.items():
            paths[name] = os.path.join(d, name)
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(content if isinstance(content, str) else json.dumps(content))
        return run_job([arg.format(**paths) for arg in argv] + ["--out", os.path.join(d, "out.json")])


@_FUZZ
@given(_rules(), st.sampled_from([["mdim", "--imax", "2"], ["ca-invert", "--radius", "1"]]))
def test_rule_files_exit_0_or_2(rule, command):
    assert _run_with_files(command + ["--rule", "{rule}"], rule=rule) in (0, 2)


_ID_RULE = {"group": "zd:1", "variant": "linear", "payload": {"n": 1, "field": "q", "symbol": [["(0)", [["1"]]]]}}
_XOR_RULE = {
    "group": "zd:1", "variant": "table",
    "payload": {"alphabet": [0, 1], "memory": ["(0)", "(1)"], "map": [[[a, b], (a + b) % 2] for a in (0, 1) for b in (0, 1)]},
}
# rule -> (its cell values, cell values of the right JSON type that it does not take)
_PATTERN_RULES = {
    "linear": (_ID_RULE, st.sampled_from(_SCALARS["q"]).map(lambda x: [x]), _BAD_TEXTS.map(lambda x: [x])),
    "table": (_XOR_RULE, st.sampled_from([0, 1]), st.sampled_from([2, 5, -1, "1", "0", ""])),
}


@_FUZZ
@given(st.sampled_from(sorted(_PATTERN_RULES)), st.data(), st.sampled_from([["--mode", "minus"], ["--mode", "plus", "--window", "1"]]))
def test_pattern_files_exit_0_or_2(kind, data, mode):
    rule, cell, bad_cell = _PATTERN_RULES[kind]
    argv = ["ca-step", "--rule", "{rule}", "--pattern", "{pattern}"] + mode
    assert _run_with_files(argv, rule=rule, pattern=data.draw(_patterns(cell, bad_cell))) in (0, 2)


@_FUZZ
@given(_graph_texts(), st.sampled_from(["0", "1", "2"]))
def test_graph_files_exit_0_or_2(text, radius):
    argv = ["sofic-check", "--group", "zd:1", "--graph", "file:{graph}", "--radius", radius, "--epsilon", "1/2"]
    assert _run_with_files(argv, graph=text) in (0, 2)


_LONG = "9" * (EXPONENT_DIGITS + 700)
_SEARCH = ["--field", "f2", "--degree", "1"]
_AUDIT = ["--radius", "1", "--epsilon", "1/2"]


def _scalar_rule(field, scalar):
    return {"group": "zd:1", "variant": "linear", "payload": {"n": 1, "field": field, "symbol": [["(0)", [[scalar]]]]}}


@pytest.mark.parametrize(
    "argv, files",
    [
        (["units", "--group", "free:2", *_SEARCH, "--support", "a^" + _LONG], {}),
        (["star", "--group", "zd:1", "--field", "q", "--alpha", "X[(%s)]" % _LONG, "--beta", "1"], {}),
        (["star", "--group", "cyclic:3", "--field", "f2", "--alpha", "X[#%s]" % _LONG, "--beta", "1"], {}),
        (["star", "--group", "free:2", "--field", "q", "--alpha", "X[a^%s]" % _LONG, "--beta", "1"], {}),
        (["units", "--group", "zd:2", *_SEARCH, "--support", "(1,-%s)" % _LONG], {}),
        (["units", "--group", "zd:" + _LONG, *_SEARCH], {}),
        (["units", "--group", "free:" + _LONG, *_SEARCH], {}),
        (["units", "--group", "cyclic:" + _LONG, *_SEARCH], {}),
        (["units", "--group", "finite:{table}", *_SEARCH], {"table": "0 1\n1 %s\n" % _LONG}),
        (["star", "--group", "zd:1", "--field", "f" + _LONG, "--alpha", "X[(0)]", "--beta", "1"], {}),
        (["star", "--group", "zd:1", "--field", "gf" + _LONG, "--alpha", "X[(0)]", "--beta", "1"], {}),
        (["sofic-check", "--group", "zd:1", "--graph", "cycle:" + _LONG, *_AUDIT], {}),
        (["sofic-check", "--group", "zd:1", "--graph", "file:{graph}", *_AUDIT], {"graph": "labels: (1)\nvertices: %s\n" % _LONG}),
        (["ca-invert", "--rule", "{rule}", "--radius", "1"], {"rule": _scalar_rule("f5", _LONG + " mod 5")}),
        (["ca-invert", "--rule", "{rule}", "--radius", "1"], {"rule": _scalar_rule("q", _LONG + "/7")}),
        (["ca-invert", "--rule", "{rule}", "--radius", "1"], {"rule": _scalar_rule("gf4", "w^" + _LONG)}),
        *((["ca-invert", "--rule", "{rule}", "--radius", "1"], {"rule": _scalar_rule("q", x)}) for x in ("1e100000", "1e10000000", "1e-10000000")),
    ],
    ids=[
        "free-power", "zd-variable", "finite-variable", "free-variable", "zd-support", "zd-spec", "free-spec", "cyclic-spec",
        "finite-table", "prime-field-spec", "gf-field-spec", "graph-spec", "graph-file", "fp-scalar", "q-scalar", "gf-scalar",
        "q-exponent", "q-exponent-long", "q-exponent-negative",
    ],
)
def test_long_numbers_in_group_texts_exit_2_naming_the_limit(argv, files, capsys):
    """A number of more than EXPONENT_DIGITS digits in a group element or spec, a field or graph spec, a graph file or a
    rule scalar, a Q scalar m e k of more than that many digits in m and k together too, is refused in groupca's terms,
    on one short line, within one second of CPU.

    An element text that fails to parse is echoed by a short prefix and its length, not whole.
    """
    with cpu_budget(1.0):
        assert _run_with_files(argv, **files) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200
    assert "a number of more than %d digits, the most a text may hold" % EXPONENT_DIGITS in err
    assert "int_max_str_digits" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["star", "--group", "zd:1", "--field", "f1000000000000000003", "--alpha", "X[(0)]", "--beta", "X[(1)]"],
        ["units", "--group", "zd:3000000", "--field", "f2", "--degree", "1", "--radius", "1"],
    ],
    ids=["prime-field", "zd-rank"],
)
def test_oversized_fields_and_ranks_exit_2_within_one_second(argv, capsys):
    """A prime field of characteristic 2^32 or more, and Z^d with 2 d^2 above BALL_CAP, are refused before any work."""
    with cpu_budget(1.0):
        assert _run_with_files(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_field_and_rank_limits_admit_their_largest_values():
    """2^32 - 5, the largest prime below 2^32, makes a field and the prime 2^32 + 15 does not; Z^181 is the largest Z^d."""
    assert PrimeField(2**32 - 5).p == 4294967291
    with pytest.raises(RingError, match="below 2\\^32"):
        PrimeField(2**32 + 15)
    assert ZdGroup(181).d == 181
    with pytest.raises(GroupError, match="rank above 181"):
        ZdGroup(182)
