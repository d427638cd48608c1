import dataclasses
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from support import SELF_INVERSE_LOOP_5, cpu_budget, graph_to_text, pair_sigma, z_fixtures

from groupca import __version__, cli
from groupca.ca import rule_from_json, rule_to_json
from groupca.cli import run_job


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = run_job(argv + ["--out", str(out)])
    return code, out


def write_rule(tmp_path, name, ca):
    path = tmp_path / name
    path.write_text(json.dumps(rule_to_json(ca)) + "\n")
    return path


def test_star_reproduces_worked_expansion(tmp_path):
    code, out = run_to_file(
        tmp_path,
        "star.json",
        [
            "star",
            "--group", "zd:1",
            "--field", "q",
            "--alpha", "X[(1)]^3*X[(0)] + 1",
            "--beta", "X[(2)]^2 - X[(3)]^2",
        ],
    )
    assert code == 0
    doc = json.loads(out.read_text())
    from groupca.expressions import parse_element
    from groupca.groups import ZdGroup
    from groupca.rings import QQ

    Z = ZdGroup(1)
    product = parse_element(doc["product"], Z, QQ)
    expected = parse_element(
        "(X[(3)]^2 - X[(4)]^2)^3 * (X[(2)]^2 - X[(3)]^2) + 1", Z, QQ
    )
    assert product == expected


def test_units_search_cli(tmp_path):
    findings_path = tmp_path / "findings.jsonl"
    code, out = run_to_file(
        tmp_path,
        "units.json",
        [
            "units",
            "--group", "zd:1",
            "--field", "f2",
            "--degree", "2",
            "--radius", "1",
            "--findings", str(findings_path),
        ],
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["findings_count"] == 6 and doc["alarms"] == 0
    lines = [json.loads(l) for l in findings_path.read_text().splitlines()]
    assert len(lines) == 6
    assert all(l["classification"] == "trivial_unit" for l in lines)
    assert all(set(l) >= {"kind", "alpha", "beta", "product", "classification"} for l in lines)


def test_idem_and_zerodiv_cli(tmp_path):
    code, out = run_to_file(
        tmp_path,
        "idem.json",
        ["idem", "--group", "zd:1", "--field", "f2", "--degree", "2", "--radius", "1"],
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["findings_count"] == 3 and doc["alarms"] == 0

    code, out = run_to_file(
        tmp_path,
        "zd.json",
        ["zerodiv", "--group", "zd:1", "--field", "f2", "--degree", "2", "--radius", "1"],
    )
    assert code == 0
    assert json.loads(out.read_text())["findings_count"] == 0


def test_embed_cli(tmp_path):
    code, out = run_to_file(
        tmp_path,
        "embed.json",
        ["embed", "--group", "zd:1", "--field", "q", "--kind", "iota", "--element", "1 + 2*[1]"],
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["image"] == "2*X[(1)] + X[(0)]"

    code, out = run_to_file(
        tmp_path,
        "embed_j.json",
        ["embed", "--group", "zd:1", "--field", "f2", "--kind", "j", "--element", "t*[1]"],
    )
    assert code == 0
    assert json.loads(out.read_text())["image"] == "X[(1)]^2"


def test_ca_invert_cli(tmp_path):
    rule = write_rule(tmp_path, "tau.json", z_fixtures()["invertible_pair_tau"])
    code, out = run_to_file(
        tmp_path, "invert.json", ["ca-invert", "--rule", str(rule), "--radius", "4"]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["found"] and doc["radius"] == 1
    inverse_symbols = {entry[0] for entry in doc["inverse"]["payload"]["symbol"]}
    assert inverse_symbols == {"(0)", "(1)"}


def test_ca_compose_and_step_cli(tmp_path):
    tau = write_rule(tmp_path, "tau.json", z_fixtures()["invertible_pair_tau"])
    sigma = write_rule(tmp_path, "sigma.json", pair_sigma())
    code, out = run_to_file(
        tmp_path, "comp.json", ["ca-compose", "--rule", str(tau), "--rule2", str(sigma)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["composite"]["payload"]["symbol"] == [
        ["(0)", [["1", "0"], ["0", "1"]]]
    ]

    pattern = tmp_path / "p.json"
    pattern.write_text(
        json.dumps({"domain": ["(0)", "(1)"], "values": [["1", "2"], ["3", "4"]]})
    )
    code, out = run_to_file(
        tmp_path,
        "step.json",
        ["ca-step", "--rule", str(tau), "--pattern", str(pattern), "--mode", "minus"],
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["output"] == {"domain": ["(0)"], "values": [["5", "2"]]}


def test_goe_cli_consistent(tmp_path):
    rule = write_rule(tmp_path, "rank1.json", z_fixtures()["rank1_2x2"])
    code, out = run_to_file(
        tmp_path, "goe.json", ["goe", "--rule", str(rule), "--imax", "10", "--rmax", "4"]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["classification"] == "consistent_not_surjective"
    assert doc["alarm"] is False
    assert doc["preinjectivity_witness"] is not None


def test_mdim_cli(tmp_path):
    rule = write_rule(tmp_path, "diff.json", z_fixtures()["diff"])
    code, out = run_to_file(tmp_path, "mdim.json", ["mdim", "--rule", str(rule), "--imax", "8"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["estimate"] == "1" and doc["estimate_decimal"] == "1.000000"
    assert doc["q_sequence"] == ["1"] * 8


def test_sofic_check_cli(tmp_path):
    code, out = run_to_file(
        tmp_path,
        "cert.json",
        ["sofic-check", "--group", "zd:1", "--graph", "cycle:10", "--radius", "3", "--epsilon", "0.1"],
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["counts"]["V(r)"] == 10
    assert doc["epsilon"] == "1/10"


def test_graph_audit_cli(tmp_path):
    tau = write_rule(tmp_path, "tau.json", z_fixtures()["invertible_pair_tau"])
    sigma = write_rule(tmp_path, "sigma.json", pair_sigma())
    code, out = run_to_file(
        tmp_path,
        "audit.json",
        [
            "graph-audit",
            "--group", "zd:1",
            "--graph", "cycle:16",
            "--rule", str(tau),
            "--inverse", str(sigma),
            "--radius", "1",
        ],
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["projection_verified"] is True
    assert doc["rank_inequality_holds"] is True


def test_report_byte_determinism(tmp_path):
    argv = ["units", "--group", "zd:1", "--field", "f2", "--degree", "2", "--radius", "1"]
    _, out1 = run_to_file(tmp_path, "a.json", argv + ["--workers", "1"])
    _, out2 = run_to_file(tmp_path, "b.json", argv + ["--workers", "4"])
    _, out3 = run_to_file(tmp_path, "c.json", argv + ["--workers", "1"])
    assert out1.read_bytes() == out2.read_bytes() == out3.read_bytes()


def test_job_file_defaults(tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"group": "zd:1", "field": "f2", "degree": 2, "radius": 1}))
    code, out = run_to_file(tmp_path, "fromjob.json", ["idem", "--job", str(job)])
    assert code == 0
    assert json.loads(out.read_text())["findings_count"] == 3


def test_toml_job_file_matches_its_json_twin(tmp_path):
    (tmp_path / "job.json").write_text(json.dumps({"group": "zd:1", "field": "f2", "degree": 2, "radius": 1}))
    (tmp_path / "job.toml").write_text('group = "zd:1"\nfield = "f2"\ndegree = 2\nradius = 1\n')
    code_json, out_json = run_to_file(tmp_path, "json.json", ["idem", "--job", str(tmp_path / "job.json")])
    code_toml, out_toml = run_to_file(tmp_path, "toml.json", ["idem", "--job=%s" % (tmp_path / "job.toml")])
    assert code_json == code_toml == 0
    assert out_json.read_bytes() == out_toml.read_bytes()


@pytest.mark.parametrize(
    "text",
    ['group = "zd:1"\nfield = "f2"\ndegree = 2\nradius = true\n', 'group = "zd:1\nfield = f2\n'],
    ids=["boolean", "malformed"],
)
def test_toml_job_file_errors_exit_2(tmp_path, capsys, text):
    job = tmp_path / "job.toml"
    job.write_text(text)
    assert run_job(["idem", "--job", str(job)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_malformed_gf_entry_exits_2(tmp_path, capsys):
    """w*w is not a GF(4) text (w*w = w+1), so a rule file holding it is an input error."""
    rule = {"group": "zd:1", "variant": "linear", "payload": {"n": 1, "field": "gf4", "symbol": [["(0)", [["w*w"]]]]}}
    (tmp_path / "rule.json").write_text(json.dumps(rule))
    assert run_job(["ca-compose", "--rule", str(tmp_path / "rule.json"), "--rule2", str(tmp_path / "rule.json")]) == 2
    assert "not an element of GF(4)" in capsys.readouterr().err


@pytest.mark.parametrize("top", [[], "s", 3, None], ids=["list", "string", "number", "null"])
def test_job_file_not_an_object_exits_2(tmp_path, capsys, top):
    job = tmp_path / "job.json"
    job.write_text(json.dumps(top))
    assert run_job(["idem", "--job", str(job)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "key, value",
    [("out", None), ("alpha", ["X[(1)]"]), ("seed", True), ("group", {"name": "zd:1"})],
    ids=["null", "array", "boolean", "object"],
)
def test_job_file_values_must_be_strings_or_numbers(tmp_path, monkeypatch, capsys, key, value):
    monkeypatch.chdir(tmp_path)
    job = {"group": "zd:1", "field": "q", "alpha": "X[(1)]", "beta": "X[(0)]"}
    job[key] = value
    (tmp_path / "job.json").write_text(json.dumps(job))
    assert run_job(["star", "--job", "job.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and repr(key) in captured.err
    assert [p.name for p in tmp_path.iterdir()] == ["job.json"]  # a null "out" must not become a file "None"


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_JSON)
def test_job_file_of_any_json_value_exits_0_or_2(value):
    with tempfile.TemporaryDirectory() as d:
        job = os.path.join(d, "job.json")
        with open(job, "w", encoding="utf-8") as fh:
            json.dump(value, fh)
        assert run_job(["star", "--job", job, "--out", os.path.join(d, "out.json")]) in (0, 2)


def test_job_equals_form(tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"group": "zd:1", "field": "q", "alpha": "X[(1)]^2", "beta": "X[(0)] - 1"}))
    code, spaced = run_to_file(tmp_path, "spaced.json", ["star", "--job", str(job)])
    assert code == 0
    code, joined = run_to_file(tmp_path, "joined.json", ["star", "--job=%s" % job])
    assert code == 0
    assert spaced.read_bytes() == joined.read_bytes()
    assert json.loads(joined.read_text())["product"] == "X[(1)]^2 - 2*X[(1)] + 1"


@pytest.mark.parametrize("spec", ["cyclic:3", "finite:{table}"])
def test_composed_finite_group_rules_load_back(tmp_path, spec):
    """ca-compose names a finite group by the spec it was read from, so its composite loads and inverts."""
    table = tmp_path / "z3.txt"
    table.write_text("0 1 2\n1 2 0\n2 0 1\n")
    spec = spec.format(table=table)
    rule = tmp_path / "rule.json"
    symbol = [["#0", [["1"]]], ["#1", [["1"]]]]
    rule.write_text(json.dumps({"group": spec, "variant": "linear", "payload": {"n": 1, "field": "f2", "symbol": symbol}}))
    code, out = run_to_file(tmp_path, "comp.json", ["ca-compose", "--rule", str(rule), "--rule2", str(rule)])
    assert code == 0
    composite = json.loads(out.read_text())["composite"]
    assert composite["group"] == spec
    assert rule_to_json(rule_from_json(composite)) == composite
    path = tmp_path / "composite.json"
    path.write_text(json.dumps(composite))
    code, out = run_to_file(tmp_path, "invert.json", ["ca-invert", "--rule", str(path), "--radius", "1"])
    assert code == 0 and json.loads(out.read_text())["rule"] == composite


def test_input_errors_exit_2(tmp_path):
    assert run_job(["star", "--group", "zd:1", "--field", "q", "--alpha", "X[(1)", "--beta", "1"]) == 2
    assert run_job(["goe", "--rule", str(tmp_path / "missing.json")]) == 2
    assert run_job(["sofic-check", "--group", "zd:1", "--graph", "cycle:10", "--radius", "3", "--epsilon", "7"]) == 2
    assert run_job(["units", "--group", "zd:1", "--field", "f2", "--degree", "0", "--radius", "1"]) == 2
    assert run_job(["mdim", "--rule", str(tmp_path / "x.json"), "--imax", "-3"]) == 2


def test_non_associative_table_exits_2(tmp_path, capsys):
    """An order-5 loop, every element its own inverse, passes the identity
    and inverse checks and is refused by the associativity check."""
    table = tmp_path / "loop5.txt"
    table.write_text("\n".join(" ".join(map(str, row)) for row in SELF_INVERSE_LOOP_5) + "\n")
    argv = ["units", "--group", "finite:%s" % table, "--field", "f2", "--degree", "1", "--radius", "1"]
    assert run_job(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: table is not associative at (")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["star", "--group", "zd:1", "--field", "gf0", "--alpha", "X[(0)]", "--beta", "X[(0)]"], "field size"),
        (["units", "--group", "zd:1", "--field", "f2", "--degree", "1", "--radius", "100000000"], "65536 elements"),
        (["sofic-check", "--group", "zd:1", "--graph", "cycle:5", "--radius", "99999999", "--epsilon", "1/2"], "65536 elements"),
    ],
)
def test_unbounded_inputs_exit_2_at_once(capsys, argv, message):
    """A field of size 0 and balls past groups.BALL_CAP are input errors, refused within 2 s of CPU."""
    with cpu_budget(2.0):
        assert run_job(argv) == 2
    assert message in capsys.readouterr().err


_DEEP = "[" * 200000 + "]" * 200000
# files the argv below name by key: the difference rule on Z and on Z^2, a graph
# file declaring 10^12 vertices, and a rule and a job file of 200 000 nested arrays
_INPUT_FILES = {
    "@z1": {"group": "zd:1", "variant": "linear", "payload": {"n": 1, "field": "q", "symbol": [["(0)", [["-1"]]], ["(1)", [["1"]]]]}},
    "@z2": {"group": "zd:2", "variant": "linear", "payload": {"n": 1, "field": "q", "symbol": [["(0,0)", [["-1"]]], ["(1,0)", [["1"]]]]}},
    "@graph": "labels: (1) (-1)\nvertices: 1000000000000\n",
    "@deep_rule": _DEEP,
    "@deep_job": '{"imax": %s}' % _DEEP,
}
_SOFIC = ["--radius", "1", "--epsilon", "1/2"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["mdim", "--rule", "@z1", "--imax", "100000"], "window chain"),
        (["goe", "--rule", "@z1", "--imax", "4", "--rmax", "1000000"], "window chain"),
        (["ca-invert", "--rule", "@z2", "--radius", "100000"], "window chain"),
        (["sofic-check", "--group", "zd:1", "--graph", "cycle:30000000"] + _SOFIC, "vertices"),
        (["sofic-check", "--group", "zd:2", "--graph", "torus:100000"] + _SOFIC, "vertices"),
        (["sofic-check", "--group", "free:2", "--graph", "schreier:30000000:1"] + _SOFIC, "vertices"),
        (["sofic-check", "--group", "zd:1", "--graph", "file:@graph"] + _SOFIC, "vertices"),
        (["star", "--group", "cyclic:1000", "--field", "f2", "--alpha", "X[#0]", "--beta", "X[#1]"], "table"),
        (["star", "--group", "zd:1", "--field", "q", "--alpha", "(" * 3000 + "X[(0)]" + ")" * 3000, "--beta", "X[(0)]"], "nested too deeply"),
        (["mdim", "--rule", "@deep_rule"], "nested too deeply"),
        (["mdim", "--job", "@deep_job"], "nested too deeply"),
    ],
    ids=["mdim", "goe", "ca-invert", "cycle", "torus", "schreier", "graph-file", "cyclic", "alpha", "rule-file", "job-file"],
)
def test_oversized_and_deeply_nested_inputs_exit_2_at_once(tmp_path, capsys, argv, message):
    """Window chains and graphs past groups.BALL_CAP, group tables past it and nesting past the
    recursion limit are input errors: one error line within 2 s of CPU, no traceback."""
    resolved = []
    for arg in argv:
        for key, content in _INPUT_FILES.items():
            if key in arg:
                path = tmp_path / key[1:]
                path.write_text(content if isinstance(content, str) else json.dumps(content))
                arg = arg.replace(key, str(path))
        resolved.append(arg)
    with cpu_budget(2.0):
        assert run_job(resolved) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1 and message in captured.err


@pytest.mark.parametrize("n", [10**6, 10**30])
@pytest.mark.parametrize(
    "argv",
    [
        ["goe", "--imax", "1", "--rmax", "0"],
        ["mdim", "--imax", "2"],
        ["ca-invert", "--radius", "1"],
        ["graph-audit", "--group", "zd:1", "--graph", "cycle:12", "--radius", "1"],
    ],
    ids=["goe", "mdim", "ca-invert", "graph-audit"],
)
def test_linear_rule_dimension_above_the_cap_exits_2(tmp_path, capsys, argv, n):
    """A zero symbol bounds no n x n matrix, so n itself is checked against ca.DIMENSION_CAP before any window."""
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"group": "zd:1", "variant": "linear", "payload": {"n": n, "field": "q", "symbol": []}}))
    with cpu_budget(1.0):
        assert run_job(argv + ["--rule", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: dimension must be between 1 and 1024\n"


def test_twisted_power_reduces_the_frobenius_exponent(capsys):
    with cpu_budget(2.0):
        assert run_job(["embed", "--group", "zd:1", "--field", "gf4", "--kind", "j", "--element", "(w+t)^3000*[(1)]"]) == 0
    assert json.loads(capsys.readouterr().out)["command"] == "embed"


def test_dense_twisted_embedding_is_not_quadratic(capsys):
    """(1+t)^8191 over F_2 has 8192 terms, whose images X[(0)]^(2^j) hash apart and whose powers skip zero coefficients."""
    with cpu_budget(2.0):
        assert run_job(["embed", "--group", "zd:1", "--field", "f2", "--kind", "j", "--element", "(1+t)^8191*[(0)]"]) == 0
    image = json.loads(capsys.readouterr().out)["image"]
    assert image.count(" + ") == 8191 and image.endswith(" + X[(0)]")


def test_an_image_exponent_past_the_text_bound_exits_2(capsys):
    """(1+t)^16383 maps t^16383 to X[(0)]^(2^16383), an exponent of 4932 digits: past EXPONENT_DIGITS = 4300."""
    assert run_job(["embed", "--group", "zd:1", "--field", "f2", "--kind", "j", "--element", "(1+t)^16383*[(0)]"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the exponent of X[(0)] has more than 4300 digits, the most a text may hold\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["units", "--group", "free:2", "--field", "f2", "--degree", "1", "--support", "a^10000000000000"],
         "error: the word 'a^10000000000000' has more than 1000000 letters\n"),
        (["star", "--group", "zd:1", "--field", "q", "--alpha", "X[(0)]^" + "9" * 5000, "--beta", "1"],
         "error: syntax error at offset 7: a number of more than 4300 digits, the most a text may hold\n"),
    ],
    ids=["free-word", "exponent-literal"],
)
def test_input_past_a_text_bound_exits_2_naming_the_bound(capsys, argv, message):
    """A word of 10^13 letters is refused before it is built, and a 5000-digit literal before the interpreter converts it."""
    assert run_job(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message)


def test_malformed_rule_files_exit_2(tmp_path):
    no_payload = tmp_path / "no_payload.json"
    no_payload.write_text(json.dumps({"group": "zd:1", "variant": "linear"}))
    array = tmp_path / "array.json"
    array.write_text(json.dumps([{"group": "zd:1"}]))
    bad_symbol = tmp_path / "bad_symbol.json"
    bad_symbol.write_text(
        json.dumps({"group": "zd:1", "variant": "linear", "payload": {"n": 1, "field": "q", "symbol": [["(0)"]]}})
    )
    for path in (no_payload, array, bad_symbol):
        assert run_job(["goe", "--rule", str(path)]) == 2
    rule = write_rule(tmp_path, "tau.json", z_fixtures()["invertible_pair_tau"])
    for pattern in ([], {"domain": ["(0)"]}, {"domain": ["(0)"], "values": [1]}):
        path = tmp_path / "pattern.json"
        path.write_text(json.dumps(pattern))
        assert run_job(["ca-step", "--rule", str(rule), "--pattern", str(path)]) == 2


def test_element_texts_starting_with_minus(tmp_path):
    code, out = run_to_file(
        tmp_path, "neg.json", ["star", "--group", "zd:1", "--field", "q", "--alpha", "X[(0)]", "--beta", "-X[(1)] + 2"]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["product"] == doc["beta"] == "-X[(1)] + 2"
    code, out = run_to_file(
        tmp_path, "embed.json", ["embed", "--group", "zd:1", "--field", "q", "--kind", "iota", "--element", "-[1]"]
    )
    assert code == 0
    assert json.loads(out.read_text())["image"] == "-X[(1)]"
    # the command line still wins over a job file
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"group": "zd:1", "field": "q", "alpha": "X[(5)]", "beta": "X[(0)]"}))
    code, out = run_to_file(tmp_path, "job.json.out", ["star", "--job", str(job), "--alpha", "-X[(2)]"])
    assert code == 0
    assert json.loads(out.read_text())["alpha"] == "-X[(2)]"


def test_graph_file_input(tmp_path):
    from groupca.groups import ZdGroup
    from groupca.sofic import cycle_graph

    gpath = tmp_path / "g.txt"
    gpath.write_text(graph_to_text(cycle_graph(ZdGroup(1), 10)))
    code, out = run_to_file(
        tmp_path,
        "cert2.json",
        ["sofic-check", "--group", "zd:1", "--graph", "file:%s" % gpath, "--radius", "3", "--epsilon", "0.1"],
    )
    assert code == 0
    assert json.loads(out.read_text())["passed"] is True


# the path 0 - 1 - 2 - 3; each case below keeps the edge involution intact
_PATH4_EDGES = ["%d (1) %d" % (v, v + 1) for v in range(3)] + ["%d (-1) %d" % (v + 1, v) for v in range(3)]


@pytest.mark.parametrize(
    "header, edges",
    [
        ("labels: (1) (-1)\nvertices: 4", _PATH4_EDGES + ["0 (2) 1"]),  # label not in the header
        ("labels: (1) (-1)\nvertices: 4", _PATH4_EDGES + ["3 (1) 4", "4 (-1) 3"]),  # vertex id outside [0, 4)
        ("labels: (1) (-1)\nvertices: -3", []),  # negative vertex count
        ("labels: (1) (-1)\nvertices: 4", _PATH4_EDGES + ["3 (1) 2", "3 (1) 0", "0 (-1) 3"]),  # two edges for (3, (1))
        ("labels: (1) (-1) (1)\nvertices: 4", _PATH4_EDGES),  # a label listed twice
    ],
    ids=["unknown_label", "vertex_out_of_range", "negative_count", "duplicate_edge", "repeated_label"],
)
def test_malformed_graph_files_exit_2(tmp_path, capsys, header, edges):
    gpath = tmp_path / "g.txt"
    gpath.write_text("\n".join([header] + edges) + "\n")
    argv = ["sofic-check", "--group", "zd:1", "--graph", "file:%s" % gpath, "--radius", "1", "--epsilon", "0.1"]
    assert run_job(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_jobs_in_one_process_keep_their_options_apart():
    from parser_reuse import check_parser_reuse

    check_parser_reuse()


def _linear_rule_file(tmp_path, symbol):
    path = tmp_path / "rule.json"
    path.write_text(json.dumps({"group": "zd:1", "variant": "linear", "payload": {"n": 1, "field": "q", "symbol": symbol}}))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["star", "--group", "zd:1", "--field", "q", "--alpha", "1/0*X[(1)]", "--beta", "X[(0)]"],
        ["sofic-check", "--group", "zd:1", "--graph", "cycle:10", "--radius", "1", "--epsilon", "1/0"],
        ["mdim", "--imax", "2", "--rule"],
        ["goe", "--imax", "2", "--rmax", "1", "--rule"],
        ["ca-invert", "--radius", "1", "--rule"],
    ],
    ids=["star", "sofic-check", "mdim", "goe", "ca-invert"],
)
def test_zero_denominators_exit_2(tmp_path, capsys, argv):
    if argv[-1] == "--rule":
        argv = argv + [_linear_rule_file(tmp_path, [["(0)", [["1/0"]]]])]
    assert run_job(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "zero denominator" in captured.err


def test_repeated_keys_in_rule_and_pattern_files_exit_2(tmp_path, capsys):
    rule = _linear_rule_file(tmp_path, [["(0)", [["1"]]], ["(0)", [["2"]]]])
    assert run_job(["ca-invert", "--rule", rule, "--radius", "1"]) == 2
    table = tmp_path / "table.json"
    payload = {"alphabet": [0, 1], "memory": ["(0)"], "map": [[[0], 1], [[1], 0], [[0], 0]]}
    table.write_text(json.dumps({"group": "zd:1", "variant": "table", "payload": payload}))
    assert run_job(["ca-invert", "--rule", str(table), "--radius", "1"]) == 2
    pattern = tmp_path / "pattern.json"
    pattern.write_text(json.dumps({"domain": ["(0)", "(0)"], "values": [["1"], ["2"]]}))
    assert run_job(["ca-step", "--rule", _linear_rule_file(tmp_path, [["(0)", [["1"]]]]), "--pattern", str(pattern)]) == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == 3 and err.count("twice") == 3 and "Traceback" not in err


@pytest.mark.parametrize("vector", [[], ["1", "2"]], ids=["short", "long"])
def test_pattern_vectors_of_the_wrong_length_exit_2(tmp_path, capsys, vector):
    """LinearRule.local applies each block through ExactMatrix.apply, which checks the vector's length."""
    pattern = tmp_path / "pattern.json"
    pattern.write_text(json.dumps({"domain": ["(0)", "(1)"], "values": [vector, ["1"]]}))
    assert run_job(["ca-step", "--rule", _linear_rule_file(tmp_path, [["(0)", [["1"]]]]), "--pattern", str(pattern)]) == 2
    assert capsys.readouterr().err == "error: vector length mismatch\n"


# every subcommand once: its argv after the name, with "@name" for a file of _REPORT_FILES
_Z1_F2 = ["--group", "zd:1", "--field", "f2", "--degree", "1", "--radius", "1"]
_SUBCOMMANDS = {
    "star": ["--group", "zd:1", "--field", "q", "--alpha", "X[(1)]^2", "--beta", "X[(0)] + 1"],
    "units": _Z1_F2 + ["--findings", "@findings"],
    "idem": _Z1_F2 + ["--findings", "@findings"],
    "zerodiv": _Z1_F2 + ["--findings", "@findings"],
    "embed": ["--group", "zd:1", "--field", "f2", "--kind", "j", "--element", "t*[1]"],
    "ca-step": ["--rule", "@tau", "--pattern", "@pattern"],
    "ca-compose": ["--rule", "@tau", "--rule2", "@sigma"],
    "ca-invert": ["--rule", "@tau", "--radius", "2"],
    "mdim": ["--rule", "@rank1", "--imax", "4"],
    "goe": ["--rule", "@rank1", "--imax", "4", "--rmax", "2"],
    "sofic-check": ["--group", "zd:1", "--graph", "cycle:10", "--radius", "1", "--epsilon", "1/2"],
    "graph-audit": ["--group", "zd:1", "--graph", "cycle:16", "--rule", "@tau", "--inverse", "@sigma", "--radius", "1"],
}
_SEARCH_KINDS = {"units": "unit", "idem": "idempotent", "zerodiv": "zero_divisor"}


def _forced_alarm(monkeypatch, name):
    """Make the library behind ``name`` report a theorem violation, as a broken theorem would."""
    if name in _SEARCH_KINDS:
        monkeypatch.setattr(cli, "_search_alarms", lambda *args: [None])
    elif name == "goe":
        goe_report = cli.goe_report
        monkeypatch.setattr(cli, "goe_report", lambda *a, **k: dataclasses.replace(goe_report(*a, **k), alarm=True))
    else:
        audit = cli.graph_ca_rank_audit
        monkeypatch.setattr(
            cli, "graph_ca_rank_audit", lambda *a, **k: dataclasses.replace(audit(*a, **k), inequality_holds=False)
        )


def _raises_alarm(doc):
    if doc["command"] == "goe":
        return doc["alarm"]
    if doc["command"] == "graph-audit":
        return doc["projection_verified"] is False or doc["rank_inequality_holds"] is False
    if doc["command"] in _SEARCH_KINDS.values():
        return doc["alarms"] > 0
    return False


@pytest.mark.parametrize(
    "name, forced",
    [(name, False) for name in _SUBCOMMANDS] + [(name, True) for name in ("units", "idem", "zerodiv", "goe", "graph-audit")],
    ids=list(_SUBCOMMANDS) + ["units-alarm", "idem-alarm", "zerodiv-alarm", "goe-alarm", "graph-audit-alarm"],
)
def test_every_subcommand_reports_through_run_job(tmp_path, monkeypatch, name, forced):
    """run_job stamps command, seed and version, copies the group and field options,
    writes the findings after the report and exits 1 exactly on an alarm."""
    files = {
        "@tau": write_rule(tmp_path, "tau.json", z_fixtures()["invertible_pair_tau"]),
        "@sigma": write_rule(tmp_path, "sigma.json", pair_sigma()),
        "@rank1": write_rule(tmp_path, "rank1.json", z_fixtures()["rank1_2x2"]),
        "@pattern": tmp_path / "pattern.json",
        "@findings": tmp_path / "findings.jsonl",
    }
    files["@pattern"].write_text(json.dumps({"domain": ["(0)", "(1)"], "values": [["1", "2"], ["3", "4"]]}))
    if forced:
        _forced_alarm(monkeypatch, name)
    argv = [name] + [str(files.get(arg, arg)) for arg in _SUBCOMMANDS[name]] + ["--seed", "5"]
    code, out = run_to_file(tmp_path, "report.json", argv)
    doc = json.loads(out.read_text())
    assert (doc["command"], doc["seed"], doc["version"]) == (_SEARCH_KINDS.get(name, name), 5, __version__)
    has_field = name in ("star", "embed", *_SEARCH_KINDS)
    assert ("group" in doc, "field" in doc) == (has_field or name in ("sofic-check", "graph-audit"), has_field)
    assert _raises_alarm(doc) == forced
    assert code == (1 if forced else 0)
    if name in _SEARCH_KINDS:
        lines = files["@findings"].read_text().splitlines()
        assert [json.loads(line) for line in lines] == doc["findings"]


_SHIFT = {"n": 1, "field": "q", "symbol": [["(1)", [["1"]]]]}


@pytest.mark.parametrize(
    "group, graph, inverse, message",
    [
        ("zd:1", "cycle:12", {"variant": "polynomial", "payload": {"field": "q", "expr": "X[(-1)]"}}, "variants"),
        ("zd:1", "cycle:12", {"variant": "table", "payload": {"alphabet": [0, 1], "memory": ["(-1)"], "map": [[[0], 0], [[1], 1]]}}, "variants"),
        ("zd:1", "cycle:12", {"variant": "linear", "payload": {"n": 1, "field": "f3", "symbol": [["(-1)", [["1"]]]]}}, "alphabet"),
        ("zd:1", "cycle:12", {"variant": "linear", "payload": {"n": 2, "field": "q", "symbol": [["(-1)", [["1", "0"], ["0", "1"]]]]}}, "alphabet"),
        ("zd:2", "torus:5", None, "the rule is over zd:1, the graph over zd:2"),
    ],
    ids=["polynomial-inverse", "table-inverse", "f3-inverse", "2x2-inverse", "zd2-graph"],
)
def test_graph_audit_refuses_rules_that_do_not_fit_the_graph(tmp_path, capsys, group, graph, inverse, message):
    """The rule must be over the graph's group, and the inverse composable with it, as ca-compose checks."""
    rule = tmp_path / "shift.json"
    rule.write_text(json.dumps({"group": "zd:1", "variant": "linear", "payload": _SHIFT}))
    argv = ["graph-audit", "--group", group, "--graph", graph, "--rule", str(rule), "--radius", "1"]
    if inverse is not None:
        path = tmp_path / "inverse.json"
        path.write_text(json.dumps({"group": "zd:1", **inverse}))
        argv += ["--inverse", str(path)]
    assert run_job(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize(
    "element, code, message",
    [
        ("t^2000*[(0)]", 0, ""),
        ("t^20000*[(0)]", 2, "error: "),  # the exponents 2^20000 and 2^40000 have more digits than Python prints
        ("t^40000*[(0)]", 2, "error: "),
        ("t^100000000*[(0)]", 2, "exceeds 1000000"),
    ],
    ids=["t2000", "t20000", "t40000", "t100000000"],
)
def test_twisted_powers_of_t_are_bounded(capsys, element, code, message):
    """embed_twisted skips zero coefficients, and a twisted product longer than TERM_CAP is refused before it is formed."""
    with cpu_budget(2.0):
        assert run_job(["embed", "--group", "zd:1", "--field", "f2", "--kind", "j", "--element", element]) == code
    captured = capsys.readouterr()
    assert message in captured.err
    if code == 0:
        assert json.loads(captured.out)["image"] == "X[(0)]^%d" % 2**2000
