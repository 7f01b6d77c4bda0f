"""Mutation fuzz of the parsers that share graphstore's term lexer: rules,
path expressions, BGP patterns and scenario scripts. Each raises only its
documented errors, and the CLI exits only 0, 1 or 2 on any of them."""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netslice.cli import CliInputError, _parse_bgp, _parse_scenario, main
from netslice.pathquery import PathExprError, parse_path_expr
from netslice.rules import BROADCAST_DOMAIN_RULE, RuleSyntaxError, UnsafeRule, parse_ruleset
from netslice.vocab import BASE_PREFIXES

from conftest import FIXTURES

RULES = [
    BROADCAST_DOMAIN_RULE,
    'violation("port #3 \\"x\\"", ?X) <- comp:ComputeElement(?X), (?X <urn:p#f> "a\\tb"^^xsd:string),\n'
    '    notEqual(?X, ?Y), (?Y topo:inDomain ?X) . # done',
]
# a term under 3,000 inverses, groups or stars: deeper than the parser nests
DEEP_PATHS = [
    "^" * 3000 + "topo:hasInterface",
    "(" * 3000 + "topo:hasInterface" + ")" * 3000,
    "topo:hasInterface" + "*" * 3000,
]
PATHS = ["topo:hasInterface/topo:linkedTo/topo:interfaceOf", "(^topo:a|<urn:x#y>)*/topo:b+", *DEEP_PATHS]
BGPS = [
    '?s topo:hasInterface ?i . ?i topo:linkedTo ?j',
    '?l <urn:bw> "100"^^xsd:integer .\n?l <urn:name> "two words"',
]
SCENARIOS = [(FIXTURES / name).read_text() for name in ("demo.scn", "reject.scn", "ring.scn")]

PARSERS = {
    "rules": (RULES, lambda text: parse_ruleset(text), (RuleSyntaxError, UnsafeRule)),
    "path": (PATHS, lambda text: parse_path_expr(text, BASE_PREFIXES), (PathExprError,)),
    "bgp": (BGPS, lambda text: _parse_bgp(text, BASE_PREFIXES), (CliInputError,)),
    "scenario": (SCENARIOS, _parse_scenario, (CliInputError,)),
}


@st.composite
def mutated(draw, seeds):
    """A seed text with one to four characters deleted, inserted or doubled."""
    text = draw(st.sampled_from(seeds))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["delete", "insert", "double"]))
        if edit == "delete":
            text = text[:at] + text[at + 1 :]
        elif edit == "insert":
            text = text[:at] + draw(st.sampled_from(list('()<>"\\.,#:?^|/*+- \t\r\nax@'))) + text[at:]
        else:
            text = text[:at] + text[at : at + 1] * 2 + text[at + 1 :]
    return text


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_parsers_raise_only_their_documented_errors(kind):
    seeds, parse, errors = PARSERS[kind]

    @settings(max_examples=150, deadline=None, database=None)
    @given(mutated(seeds))
    def check(text):
        try:
            parse(text)
        except errors:
            pass

    check()


def test_cli_exits_zero_one_or_two_on_mutated_inputs(tmp_path, monkeypatch):
    # a scenario here finds no documents, so it stops at its first load
    monkeypatch.chdir(tmp_path)
    document = FIXTURES / "request-pair.ndl"

    def argv(kind, text):
        if kind == "rules":
            (tmp_path / "x.rules").write_text(text)
            return ["validate", document, "--rules", tmp_path / "x.rules"]
        if kind == "scenario":
            (tmp_path / "x.scn").write_text(text)
            return ["run", tmp_path / "x.scn"]
        if kind == "bgp":
            return ["query", document, "--bgp", text]
        return ["query", document, "--path-expr", text, "--from", "<urn:orca:request:pair/Node/1>"]

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.sampled_from(sorted(PARSERS)).flatmap(lambda k: st.tuples(st.just(k), mutated(PARSERS[k][0]))))
    def check(case):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = main([str(a) for a in argv(*case)])
        assert code in (0, 1, 2), out.getvalue()

    check()


@pytest.mark.parametrize("expr", DEEP_PATHS, ids=["inverses", "groups", "stars"])
def test_cli_refuses_a_deeply_nested_path_expression(expr):
    start = "<http://geni-orca.renci.org/sites/renci/Server/A>"
    argv = ["query", str(FIXTURES / "renci.ndl"), "--from", start, "--path-expr", expr]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = main(argv)
    assert (code, out.getvalue()) == (2, f"error: --path-expr: path expression nested deeper than 64 levels: {expr!r}\n")


def test_cli_answers_a_long_flat_path_sequence():
    start = "<http://geni-orca.renci.org/sites/renci/Server/A>"
    expr = "/".join(["topo:hasInterface", "^topo:hasInterface"] * 1500)
    argv = ["query", str(FIXTURES / "renci.ndl"), "--from", start, "--path-expr", expr]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    assert out.getvalue() == "http://geni-orca.renci.org/sites/renci/Server/A\n"
