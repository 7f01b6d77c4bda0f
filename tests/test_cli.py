import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import netslice
from netslice import graphstore, rules
from netslice.cli import _parse_scenario, main, run_scenario

from conftest import FIXTURES, LOOSE_LABEL_SETS

ROOT = FIXTURES.parent


def _run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_clean_request(capsys):
    code, out, _ = _run(capsys, "validate", FIXTURES / "request-pair.ndl")
    assert code == 0
    assert out == ""


def test_validate_broadcast_bad_exits_one(capsys):
    code, out, _ = _run(capsys, "validate", FIXTURES / "broadcast-bad.ndl")
    assert code == 1
    assert (
        "VIOLATION Domains in broadcast link can't be repeated "
        "urn:orca:request:bcast-bad/Link/1" in out
    )


def test_validate_malformed_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.ndl"
    bad.write_text("<urn:a> <urn:p> .\n")
    code, _, err = _run(capsys, "validate", bad)
    assert code == 2
    assert "error:" in err


def test_entail_emits_closure(capsys):
    code, out, _ = _run(capsys, "entail", FIXTURES / "renci.ndl")
    assert code == 0
    assert "topo:interfaceOf" in out  # inverse materialized


_TYPED_DOCUMENT = """\
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
<urn:l1> <urn:bw> "100"^^xsd:integer .
<urn:l2> <urn:bw> "100" .
<urn:l2> <urn:name> "two words # not a comment" .
"""


@pytest.mark.parametrize(
    "document, bgp, answer",
    [
        (
            FIXTURES / "renci.ndl",
            "<http://geni-orca.renci.org/sites/renci/Server/A> topo:hasInterface ?i",
            "?i=rnc:Server/A/f1/ethernet",
        ),
        # the rest query _TYPED_DOCUMENT
        (None, '?l <urn:bw> "100"^^xsd:integer', "?l=<urn:l1>"),
        (None, '?l <urn:bw> "100"', "?l=<urn:l2>"),
        (None, '?l <urn:name> "two words # not a comment" .', "?l=<urn:l2>"),
        (None, '?l <urn:bw> ?b . ?l <urn:name> ?n', '?b="100" ?l=<urn:l2> ?n="two words # not a comment"'),
    ],
    ids=["fixture", "integer-literal", "string-literal", "literal-with-spaces", "join"],
)
def test_query_bgp(capsys, tmp_path, document, bgp, answer):
    if document is None:
        document = tmp_path / "typed.ndl"
        document.write_text(_TYPED_DOCUMENT)
    code, out, _ = _run(capsys, "query", document, "--bgp", bgp)
    assert (code, out) == (0, answer + "\n")


@pytest.mark.parametrize(
    "bgp, error",
    [
        ('?l <urn:bw> "100', "error: --bgp: line 1, col 13: unterminated string literal"),
        ("?l <urn:bw> . ?l", "error: --bgp: line 1, col 13: incomplete pattern"),
        ("?l nosuch:p ?o", "error: --bgp: cannot resolve 'nosuch:p': unknown prefix"),
    ],
    ids=["unterminated-quote", "dot-inside-a-pattern", "unknown-prefix"],
)
def test_query_bad_bgp_exits_two(capsys, bgp, error):
    code, out, err = _run(capsys, "query", FIXTURES / "renci.ndl", "--bgp", bgp)
    assert (code, out) == (2, "")
    assert err.startswith(error)


def test_query_path_expr(capsys):
    code, out, _ = _run(
        capsys,
        "query",
        FIXTURES / "renci.ndl",
        "--path-expr",
        "topo:hasInterface/topo:linkedTo/topo:interfaceOf",
        "--from",
        "<http://geni-orca.renci.org/sites/renci/Server/A>",
    )
    assert code == 0
    assert out.strip() == "http://geni-orca.renci.org/sites/renci/Renci/6509"


def test_option_like_argument_value_exits_two(capsys):
    # argparse reads a value that starts with "-" as an option: a usage error
    code, out, err = _run(
        capsys,
        "query",
        FIXTURES / "request-pair.ndl",
        "--path-expr",
        "-topo:hasInterface/topo:linkedTo/topo:interfaceOf",
        "--from",
        "<urn:orca:request:pair/Node/1>",
    )
    assert (code, out) == (2, "")
    assert "usage:" in err


def test_help_exits_zero(capsys):
    code, out, _ = _run(capsys, "--help")
    assert code == 0
    assert out.startswith("usage: netslice")


def test_path_fig_listing(capsys):
    code, out, _ = _run(
        capsys,
        "path",
        FIXTURES / "renci.ndl",
        "--from",
        "<http://geni-orca.renci.org/sites/renci/Server/A>",
        "--to",
        "<http://geni-orca.renci.org/sites/renci/Server/B>",
        "--bandwidth",
        "1000",
    )
    assert code == 0
    lines = out.strip().split("\n")
    hops = [l for l in lines if l.startswith("HOP ")]
    assert hops == [
        "HOP http://geni-orca.renci.org/sites/renci/Server/A",
        "HOP http://geni-orca.renci.org/sites/renci/Renci/6509",
        "HOP http://geni-orca.renci.org/sites/renci/Server/B",
    ]
    assert "LABEL 100" in lines


def test_path_unknown_iri_exits_two(capsys):
    code, _, err = _run(
        capsys,
        "path",
        FIXTURES / "renci.ndl",
        "--from",
        "<urn:nowhere>",
        "--to",
        "<http://geni-orca.renci.org/sites/renci/Server/B>",
    )
    assert code == 2
    assert "unknown element" in err


def test_path_no_path_exits_one(capsys):
    code, out, _ = _run(
        capsys,
        "path",
        FIXTURES / "renci.ndl",
        "--from",
        "<http://geni-orca.renci.org/sites/renci/Server/A>",
        "--to",
        "<http://geni-orca.renci.org/sites/renci/Server/B>",
        "--bandwidth",
        "999999",
    )
    assert code == 1
    assert "NO PATH" in out


@pytest.mark.parametrize("limit", ["0", "-3"])
def test_path_limit_below_one_exits_two(capsys, limit):
    code, out, err = _run(
        capsys,
        "path",
        FIXTURES / "renci.ndl",
        "--from",
        "<http://geni-orca.renci.org/sites/renci/Server/A>",
        "--to",
        "<http://geni-orca.renci.org/sites/renci/Server/B>",
        "--bandwidth",
        "1000",
        "--limit",
        limit,
    )
    assert (code, out) == (2, "")
    assert "limit must be at least 1" in err


def test_path_detours_around_label_exhaustion(capsys):
    # direct a-c border only offers 140-160; label 120 forces the b detour
    code, out, _ = _run(
        capsys,
        "path",
        FIXTURES / "ring-a.ndl",
        FIXTURES / "ring-b.ndl",
        FIXTURES / "ring-c.ndl",
        "--from",
        "<urn:orca:site:a/Host>",
        "--to",
        "<urn:orca:site:c/Host>",
        "--bandwidth",
        "100",
        "--label",
        "120",
    )
    assert code == 0
    hops = [l.split(" ", 1)[1] for l in out.strip().split("\n") if l.startswith("HOP ")]
    assert hops == [
        "urn:orca:site:a/Host",
        "urn:orca:site:a/Switch",
        "urn:orca:site:b/Switch",
        "urn:orca:site:c/Switch",
        "urn:orca:site:c/Host",
    ]


def test_delegate_output_parses(capsys):
    code, out, _ = _run(capsys, "delegate", FIXTURES / "ring-a.ndl")
    assert code == 0
    from netslice.graphstore import parse_document

    delegation = parse_document(out)
    assert len(delegation) > 0
    assert "urn:orca:site:a/Switch/toB" in out


def test_embed_one_shot(capsys, tmp_path):
    out_file = tmp_path / "manifest.ndl"
    code, _, _ = _run(
        capsys,
        "embed",
        FIXTURES / "renci.ndl",
        "--request",
        FIXTURES / "request-pair.ndl",
        "--slice-id",
        "demo1",
        "--out",
        out_file,
    )
    assert code == 0
    golden = (FIXTURES / "golden" / "demo1-manifest.ndl").read_text()
    assert out_file.read_text() == golden


def test_embed_rejects_invalid_request(capsys):
    code, out, _ = _run(
        capsys,
        "embed",
        FIXTURES / "renci.ndl",
        "--request",
        FIXTURES / "broadcast-bad.ndl",
    )
    assert code == 1
    assert "VIOLATION" in out


def test_run_demo_scenario_matches_goldens(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    buffer = io.StringIO()
    code = run_scenario(str(FIXTURES / "demo.scn"), out=buffer)
    assert code == 0
    golden_events = (FIXTURES / "golden" / "demo-events.log").read_text()
    assert buffer.getvalue() == golden_events
    golden_manifest = (FIXTURES / "golden" / "demo1-manifest.ndl").read_text()
    assert (tmp_path / "demo1-manifest.ndl").read_text() == golden_manifest


def test_run_scenario_twice_is_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    outputs = []
    for _ in range(2):
        buffer = io.StringIO()
        assert run_scenario(str(FIXTURES / "ring.scn"), out=buffer) == 0
        outputs.append((buffer.getvalue(), (tmp_path / "bcast1-manifest.ndl").read_text()))
    assert outputs[0] == outputs[1]


def test_run_failed_expectation_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    script = tmp_path / "overcap.scn"
    script.write_text(
        f"load-substrate {FIXTURES}/renci.ndl\n"
        f"submit-request {FIXTURES}/broadcast-bad.ndl as s1\n"
        "expect-state s1 Provisioned\n"
    )
    code = main(["run", str(script)])
    captured = capsys.readouterr()
    assert code == 1
    assert "EXPECTATION FAILED" in captured.err


@pytest.mark.parametrize(
    "text, error",
    [
        ("frobnicate everything\n", "error: line 1: unknown command 'frobnicate'\n"),
        ('# c\nexpect-violation "port #3\n', "error: line 2, col 18: unterminated string literal\n"),
        ('expect-violation "a\\qb"\n', "error: line 1, col 20: bad escape in string literal\n"),
    ],
    ids=["unknown-command", "unterminated-quote", "bad-escape"],
)
def test_run_bad_script_exits_two(tmp_path, capsys, text, error):
    script = tmp_path / "bad.scn"
    script.write_text(text)
    code, out, err = _run(capsys, "run", script)
    assert (code, out, err) == (2, "", error)


def test_scenario_lines_read_quoted_words_and_comments():
    text = (
        "# a comment line\n"
        'expect-violation "port #3 is bad"  # a trailing comment\n'
        'expect-state "slice one" Closed\n'
        '\tadvance-time  2026-01-01T02:00:00Z\r\n'
    )
    assert _parse_scenario(text) == [
        (2, "expect-violation", ["port #3 is bad"]),
        (3, "expect-state", ["slice one", "Closed"]),
        (4, "advance-time", ["2026-01-01T02:00:00Z"]),
    ]


def test_run_invalid_substrate_exits_two_naming_the_line(tmp_path, capsys):
    text = (FIXTURES / "renci.ndl").read_text()
    for link in ("Link/A", "Link/B"):
        text = text.replace(f"rnc:{link} topo:atLayer eth:EthernetNetworkElement .\n", "")
    (tmp_path / "bad.ndl").write_text(text)
    script = tmp_path / "bad.scn"
    script.write_text("# a substrate whose links state no layer\nload-substrate bad.ndl\n")
    code, out, err = _run(capsys, "run", script)
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 2: bad.ndl: ")


def test_run_second_substrate_for_a_domain_exits_two_naming_the_line(tmp_path, capsys):
    script = tmp_path / "twice.scn"
    script.write_text(
        f"load-substrate {FIXTURES}/renci.ndl\nload-substrate {FIXTURES}/renci.ndl\n"
    )
    code, out, err = _run(capsys, "run", script)
    assert code == 2
    assert err.startswith(f"error: line 2: {FIXTURES}/renci.ndl: ")
    assert "http://geni-orca.renci.org/sites/renci/Renci already has aggregate manager am-1" in err


def test_run_delete_of_unknown_slice_exits_two_naming_the_line(tmp_path, capsys):
    script = tmp_path / "bad.scn"
    script.write_text(f"load-substrate {FIXTURES}/renci.ndl\ndelete-slice nosuch\n")
    code, out, err = _run(capsys, "run", script)
    assert code == 2
    assert out == ""
    assert err == "error: line 2: unknown slice 'nosuch'\n"


PAIR_REQUEST = (FIXTURES / "request-pair.ndl").read_text()


def _embed(capsys, tmp_path, request_text, *extra, substrates=(FIXTURES / "renci.ndl",)):
    request = tmp_path / "request.ndl"
    request.write_text(request_text)
    return _run(capsys, "embed", *substrates, "--request", request, *extra)


def test_embed_infeasible_request_exits_one(capsys, tmp_path):
    oversized = PAIR_REQUEST.replace('req:bandwidth "1000"', 'req:bandwidth "99999"')
    code, out, _ = _embed(capsys, tmp_path, oversized)
    assert code == 1
    assert out.startswith("EMBEDDING FAILED ")


@pytest.mark.parametrize(
    "substrate",
    [
        "<urn:a> <urn:p> .\n",  # syntax error
        "@prefix topo: <http://geni-orca.renci.org/owl/topology.owl#> .\n"
        "<urn:a> topo:inDomain <urn:x> .\n"
        "<urn:b> topo:inDomain <urn:y> .\n",  # parses, but names two domains
    ],
)
def test_embed_malformed_substrate_exits_two(capsys, tmp_path, substrate):
    bad = tmp_path / "substrate.ndl"
    bad.write_text(substrate)
    code, out, err = _embed(capsys, tmp_path, PAIR_REQUEST, substrates=(bad,))
    assert code == 2
    assert out == ""
    assert f"error: {bad}" in err


@pytest.mark.parametrize(
    "request_text",
    [
        "<urn:a> <urn:p> .\n",  # unparseable
        PAIR_REQUEST.replace('"3600"^^xsd:integer', '"0"^^xsd:integer'),  # zero-length term
        PAIR_REQUEST.replace('"1000"^^xsd:integer', '"-5"^^xsd:integer'),  # negative bandwidth
    ],
)
def test_embed_bad_request_exits_two(capsys, tmp_path, request_text):
    code, out, err = _embed(capsys, tmp_path, request_text)
    assert code == 2
    assert out == ""
    assert "request.ndl" in err


GPU_SCHEMA = """\
@prefix comp: <http://geni-orca.renci.org/owl/compute.owl#> .
@prefix gpu: <urn:provider:gpu#> .
@prefix owl: <http://www.w3.org/2002/07/owl#> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
gpu:GpuVM rdf:type owl:Class .
gpu:GpuVM rdfs:subClassOf comp:VM .
"""

GPU_SUBSTRATE = """\
@prefix comp: <http://geni-orca.renci.org/owl/compute.owl#> .
@prefix gpu: <urn:provider:gpu#> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix t: <urn:gpusite/> .
@prefix topo: <http://geni-orca.renci.org/owl/topology.owl#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
t:dom rdf:type topo:NetworkDomain .
t:host rdf:type topo:Device .
t:host topo:inDomain t:dom .
t:host topo:hasInterface t:host/if0 .
t:host/if0 rdf:type topo:Interface .
t:host comp:provisions gpu:GpuVM .
t:host comp:availableUnits "2"^^xsd:integer .
"""

GPU_REQUEST = """\
@prefix gpu: <urn:provider:gpu#> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix req: <http://geni-orca.renci.org/owl/request.owl#> .
@prefix rq: <urn:req:gpu/> .
@prefix time: <http://www.w3.org/2006/time#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
rq:Reservation/1 rdf:type req:Reservation .
rq:Reservation/1 req:element rq:Node/1 .
rq:Reservation/1 req:element rq:Node/2 .
rq:Reservation/1 req:hasTerm rq:Term/1 .
rq:Term/1 rdf:type time:Interval .
rq:Term/1 time:hasBeginning "2026-01-01T00:00:00Z"^^xsd:dateTime .
rq:Term/1 time:hasDurationSeconds "3600"^^xsd:integer .
rq:Node/1 rdf:type gpu:GpuVM .
rq:Node/2 rdf:type gpu:GpuVM .
"""


def test_embed_schema_supplies_provider_extension_class(capsys, tmp_path):
    schema = tmp_path / "gpu-schema.ndl"
    schema.write_text(GPU_SCHEMA)
    substrate = tmp_path / "gpu-site.ndl"
    substrate.write_text(GPU_SUBSTRATE)
    # without the schema the requested class is unknown
    code, out, _ = _embed(capsys, tmp_path, GPU_REQUEST, substrates=(substrate,))
    assert code == 1
    assert "ISSUE untyped-instance urn:req:gpu/Node/1" in out
    code, out, _ = _embed(
        capsys, tmp_path, GPU_REQUEST, "--schema", schema, "--slice-id", "g1",
        substrates=(substrate,),
    )
    assert code == 0
    from netslice.graphstore import Iri, parse_document

    manifest = parse_document(out)
    gpus = {vm.value for vm in manifest.typed(Iri("urn:provider:gpu#GpuVM"))}
    assert {"urn:orca:slice:g1/vm/0", "urn:orca:slice:g1/vm/1"} <= gpus


@pytest.mark.parametrize("lexical", ["160-140", "14x", *LOOSE_LABEL_SETS])
def test_malformed_label_set_exits_two_naming_the_subject(capsys, tmp_path, lexical):
    bad = tmp_path / "ring-a.ndl"
    bad.write_text((FIXTURES / "ring-a.ndl").read_text().replace('"140-160"', f'"{lexical}"'))
    code, out, err = _run(
        capsys, "path", bad, "--from", "<urn:orca:site:a/Host>", "--to", "<urn:orca:site:a/Switch>"
    )
    assert (code, out) == (2, "")
    assert "urn:orca:site:a/Switch/toC" in err and "unparseable label set" in err
    code, out, err = _embed(capsys, tmp_path, PAIR_REQUEST, substrates=(bad,))
    assert (code, out) == (2, "")
    assert f"error: {bad}" in err and "urn:orca:site:a/Switch/toC" in err
    code, out, err = _run(capsys, "delegate", bad)
    assert (code, out) == (2, "")
    assert "urn:orca:site:a/Switch/toC" in err and "unparseable label set" in err
    code, out, _ = _run(capsys, "validate", bad)
    assert code == 1
    assert f"unparseable label set '{lexical}'" in out


def test_border_pool_outside_layer_domain_exits_two(capsys, tmp_path):
    bad = tmp_path / "ring-a.ndl"
    bad.write_text((FIXTURES / "ring-a.ndl").read_text().replace('"100-150"', '"0-150"'))
    problem = "border interface urn:orca:site:a/Switch/toB label pool exceeds layer domain 2-4094"
    code, out, err = _run(capsys, "delegate", bad)
    assert (code, out, err) == (2, "", f"error: {problem}\n")
    code, out, err = _embed(capsys, tmp_path, PAIR_REQUEST, substrates=(bad,))
    assert (code, out, err) == (2, "", f"error: {bad}: {problem}\n")
    script = tmp_path / "ring.scn"
    script.write_text("load-substrate ring-a.ndl\n")
    code, out, err = _run(capsys, "run", script)
    assert (code, out, err) == (2, "", f"error: line 1: ring-a.ndl: {problem}\n")


_PATH_ARGS = (
    "path",
    FIXTURES / "renci.ndl",
    "--from",
    "<http://geni-orca.renci.org/sites/renci/Server/A>",
    "--to",
    "<http://geni-orca.renci.org/sites/renci/Server/B>",
)


@pytest.mark.parametrize(
    "argv",
    [_PATH_ARGS, ("validate", FIXTURES / "request-pair.ndl"), ("entail", FIXTURES / "renci.ndl")],
    ids=["path", "validate", "entail"],
)
def test_exceeded_closure_budget_exits_two(capsys, monkeypatch, argv):
    monkeypatch.setattr(graphstore.entail, "__defaults__", (5, None))
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: entailment produced") and "(cap 5)" in err


@pytest.mark.parametrize(
    "argv", [("validate",), ("embed", FIXTURES / "renci.ndl", "--request")], ids=["validate", "embed"]
)
def test_exceeded_rule_join_budget_exits_two(capsys, monkeypatch, tmp_path, argv):
    cross_join = tmp_path / "cross.rules"
    cross_join.write_text('violation("m", ?X) <- (?X rdf:type ?A), (?Y rdf:type ?B) .\n')
    monkeypatch.setattr(rules.evaluate, "__defaults__", (5,))
    code, out, err = _run(capsys, *argv, FIXTURES / "request-pair.ndl", "--rules", cross_join)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "rule join produced" in err and "(cap 5)" in err


def test_exceeded_bgp_join_budget_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(graphstore.query_bgp, "__defaults__", ((), 5))
    cross_product = "?a topo:hasInterface ?b . ?c topo:hasInterface ?d"
    code, out, err = _run(capsys, "query", FIXTURES / "renci.ndl", "--bgp", cross_product)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "rule join produced" in err and "(cap 5)" in err


def _readme_queries():
    """The `netslice query` command lines of README.md, as argument lists."""
    text = re.sub(r"\\\n\s*", " ", (ROOT / "README.md").read_text())
    return [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("netslice query")]


def test_readme_query_examples_run(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    queries = _readme_queries()
    assert sorted(argv[2] for argv in queries) == ["--bgp", "--path-expr"]
    for argv in queries:
        code, out, err = _run(capsys, *argv)
        assert (code, err) == (0, "") and out.strip(), argv


def _python_m_netslice(*argv):
    """`python -m netslice` in a fresh interpreter, importing the package
    from this checkout's src/."""
    src = str(Path(netslice.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-m", "netslice", *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_python_m_netslice_runs_the_cli():
    done = _python_m_netslice("validate", FIXTURES / "request-pair.ndl")
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")


def test_python_m_netslice_exits_two_on_a_malformed_file(tmp_path):
    bad = tmp_path / "bad.ndl"
    bad.write_text("<urn:a> <urn:p> .\n")
    done = _python_m_netslice("validate", bad)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == (
        f"error: {bad}: line 1, col 17: "
        "expected 'S P O .' (terms and terminating dot separated by spaces)\n"
    )
