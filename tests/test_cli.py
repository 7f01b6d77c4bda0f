import argparse
import contextlib
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import netslice
from netslice import graphstore, rules, vocab
from netslice.cli import _parse_scenario, build_parser, main, run_scenario

from conftest import FIXTURES, LOOSE_DATETIMES, LOOSE_LABEL_SETS, count_calls

ROOT = FIXTURES.parent


def _run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_clean_request(capsys):
    code, out, _ = _run(capsys, "validate", FIXTURES / "request-pair.ndl")
    assert code == 0
    assert out == ""


def test_validate_closes_the_documents_once(capsys, monkeypatch):
    assert _run(capsys, "validate", FIXTURES / "request-pair.ndl")[0] == 0  # warm-up
    calls = count_calls(monkeypatch, graphstore.entail)
    assert _run(capsys, "validate", FIXTURES / "request-pair.ndl") == (0, "", "")
    assert len(calls) == 1


def test_validate_broadcast_bad_exits_one(capsys):
    code, out, _ = _run(capsys, "validate", FIXTURES / "broadcast-bad.ndl")
    assert code == 1
    assert (
        "VIOLATION Domains in broadcast link can't be repeated "
        "urn:orca:request:bcast-bad/Link/1" in out
    )


@pytest.mark.parametrize("name", ["renci", "ring-a", "ring-b", "ring-c"])
def test_a_substrate_stating_no_reservation_validates_clean(capsys, name):
    assert _run(capsys, "validate", FIXTURES / f"{name}.ndl") == (0, "", "")


def test_validate_refuses_a_request_stating_two_reservations(capsys, tmp_path):
    # with one reservation, the orphan node is a structural violation; with
    # two, the structural check has no one reservation to reach it from
    request = tmp_path / "request.ndl"
    request.write_text(
        (FIXTURES / "request-pair.ndl").read_text()
        + "rq:Reservation/2 rdf:type req:Reservation .\nrq:Node/9 rdf:type comp:ComputeElement .\n"
    )
    assert _run(capsys, "validate", request) == (
        2, "", f"error: {request}: expected exactly one Reservation, found 2\n"
    )


def test_validate_malformed_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.ndl"
    bad.write_text("<urn:a> <urn:p> .\n")
    code, _, err = _run(capsys, "validate", bad)
    assert code == 2
    assert "error:" in err


def test_validate_curie_naming_a_malformed_iri_exits_two_naming_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.ndl"
    bad.write_text("@prefix x: <urn:x/> .\nx:a x:p|q x:b .\n")
    code, out, err = _run(capsys, "validate", bad)
    assert (code, out) == (2, "")
    assert err == f"error: {bad}: line 2, col 5: IRI contains forbidden character '|': 'urn:x/p|q'\n"


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
        ("?l nosuch:p ?o", "error: --bgp: undeclared prefix 'nosuch'"),
        ("", "error: --bgp: empty pattern"),  # given, though empty
    ],
    ids=["unterminated-quote", "dot-inside-a-pattern", "unknown-prefix", "empty"],
)
def test_query_bad_bgp_exits_two(capsys, bgp, error):
    code, out, err = _run(capsys, "query", FIXTURES / "renci.ndl", "--bgp", bgp)
    assert (code, out) == (2, "")
    assert err.startswith(error)


_RENCI = FIXTURES / "renci.ndl"


@pytest.mark.parametrize(
    "argv, error",
    [
        (("query", _RENCI, "--path-expr", "((", "--from", "<urn:x>"),
         "--path-expr: unexpected end of path expression: '(('"),
        (("query", _RENCI, "--path-expr", "topo:hasInterface", "--from", "zz:A"),
         "--from: undeclared prefix 'zz'"),
        (("path", _RENCI, "--from", "zz:A", "--to", "rnc:Server/B"),
         "--from: undeclared prefix 'zz'"),
        (("path", _RENCI, "--from", "rnc:Server/A", "--to", "zz:B"),
         "--to: undeclared prefix 'zz'"),
        (("path", _RENCI, "--from", "rnc:Server/A", "--to", "<urn:nowhere>"),
         "--to: unknown element urn:nowhere"),
        (("path", _RENCI, "--from", "rnc:Server/A", "--to", "rnc:Server/B", "--layer", "zz:L"),
         "--layer: undeclared prefix 'zz'"),
        (("path", _RENCI, "--from", "rnc:Server/A", "--to", "rnc:Server/B", "--bandwidth", "-1"),
         "--bandwidth: must be at least 0"),
        (("path", _RENCI, "--from", "rnc:Server/A", "--to", "rnc:Server/B", "--label", "-1"),
         "--label: must be at least 0"),
        (("path", _RENCI, "--from", "rnc:Server/A", "--to", "rnc:Server/B", "--limit", "0"),
         "--limit: must be at least 1"),
    ],
    ids=[
        "query-path-expr", "query-from", "path-from", "path-to", "path-to-unknown", "path-layer",
        "path-bandwidth", "path-label", "path-limit",
    ],
)
def test_a_refused_option_is_named(capsys, argv, error):
    assert _run(capsys, *argv) == (2, "", f"error: {error}\n")


# One term read on every surface: (text, the IRI it names or the reason it
# is refused).
TERMS = [
    ("<urn:x>", graphstore.Iri("urn:x")),
    ("topo:local", graphstore.Iri(vocab.TOPO_NS + "local")),
    ("urn:x", "undeclared prefix 'urn'"),
    ("q:local", "undeclared prefix 'q'"),
    ("local", "expected IRI, CURIE or literal, got 'local'"),
    ("<a b>", "IRI contains whitespace: 'a b'"),
]


def _document_object(term, separator):
    line = separator.join(("<urn:s>", "<urn:p>", term, "."))
    try:
        (triple,) = graphstore.parse_document(f"@prefix topo: <{vocab.TOPO_NS}> .\n{line}\n")
    except graphstore.ParseError as e:
        return str(e)
    return triple.object


def _rule_object(term):
    try:
        (rule,) = rules.parse_ruleset(f'violation("m", ?X) <- (?X <urn:p> {term}) .')
    except rules.RuleSyntaxError as e:
        return str(e)
    return rule.body[0].o


def _bgp_object(term):
    from netslice.cli import CliInputError, _parse_bgp

    try:
        return _parse_bgp(f"?s <urn:p> {term}", vocab.BASE_PREFIXES)[0][2]
    except CliInputError as e:
        return str(e)


def _path_predicate(term):
    from netslice.pathquery import PathExprError, parse_path_expr

    try:
        return parse_path_expr(term, vocab.BASE_PREFIXES).iri
    except PathExprError as e:
        return str(e)


def _path_source(term, document, capsys):
    code, out, err = _run(capsys, "path", document, "--from", term, "--to", "<urn:s>")
    assert (code, out) == (2, "")
    unknown = re.fullmatch(r"error: --from: unknown element (\S+)\n", err)
    return graphstore.Iri(unknown[1]) if unknown else err


@pytest.mark.parametrize("term, meaning", TERMS, ids=[term for term, _ in TERMS])
def test_every_surface_reads_a_term_alike(capsys, tmp_path, term, meaning):
    """Documents on either statement path, rule atoms, --bgp terms,
    --path-expr predicates and `path --from` name one IRI, or refuse the
    term for one reason after their own position prefix."""
    document = tmp_path / "d.ndl"
    document.write_text(f"@prefix topo: <{vocab.TOPO_NS}> .\n<urn:s> <urn:p> <urn:o> .\n")
    read = {
        "document": _document_object(term, " "),
        "tabbed-document": _document_object(term, "\t"),
        "rule": _rule_object(term),
        "bgp": _bgp_object(term),
        "path-expr": _path_predicate(term),
        "path-from": _path_source(term, document, capsys),
    }
    if isinstance(meaning, graphstore.Iri):
        assert read == dict.fromkeys(read, meaning)
    else:
        assert read == {
            "document": f"line 2, col 17: {meaning}",
            "tabbed-document": f"line 2, col 17: {meaning}",
            "rule": f"line 1, col 35: {meaning}",
            "bgp": f"--bgp: {meaning}",
            "path-expr": f"{meaning} in {term!r}",
            "path-from": f"error: --from: {meaning}\n",
        }


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


_IP4 = "<http://geni-orca.renci.org/owl/ip4.owl#IPNetworkElement>"


def _bare_crossing(layer_a, layer_b):
    """renci.ndl with Link/A dropped: Server/A and the switch meet over
    their linkedTo interfaces alone, each stating a label pool and a layer."""
    lines = _RENCI.read_text().splitlines(True)
    text = "".join(line for line in lines if not line.startswith("rnc:Link/A "))
    for iface, layer in (("Server/A/f1/ethernet", layer_a), ("10GB/1/0/ethernet", layer_b)):
        text += f'rnc:{iface} topo:availableLabelSet "100-110" .\nrnc:{iface} topo:atLayer {layer} .\n'
    return text


@pytest.mark.parametrize(
    "text, found",
    [
        (_RENCI.read_text(), True),
        # an intermediate device switching at another layer than its links
        (
            _RENCI.read_text().replace(
                "rnc:Renci/6509/matrix rdf:type eth:EthernetNetworkElement .",
                f"rnc:Renci/6509/matrix rdf:type {_IP4} .",
            ),
            False,
        ),
        (_bare_crossing("eth:EthernetNetworkElement", "eth:EthernetNetworkElement"), True),
        # a bare crossing whose two interfaces state different layers
        (_bare_crossing("eth:EthernetNetworkElement", _IP4), False),
    ],
    ids=["fixture", "switch-at-another-layer", "bare-crossing", "bare-crossing-across-layers"],
)
def test_path_refuses_a_layer_mismatch(capsys, tmp_path, text, found):
    substrate = tmp_path / "renci.ndl"
    substrate.write_text(text)
    expected = [*_RENCI_PATH[:-1], "BANDWIDTH 0"] if found else ["NO PATH"]
    assert _run(capsys, "path", substrate, "--from", "rnc:Server/A", "--to", "rnc:Server/B") == (
        0 if found else 1, "".join(f"{line}\n" for line in expected), ""
    )


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
    assert (code, out, err) == (2, "", "error: --limit: must be at least 1\n")


@pytest.mark.parametrize(
    "extra, message",
    [
        (
            ("--to", "<http://geni-orca.renci.org/sites/renci/Server/A>"),
            "path source and destination must differ",
        ),
        (("--bandwidth", "-5"), "--bandwidth: must be at least 0"),
        (("--label", "-5"), "--label: must be at least 0"),
    ],
)
def test_path_refuses_a_malformed_request_with_exit_two(capsys, extra, message):
    # the request's own checks, reached through the CLI: a negative label
    # once searched and printed NO PATH with exit 1
    code, out, err = _run(capsys, *_PATH_ARGS, *extra)
    assert (code, out, err) == (2, "", f"error: {message}\n")


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


_RENCI_PATH = [
    "HOP http://geni-orca.renci.org/sites/renci/Server/A",
    "HOP http://geni-orca.renci.org/sites/renci/Renci/6509",
    "HOP http://geni-orca.renci.org/sites/renci/Server/B",
    "INTERNAL http://geni-orca.renci.org/sites/renci/Server/A",
    "INTERNAL http://geni-orca.renci.org/sites/renci/Server/A/f1/ethernet",
    "INTERNAL http://geni-orca.renci.org/sites/renci/10GB/1/0/ethernet",
    "INTERNAL http://geni-orca.renci.org/sites/renci/Renci/6509",
    "INTERNAL http://geni-orca.renci.org/sites/renci/10GB/1/1/ethernet",
    "INTERNAL http://geni-orca.renci.org/sites/renci/Server/B/f1/ethernet",
    "INTERNAL http://geni-orca.renci.org/sites/renci/Server/B",
    "LABEL 100",
    "BANDWIDTH 1000",
]

_RING_DETOUR_PATH = [
    "HOP urn:orca:site:a/Host",
    "HOP urn:orca:site:a/Switch",
    "HOP urn:orca:site:b/Switch",
    "HOP urn:orca:site:c/Switch",
    "HOP urn:orca:site:c/Host",
    "INTERNAL urn:orca:site:a/Host",
    "INTERNAL urn:orca:site:a/Host/if0",
    "INTERNAL urn:orca:site:a/Switch/if0",
    "INTERNAL urn:orca:site:a/Switch",
    "INTERNAL urn:orca:site:a/Switch/toB",
    "INTERNAL urn:orca:site:b/Switch/toA",
    "INTERNAL urn:orca:site:b/Switch",
    "INTERNAL urn:orca:site:b/Switch/toC",
    "INTERNAL urn:orca:site:c/Switch/toB",
    "INTERNAL urn:orca:site:c/Switch",
    "INTERNAL urn:orca:site:c/Switch/if0",
    "INTERNAL urn:orca:site:c/Host/if0",
    "INTERNAL urn:orca:site:c/Host",
    "LABEL 120",
    "BANDWIDTH 100",
]


@pytest.mark.parametrize(
    "argv, lines",
    [
        ((FIXTURES / "renci.ndl", "--from", "<http://geni-orca.renci.org/sites/renci/Server/A>",
          "--to", "<http://geni-orca.renci.org/sites/renci/Server/B>", "--bandwidth", "1000"),
         _RENCI_PATH),
        ((*(FIXTURES / f"ring-{site}.ndl" for site in "abc"), "--from", "<urn:orca:site:a/Host>",
          "--to", "<urn:orca:site:c/Host>", "--bandwidth", "100", "--label", "120"),
         _RING_DETOUR_PATH),
    ],
    ids=["renci", "ring-detour"],
)
def test_path_prints_every_hop_internal_element_label_and_bandwidth(capsys, argv, lines):
    assert _run(capsys, "path", *argv) == (0, "".join(f"{line}\n" for line in lines), "")


def test_delegate_output_parses(capsys):
    code, out, _ = _run(capsys, "delegate", FIXTURES / "ring-a.ndl")
    assert code == 0
    from netslice.graphstore import parse_document

    delegation = parse_document(out)
    assert len(delegation) > 0
    assert "urn:orca:site:a/Switch/toB" in out


@pytest.mark.parametrize(
    "golden", ["renci-delegation.ndl", "ring-a-delegation.ndl", "ring-b-delegation.ndl", "ring-c-delegation.ndl"]
)
def test_delegate_matches_golden(capsys, golden):
    substrate = FIXTURES / golden.replace("-delegation", "")
    assert _run(capsys, "delegate", substrate) == (0, (FIXTURES / "golden" / golden).read_text(), "")


@pytest.mark.parametrize(
    "golden", ["renci-entail.ndl", "ring-a-entail.ndl", "ring-b-entail.ndl", "ring-c-entail.ndl", "request-pair-entail.ndl"]
)
def test_entail_matches_golden(capsys, golden):
    document = FIXTURES / golden.replace("-entail", "")
    assert _run(capsys, "entail", document) == (0, (FIXTURES / "golden" / golden).read_text(), "")


_FAR_HOST = """\
rnc:Far rdf:type topo:Device .
rnc:Far topo:hasInterface rnc:Far/eth0 .
rnc:Far comp:provisions comp:VM .
rnc:Far comp:availableUnits "4"^^xsd:integer .
rnc:Far/eth0 rdf:type topo:Interface .
"""

_LINK_TO_FAR_HOST = """\
rnc:Renci/6509 topo:hasInterface rnc:10GB/1/2/ethernet .
rnc:10GB/1/2/ethernet rdf:type topo:Interface .
rnc:10GB/1/2/ethernet topo:linkedTo rnc:Far/eth0 .
rnc:Link/F rdf:type topo:NetworkConnection .
rnc:Link/F topo:hasEndpoint rnc:10GB/1/2/ethernet .
rnc:Link/F topo:hasEndpoint rnc:Far/eth0 .
rnc:Link/F topo:atLayer eth:EthernetNetworkElement .
rnc:Link/F topo:availableBandwidth "10000"^^xsd:integer .
"""


@pytest.mark.parametrize(
    "extra, added, error",
    [
        # a translator inside the domain makes the domain one: one line more
        (
            "rnc:Renci/6509 rdf:type topo:LabelTranslator .\n",
            "<http://geni-orca.renci.org/sites/renci/Renci> rdf:type topo:LabelTranslator .\n",
            None,
        ),
        # a device stating no inDomain is outside the domain: no units, no owner
        (_FAR_HOST, "", None),
        (
            _FAR_HOST + _LINK_TO_FAR_HOST,
            None,
            "link endpoint http://geni-orca.renci.org/sites/renci/Far/eth0 belongs to 0 elements, expected 1",
        ),
    ],
    ids=["translator", "device-outside-the-domain", "link-to-a-device-outside-the-domain"],
)
def test_delegate_reads_only_the_domains_own_devices(capsys, tmp_path, extra, added, error):
    substrate = tmp_path / "renci.ndl"
    substrate.write_text(_RENCI.read_text() + extra)
    if error is None:
        # the golden's lines and the added ones, the triples sorted as the serializer sorts them
        lines = (FIXTURES / "golden" / "renci-delegation.ndl").read_text().splitlines(True)
        prefixes = [line for line in lines if line.startswith("@prefix ")]
        triples = sorted([*lines[len(prefixes):], *added.splitlines(True)])
        expected = (0, "".join(prefixes + triples), "")
    else:
        expected = (2, "", f"error: {substrate}: {error}\n")
    assert _run(capsys, "delegate", substrate) == expected


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


def test_run_dump_after_delete_writes_the_provisioned_manifest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    script = tmp_path / "late.scn"
    script.write_text(
        f"load-substrate {FIXTURES}/renci.ndl\n"
        f"submit-request {FIXTURES}/request-pair.ndl as demo1\n"
        "delete-slice demo1\n"
        "expect-state demo1 Closed\n"
        "dump-manifest demo1 demo1-manifest.ndl\n"
    )
    assert run_scenario(str(script), out=io.StringIO()) == 0
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
    assert outputs[0][1] == (FIXTURES / "golden" / "bcast1-manifest.ndl").read_text()


def test_run_writes_the_event_log_to_the_current_stdout(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(["run", str(FIXTURES / "demo.scn")]) == 0
    assert buffer.getvalue() == (FIXTURES / "golden" / "demo-events.log").read_text()


def test_run_failed_expectation_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    script = tmp_path / "overcap.scn"
    script.write_text(
        f"load-substrate {FIXTURES}/renci.ndl\n"
        f"submit-request {FIXTURES}/broadcast-bad.ndl as s1\n"
        "expect-state s1 Provisioned\n"
        'expect-violation "No such rule"\n'
        "dump-manifest s1 s1.ndl\n"
    )
    code, out, err = _run(capsys, "run", script)
    assert code == 1
    assert "controller slice-failed s1 fail:Validation" in out
    assert err == (
        "EXPECTATION FAILED line 3: slice s1 in state Closed, expected Provisioned\n"
        "EXPECTATION FAILED line 4: expected violation 'No such rule', "
        "saw [\"Domains in broadcast link can't be repeated\"]\n"
        "EXPECTATION FAILED line 5: slice s1 has no manifest to dump\n"
    )
    assert not (tmp_path / "s1.ndl").exists()


def test_run_loaded_rules_judge_later_requests(tmp_path, capsys):
    (tmp_path / "no-compute.rules").write_text(
        'violation("No compute here", ?X) <- comp:ComputeElement(?X) .\n'
    )
    script = tmp_path / "rules.scn"
    script.write_text(
        f"load-substrate {FIXTURES}/renci.ndl\n"
        "load-rules no-compute.rules\n"
        f"submit-request {FIXTURES}/request-pair.ndl as s1\n"
        'expect-violation "No compute here"\n'
        "expect-state s1 Closed\n"
    )
    code, out, err = _run(capsys, "run", script)
    assert (code, err) == (0, "")
    events = [line.split(" ", 2)[2] for line in out.splitlines()]
    for node in ("Node/1", "Node/2"):
        assert f'controller violation urn:orca:request:pair/{node} "No compute here"' in events
    assert "controller slice-failed s1 fail:Validation" in events


def test_run_rules_with_a_syntax_error_exit_two_naming_the_line_and_file(tmp_path, capsys):
    (tmp_path / "bad.rules").write_text('violation("m" ?X) <- comp:ComputeElement(?X) .\n')
    script = tmp_path / "rules.scn"
    script.write_text(f"load-substrate {FIXTURES}/renci.ndl\nload-rules bad.rules\n")
    code, out, err = _run(capsys, "run", script)
    assert (code, out) == (2, "")
    assert err.startswith("error: line 2: bad.rules: line 1, col ")


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



@pytest.mark.parametrize(
    "slice_ids, error",
    [
        (['"a b"'], "slice id 'a b' names no IRI: IRI contains whitespace"),
        (['""'], "slice id '' names no IRI: empty IRI"),
        (["s1", "s1"], "slice 's1' already exists"),
    ],
)
def test_run_refused_slice_id_exits_two_naming_the_line(tmp_path, capsys, slice_ids, error):
    script = tmp_path / "ids.scn"
    script.write_text(f"load-substrate {FIXTURES}/renci.ndl\n" + "".join(
        f"submit-request {FIXTURES}/request-pair.ndl as {slice_id}\n" for slice_id in slice_ids
    ))
    code, out, err = _run(capsys, "run", script)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: line {1 + len(slice_ids)}: {error}")


@pytest.mark.parametrize("slice_id", ["bad id", "", "a>b", 'a"b', "a{b}"])
def test_embed_slice_id_naming_no_iri_exits_two(capsys, slice_id):
    code, out, err = _run(
        capsys, "embed", FIXTURES / "renci.ndl",
        "--request", FIXTURES / "request-pair.ndl", "--slice-id", slice_id,
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: slice id {slice_id!r} names no IRI")

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


@pytest.mark.parametrize(
    "entry",
    ["script", "rules", "embed-request", "scenario-rules", "scenario-request"],
)
def test_input_that_is_not_utf8_exits_two_naming_the_file(capsys, tmp_path, entry):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"# \xff\n")
    script = tmp_path / "s.scn"
    if entry == "scenario-rules":
        script.write_text("load-rules bad.txt\n")
    elif entry == "scenario-request":
        script.write_text(f"load-substrate {FIXTURES}/renci.ndl\nsubmit-request bad.txt as s1\n")
    argv = {
        "script": ("run", bad),
        "rules": ("validate", FIXTURES / "request-pair.ndl", "--rules", bad),
        "embed-request": ("embed", FIXTURES / "renci.ndl", "--request", bad),
    }.get(entry, ("run", script))
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (2, "")
    line = {"scenario-rules": "line 1: ", "scenario-request": "line 2: "}.get(entry, "")
    assert err.startswith(f"error: {line}{bad}: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("problem", ["missing", "not-utf8"])
@pytest.mark.parametrize("verb", ["load-substrate", "load-rules", "submit-request"])
def test_scenario_file_that_cannot_be_read_exits_two_naming_the_line(
    capsys, tmp_path, verb, problem
):
    bad = tmp_path / "bad.txt"
    if problem == "not-utf8":
        bad.write_bytes(b"# \xff\n")
    script = tmp_path / "s.scn"
    command = "submit-request bad.txt as s1" if verb == "submit-request" else f"{verb} bad.txt"
    script.write_text(f"# a comment\nload-substrate {FIXTURES}/renci.ndl\n{command}\n")
    code, out, err = _run(capsys, "run", script)
    assert (code, out) == (2, "")
    reason = "No such file or directory" if problem == "missing" else "'utf-8' codec"
    assert re.fullmatch(rf"error: line 3: {re.escape(str(bad))}: .*{reason}.*\n", err)


@pytest.mark.parametrize("lexical", LOOSE_DATETIMES)
def test_scenario_advance_time_to_a_loose_datetime_exits_two_naming_the_line(
    capsys, tmp_path, lexical
):
    script = tmp_path / "s.scn"
    script.write_text(f'load-substrate {FIXTURES}/renci.ndl\nadvance-time "{lexical}"\n')
    code, out, err = _run(capsys, "run", script)
    assert (code, out) == (2, "")
    assert err == f"error: line 2: bad dateTime {lexical!r}: not YYYY-MM-DDTHH:MM:SSZ\n"


def _pair_without(*lines):
    text = PAIR_REQUEST
    for line in lines:
        assert line in text
        text = text.replace(line + "\n", "")
    return text


@pytest.mark.parametrize(
    "request_text, error",
    [
        (
            _pair_without('rq:Term/1 time:hasBeginning "2026-01-01T00:00:00Z"^^xsd:dateTime .'),
            "term urn:orca:request:pair/Term/1 must carry hasBeginning and hasDurationSeconds",
        ),
        (
            _pair_without('rq:Term/1 time:hasDurationSeconds "3600"^^xsd:integer .'),
            "term urn:orca:request:pair/Term/1 must carry hasBeginning and hasDurationSeconds",
        ),
        (
            _pair_without("rq:Link/1 topo:atLayer eth:EthernetNetworkElement ."),
            "link urn:orca:request:pair/Link/1 has no atLayer",
        ),
        (
            PAIR_REQUEST + "rq:Node/2 topo:hasInterface rq:Node/1/if0 .\n",
            "interface urn:orca:request:pair/Node/1/if0 owned by two nodes",
        ),
        (
            _pair_without("rq:Node/2 topo:hasInterface rq:Node/2/if0 ."),
            "link urn:orca:request:pair/Link/1 interface urn:orca:request:pair/Node/2/if0"
            " owned by no node",
        ),
    ],
    ids=["no-beginning", "no-duration", "no-layer", "interface-owned-twice", "interface-unowned"],
)
def test_embed_request_refusals_name_the_element(capsys, tmp_path, request_text, error):
    code, out, err = _embed(capsys, tmp_path, request_text)
    assert (code, out, err) == (2, "", f"error: {tmp_path / 'request.ndl'}: {error}\n")


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


@pytest.mark.parametrize("name", ["demo1", "bcast1", "gpu2"])
def test_golden_manifests_validate_clean(capsys, tmp_path, name):
    """The structural checks skip a manifest's provisioned VMs and networks,
    which no reservation lists, so every manifest validates."""
    argv = ["validate", FIXTURES / "golden" / f"{name}-manifest.ndl"]
    if name == "gpu2":
        (tmp_path / "gpu-schema.ndl").write_text(GPU_SCHEMA)
        argv += ["--schema", tmp_path / "gpu-schema.ndl"]
    assert _run(capsys, *argv) == (0, "", "")


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
    assert (code, out, err) == (2, "", f"error: {bad}: {problem}\n")
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


_PAIR = FIXTURES / "request-pair.ndl"


@pytest.mark.parametrize(
    "argv, named",
    [
        (_PATH_ARGS, _RENCI),
        (("validate", _PAIR), _PAIR),
        (("entail", _RENCI), _RENCI),
        (("delegate", FIXTURES / "ring-a.ndl"), FIXTURES / "ring-a.ndl"),
        (("query", _RENCI, "--bgp", "?s rdf:type ?c"), _RENCI),
        (("validate", _PAIR, "--schema", _RENCI), f"{_RENCI}, {_PAIR}"),
    ],
    ids=["path", "validate", "entail", "delegate", "query", "validate-with-schema"],
)
def test_exceeded_closure_budget_exits_two(capsys, monkeypatch, argv, named):
    vocab.entailed_schema()  # the built-in T-box closes within the default budget
    monkeypatch.setattr(graphstore.entail, "__defaults__", (5, None))
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {named}: entailment produced ") and err.endswith(" (cap 5)\n")


@pytest.mark.parametrize(
    "cap, schema, culprit, derived",
    [
        (5, False, "gpu-site.ndl", 6),
        (5, True, "gpu-site.ndl", 6),
        (2, True, "gpu-schema.ndl", 3),
    ],
    ids=["substrate", "substrate-with-schema", "schema"],
)
def test_exceeded_closure_budget_in_embed_names_the_file(
    capsys, monkeypatch, tmp_path, cap, schema, culprit, derived
):
    files = {"gpu-schema.ndl": GPU_SCHEMA, "gpu-site.ndl": GPU_SUBSTRATE, "req.ndl": GPU_REQUEST}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = ["embed", tmp_path / "gpu-site.ndl", "--request", tmp_path / "req.ndl"]
    if schema:
        argv += ["--schema", tmp_path / "gpu-schema.ndl"]
    vocab.entailed_schema()  # the built-in T-box closes within the default budget
    monkeypatch.setattr(graphstore.entail, "__defaults__", (cap, None))
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (
        f"error: {tmp_path / culprit}: entailment produced {derived} derived triples (cap {cap})\n"
    )


def test_exceeded_closure_budget_in_a_scenario_names_the_line_and_file(
    capsys, monkeypatch, tmp_path
):
    (tmp_path / "gpu-site.ndl").write_text(GPU_SUBSTRATE)
    script = tmp_path / "gpu.scn"
    script.write_text("load-substrate gpu-site.ndl\n")
    vocab.entailed_schema()
    monkeypatch.setattr(graphstore.entail, "__defaults__", (5, None))
    code, out, err = _run(capsys, "run", script)
    assert (code, out) == (2, "")
    assert err == "error: line 1: gpu-site.ndl: entailment produced 6 derived triples (cap 5)\n"


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
    assert (code, out, err) == (2, "", "error: --bgp: query join produced 6 rows (cap 5)\n")


@pytest.mark.parametrize(
    "argv, target, where",
    [
        (("delegate", FIXTURES / "ring-a.ndl", "--out"), "missing/x.ndl", ""),
        (("entail", FIXTURES / "renci.ndl", "--out"), ".", ""),
        (("embed", FIXTURES / "renci.ndl", "--request", FIXTURES / "request-pair.ndl", "--out"),
         "missing/m.ndl", ""),
        (("run",), "missing/m.ndl", "line 3: "),
    ],
    ids=["delegate", "entail-into-directory", "embed", "dump-manifest"],
)
def test_unwritable_output_exits_two(capsys, tmp_path, argv, target, where):
    target = tmp_path / target
    if argv == ("run",):
        script = tmp_path / "dump.scn"
        script.write_text(
            f"load-substrate {FIXTURES}/renci.ndl\n"
            f"submit-request {FIXTURES}/request-pair.ndl as d1\n"
            f"dump-manifest d1 {target}\n"
        )
        argv = ("run", script)
    else:
        argv = (*argv, target)
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {where}{target}: [Errno ") and err.count("\n") == 1


def test_repeated_main_calls_give_identical_results(capsys, tmp_path):
    """One parser serves every call: options of one call (an appended
    --schema, a --label) never reach the next, nor do --help or a usage
    error."""
    request, schema = tmp_path / "request.ndl", tmp_path / "gpu-schema.ndl"
    request.write_text(GPU_REQUEST)
    schema.write_text(GPU_SCHEMA)
    calls = {
        "clean": ("validate", FIXTURES / "request-pair.ndl"),
        "schema": ("validate", request, "--schema", schema),
        "no-schema": ("validate", request),
        "label": (*_PATH_ARGS, "--label", "5"),
        "no-label": _PATH_ARGS,
        "help": ("--help",),
        "usage": _PATH_ARGS[:4],  # no --to
    }
    build_parser.cache_clear()  # the first call below builds the parser
    order = [*calls, *reversed(calls), *calls]
    seen = {}
    for kind in order:
        seen.setdefault(kind, []).append(_run(capsys, *calls[kind]))
    for kind, results in seen.items():
        assert results == [results[0]] * len(results), kind
    codes = {kind: results[0][0] for kind, results in seen.items()}
    assert codes == {
        "clean": 0, "schema": 0, "no-schema": 1, "label": 1, "no-label": 0, "help": 0, "usage": 2,
    }


def test_repeated_main_calls_build_no_parser(capsys, monkeypatch):
    main(["validate", str(FIXTURES / "request-pair.ndl")])  # warm-up
    built = []
    constructor = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        constructor(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for argv in (("validate", FIXTURES / "request-pair.ndl"), _PATH_ARGS, ("--help",)):
        _run(capsys, *argv)
    assert built == []


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


def _fresh_python(*args):
    """A fresh interpreter run with args, importing the package from this
    checkout's src/."""
    src = str(Path(netslice.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *map(str, args)], env=env, capture_output=True, text=True, timeout=120
    )


def _python_m_netslice(*argv):
    """`python -m netslice` in a fresh interpreter."""
    return _fresh_python("-m", "netslice", *argv)


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


def test_the_cli_import_leaves_out_dataclasses_and_logging():
    # a shell one-shot pays for the package import on every call; -S keeps
    # site-packages' start-up imports out of what is checked
    heavy = "{'dataclasses', 'inspect', 'logging'}"
    done = _fresh_python(
        "-S", "-c", f"import sys, netslice.cli; print(sorted({heavy} & set(sys.modules)))"
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
