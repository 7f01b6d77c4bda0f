"""The controller's reading of a slice request, pinned outcome by outcome.

Requests are built deterministically: neighbour pairs and 3-member
broadcasts from `generators.federation_request`, bound and unbound, and
single mutations of them (a statement dropped, a node or link retyped, an
interface shared or orphaned, an element left out of the reservation, a
label out of range, a property given a second value or a bandwidth that is
no integer). Each outcome is one line of fixtures/golden/request-read.txt:
the SliceError's step, detail, issues and violations, or the fields of the
SliceRequest view."""

from generators import federation_request

from netslice.actors import SliceError, SliceRecord, World
from netslice.cli import main

from conftest import FIXTURES

GOLDEN = FIXTURES / "golden" / "request-read.txt"

BASES = {
    "pair": dict(members=[(0, "d00"), (1, "d01")]),
    "pair-unbound": dict(members=[(0, None), (1, None)]),
    "bcast": dict(members=[(0, "d00"), (1, "d05"), (2, "d10")], broadcast=True),
    "bcast-unbound": dict(members=[(0, None), (1, None), (2, None)], broadcast=True),
    "bcast-repeated": dict(members=[(0, "d00"), (1, "d00"), (2, "d05")], broadcast=True),
}

# name -> (statement lines removed, statement lines added), applied to every base
MUTATIONS = {
    "node-bare-metal": (["rq:Node/0 rdf:type comp:VM ."], ["rq:Node/0 rdf:type comp:BareMetalCE ."]),
    "node-as-interface": (["rq:Node/0 rdf:type comp:VM ."], ["rq:Node/0 rdf:type topo:Interface ."]),
    "node-unknown-class": (["rq:Node/0 rdf:type comp:VM ."], ["rq:Node/0 rdf:type rq:Thing ."]),
    "node-two-classes": ([], ["rq:Node/0 rdf:type comp:BareMetalCE ."]),
    "link-as-p2p": (["rq:Link/1 rdf:type topo:BroadcastConnection ."], ["rq:Link/1 rdf:type topo:NetworkConnection ."]),
    "link-as-broadcast": (["rq:Link/1 rdf:type topo:NetworkConnection ."], ["rq:Link/1 rdf:type topo:BroadcastConnection ."]),
    "link-as-node": (["rq:Link/1 rdf:type topo:NetworkConnection .", "rq:Link/1 rdf:type topo:BroadcastConnection ."], ["rq:Link/1 rdf:type comp:VM ."]),
    "interface-shared": ([], ["rq:Node/1 topo:hasInterface rq:Node/0/if0 ."]),
    "interface-orphaned": ([], ["rq:Node/9/if0 rdf:type topo:Interface ."]),
    "link-interface-unowned": ([], ["rq:Node/9/if0 rdf:type topo:Interface .", "rq:Link/1 topo:hasInterface rq:Node/9/if0 .", "rq:Node/9/if0 topo:interfaceOf rq:Link/1 ."]),
    "element-unreachable": ([], ["rq:Node/9 rdf:type comp:VM ."]),
    "element-literal": ([], ['rq:Reservation/1 req:element "x" .']),
    "vlan-out-of-range": ([], ["rq:Label/1 rdf:type eth:VLAN .", 'rq:Label/1 topo:labelValue "5000"^^xsd:integer .', "rq:Reservation/1 req:element rq:Label/1 ."]),
    "pool-out-of-range": ([], ['rq:Link/1 topo:availableLabelSet "1-5000" .']),
    "pool-unparseable": ([], ['rq:Link/1 topo:availableLabelSet "1-x" .']),
    "domain-violation": ([], ['rq:Node/0/if0 req:bandwidth "5"^^xsd:integer .']),
    "bandwidth-negative": (['rq:Link/1 req:bandwidth "100"^^xsd:integer .'], ['rq:Link/1 req:bandwidth "-1"^^xsd:integer .']),
    "bandwidth-absent": (['rq:Link/1 req:bandwidth "100"^^xsd:integer .'], []),
    "bandwidth-not-integer": (['rq:Link/1 req:bandwidth "100"^^xsd:integer .'], ['rq:Link/1 req:bandwidth "lots"^^xsd:integer .']),
    "bandwidth-string": (['rq:Link/1 req:bandwidth "100"^^xsd:integer .'], ['rq:Link/1 req:bandwidth "100" .']),
    "bandwidth-string-typed": (['rq:Link/1 req:bandwidth "100"^^xsd:integer .'], ['rq:Link/1 req:bandwidth "99999999"^^xsd:string .']),
    "bandwidth-two": ([], ['rq:Link/1 req:bandwidth "50"^^xsd:integer .']),
    "layer-two": ([], ["rq:Link/1 topo:atLayer ip4:IPNetworkElement ."]),
    "layer-absent": (["rq:Link/1 topo:atLayer eth:EthernetNetworkElement ."], []),
    "domain-two": ([], ["rq:Node/0 topo:inDomain <urn:fed:d05/dom> ."]),
    "begin-two": ([], ['rq:Term/1 time:hasBeginning "2026-02-01T00:00:00Z"^^xsd:dateTime .']),
    "duration-two": ([], ['rq:Term/1 time:hasDurationSeconds "60"^^xsd:integer .']),
    "duration-zero": (['rq:Term/1 time:hasDurationSeconds "3600"^^xsd:integer .'], ['rq:Term/1 time:hasDurationSeconds "0"^^xsd:integer .']),
    "begin-past": (['rq:Term/1 time:hasBeginning "2026-01-01T00:00:00Z"^^xsd:dateTime .'], ['rq:Term/1 time:hasBeginning "2025-12-31T23:59:59Z"^^xsd:dateTime .']),
    "begin-loose": (['rq:Term/1 time:hasBeginning "2026-01-01T00:00:00Z"^^xsd:dateTime .'], ['rq:Term/1 time:hasBeginning "2026-1-1T00:00:00Z"^^xsd:dateTime .']),
    "term-two": ([], ["rq:Reservation/1 req:hasTerm rq:Term/2 .", "rq:Term/2 rdf:type time:Interval ."]),
    "reservation-two": ([], ["rq:Reservation/2 rdf:type req:Reservation ."]),
    "schema-stated": ([], ["rq:Thing rdfs:subClassOf comp:VM .", "rq:Node/0 rdf:type rq:Thing ."]),
    "unparseable": ([], ["rq:Node/0 rdf:type ."]),
}


def _request(base: str, drop=(), add=()) -> str:
    lines = federation_request(base, **BASES[base]).splitlines()
    lines.insert(0, "@prefix ip4: <http://geni-orca.renci.org/owl/ip4.owl#> .")
    lines.insert(0, "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .")
    return "\n".join([line for line in lines if line not in drop] + list(add)) + "\n"


def cases() -> list:
    """(name, request text) of every case, in a fixed order: each base,
    each base with one of its statements dropped, then each mutation that
    changes the base."""
    out = []
    for base in BASES:
        text = _request(base)
        out.append((base, text))
        statements = [line for line in text.splitlines() if not line.startswith("@")]
        for k, line in enumerate(statements):
            out.append((f"{base}/drop-{k}", _request(base, drop=[line])))
        for name, (drop, add) in MUTATIONS.items():
            mutated = _request(base, drop, add)
            if mutated != text and (not drop or any(line in text.splitlines() for line in drop)):
                out.append((f"{base}/{name}", mutated))
    return out


def outcome(text: str) -> str:
    """One line: the request view's fields, or the SliceError's."""
    controller = World().controller
    try:
        req = controller._validate(SliceRecord("s"), text)
    except SliceError as e:
        issues = "; ".join(map(str, e.issues))
        violations = "; ".join(map(str, e.violations))
        return f"{e.step}: {e.detail} | issues: {issues} | violations: {violations}"
    nodes = " ".join(
        f"{n.iri.value}={n.compute_class.value}@{n.in_domain.value if n.in_domain else '-'}"
        f"[{','.join(i.value for i in n.interfaces)}]"
        for n in req.nodes
    )
    links = " ".join(
        f"{l.iri.value}={l.layer.value}/{l.bandwidth}/{'broadcast' if l.broadcast else 'p2p'}"
        f"[{','.join(i.value for i in l.interfaces)}]"
        for l in req.links
    )
    return f"ok | nodes: {nodes} | links: {links} | term: {req.term.begin.isoformat()} +{req.term.duration_seconds}s"


def render() -> str:
    return "".join(f"{name}\t{outcome(text)}\n" for name, text in cases())


def test_every_request_read_outcome_matches_the_golden_file():
    assert render() == GOLDEN.read_text()


def test_the_cases_cover_every_kind_of_outcome():
    lines = GOLDEN.read_text().splitlines()
    assert len(lines) == len(cases()) > 200
    found = " ".join(lines)
    for kind in ("untyped-instance", "domain-violation", "label-out-of-range", "dangling-interface"):
        assert f"issues: {kind}" in found or f"; {kind}" in found, kind
    for message in ("can't be repeated", "exactly 2 interfaces", "at least 3", "not reachable"):
        assert message in found, message
    for detail in ("owned by two nodes", "owned by no node", "begins in the past", "unparseable request"):
        assert detail in found, detail
    assert sum(line.split("\t")[1].startswith("ok") for line in lines) >= 20


# the requests only the controller's clock refuses: `netslice validate` has no clock
PAST_TERM = ["pair/begin-past", "pair-unbound/begin-past", "bcast/begin-past", "bcast-unbound/begin-past"]


def test_validate_gives_the_controllers_verdict_and_prints_what_embed_prints(capsys, tmp_path):
    """`netslice validate` exits 0 exactly on the requests the controller
    accepts, but for a term in the past. Where the controller refuses at
    Validation, validate exits with embed's code and prints embed's stdout
    and stderr: an input error names the request file and words it alike."""
    path = tmp_path / "request.ndl"

    def cli(*argv) -> tuple:
        code = main([str(a) for a in argv])
        return code, *capsys.readouterr()

    past, disagree = [], []
    for name, text in cases():
        path.write_text(text)
        verdict = outcome(text)
        if "begins in the past" in verdict:
            past.append(name)
        accepted = verdict.startswith("ok") or name in PAST_TERM
        got = cli("validate", path)
        want = (0, "", "") if accepted else cli("embed", FIXTURES / "renci.ndl", "--request", path)
        if got != want or (got[0] == 0) != accepted:
            disagree.append((name, verdict, got, want))
    assert disagree == []
    assert past == PAST_TERM


def test_a_request_stating_no_reservation_is_refused_at_validation(capsys):
    ring_a = FIXTURES / "ring-a.ndl"
    world = World()
    assert world.submit_request("s", ring_a.read_text()) is None
    assert world.events[-2:] == [
        "seq 2 controller slice-failed s fail:Validation", "seq 3 controller state s Closed",
    ]
    failure = world.controller.slices["s"].failure
    assert (failure.step, failure.detail) == ("Validation", "expected exactly one Reservation, found 0")
    assert main(["embed", str(FIXTURES / "renci.ndl"), "--request", str(ring_a)]) == 2
    assert capsys.readouterr() == ("", f"error: {ring_a}: expected exactly one Reservation, found 0\n")


def test_a_point_to_point_link_with_an_endpoint_for_an_interface_is_refused(capsys, tmp_path):
    # the structural check counts hasInterface and hasEndpoint together, so
    # it passes the link; the request read counts only its interfaces
    line = "rq:Link/1 topo:hasInterface rq:Node/2/if0 ."
    request = tmp_path / "request.ndl"
    text = (FIXTURES / "request-pair.ndl").read_text()
    request.write_text(text.replace(line, line.replace("hasInterface", "hasEndpoint")))
    refusal = f"error: {request}: point-to-point link urn:orca:request:pair/Link/1 has 1 interfaces\n"
    for argv in (["validate"], ["embed", FIXTURES / "renci.ndl", "--request"]):
        assert main([*map(str, argv), str(request)]) == 2
        assert capsys.readouterr() == ("", refusal)
