import gc
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
import weakref
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netslice import actors as actors_mod
from netslice import graphstore, models, rules, vocab
from netslice.actors import RedeemError, SliceError, World
from netslice.embed import InsufficientResources, bind_domains
from netslice.graphstore import Iri, parse_document, serialize_document
from netslice.cli import main
from netslice.models import (
    SubstrateError, build_delegation, check_homeomorphic, parse_request, parse_substrate,
    render_datetime,
)
from netslice.vocab import close

from conftest import FIXTURES, HUGE_INTEGER, LOOSE_DATETIMES, LOOSE_INTEGERS, count_calls
from generators import federation_request, federation_world
from oracles import binding_fits, reference_binding
from test_cli import GPU_REQUEST, GPU_SCHEMA, GPU_SUBSTRATE

BCAST_MSG = "Domains in broadcast link can't be repeated"


def _utc(y, mo, d, h=0, mi=0, s=0):
    return datetime(y, mo, d, h, mi, s, tzinfo=timezone.utc)


def _fixture(name):
    return (FIXTURES / name).read_text()


def _pair_world():
    world = World()
    world.add_substrate(_fixture("renci.ndl"))
    return world


def test_pair_slice_lifecycle():
    world = _pair_world()
    initial = world.serialized_states()
    manifest_text = world.submit_request("demo1", _fixture("request-pair.ndl"))
    assert manifest_text is not None
    record = world.controller.slices["demo1"]
    assert record.state == "Provisioned"
    assert world.conservation_problems() == []

    manifest = parse_document(manifest_text)
    hops = manifest.typed(vocab.PATH_HOP)
    assert len(hops) == 1
    assert manifest.value(hops[0], vocab.HOP_DEVICE) == Iri(
        "http://geni-orca.renci.org/sites/renci/Renci/6509"
    )
    raw = parse_document(_fixture("request-pair.ndl"))
    req = parse_request(close(raw), source=raw)
    for t in raw:
        assert t in manifest
    assert check_homeomorphic(req, manifest)

    world.delete_slice("demo1")
    assert world.controller.slices["demo1"].state == "Closed"
    assert world.serialized_states() == initial
    assert world.conservation_problems() == []


def test_a_link_stating_no_bandwidth_writes_no_zero_figure():
    # its ops take bandwidth 0, and a figure nothing takes is not in use
    world = _pair_world()
    initial = world.serialized_states()
    request = _fixture("request-pair.ndl").replace('rq:Link/1 req:bandwidth "1000"^^xsd:integer .\n', "")
    assert world.submit_request("nobw", request) is not None
    (am,) = world.ams.values()
    taken = {(kind, amount) for ops in am.state.active.values() for kind, _, amount in ops}
    assert ("bw", 0) in taken and ("units", 1) in taken
    live = world.serialized_states()
    assert live != initial
    assert [text for text in live.values() if 'inUseBandwidth "0"' in text] == []
    world.delete_slice("nobw")
    # a state that holds only zero figures projects to the document itself
    bandwidths = [subject for kind, subject in am.state.original if kind == "bw"]
    am.state.apply_ops("zero", [("bw", subject, 0) for subject in bandwidths])
    assert am.state.snapshot() is am.state.model
    am.state.release_token("zero")
    assert world.serialized_states() == initial
    assert world.conservation_problems() == []


def test_substrate_restating_another_domains_figures_is_refused_before_any_change():
    # the twin names its domain anew but keeps site A's border interfaces
    world = World()
    world.add_substrate(_fixture("ring-a.ndl"))
    before = (list(world.ams), list(world.events), dict(world.broker.free))
    refused = "urn:orca:site:a/Switch/toB bw figure delegated by another domain"
    with pytest.raises(SubstrateError, match=refused):
        world.add_substrate(_fixture("ring-a.ndl").replace("sa:Domain", "sa:Twin"))
    assert (list(world.ams), list(world.events), dict(world.broker.free)) == before
    assert world.conservation_problems() == []


def test_second_substrate_for_a_domain_is_refused_before_any_change():
    world = _pair_world()
    before = (list(world.ams), list(world.events), world.broker.serialized_state())
    renci = "http://geni-orca.renci.org/sites/renci/Renci"
    with pytest.raises(SubstrateError, match=renci):
        world.add_substrate(_fixture("renci.ndl"))
    assert (list(world.ams), list(world.events), world.broker.serialized_state()) == before
    # the domain's delegation can still be replaced through the broker
    world.broker.register_delegation(world.ams[Iri(renci)].delegate())
    assert world.submit_request("s1", _fixture("request-pair.ndl")) is not None



@pytest.mark.parametrize("slice_id", ["bad id", "", "tab\tid", "line\nid", "a>b", "a|b"])
def test_slice_id_naming_no_iri_is_refused_before_anything_is_logged_or_taken(slice_id):
    world = _pair_world()
    before = (list(world.events), world.serialized_states())
    with pytest.raises(ValueError, match=re.escape(f"slice id {slice_id!r}")):
        world.submit_request(slice_id, _fixture("request-pair.ndl"))
    assert (list(world.events), world.serialized_states()) == before
    assert slice_id not in world.controller.slices
    assert world.submit_request("ok", _fixture("request-pair.ndl")) is not None
    assert world.events[len(before[0])] == "seq 3 controller slice-request ok ok"


def test_new_am_derives_its_substrate_view_once(monkeypatch):
    reference = models.parse_substrate
    calls = count_calls(monkeypatch, reference)
    world = World()
    am = world.add_substrate(_fixture("renci.ndl"))
    assert len(calls) == 1
    assert am.state.original is am.state.substrate.residual
    fresh = am.delegate()
    assert fresh == serialize_document(build_delegation(reference(am.state.snapshot())))
    # once something is in use, a delegation reads the live free figures, not a snapshot
    assert world.submit_request("s1", _fixture("request-pair.ndl")) is not None
    after = am.delegate()
    assert after == serialize_document(build_delegation(reference(am.state.snapshot())))
    assert after != fresh
    world.delete_slice("s1")
    assert am.delegate() == fresh
    assert len(calls) == 1


def test_a_create_closes_its_request_once(monkeypatch):
    world = _pair_world()
    assert world.submit_request("warm", _fixture("request-pair.ndl")) is not None
    world.delete_slice("warm")
    calls = count_calls(monkeypatch, graphstore.entail)
    assert world.submit_request("s1", _fixture("request-pair.ndl")) is not None
    assert len(calls) == 1


def test_negative_bandwidth_fails_validation_and_holds_nothing():
    world = _pair_world()
    before = world.serialized_states()
    request = _fixture("request-pair.ndl").replace('"1000"', '"-5"')
    assert world.submit_request("neg1", request) is None
    record = world.controller.slices["neg1"]
    assert record.state == "Closed"
    assert record.failure.step == "Validation"
    assert "negative bandwidth" in record.failure.detail
    assert world.serialized_states() == before
    assert world.conservation_problems() == []


def test_request_naming_a_malformed_iri_fails_validation_and_holds_nothing():
    world = _pair_world()
    before = world.serialized_states()
    request = _fixture("request-pair.ndl") + "rq:Node/1 rq:a|b rq:c .\n"
    assert world.submit_request("bad1", request) is None
    record = world.controller.slices["bad1"]
    assert record.state == "Closed"
    assert record.failure.step == "Validation"
    assert record.failure.detail == (
        "unparseable request: line 34, col 11: "
        "IRI contains forbidden character '|': 'urn:orca:request:pair/a|b'"
    )
    assert world.serialized_states() == before


@pytest.mark.parametrize("lexical", LOOSE_DATETIMES)
def test_request_beginning_at_a_loose_datetime_fails_validation(lexical):
    world = _pair_world()
    before = world.serialized_states()
    request = _fixture("request-pair.ndl").replace('"2026-01-01T00:00:00Z"', f'"{lexical}"')
    assert world.submit_request("loose1", request) is None
    record = world.controller.slices["loose1"]
    assert record.failure.step == "Validation"
    assert record.failure.detail == f"bad dateTime {lexical!r}: not YYYY-MM-DDTHH:MM:SSZ"
    assert world.serialized_states() == before


@pytest.mark.parametrize("lexical", [*LOOSE_INTEGERS, pytest.param(HUGE_INTEGER, id="5000-digits")])
def test_request_bandwidth_outside_the_xsd_integer_lexical_space_fails_validation(lexical):
    world = _pair_world()
    before = world.serialized_states()
    request = _fixture("request-pair.ndl").replace('"1000"^^xsd:integer', f'"{lexical}"^^xsd:integer')
    assert world.submit_request("loose1", request) is None
    record = world.controller.slices["loose1"]
    assert record.failure.step == "Validation"
    assert record.failure.detail == (
        f'link urn:orca:request:pair/Link/1 requests bandwidth "{lexical}"'
        "^^<http://www.w3.org/2001/XMLSchema#integer>, not an xsd:integer"
    )
    assert world.serialized_states() == before
    signed = _fixture("request-pair.ndl").replace('"1000"^^xsd:integer', '"+1000"^^xsd:integer')
    assert world.submit_request("signed1", signed) is not None


def test_a_create_does_not_import_strptime():
    script = (
        "import sys\n"
        "from netslice.actors import World\n"
        "world = World()\n"
        f"world.add_substrate(open({str(FIXTURES / 'renci.ndl')!r}).read())\n"
        f"assert world.submit_request('s1', open({str(FIXTURES / 'request-pair.ndl')!r}).read())\n"
        "print('_strptime' in sys.modules)\n"
    )
    src = str(FIXTURES.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


def test_a_schema_world_closes_requests_onto_its_base_in_one_pass(monkeypatch):
    # the World closes the T-box and its extension once; a request that
    # states no schema closes against the rule tables the base keeps, never
    # tables built for it, to the closure of the schema and the request
    schema = parse_document(GPU_SCHEMA)
    world = World(start=datetime.min.replace(tzinfo=timezone.utc), schemas=[schema])
    base = world.controller.base
    assert base._frozen and set(base) == set(close(schema))
    assert World().controller.base is vocab.entailed_schema()
    world.add_substrate(GPU_SUBSTRATE)
    assert world.submit_request("g1", GPU_REQUEST) is not None
    world.delete_slice("g1")
    closures = []
    entail = graphstore.entail

    def closing(m, *args, **kwargs):
        closures.append((m, kwargs.get("closed"), entail(m, *args, **kwargs)))
        return closures[-1][2]

    monkeypatch.setattr(actors_mod, "entail", closing)
    tables = count_calls(monkeypatch, graphstore._rules)
    manifest = world.submit_request("g2", GPU_REQUEST)
    [(raw, closed_onto, closed)] = closures
    assert closed_onto is base
    assert len(tables) == 1 and tables[0][0] is base
    assert set(closed) == set(close(schema, raw))
    assert manifest == (FIXTURES / "golden" / "gpu2-manifest.ndl").read_text()
    assert "".join(line + "\n" for line in world.events) == (
        FIXTURES / "golden" / "gpu-events.log"
    ).read_text()


def _chain_request(kind: str, n: int) -> str:
    """request-pair.ndl plus n-long schema: a chain of rdfs:subClassOf; one
    of rdfs:subPropertyOf with n instance triples of its first property; a
    300-long subclass chain with n instances of its first class; or n
    sub-properties of rdfs:subPropertyOf, each derived in a round of its
    own from an instance triple of the one before."""
    chain = "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n@prefix ch: <urn:chain/> .\n"
    if kind == "subClassOf":
        chain += "".join(f"ch:C{i} rdfs:subClassOf ch:C{i + 1} .\n" for i in range(n))
    elif kind == "subPropertyOf":
        chain += "".join(f"ch:p{i} rdfs:subPropertyOf ch:p{i + 1} .\nch:x{i} ch:p0 ch:y{i} .\n" for i in range(n))
    elif kind == "instances":
        chain += "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
        chain += "".join(f"ch:C{i} rdfs:subClassOf ch:C{i + 1} .\n" for i in range(300))
        chain += "".join(f"ch:x{i} rdf:type ch:C0 .\n" for i in range(n))
    else:
        chain += "ch:a0 rdfs:subPropertyOf rdfs:subPropertyOf .\n" + "".join(
            f"ch:a{i} ch:a{i - 1} ch:b{i} .\nch:b{i} rdfs:subPropertyOf rdfs:subPropertyOf .\n"
            for i in range(1, n + 1)
        )
    return _fixture("request-pair.ndl") + chain


@pytest.mark.parametrize(
    "kind, n, refusal, budget",
    [
        ("subClassOf", 600, "600 conformance issues", None),
        ("subPropertyOf", 600, "1200 conformance issues", None),
        ("subPropertyOf", 1000, "entailment produced 1000001 derived triples (cap 1000000)", None),
        ("instances", 5000, "entailment produced 100001 derived triples (cap 100000)", 100_000),
        ("derived", 2000, "4001 conformance issues", None),
    ],
    ids=["subclass-600", "subproperty-600", "subproperty-1000", "instances-5000", "derived-2000"],
)
def test_a_request_stating_a_long_schema_chain_is_refused_in_time(
    tmp_path, capsys, monkeypatch, kind, n, refusal, budget
):
    # the closure costs what it derives: a chain of n derives about n*n/2
    # schema triples, and a property chain n*n instance triples. It holds
    # no more than its budget meanwhile: 5000 instances of a 300-long
    # chain's first class would take 1.5 million types
    world = _pair_world()
    before = world.serialized_states()
    request = _chain_request(kind, n)
    if budget is not None:
        monkeypatch.setattr(graphstore.entail, "__defaults__", (budget, None))
        tracemalloc.start()
    started = time.monotonic()
    try:
        assert world.submit_request("chain1", request) is None
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    elapsed = time.monotonic() - started
    failure = world.controller.slices["chain1"].failure
    assert (failure.step, failure.detail) == ("Validation", refusal)
    assert world.serialized_states() == before
    if n == 600 or kind == "derived":
        assert elapsed < 3.0
    if budget is not None:
        assert peak < 60e6
    path = tmp_path / "chain.ndl"
    path.write_text(request)
    assert main(["validate", str(path)]) == (2 if "cap" in refusal else 1)
    assert main(["delegate", str(path)]) == 2
    err = capsys.readouterr().err
    assert (refusal in err) if "cap" in refusal else "expected exactly one NetworkDomain, found 0" in err


CROSS_JOIN_RULE = 'violation("m", ?X) <- (?X rdf:type ?A), (?Y rdf:type ?B) .'


@pytest.mark.parametrize(
    "budgeted, defaults, extra_rules",
    [(graphstore.entail, (5, None), ""), (rules.evaluate, (5,), CROSS_JOIN_RULE)],
    ids=["closure", "rule-join"],
)
def test_exceeded_budget_fails_validation_and_holds_nothing(
    monkeypatch, budgeted, defaults, extra_rules
):
    world = _pair_world()
    world.controller.extra_rules.extend(rules.parse_ruleset(extra_rules))
    before = world.serialized_states()
    monkeypatch.setattr(budgeted, "__defaults__", defaults)
    assert world.submit_request("big1", _fixture("request-pair.ndl")) is None
    record = world.controller.slices["big1"]
    assert record.state == "Closed"
    assert record.failure.step == "Validation"
    assert "(cap 5)" in record.failure.detail
    assert world.events[-2].endswith("slice-failed big1 fail:Validation")
    assert world.serialized_states() == before
    assert world.conservation_problems() == []


def test_world_is_freed_without_the_cycle_collector():
    # a one-shot World must not wait for the cyclic GC to give back its models
    gc.disable()
    try:
        world = _pair_world()
        assert world.submit_request("demo1", _fixture("request-pair.ndl")) is not None
        ref = weakref.ref(world)
        del world
        assert ref() is None
    finally:
        gc.enable()


def test_world_with_refused_slices_is_freed_without_the_cycle_collector():
    # a refused slice's record keeps its failure and the failure's cause, but
    # not the frames that raised them: those hold the World in a cycle
    gc.disable()
    try:
        world = World()
        world.add_substrate(THREE_UNIT_SUBSTRATE)
        assert world.submit_request("s1", _two_vm_request("one")) is not None
        assert world.submit_request("s2", _two_vm_request("two")) is None
        assert world.submit_request("s3", "not a document {") is None
        failures = [world.controller.slices[s].failure for s in ("s2", "s3")]
        assert [f.step for f in failures] == ["Binding", "Validation"]
        assert failures[1].__cause__ is not None
        ref = weakref.ref(world)
        del world, failures
        assert ref() is None
    finally:
        gc.enable()


def _closed_slice_cycle(world, i):
    """One deleted, one refused (at Redeem, after ticketing) and one expired
    slice."""
    text = _fixture("request-pair.ndl").replace(
        "2026-01-01T00:00:00Z", render_datetime(world.clock.now)
    )
    assert world.submit_request(f"deleted{i}", text) is not None
    world.delete_slice(f"deleted{i}")
    assert world.submit_request(f"refused{i}", text.replace('"1000"', '"99999"')) is None
    assert world.submit_request(f"expired{i}", text) is not None
    world.advance_time(world.clock.now + timedelta(hours=2))


def _held(world):
    """Collector-tracked objects, and traced bytes beyond the event log's."""
    gc.collect()
    log = sum(sys.getsizeof(line) + 8 for line in world.events)
    return len(gc.get_objects()), tracemalloc.get_traced_memory()[0] - log


def test_a_closed_slice_keeps_a_bounded_record():
    world = _pair_world()
    tracemalloc.start()
    try:
        for i in range(5):  # warm-up: first-use caches
            _closed_slice_cycle(world, i)
        start = _held(world)
        per_cycle = []
        for first, last in ((5, 25), (25, 105)):
            for i in range(first, last):
                _closed_slice_cycle(world, i)
            held = _held(world)
            per_cycle.append([(b - a) / (last - 5) for a, b in zip(start, held)])
    finally:
        tracemalloc.stop()
    assert world.events[-1].endswith(" expire expired104 ok")
    (objects_20, bytes_20), (objects_100, bytes_100) = per_cycle
    assert objects_100 <= 16 and bytes_100 <= 4096
    assert abs(objects_20 - objects_100) <= 0.2 * objects_100
    assert abs(bytes_20 - bytes_100) <= 0.2 * bytes_100


def test_leases_expire_in_lease_id_text_order():
    world, _ = federation_world(3, 4, 4)
    for k in range(12):
        text = federation_request(f"s{k}", [(1, "d00"), (2, "d01")])
        assert world.submit_request(f"s{k}", text) is not None
    world.advance_time(_utc(2026, 1, 1, 2))
    expired = [line.split()[2:5] for line in world.events if line.split()[3] == "expire"]
    # am-1/lease/10 sorts before am-1/lease/2
    order = [0, 9, 10, 11, *range(1, 9)]
    assert expired == [["am-1", "expire", f"s{k}"] for k in order]
    assert world.conservation_problems() == []


def test_am_passes_over_full_hosts_when_it_picks_a_combination():
    # first fit fills d00's eight 4-unit hosts in order; once hosts 0-3 are
    # full, the AM's 32 tries must not all start with one of them
    world, _ = federation_world(3, 8, 4)
    for k in range(16):
        text = federation_request(f"p{k}", [(1, "d00"), (2, "d00")], bandwidth=10)
        assert world.submit_request(f"p{k}", text) is not None, k
    text = federation_request("p16", [(1, "d00"), (2, "d00")], bandwidth=10)
    assert world.submit_request("p16", text) is None
    assert world.controller.slices["p16"].failure.step == "Binding"
    assert world.conservation_problems() == []


_ODD_SLICE_IDS = ["c%41", "sl:odd", "dot.", "n(1)"]
# printable ASCII an IRI may hold
_SLICE_ID_CHARS = "".join(c for c in map(chr, range(0x21, 0x7F)) if c not in '<>"{}|^`\\')


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.one_of(st.sampled_from(_ODD_SLICE_IDS), st.text(_SLICE_ID_CHARS, min_size=1, max_size=8)),
        min_size=1, max_size=4, unique=True,
    )
)
@example(_ODD_SLICE_IDS)
def test_every_written_document_reads_back_to_its_bytes(slice_ids):
    """Manifests under any slice id, and each AM's delegation and state
    after the slices took their share, parse back to the text written."""
    world, sites = federation_world(6, 2, 2, mixed=True)
    texts = []
    for k, slice_id in enumerate(slice_ids):
        members = [(1, sites[k]), (2, sites[k + 1])] + ([(3, sites[k + 2])] if k % 2 else [])
        manifest = world.submit_request(slice_id, federation_request(f"t{k}", members, broadcast=k % 2))
        assert manifest is not None
        texts.append(manifest)
    for am in world.ams.values():
        texts += [am.delegate(), am.serialized_state()]
    for text in texts:
        assert serialize_document(parse_document(text)) == text


def test_broadcast_aba_fails_validation_with_exact_message():
    world = World()
    for name in ("ring-a.ndl", "ring-b.ndl", "ring-c.ndl"):
        world.add_substrate(_fixture(name))
    before = world.serialized_states()
    assert world.submit_request("bad1", _fixture("broadcast-bad.ndl")) is None
    record = world.controller.slices["bad1"]
    assert record.state == "Closed"
    assert record.failure.step == "Validation"
    assert [v.message for v in record.failure.violations] == [BCAST_MSG]
    assert world.serialized_states() == before
    assert any(f'"{BCAST_MSG}"' in line for line in world.events)


def test_broadcast_abc_provisions_star():
    world = World()
    for name in ("ring-a.ndl", "ring-b.ndl", "ring-c.ndl"):
        world.add_substrate(_fixture(name))
    manifest_text = world.submit_request("good1", _fixture("broadcast-good.ndl"))
    assert manifest_text is not None
    manifest = parse_document(manifest_text)
    raw = parse_document(_fixture("broadcast-good.ndl"))
    req = parse_request(close(raw), source=raw)
    assert check_homeomorphic(req, manifest)
    assert world.conservation_problems() == []
    world.delete_slice("good1")
    assert world.conservation_problems() == []


THREE_UNIT_SUBSTRATE = """\
@prefix comp: <http://geni-orca.renci.org/owl/compute.owl#> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix t: <urn:threeunit/> .
@prefix topo: <http://geni-orca.renci.org/owl/topology.owl#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
t:dom rdf:type topo:NetworkDomain .
t:host rdf:type topo:Device .
t:host topo:inDomain t:dom .
t:host topo:hasInterface t:host/if0 .
t:host/if0 rdf:type topo:Interface .
t:host comp:provisions comp:VM .
t:host comp:availableUnits "3"^^xsd:integer .
"""


def _two_vm_request(tag):
    return f"""\
@prefix comp: <http://geni-orca.renci.org/owl/compute.owl#> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix req: <http://geni-orca.renci.org/owl/request.owl#> .
@prefix rq: <urn:req:{tag}/> .
@prefix time: <http://www.w3.org/2006/time#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
rq:Reservation/1 rdf:type req:Reservation .
rq:Reservation/1 req:element rq:Node/1 .
rq:Reservation/1 req:element rq:Node/2 .
rq:Reservation/1 req:hasTerm rq:Term/1 .
rq:Term/1 rdf:type time:Interval .
rq:Term/1 time:hasBeginning "2026-01-01T00:00:00Z"^^xsd:dateTime .
rq:Term/1 time:hasDurationSeconds "3600"^^xsd:integer .
rq:Node/1 rdf:type comp:VM .
rq:Node/2 rdf:type comp:VM .
"""


def test_sequential_requests_exhaust_units():
    world = World()
    world.add_substrate(THREE_UNIT_SUBSTRATE)
    assert world.submit_request("s1", _two_vm_request("one")) is not None
    assert world.submit_request("s2", _two_vm_request("two")) is None
    record = world.controller.slices["s2"]
    assert record.failure.step == "Binding"
    # the domain still holds one unit: a single-vm request succeeds
    single = _two_vm_request("three").replace("rq:Reservation/1 req:element rq:Node/2 .\n", "")
    single = single.replace("rq:Node/2 rdf:type comp:VM .\n", "")
    assert world.submit_request("s3", single) is not None
    assert world.conservation_problems() == []


def test_lease_expiry_boundary():
    world = _pair_world()
    initial = world.serialized_states()
    assert world.submit_request("demo1", _fixture("request-pair.ndl")) is not None
    world.advance_time(_utc(2026, 1, 1, 0, 59, 59))
    assert world.controller.slices["demo1"].state == "Provisioned"
    world.advance_time(_utc(2026, 1, 1, 1, 0, 0))
    assert world.controller.slices["demo1"].state == "Closed"
    assert world.serialized_states() == initial
    assert world.conservation_problems() == []


ADVERSARIAL_X = """\
@prefix comp: <http://geni-orca.renci.org/owl/compute.owl#> .
@prefix eth: <http://geni-orca.renci.org/owl/ethernet.owl#> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix sx: <urn:adv:x/> .
@prefix sy: <urn:adv:y/> .
@prefix topo: <http://geni-orca.renci.org/owl/topology.owl#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
sx:Domain rdf:type topo:NetworkDomain .
sx:Host rdf:type topo:Device .
sx:Host topo:inDomain sx:Domain .
sx:Host topo:hasInterface sx:Host/if0 .
sx:Host/if0 rdf:type topo:Interface .
sx:Host comp:provisions comp:VM .
sx:Host comp:availableUnits "2"^^xsd:integer .
sx:Switch rdf:type topo:Device .
sx:Switch topo:inDomain sx:Domain .
sx:Switch topo:hasSwitchMatrix sx:Switch/matrix .
sx:Switch/matrix rdf:type eth:EthernetNetworkElement .
sx:Switch topo:hasInterface sx:Switch/if0 .
sx:Switch topo:hasInterface sx:Switch/toY .
sx:Switch/if0 rdf:type topo:Interface .
sx:Host/if0 topo:linkedTo sx:Switch/if0 .
sx:Link/host rdf:type topo:NetworkConnection .
sx:Link/host topo:hasEndpoint sx:Host/if0 .
sx:Link/host topo:hasEndpoint sx:Switch/if0 .
sx:Link/host topo:atLayer eth:EthernetNetworkElement .
sx:Link/host topo:availableBandwidth "10000"^^xsd:integer .
sx:Link/host topo:availableLabelSet "100" .
sx:Switch/toY rdf:type topo:BorderInterface .
sx:Switch/toY topo:atLayer eth:EthernetNetworkElement .
sx:Switch/toY topo:availableBandwidth "5000"^^xsd:integer .
sx:Switch/toY topo:availableLabelSet "100" .
sx:Switch/toY topo:linkedTo sy:Switch/toX .
"""

# Y advertises label 100 at its border but its internal link only has 200:
# the delegation admits what the detailed substrate cannot satisfy.
ADVERSARIAL_Y = (
    ADVERSARIAL_X.replace("urn:adv:x/", "urn:adv:TMP/")
    .replace("urn:adv:y/", "urn:adv:x/")
    .replace("urn:adv:TMP/", "urn:adv:y/")
    .replace("sx:", "sTMP:")
    .replace("sy:", "sx:")
    .replace("sTMP:", "sy:")
    .replace("toY", "toTMP")
    .replace("toX", "toY")
    .replace("toTMP", "toX")
    .replace(
        'sy:Link/host topo:availableLabelSet "100" .',
        'sy:Link/host topo:availableLabelSet "200" .',
    )
)


def _cross_domain_request():
    return """\
@prefix comp: <http://geni-orca.renci.org/owl/compute.owl#> .
@prefix eth: <http://geni-orca.renci.org/owl/ethernet.owl#> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix req: <http://geni-orca.renci.org/owl/request.owl#> .
@prefix rq: <urn:req:cross/> .
@prefix time: <http://www.w3.org/2006/time#> .
@prefix topo: <http://geni-orca.renci.org/owl/topology.owl#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
rq:Reservation/1 rdf:type req:Reservation .
rq:Reservation/1 req:element rq:Node/1 .
rq:Reservation/1 req:element rq:Node/2 .
rq:Reservation/1 req:element rq:Link/1 .
rq:Reservation/1 req:hasTerm rq:Term/1 .
rq:Term/1 rdf:type time:Interval .
rq:Term/1 time:hasBeginning "2026-01-01T00:00:00Z"^^xsd:dateTime .
rq:Term/1 time:hasDurationSeconds "3600"^^xsd:integer .
rq:Node/1 rdf:type comp:VM .
rq:Node/1 topo:inDomain <urn:adv:x/Domain> .
rq:Node/1 topo:hasInterface rq:Node/1/if0 .
rq:Node/1/if0 rdf:type topo:Interface .
rq:Node/2 rdf:type comp:VM .
rq:Node/2 topo:inDomain <urn:adv:y/Domain> .
rq:Node/2 topo:hasInterface rq:Node/2/if0 .
rq:Node/2/if0 rdf:type topo:Interface .
rq:Link/1 rdf:type topo:NetworkConnection .
rq:Link/1 topo:atLayer eth:EthernetNetworkElement .
rq:Link/1 req:bandwidth "100"^^xsd:integer .
rq:Link/1 topo:hasInterface rq:Node/1/if0 .
rq:Link/1 topo:hasInterface rq:Node/2/if0 .
"""


def test_adversarial_delegation_fails_at_redeem_and_refunds():
    world = World()
    world.add_substrate(ADVERSARIAL_X)
    world.add_substrate(ADVERSARIAL_Y)
    before = world.serialized_states()
    assert world.submit_request("adv1", _cross_domain_request()) is None
    record = world.controller.slices["adv1"]
    assert record.failure.step == "Redeem"
    assert "infeasible-detail" in record.failure.detail
    # everything refunded: broker and AM states byte-equal to the start
    assert world.serialized_states() == before
    assert world.conservation_problems() == []


def test_domain_delegated_without_an_am_fails_at_redeem_and_refunds():
    world = World()
    am = actors_mod.AggregateManager("am-x", _fixture("renci.ndl"), world.controller.base)
    world.broker.register_delegation(am.delegate())
    before = world.serialized_states()
    assert world.submit_request("orphan", _fixture("request-pair.ndl")) is None
    failure = world.controller.slices["orphan"].failure
    assert failure.step == "Redeem" and failure.detail.startswith("no AM for domain")
    assert world.serialized_states() == before
    assert world.conservation_problems() == []


def test_expired_ticket_rejected():
    world = _pair_world()
    am = next(iter(world.ams.values()))
    from netslice.actors import Ticket
    from netslice.models import Term

    ticket = Ticket(
        ticket_id="ticket/99",
        slice_id="zombie",
        domain=am.domain,
        placements=[],
        border_allocs=[],
        segments=[],
        term=Term(_utc(2025, 12, 1), 3600),
    )
    with pytest.raises(RedeemError, match="expired"):
        am.redeem(ticket, world.clock)


def test_event_log_deterministic_across_runs():
    def run():
        world = World()
        world.add_substrate(_fixture("renci.ndl"))
        world.submit_request("demo1", _fixture("request-pair.ndl"))
        world.advance_time(_utc(2026, 1, 1, 2))
        return world.events

    assert run() == run()


def test_rejects_redelegation_below_commitments():
    world = _pair_world()
    assert world.submit_request("demo1", _fixture("request-pair.ndl")) is not None
    am = next(iter(world.ams.values()))
    # the AM's residual substrate now lacks the committed units
    with pytest.raises(SubstrateError):
        world.broker.register_delegation(am.delegate())
    world.delete_slice("demo1")
    world.broker.register_delegation(am.delegate())  # fine once released


def test_redelegation_dropping_a_ticketed_border_is_rejected():
    from netslice.models import Term

    world = World()
    for name in ("ring-a.ndl", "ring-b.ndl", "ring-c.ndl"):
        world.add_substrate(_fixture(name))
    am = world.ams[Iri("urn:orca:site:a/Domain")]
    to_b = Iri("urn:orca:site:a/Switch/toB")
    # a zero-bandwidth, unlabelled crossing still commits the interface
    ticket = world.broker.issue_ticket(
        "s0", am.domain, [], [(to_b, 0, None)], [], Term(_utc(2026, 1, 1), 3600)
    )
    without_b = "".join(
        line for line in am.delegate().splitlines(keepends=True) if to_b.value not in line
    )
    with pytest.raises(SubstrateError):
        world.broker.register_delegation(without_b)
    world.broker.refund(ticket)
    world.broker.register_delegation(without_b)


def test_the_broker_refuses_a_ticket_its_ledgers_cannot_cover():
    from netslice.embed import OverAllocation
    from netslice.models import Term

    world = World()
    for name in ("ring-a.ndl", "ring-b.ndl", "ring-c.ndl"):
        world.add_substrate(_fixture(name))
    broker, term = world.broker, Term(_utc(2026, 1, 1), 3600)
    domain, nowhere = Iri("urn:orca:site:a/Domain"), Iri("urn:orca:site:z/Domain")
    to_b, unstated = Iri("urn:orca:site:a/Switch/toB"), Iri("urn:orca:site:a/Switch/toZ")
    delegated = broker.ledgers[domain].original[("bw", to_b)]
    broker.issue_ticket("held", domain, [], [(to_b, 10, None)], [], term)
    for ticketed, border, subject in (
        (nowhere, [], nowhere),  # no delegation
        (domain, [(to_b, delegated + 1, None)], to_b),  # above the delegated figure
        (domain, [(unstated, 0, None)], unstated),  # on an interface the delegation omits
    ):
        free = dict(broker.free)
        active = {d: {t: list(j) for t, j in l.active.items()} for d, l in broker.ledgers.items()}
        with pytest.raises(OverAllocation, match=re.escape(subject.value)):
            broker.issue_ticket("s0", ticketed, [], border, [], term)
        assert broker.free == free
        assert {d: l.active for d, l in broker.ledgers.items()} == active


def test_a_refused_ticket_takes_no_ticket_number():
    from netslice.embed import OverAllocation
    from netslice.models import Term

    world = World()
    for name in ("ring-a.ndl", "ring-b.ndl", "ring-c.ndl"):
        world.add_substrate(_fixture(name))
    broker, term = world.broker, Term(_utc(2026, 1, 1), 3600)
    domain, to_b = Iri("urn:orca:site:a/Domain"), Iri("urn:orca:site:a/Switch/toB")
    with pytest.raises(OverAllocation):
        broker.issue_ticket("s0", domain, [], [(to_b, 10**9, None)], [], term)
    assert broker.issue_ticket("s1", domain, [], [(to_b, 10, None)], [], term).ticket_id == "ticket/1"


def test_an_empty_broker_has_a_routing_view_and_binds_nothing():
    broker = actors_mod.Broker()
    view = broker.routing_view()
    assert isinstance(view, graphstore.Model) and not view.typed(vocab.NETWORK_DOMAIN)
    assert broker.routing_view() is view
    world = World()
    assert world.submit_request("s", _fixture("request-pair.ndl")) is None
    failure = world.controller.slices["s"].failure
    assert str(failure) == (
        "Binding: no domain has units of ComputeElement for urn:orca:request:pair/Node/1"
    )
    assert [line.split(" ", 2)[2] for line in world.events[-2:]] == [
        "controller slice-failed s fail:Binding",
        "controller state s Closed",
    ]
    assert world.controller.slices["s"].state == "Closed"


def test_routing_view_is_kept_until_a_registration():
    world = World()
    world.add_substrate(ADVERSARIAL_X)
    world.add_substrate(
        ADVERSARIAL_Y.replace('availableLabelSet "200"', 'availableLabelSet "100"')
    )
    view = world.broker.routing_view()
    text = serialize_document(view)
    assert world.submit_request("ok", _cross_domain_request()) is not None
    too_wide = _cross_domain_request().replace('req:bandwidth "100"', 'req:bandwidth "9999"')
    assert world.submit_request("wide", too_wide) is None
    assert world.broker.routing_view() is view
    assert serialize_document(view) == text
    world.add_substrate(_fixture("ring-a.ndl"))
    rebuilt = world.broker.routing_view()
    assert rebuilt is not view and rebuilt is world.broker.routing_view()
    ledgers = world.broker.ledgers
    assert rebuilt == close(*(ledgers[d].model for d in sorted(ledgers, key=lambda d: d.value)))
    assert Iri("urn:orca:site:a/Domain") in rebuilt.typed(vocab.NETWORK_DOMAIN)


def test_three_delegations_merge_into_ring_graph():
    world = World()
    for name in ("ring-a.ndl", "ring-b.ndl", "ring-c.ndl"):
        world.add_substrate(_fixture(name))
    view = world.broker.routing_view()
    domains = view.typed(vocab.NETWORK_DOMAIN)
    assert [d.value for d in domains] == [
        "urn:orca:site:a/Domain",
        "urn:orca:site:b/Domain",
        "urn:orca:site:c/Domain",
    ]
    # the merged delegations form a traversable inter-domain graph
    from netslice.pathquery import adjacent
    from oracles import DEVICE_ADJACENCY

    neighbors = {
        w.neighbor.value
        for w in adjacent(view, Iri("urn:orca:site:a/Domain"), DEVICE_ADJACENCY)
    }
    assert neighbors == {"urn:orca:site:b/Domain", "urn:orca:site:c/Domain"}


EXTENSION_SUBSTRATE = """\
@prefix comp: <http://geni-orca.renci.org/owl/compute.owl#> .
@prefix ex: <urn:provider:classes/> .
@prefix owl: <http://www.w3.org/2002/07/owl#> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix t: <urn:extension/> .
@prefix topo: <http://geni-orca.renci.org/owl/topology.owl#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:MiniVM rdf:type owl:Class .
ex:MiniVM rdfs:subClassOf comp:VM .
t:dom rdf:type topo:NetworkDomain .
t:host rdf:type topo:Device .
t:host topo:inDomain t:dom .
t:host topo:hasInterface t:host/if0 .
t:host/if0 rdf:type topo:Interface .
t:host comp:provisions ex:MiniVM .
t:host comp:availableUnits "2"^^xsd:integer .
"""


def test_provider_extension_class_satisfies_vm_request():
    # the provider subclasses VM in its own document; a plain VM request binds
    world = World()
    world.add_substrate(EXTENSION_SUBSTRATE)
    manifest_text = world.submit_request("ext1", _two_vm_request("ext"))
    assert manifest_text is not None
    manifest = parse_document(manifest_text)
    vms = manifest.typed(Iri("urn:provider:classes/MiniVM"))
    assert len(vms) == 2  # provisioned entities carry the concrete class


# -- broker state -------------------------------------------------------------------


def test_multi_class_host_is_delegated_once_and_refused_at_binding():
    # Server/A also provisions BareMetalCE: two hosts, two units, whatever
    # the classes, so a third node is refused before anything is ticketed
    substrate = _fixture("renci.ndl").replace(
        "rnc:Server/A comp:provisions comp:VM .\n",
        "rnc:Server/A comp:provisions comp:VM .\nrnc:Server/A comp:provisions comp:BareMetalCE .\n",
    )
    request = _fixture("request-pair.ndl").replace("comp:ComputeElement", "comp:VM").replace(
        "rq:Reservation/1 req:element rq:Link/1 .\n",
        "rq:Reservation/1 req:element rq:Link/1 .\nrq:Reservation/1 req:element rq:Node/3 .\n",
    ) + "rq:Node/3 rdf:type comp:BareMetalCE .\n"
    world = World()
    world.add_substrate(substrate)
    before = world.serialized_states()
    assert world.submit_request("three", request) is None
    assert world.controller.slices["three"].failure.step == "Binding"
    assert all(not ledger.active for ledger in world.broker.ledgers.values())
    assert world.serialized_states() == before
    units = {k[1].local(): v for k, v in world.broker.free.items() if k[0] == "units"}
    assert units == {"BareMetalCE+VM": 1, "VM": 1}


@pytest.mark.parametrize(
    "server_b",
    ["", "rnc:Server/B comp:provisions <urn:provider:classes/MiniVM> .\n"],
    ids=["vm-only-pool", "two-shared-pools"],
)
def test_vm_and_bare_metal_nodes_share_a_multi_class_host_domain(server_b):
    # Server/A provisions VM and BareMetalCE, Server/B VM (and, in the
    # second case, a provider subclass of VM, so both pools serve two
    # classes and the VM node first takes Server/A's pool, then moves)
    substrate = _fixture("renci.ndl").replace(
        "rnc:Server/A comp:provisions comp:VM .\n",
        "rnc:Server/A comp:provisions comp:VM .\nrnc:Server/A comp:provisions comp:BareMetalCE .\n",
    ) + server_b
    if server_b:
        substrate += (
            "<urn:provider:classes/MiniVM> rdf:type <http://www.w3.org/2002/07/owl#Class> .\n"
            "<urn:provider:classes/MiniVM> <http://www.w3.org/2000/01/rdf-schema#subClassOf> comp:VM .\n"
        )
    request = _fixture("request-pair.ndl").replace(
        "rq:Node/1 rdf:type comp:ComputeElement", "rq:Node/1 rdf:type comp:VM"
    ).replace("rq:Node/2 rdf:type comp:ComputeElement", "rq:Node/2 rdf:type comp:BareMetalCE")
    world = World()
    world.add_substrate(substrate)
    manifest = world.submit_request("mixed", request)
    assert manifest is not None, world.controller.slices["mixed"].failure
    m = parse_document(manifest)
    hosts = {m.value(t.subject, vocab.PROVISIONED_FROM).local(): t.object.local()
             for t in m.match(p=vocab.HOSTED_ON)}
    assert hosts == {"1": "B", "2": "A"}  # Node/2 on Server/A, Node/1 on Server/B
    world.delete_slice("mixed")
    assert world.conservation_problems() == []


def _ledger_free(broker) -> dict:
    """Every ledger's free figures recomputed as original minus in use."""
    merged = {}
    for ledger in broker.ledgers.values():
        in_use = ledger.used  # a fold of the ledger's journals on every read
        for key in ledger.original.keys() | in_use.keys():
            orig, used = ledger.original.get(key), in_use.get(key)
            if key[0] == "label":
                merged[key] = vocab.LabelSet(set(orig or ()) - set(used or ()))
            else:
                merged[key] = (orig or 0) - (used or 0)
    return merged


def _binding_or_none(broker, req):
    try:
        return bind_domains(req, broker.routing_view(), dict(broker.free))
    except InsufficientResources:
        return None


def test_broker_free_map_and_binding_follow_every_operation():
    from datetime import timedelta

    rng = random.Random(0xB0CE)
    world, sites = federation_world(6, 2, 1, mixed=True)
    broker = world.broker
    active, bound, rejected = [], 0, 0
    for step in range(160):
        roll = rng.random()
        if active and roll < 0.25:
            world.delete_slice(active.pop(rng.randrange(len(active))))
        elif roll < 0.35:
            world.advance_time(world.clock.now + timedelta(minutes=rng.randint(5, 40)))
            active = [s for s in active if world.controller.slices[s].state == "Provisioned"]
        elif roll < 0.45:
            am = rng.choice(sorted(world.ams.values(), key=lambda am: am.am_id))
            before = dict(broker.free)
            # the residual delegation is refused while slices hold its units
            text = am.delegate() if rng.random() < 0.5 else serialize_document(
                build_delegation(am.state.substrate)
            )
            try:
                broker.register_delegation(text)
            except SubstrateError:
                rejected += 1
                assert broker.free == before
        else:
            slice_id = f"s{step}"
            members = [(i + 1, rng.choice([*sites, None])) for i in range(rng.randint(2, 3))]
            classes = {n: rng.choice(["VM", "BareMetalCE", "ComputeElement"]) for n, _ in members}
            text = federation_request(
                slice_id, members, bandwidth=rng.choice([100, 2000]), broadcast=len(members) == 3,
                term_begin=world.clock.now.strftime("%Y-%m-%dT%H:%M:%SZ"), classes=classes,
            )
            raw = parse_document(text)
            req = parse_request(close(raw), source=raw)
            expected = reference_binding(broker, req)
            binding = _binding_or_none(broker, req)
            assert (binding and {n: d for n, (d, _) in binding.items()}) == expected, f"step {step}"
            assert binding is None or binding_fits(broker, req, binding), f"step {step}"
            bound += expected is not None
            if world.submit_request(slice_id, text) is not None:
                active.append(slice_id)
        assert broker.free == _ledger_free(broker), f"step {step}"
        assert world.conservation_problems() == [], f"step {step}"
        for am in world.ams.values():  # live figures delegate as the snapshot re-read does
            reference = build_delegation(parse_substrate(am.state.snapshot()))
            assert am.delegate() == serialize_document(reference), f"step {step}"
    assert bound >= 40 and rejected >= 3


@pytest.mark.parametrize("name", [p.name for p in sorted(FIXTURES.glob("*.ndl"))])
def test_cli_delegate_prints_a_fresh_ams_delegation(capsys, name):
    try:
        expected = (0, World().add_substrate(_fixture(name)).delegate())
    except SubstrateError:  # a request, not a substrate
        expected = (2, "")
    code = main(["delegate", str(FIXTURES / name)])
    assert (code, capsys.readouterr().out) == expected


class _CountingDict(dict):
    """A dict that counts its reads, one per key looked up or walked."""

    reads = 0

    def __getitem__(self, key):
        type(self).reads += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        type(self).reads += 1
        return super().get(key, default)

    def __iter__(self):
        for key in super().__iter__():
            type(self).reads += 1
            yield key

    def values(self):
        return [self[k] for k in self]

    def items(self):
        return [(k, self[k]) for k in self]


def _neighbour_create_cost(n_domains, monkeypatch):
    world, sites = federation_world(n_domains, 8, 4)
    satisfies_calls = []
    counted = vocab.satisfies

    def counting(*args):
        satisfies_calls.append(args)
        return counted(*args)

    for module in (vocab, actors_mod):
        monkeypatch.setattr(module, "satisfies", counting)
    broker = world.broker
    broker.ledgers = _CountingDict(broker.ledgers)
    costs = []
    for k in range(4):  # the first create builds the routing view
        slice_id = f"n{k}"
        text = federation_request(slice_id, [(1, sites[k]), (2, sites[k + 1])])
        satisfies_calls.clear()
        _CountingDict.reads = 0
        assert world.submit_request(slice_id, text) is not None
        costs.append((len(satisfies_calls), _CountingDict.reads))
        world.delete_slice(slice_id)
    monkeypatch.undo()
    return costs[1:]


def test_neighbour_create_reads_no_more_of_a_bigger_federation(monkeypatch):
    small = _neighbour_create_cost(10, monkeypatch)
    big = _neighbour_create_cost(40, monkeypatch)
    assert small == big
    assert all(satisfies > 0 and reads > 0 for satisfies, reads in small)


def _assert_same_listing(got, want):
    """Equal triples, listed, indexed at every level and prefixed in the same order."""
    assert list(got) == list(want)
    for a, b in ((got._spo, want._spo), (got._pos, want._pos)):
        assert list(a) == list(b)
        for x in a:
            assert list(a[x]) == list(b[x])
            assert all(list(a[x][y]) == list(b[x][y]) for y in a[x])
    assert list(got.prefixes.items()) == list(want.prefixes.items())


def test_routing_view_lists_as_closing_the_ledgers_after_every_registration(monkeypatch):
    from datetime import timedelta

    tbox, unions, carried = vocab.entailed_schema(), [], []
    register = actors_mod.Broker.register_delegation

    def checked(broker, text):
        domain = register(broker, text)
        ledgers = [broker.ledgers[d].model for d in sorted(broker.ledgers, key=lambda d: d.value)]
        view = broker.routing_view()
        _assert_same_listing(view, close(*ledgers))
        assert view._base is tbox  # the T-box's index dicts are shared
        unions.append(set(view) == set(graphstore.merge([tbox, *ledgers])))
        carried.append(bool(broker.ledgers[domain].active))  # took over tickets
        return domain

    monkeypatch.setattr(actors_mod.Broker, "register_delegation", checked)
    rng = random.Random(0x51CE)
    world, sites = federation_world(8, 2, 1, mixed=True)
    active = []
    for step in range(80):
        roll = rng.random()
        if active and roll < 0.25:
            world.delete_slice(active.pop(rng.randrange(len(active))))
        elif roll < 0.55:
            am = rng.choice(sorted(world.ams.values(), key=lambda am: am.am_id))
            # the residual delegation is refused while slices hold its units
            text = am.delegate() if rng.random() < 0.5 else serialize_document(
                build_delegation(am.state.substrate)
            )
            try:
                world.broker.register_delegation(text)
            except SubstrateError:
                pass
        else:
            members = [(i + 1, rng.choice([*sites, None])) for i in range(2)]
            text = federation_request(
                f"s{step}", members, term_begin=world.clock.now.strftime("%Y-%m-%dT%H:%M:%SZ")
            )
            if world.submit_request(f"s{step}", text) is not None:
                active.append(f"s{step}")
        world.advance_time(world.clock.now + timedelta(seconds=1))
    assert len(unions) >= 20 and all(unions) and sum(carried) >= 3
    # one delegation types a node by a class that another's subclass axiom
    # extends: their union is not closed, so the view must close them afresh
    for slice_id in active:
        world.delete_slice(slice_id)
    first, second = (world.ams[Iri(f"urn:fed:{site}/dom")] for site in sites[:2])
    extra = f"<urn:fed:{sites[0]}/extra> <{graphstore.RDF_NS}type> <urn:ext/Special> .\n"
    world.broker.register_delegation(first.delegate() + extra)
    axiom = f"<urn:ext/Special> <{graphstore.RDFS_NS}subClassOf> <{vocab.DEVICE.value}> .\n"
    world.broker.register_delegation(second.delegate() + axiom)
    assert unions[-2:] == [True, False]
    view = world.broker.routing_view()
    assert graphstore.Triple(Iri(f"urn:fed:{sites[0]}/extra"), graphstore.RDF_TYPE, vocab.DEVICE) in view
