import gc
import random
import weakref
from datetime import datetime, timezone

import pytest

from netslice import actors as actors_mod
from netslice import graphstore, rules, vocab
from netslice.actors import DelegationRejected, RedeemError, SliceError, World
from netslice.embed import InsufficientResources, bind_domains
from netslice.graphstore import Iri, parse_document, serialize_document
from netslice.models import SubstrateError, build_delegation, check_homeomorphic, parse_request
from netslice.vocab import close

from conftest import FIXTURES
from generators import federation_request, federation_world
from oracles import binding_fits, reference_binding

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
    from netslice.actors import DelegationRejected

    world = _pair_world()
    assert world.submit_request("demo1", _fixture("request-pair.ndl")) is not None
    am = next(iter(world.ams.values()))
    # the AM's residual substrate now lacks the committed units
    with pytest.raises(DelegationRejected):
        world.broker.register_delegation(am.delegate())
    world.delete_slice("demo1")
    world.broker.register_delegation(am.delegate())  # fine once released


def test_redelegation_dropping_a_ticketed_border_is_rejected():
    from netslice.actors import DelegationRejected
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
    with pytest.raises(DelegationRejected):
        world.broker.register_delegation(without_b)
    world.broker.refund(ticket.ticket_id)
    world.broker.register_delegation(without_b)


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
    from netslice.embed import DEVICE_ADJACENCY
    from netslice.pathquery import adjacent

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
    assert world.broker.tickets == {}
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
        for key in ledger.original.keys() | ledger.used.keys():
            orig, used = ledger.original.get(key), ledger.used.get(key)
            if key[0] == "label":
                merged[key] = (orig or vocab.NO_LABELS) - (used or vocab.NO_LABELS)
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
            except DelegationRejected:
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
    assert bound >= 40 and rejected >= 3


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
    broker.ledgers, broker.views = _CountingDict(broker.ledgers), _CountingDict(broker.views)
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
