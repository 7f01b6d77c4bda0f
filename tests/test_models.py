import pytest

from netslice import embed, vocab
from netslice.actors import World
from netslice.graphstore import (
    Iri,
    Model,
    RDF_TYPE,
    Triple,
    integer,
    merge,
    parse_document,
    serialize_document,
    string,
)
from netslice.models import (
    LabelSetError,
    PlanIncomplete,
    RequestError,
    SubstrateError,
    build_delegation,
    build_manifest,
    check_homeomorphic,
    parse_delegation,
    parse_request,
    parse_substrate,
    pool_classes,
    residual_of,
)
from netslice.vocab import LabelSet, builtin_schema, validate_conformance

from conftest import FIXTURES, LOOSE_LABEL_SETS

RNC = "http://geni-orca.renci.org/sites/renci/"


def rnc(name):
    return Iri(RNC + name)


def _load(name):
    return parse_document((FIXTURES / name).read_text())


def _closed(raw):
    return vocab.close(raw)


@pytest.fixture
def renci_graph():
    return parse_substrate(_closed(_load("renci.ndl")))


def test_parse_substrate_devices_links_layer(renci_graph):
    assert renci_graph.domain == rnc("Renci")
    assert [d.iri for d in renci_graph.devices] == [
        rnc("Renci/6509"),
        rnc("Server/A"),
        rnc("Server/B"),
    ]
    assert len(renci_graph.links) == 2
    assert all(l.layer == vocab.ETHERNET_ELEMENT for l in renci_graph.links)
    assert all(l.capacity == 10000 for l in renci_graph.links)
    assert all(l.label_pool == LabelSet(range(100, 111)) for l in renci_graph.links)
    # the search, not the view, reads a device's switching layer
    topology = _closed(_load("renci.ndl")).derived(embed._compile)
    assert topology.layers[rnc("Renci/6509")] == vocab.ETHERNET_ELEMENT
    assert {(p.node, p.provides, p.units) for p in renci_graph.pools} == {
        (rnc("Server/A"), vocab.VM, 1),
        (rnc("Server/B"), vocab.VM, 1),
    }


def test_parse_substrate_dangling_interface_rejected():
    raw = _load("renci.ndl")
    raw.remove(Triple(rnc("Server/A"), vocab.HAS_INTERFACE, rnc("Server/A/f1/ethernet")))
    with pytest.raises(SubstrateError, match="belongs to 0 elements"):
        parse_substrate(_closed(raw))


ADAPTATION = rnc("Renci/6509/adaptation")


@pytest.mark.parametrize(
    "server, capacity, problem",
    [
        (vocab.IP_ELEMENT, 4, None),
        (vocab.IP_ELEMENT, 0, None),  # no capacity, or 0, reads as 1
        (vocab.IP_ELEMENT, None, None),
        (vocab.ETHERNET_ELEMENT, 1, "client and server layers must differ"),
        (vocab.IP_ELEMENT, -1, "capacity must not be negative"),
        (None, 1, "missing client or server layer"),
    ],
)
def test_parse_substrate_checks_adaptations(server, capacity, problem):
    raw = _load("renci.ndl")
    raw.add(Triple(rnc("Renci/6509"), vocab.HAS_ADAPTATION, ADAPTATION))
    raw.add(Triple(ADAPTATION, vocab.ADAPTATION_CLIENT, vocab.ETHERNET_ELEMENT))
    if server is not None:
        raw.add(Triple(ADAPTATION, vocab.ADAPTATION_SERVER, server))
    if capacity is not None:
        raw.add(Triple(ADAPTATION, vocab.ADAPTATION_CAPACITY, integer(capacity)))
    m = _closed(raw)
    if problem is not None:
        with pytest.raises(SubstrateError) as err:
            parse_substrate(m)
        assert err.value.problems == [f"adaptation {ADAPTATION.value} {problem}"]
        return
    parse_substrate(m)
    layers = frozenset((vocab.ETHERNET_ELEMENT, server))
    assert (rnc("Renci/6509"), layers) in m.derived(embed._compile).adaptations


RING_A = (FIXTURES / "ring-a.ndl").read_text()
LINK_POOL, BORDER_POOL = '"100-199"', '"100-150"'  # sa:Link/host, sa:Switch/toB


@pytest.mark.parametrize(
    "lexical, in_domain",
    [
        ("2-4094", True),
        ("", True),
        ("1-4094", False),
        ("2-4095", False),
        ("0-150", False),
        ("2-2000000", False),
    ],
)
@pytest.mark.parametrize(
    "pool, subject",
    [
        (LINK_POOL, "link urn:orca:site:a/Link/host"),
        (BORDER_POOL, "border interface urn:orca:site:a/Switch/toB"),
    ],
)
def test_label_pools_are_checked_against_their_layer_domain(pool, subject, lexical, in_domain):
    raw = parse_document(RING_A.replace(pool, f'"{lexical}"'))
    issues = [i for i in validate_conformance(raw) if i.kind == "label-out-of-range"]
    assert (issues == []) == in_domain
    if in_domain:
        parse_substrate(_closed(raw))
        return
    with pytest.raises(SubstrateError) as err:
        parse_substrate(_closed(raw))
    assert err.value.problems == [f"{subject} label pool exceeds layer domain 2-4094"]


def test_label_pool_problem_names_the_domain_not_the_labels():
    raw = parse_document(RING_A.replace(LINK_POOL, '"2-2000000"'))
    with pytest.raises(SubstrateError, match="exceeds layer domain 2-4094") as err:
        parse_substrate(_closed(raw))
    assert len(str(err.value)) < 200


@pytest.mark.parametrize(
    "pool, lexical, subject",
    [
        (BORDER_POOL, "0-150", "urn:orca:site:a/Switch/toB"),
        (LINK_POOL, "2-2000000", "urn:orca:site:a/Link/host"),
    ],
)
def test_world_refuses_a_pool_outside_its_layer_domain(pool, lexical, subject):
    world = World()
    with pytest.raises(SubstrateError, match=subject):
        world.add_substrate(RING_A.replace(pool, f'"{lexical}"'))
    assert world.ams == {}


def test_parse_ring_substrates_have_two_borders_each():
    for name in ("ring-a.ndl", "ring-b.ndl", "ring-c.ndl"):
        graph = parse_substrate(_closed(_load(name)))
        assert len(graph.borders) == 2, name
        for b in graph.borders:
            assert b.remote is not None
            assert b.bandwidth == 5000


def test_build_delegation_borders_and_units():
    graph = parse_substrate(_closed(_load("ring-a.ndl")))
    closed = _closed(build_delegation(graph))
    view = parse_delegation(closed)
    assert view.domain == Iri("urn:orca:site:a/Domain")
    borders = closed.objects(view.domain, vocab.HAS_INTERFACE)
    assert [b.value for b in borders] == [
        "urn:orca:site:a/Switch/toB",
        "urn:orca:site:a/Switch/toC",
    ]
    residual = residual_of(closed)
    assert all(residual.get(("bw", b), 0) == 5000 for b in borders)
    assert _pool_units(view, closed) == {Iri("urn:orca:site:a/Domain/pool/VM"): ((vocab.VM,), 2)}
    # the two borders sit on one switch: internally reachable
    to_b, to_c = borders
    assert (
        Triple(to_b, vocab.INTERNALLY_REACHABLE, to_c) in closed
        or Triple(to_c, vocab.INTERNALLY_REACHABLE, to_b) in closed
    )


@pytest.mark.parametrize("linked", [False, True])
def test_borders_are_reachable_only_through_substrate_links(linked):
    # toC moves onto the host, so only the host link joins the two owners
    text = RING_A.replace(
        "sa:Switch topo:hasInterface sa:Switch/toC", "sa:Host topo:hasInterface sa:Switch/toC"
    )
    lines = text.splitlines(True)
    text = "".join(l for l in lines if linked or not l.startswith("sa:Link/host"))
    graph = parse_substrate(_closed(parse_document(text)))
    to_b, to_c = (b.iri for b in graph.borders)
    assert [b.owner.local() for b in graph.borders] == ["Switch", "Host"]
    reachable = list(build_delegation(graph).match(p=vocab.INTERNALLY_REACHABLE))
    assert reachable == ([Triple(to_b, vocab.INTERNALLY_REACHABLE, to_c)] if linked else [])


def test_residual_of_reads_the_stated_figures():
    m = _closed(_load("ring-a.ndl"))
    residual = residual_of(m)
    to_b, to_c = Iri("urn:orca:site:a/Switch/toB"), Iri("urn:orca:site:a/Switch/toC")
    assert residual[("bw", to_b)] == 5000
    assert residual[("label", to_b)] == LabelSet(range(100, 151))
    assert residual[("label", to_c)] == LabelSet(range(140, 161))
    graph = parse_substrate(m, residual)
    assert [l.capacity for l in graph.links] == [residual[("bw", l.iri)] for l in graph.links]
    # a figure that is not an integer is left out, so it reads as 0
    m.add(Triple(to_c, vocab.AVAILABLE_UNITS, string("many")))
    assert ("units", to_c) not in residual_of(m)


def test_residual_of_shares_equal_label_sets():
    text = (FIXTURES / "ring-a.ndl").read_text().replace('"140-160"', '"100-150"')
    residual = residual_of(parse_document(text))
    to_b = residual[("label", Iri("urn:orca:site:a/Switch/toB"))]
    assert to_b is residual[("label", Iri("urn:orca:site:a/Switch/toC"))]


@pytest.mark.parametrize("lexical", ["160-140", "14x", *LOOSE_LABEL_SETS])
def test_malformed_label_set_names_its_subject(lexical):
    text = (FIXTURES / "ring-a.ndl").read_text().replace('"140-160"', f'"{lexical}"')
    with pytest.raises(LabelSetError, match="urn:orca:site:a/Switch/toC") as err:
        World().add_substrate(text)
    assert isinstance(err.value, ValueError)
    assert err.value.subject == Iri("urn:orca:site:a/Switch/toC")


def test_delegation_hides_devices(renci_graph):
    delegation = build_delegation(renci_graph)
    subjects = {t.subject for t in delegation}
    assert rnc("Server/A") not in subjects
    assert rnc("Server/B") not in subjects
    assert rnc("Renci/6509") not in subjects
    view = parse_delegation(_closed(delegation))
    assert _pool_units(view, _closed(delegation)) == {rnc("Renci/pool/VM"): ((vocab.VM,), 2)}


def test_delegation_of_empty_substrate_is_domain_only():
    raw = parse_document(
        "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
        "@prefix topo: <http://geni-orca.renci.org/owl/topology.owl#> .\n"
        "<urn:empty/dom> rdf:type topo:NetworkDomain .\n"
    )
    graph = parse_substrate(_closed(raw))
    delegation = build_delegation(graph)
    assert len(delegation) == 1
    assert next(iter(delegation)) == Triple(
        Iri("urn:empty/dom"), RDF_TYPE, vocab.NETWORK_DOMAIN
    )


def test_delegation_is_conformance_clean(renci_graph):
    delegation = build_delegation(renci_graph)
    issues = validate_conformance(merge([builtin_schema(), delegation]))
    assert issues == []


def _pool_units(view, delegation) -> dict:
    """pool node -> (its classes, its units) of a closed delegation."""
    residual = residual_of(delegation)
    pools = {n: pool_classes(delegation, n) for n in delegation.subjects(vocab.IN_DOMAIN, view.domain)}
    return {pool: (classes, residual[("units", pool)]) for pool, classes in pools.items() if classes}


def test_delegation_never_exceeds_substrate():
    import random

    from generators import instance_model, random_layered_instance

    classes = [vocab.VM, vocab.BARE_METAL_CE, vocab.SERVER_CLOUD]
    rng = random.Random(5150)
    several = 0
    for _ in range(40):
        instance = random_layered_instance(rng, max_devices=8, max_links=12)
        for d in instance["devices"].values():
            d["classes"] = rng.sample(classes, rng.randint(1, len(classes)))
            several += d["units"] > 0 and len(d["classes"]) > 1
        graph = parse_substrate(instance_model(instance))
        delegation = _closed(build_delegation(graph))
        view = parse_delegation(delegation)
        hosts = {}  # each host counted once, whatever it provisions
        for p in graph.pools:
            hosts.setdefault(p.node, (set(), p.units))[0].add(p.provides)
        pools = _pool_units(view, delegation)
        assert sum(u for _, u in pools.values()) == sum(u for _, u in hosts.values())
        for cls in classes:
            delegated = sum(u for provided, u in pools.values() if cls in provided)
            assert delegated == sum(u for provided, u in hosts.values() if cls in provided)
        border_iris = {b.iri for b in graph.borders}
        for b in delegation.objects(view.domain, vocab.HAS_INTERFACE):
            assert b in border_iris
    assert several >= 20


# -- requests ------------------------------------------------------------------------


def test_parse_request_pair_fixture():
    raw = _load("request-pair.ndl")
    req = parse_request(_closed(raw), source=raw)
    assert len(req.nodes) == 2
    assert len(req.links) == 1
    assert req.term.duration_seconds == 3600
    assert req.links[0].bandwidth == 1000
    assert not req.links[0].broadcast
    assert all(n.in_domain is None for n in req.nodes)
    assert all(n.compute_class == vocab.COMPUTE_ELEMENT for n in req.nodes)


def test_parse_request_two_reservations_rejected():
    raw = _load("request-pair.ndl")
    raw.add(Triple(Iri("urn:other:res"), RDF_TYPE, vocab.RESERVATION))
    with pytest.raises(RequestError, match="exactly one Reservation"):
        parse_request(_closed(raw))


def test_parse_request_untyped_element_rejected():
    raw = _load("request-pair.ndl")
    res = Iri("urn:orca:request:pair/Reservation/1")
    raw.add(Triple(res, vocab.ELEMENT, Iri("urn:orca:request:pair/Mystery")))
    with pytest.raises(RequestError, match="neither a compute element nor a connection"):
        parse_request(_closed(raw))


def test_parse_request_broadcast_across_three_domains_parses_clean():
    raw = _load("broadcast-good.ndl")
    req = parse_request(_closed(raw), source=raw)
    assert len(req.nodes) == 3
    assert req.links[0].broadcast
    assert {n.in_domain.value for n in req.nodes} == {
        "urn:orca:site:a/Domain",
        "urn:orca:site:b/Domain",
        "urn:orca:site:c/Domain",
    }


def test_parse_request_missing_term_rejected():
    raw = _load("request-pair.ndl")
    res = Iri("urn:orca:request:pair/Reservation/1")
    for t in list(raw.match(s=res, p=vocab.HAS_TERM)):
        raw.remove(t)
    with pytest.raises(RequestError, match="term"):
        parse_request(_closed(raw))


def test_parse_request_term_past_date_range_rejected():
    text = (FIXTURES / "request-pair.ndl").read_text()
    late = text.replace("2026-01-01T00:00:00Z", "9999-12-31T23:00:00Z")
    with pytest.raises(RequestError, match="term"):
        parse_request(_closed(parse_document(late)))


# -- manifests -----------------------------------------------------------------------


def _embedded(substrate_text, slice_id):
    """(request, plan) of the pair request provisioned on one substrate."""
    world = World()
    world.add_substrate(substrate_text)
    assert world.submit_request(slice_id, (FIXTURES / "request-pair.ndl").read_text())
    record = world.controller.slices[slice_id]
    return record.request, record.plan


def _embedded_pair():
    return _embedded((FIXTURES / "renci.ndl").read_text(), "demo1")


def test_build_manifest_contains_request_and_links_back():
    req, plan = _embedded_pair()
    manifest = build_manifest(req, plan)
    for t in req.model:
        assert t in manifest
    vms = [t.subject for t in manifest.match(p=vocab.PROVISIONED_FROM) if vocab.VM in manifest.types(t.subject)]
    assert len(vms) == 2
    hops = manifest.typed(vocab.PATH_HOP)
    assert len(hops) == 1
    assert manifest.value(hops[0], vocab.HOP_DEVICE) == rnc("Renci/6509")
    # every request element has at least one provisioned entity
    provisioned_targets = {t.object for t in manifest.match(p=vocab.PROVISIONED_FROM)}
    for node in req.nodes:
        assert node.iri in provisioned_targets
    for link in req.links:
        assert link.iri in provisioned_targets


def test_build_manifest_deterministic_bytes():
    req1, plan1 = _embedded_pair()
    req2, plan2 = _embedded_pair()
    assert serialize_document(build_manifest(req1, plan1)) == serialize_document(
        build_manifest(req2, plan2)
    )


def test_build_manifest_empty_plan_incomplete():
    from netslice.embed import EmbeddingPlan

    raw = _load("request-pair.ndl")
    req = parse_request(_closed(raw), source=raw)
    with pytest.raises(PlanIncomplete):
        build_manifest(req, EmbeddingPlan("empty"))


def test_manifest_is_homeomorphic_to_request():
    req, plan = _embedded_pair()
    manifest = build_manifest(req, plan)
    assert check_homeomorphic(req, manifest)


def test_homeomorphic_fails_on_rewired_vm():
    req, plan = _embedded_pair()
    manifest = build_manifest(req, plan)
    # relink the second VM to the wrong request node
    base = "urn:orca:slice:demo1"
    vm1 = Iri(f"{base}/vm/1")
    old = manifest.value(vm1, vocab.PROVISIONED_FROM)
    manifest.remove(Triple(vm1, vocab.PROVISIONED_FROM, old))
    manifest.add(Triple(vm1, vocab.PROVISIONED_FROM, req.nodes[0].iri))
    assert not check_homeomorphic(req, manifest)


def test_homeomorphic_isomorphic_case_trivial_path():
    # both VMs land on one host: the provisioned link has no hops at all;
    # the substrate is a single 2-unit host
    text = (
        "@prefix comp: <http://geni-orca.renci.org/owl/compute.owl#> .\n"
        "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
        "@prefix t: <urn:solo/> .\n"
        "@prefix topo: <http://geni-orca.renci.org/owl/topology.owl#> .\n"
        "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
        "t:dom rdf:type topo:NetworkDomain .\n"
        "t:host rdf:type topo:Device .\n"
        "t:host topo:inDomain t:dom .\n"
        "t:host topo:hasInterface t:host/if0 .\n"
        "t:host/if0 rdf:type topo:Interface .\n"
        "t:host comp:provisions comp:VM .\n"
        't:host comp:availableUnits "2"^^xsd:integer .\n'
    )
    req, plan = _embedded(text, "solo1")
    manifest = build_manifest(req, plan)
    assert manifest.typed(vocab.PATH_HOP) == []
    assert check_homeomorphic(req, manifest)
