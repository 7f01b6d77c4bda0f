import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netslice import actors as actors_mod
from netslice import embed, vocab
from netslice.actors import World
from netslice.cli import main
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

from conftest import FIXTURES, HUGE_INTEGER, LOOSE_INTEGERS, LOOSE_LABEL_SETS, provisioned
from oracles import reference_check_homeomorphic, reference_serialize

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
    # no borders, so no pair of them reaches the other; no translator
    assert (renci_graph.borders, renci_graph.reachable, renci_graph.translator) == ((), (), False)
    m = _closed(_load("renci.ndl"))
    links = m.typed(vocab.NETWORK_CONNECTION)
    assert len(links) == 2
    assert all(m.value(l, vocab.AT_LAYER) == vocab.ETHERNET_ELEMENT for l in links)
    residual = renci_graph.residual
    assert all(residual[("bw", l)] == 10000 for l in links)
    assert all(residual[("label", l)] == LabelSet(range(100, 111)) for l in links)
    # the search, not the view, reads a device's switching layer
    topology = m.derived(embed._compile)
    assert topology.layers[rnc("Renci/6509")] == vocab.ETHERNET_ELEMENT
    assert {(p.node, p.provides, residual[("units", p.node)]) for p in renci_graph.pools} == {
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


def _without(text, line):
    assert line in text
    return text.replace(line + "\n", "")


@pytest.mark.parametrize(
    "substrate, problem",
    [
        (
            RING_A + "sa:Link/host rdf:type topo:BroadcastConnection .\n",
            "substrate link urn:orca:site:a/Link/host may not be a broadcast connection",
        ),
        (
            RING_A + "sa:Link/host topo:hasEndpoint sa:Switch/toB .\n",
            "link urn:orca:site:a/Link/host has 3 interfaces, expected 2",
        ),
        (
            _without(RING_A, "sa:Host/if0 topo:linkedTo sa:Switch/if0 ."),
            "link urn:orca:site:a/Link/host endpoints are not linkedTo each other",
        ),
        (
            _without(RING_A, 'sa:Link/host topo:availableBandwidth "10000"^^xsd:integer .'),
            "link urn:orca:site:a/Link/host has no non-negative availableBandwidth",
        ),
        (
            _without(RING_A, "sa:Link/host topo:atLayer eth:EthernetNetworkElement ."),
            "link urn:orca:site:a/Link/host has no atLayer",
        ),
        (
            RING_A + "sa:Host topo:hasInterface sa:Switch/toB .\n",
            "border interface urn:orca:site:a/Switch/toB has 2 owners, expected 1",
        ),
    ],
    ids=["broadcast-link", "three-endpoints", "not-linked", "no-bandwidth", "no-layer", "two-owners"],
)
def test_substrate_refusals_name_their_subject(capsys, tmp_path, substrate, problem):
    world = World()
    with pytest.raises(SubstrateError) as err:
        world.add_substrate(substrate)
    assert err.value.problems == [problem]
    assert world.ams == {}
    path = tmp_path / "substrate.ndl"
    path.write_text(substrate)
    assert main(["delegate", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: {problem}\n")


@pytest.mark.parametrize("lexical", [*LOOSE_INTEGERS, pytest.param(HUGE_INTEGER, id="5000-digits")])
def test_substrate_bandwidth_outside_the_xsd_integer_lexical_space_is_refused(lexical):
    line = 'sa:Link/host topo:availableBandwidth "10000"^^xsd:integer .'
    substrate = RING_A.replace(line, line.replace("10000", lexical))
    with pytest.raises(SubstrateError) as err:
        World().add_substrate(substrate)
    assert err.value.problems == ["link urn:orca:site:a/Link/host has no non-negative availableBandwidth"]
    signed = World().add_substrate(RING_A.replace(line, line.replace("10000", "+10000")))
    assert signed.delegate() == World().add_substrate(RING_A).delegate()


def test_broker_refuses_a_delegation_naming_two_domains():
    world = World()
    delegation = world.add_substrate(RING_A).delegate()
    twin = "<urn:orca:site:twin/Domain> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
    twin += "<http://geni-orca.renci.org/owl/topology.owl#NetworkDomain> .\n"
    before = world.broker.serialized_state()
    with pytest.raises(SubstrateError, match="delegation must describe exactly one domain, got 2"):
        world.broker.register_delegation(delegation + twin)
    assert world.broker.serialized_state() == before


def test_parse_ring_substrates_have_two_borders_each():
    for name in ("ring-a.ndl", "ring-b.ndl", "ring-c.ndl"):
        graph = parse_substrate(_closed(_load(name)))
        assert len(graph.borders) == 2, name
        for b in graph.borders:
            assert b.remote is not None
            assert graph.residual[("bw", b.iri)] == 5000


def test_build_delegation_borders_and_units():
    graph = parse_substrate(_closed(_load("ring-a.ndl")))
    closed = _closed(build_delegation(graph))
    domain = parse_delegation(closed)
    assert domain == Iri("urn:orca:site:a/Domain")
    borders = closed.objects(domain, vocab.HAS_INTERFACE)
    assert [b.value for b in borders] == [
        "urn:orca:site:a/Switch/toB",
        "urn:orca:site:a/Switch/toC",
    ]
    residual = residual_of(closed)
    assert all(residual.get(("bw", b), 0) == 5000 for b in borders)
    assert _pool_units(domain, closed) == {Iri("urn:orca:site:a/Domain/pool/VM"): ((vocab.VM,), 2)}
    # the two borders sit on one switch: internally reachable
    to_b, to_c = borders
    assert (
        Triple(to_b, vocab.INTERNALLY_REACHABLE, to_c) in closed
        or Triple(to_c, vocab.INTERNALLY_REACHABLE, to_b) in closed
    )
    # figures come from the free map handed in, by default the substrate's own
    units = ("units", Iri("urn:orca:site:a/Host"))
    same = build_delegation(graph, graph.residual)
    assert serialize_document(same) == serialize_document(build_delegation(graph))
    free = {**graph.residual, ("bw", to_b): 1200, ("label", to_b): vocab.NO_LABELS, units: 1}
    residual = residual_of(build_delegation(graph, free))
    assert residual[("bw", to_b)] == 1200 and ("label", to_b) not in residual
    assert residual[("units", Iri("urn:orca:site:a/Domain/pool/VM"))] == 1


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
    graph = parse_substrate(m)
    assert graph.residual == residual
    links = m.typed(vocab.NETWORK_CONNECTION)
    assert len(links) > 0
    assert all(("bw", l) in graph.residual for l in links)
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
    domain = parse_delegation(_closed(delegation))
    assert _pool_units(domain, _closed(delegation)) == {rnc("Renci/pool/VM"): ((vocab.VM,), 2)}


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


def _pool_units(domain, delegation) -> dict:
    """pool node -> (its classes, its units) of a closed delegation."""
    residual = residual_of(delegation)
    pools = {n: pool_classes(delegation, n) for n in delegation.subjects(vocab.IN_DOMAIN, domain)}
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
        domain = parse_delegation(delegation)
        hosts = {}  # each host counted once, whatever it provisions
        for p in graph.pools:
            units = graph.residual.get(("units", p.node), 0)
            hosts.setdefault(p.node, (set(), units))[0].add(p.provides)
        pools = _pool_units(domain, delegation)
        assert sum(u for _, u in pools.values()) == sum(u for _, u in hosts.values())
        for cls in classes:
            delegated = sum(u for provided, u in pools.values() if cls in provided)
            assert delegated == sum(u for provided, u in hosts.values() if cls in provided)
        border_iris = {b.iri for b in graph.borders}
        for b in delegation.objects(domain, vocab.HAS_INTERFACE):
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
    assert req.links[0].members == tuple(n.iri for n in req.nodes)


def test_parse_request_two_reservations_rejected():
    raw = _load("request-pair.ndl")
    raw.add(Triple(Iri("urn:other:res"), RDF_TYPE, vocab.RESERVATION))
    with pytest.raises(RequestError, match="exactly one Reservation"):
        parse_request(_closed(raw), source=raw)


def test_parse_request_untyped_element_rejected():
    raw = _load("request-pair.ndl")
    res = Iri("urn:orca:request:pair/Reservation/1")
    raw.add(Triple(res, vocab.ELEMENT, Iri("urn:orca:request:pair/Mystery")))
    with pytest.raises(RequestError, match="neither a compute element nor a connection"):
        parse_request(_closed(raw), source=raw)


def test_parse_request_broadcast_across_three_domains_parses_clean():
    raw = _load("broadcast-good.ndl")
    req = parse_request(_closed(raw), source=raw)
    assert len(req.nodes) == 3
    assert req.links[0].broadcast
    assert req.links[0].members == tuple(n.iri for n in req.nodes)
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
        parse_request(_closed(raw), source=raw)


def test_parse_request_term_past_date_range_rejected():
    text = (FIXTURES / "request-pair.ndl").read_text()
    late = parse_document(text.replace("2026-01-01T00:00:00Z", "9999-12-31T23:00:00Z"))
    with pytest.raises(RequestError, match="term"):
        parse_request(_closed(late), source=late)


# -- manifests -----------------------------------------------------------------------


def _embedded(substrate_text, slice_id):
    """The `build_manifest` arguments that the manifest of the pair request
    provisioned on one substrate was built from."""
    world = World()
    world.add_substrate(substrate_text)
    return provisioned(world, slice_id, (FIXTURES / "request-pair.ndl").read_text())


def _embedded_pair():
    return _embedded((FIXTURES / "renci.ndl").read_text(), "demo1")


def _manifest_model(built) -> Model:
    """The manifest `build_manifest` returns, loaded into a Model to query
    or edit."""
    prefixes, triples = build_manifest(*built)
    m = Model(prefixes)
    m.add_all(triples)
    return m


def test_build_manifest_contains_request_and_links_back():
    built = _embedded_pair()
    req = built[0]
    _, triples = build_manifest(*built)
    assert triples[: len(req.model)] == list(req.model)  # the request first, in order
    assert len(set(triples)) == len(triples)
    manifest = _manifest_model(built)
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
    assert serialize_document(_manifest_model(_embedded_pair())) == serialize_document(
        _manifest_model(_embedded_pair())
    )


def test_manifest_is_homeomorphic_to_request():
    built = _embedded_pair()
    req = built[0]
    _, triples = build_manifest(*built)
    assert check_homeomorphic(req, triples)
    assert check_homeomorphic(req, _manifest_model(built))


def test_homeomorphic_fails_on_rewired_vm():
    built = _embedded_pair()
    req = built[0]
    manifest = _manifest_model(built)
    # relink the second VM to the wrong request node
    base = "urn:orca:slice:demo1"
    vm1 = Iri(f"{base}/vm/1")
    old = manifest.value(vm1, vocab.PROVISIONED_FROM)
    manifest.remove(Triple(vm1, vocab.PROVISIONED_FROM, old))
    manifest.add(Triple(vm1, vocab.PROVISIONED_FROM, req.nodes[0].iri))
    assert not check_homeomorphic(req, manifest)


PAIR = "urn:orca:request:pair/"
DEMO1 = "urn:orca:slice:demo1/"


@pytest.mark.parametrize(
    "subject, predicate, obj",
    [
        # vm/0 is provisioned from two request nodes
        (DEMO1 + "vm/0", vocab.PROVISIONED_FROM, PAIR + "Node/2"),
        # the hop gains a third edge, so smoothing leaves it
        (DEMO1 + "net/0/hop/0", vocab.CONNECTED_TO, DEMO1 + "vm/0"),
        # a second entity provisioned from a request node
        ("urn:extra", vocab.PROVISIONED_FROM, PAIR + "Node/1"),
        # a second image of the request link
        ("urn:extra", vocab.PROVISIONED_FROM, PAIR + "Link/1"),
    ],
    ids=["conflicting-provenance", "hop-left-after-smoothing", "node-twice", "link-twice"],
)
def test_homeomorphic_refuses_an_edited_manifest(subject, predicate, obj):
    built = _embedded_pair()
    req = built[0]
    manifest = _manifest_model(built)
    assert check_homeomorphic(req, manifest)
    manifest.add(Triple(Iri(subject), predicate, Iri(obj)))
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
    built = _embedded(text, "solo1")
    req = built[0]
    manifest = _manifest_model(built)
    assert manifest.typed(vocab.PATH_HOP) == []
    assert check_homeomorphic(req, manifest)


# -- homeomorphism check against the rescanning reference ---------------------------

_PAIR_LINK = Iri(PAIR + "Link/1")
_EDIT_KINDS = ("chain", "twin", "cycle", "spur", "subdivide", "edge", "self-loop", "literal")


def _edit_manifest(manifest, edits):
    """Apply (kind, picks) edits: picks choose vertices, chain lengths and
    new hops' names, which interleave with the provisioned hops' in IRI
    order."""
    verts = sorted(
        {t.subject for t in manifest.match(p=vocab.PROVISIONED_FROM)}, key=lambda v: v.value
    )

    def hop(name):
        h = Iri(f"{DEMO1}net/0/hop/{name}x{len(verts)}")
        manifest.add(Triple(h, RDF_TYPE, vocab.PATH_HOP))
        manifest.add(Triple(h, vocab.PROVISIONED_FROM, _PAIR_LINK))
        verts.append(h)
        return h

    def chain(a, b, length, name):
        for h in [hop(name) for _ in range(length)] + [b]:
            manifest.add(Triple(a, vocab.CONNECTED_TO, h))
            a = h

    for kind, picks in edits:
        first, pick = picks[0], lambda i: verts[picks[i % len(picks)] % len(verts)]
        if kind in ("chain", "twin"):
            for _ in range(1 + (kind == "twin")):
                chain(pick(1), pick(2), 1 + first % 3, first)
        elif kind == "cycle":
            start = hop(first)
            chain(start, start, 1 + first % 4, first)
        elif kind == "spur":
            h = hop(first)
            for i in range(1 if first % 2 else 3):
                manifest.add(Triple(h, vocab.CONNECTED_TO, pick(i + 1)))
        elif kind == "subdivide":
            edges = [t for t in manifest.match(p=vocab.CONNECTED_TO) if t.object in verts]
            t = edges[first % len(edges)]
            manifest.remove(t)
            chain(t.subject, t.object, 1 + first % 2, first)
        elif kind == "edge":
            manifest.add(Triple(pick(1), vocab.CONNECTED_TO, pick(2)))
        elif kind == "self-loop":
            manifest.add(Triple(pick(1), vocab.CONNECTED_TO, pick(1)))
        else:
            manifest.add(Triple(pick(1), vocab.CONNECTED_TO, string(f"v{first}")))
    return manifest


@pytest.mark.parametrize(
    "edits, verdict",
    [
        ([("twin", [0, 1, 3])], True),  # two hop chains beside hop/0 - vm/1 smooth onto it
        ([("subdivide", [2]), ("subdivide", [5])], True),
        ([("self-loop", [0, 2])], True),
        ([("literal", [0, 2])], True),
        ([("cycle", [2])], False),  # four hops in a ring smooth to two joined by one edge
        ([("spur", [1, 2])], False),  # a hop with one neighbour
        ([("spur", [2, 0, 2, 3])], False),  # a hop with three neighbours
        ([("chain", [1, 2, 3])], False),  # vm/0 - vm/1 is no request edge
    ],
    ids=["two-chains-one-edge", "subdivided", "self-loop", "literal", "cycle", "spur-1", "spur-3",
         "chain"],
)
def test_homeomorphic_verdict_on_edited_manifests(edits, verdict):
    built = _embedded_pair()
    req = built[0]
    manifest = _edit_manifest(_manifest_model(built), edits)
    assert check_homeomorphic(req, manifest) is reference_check_homeomorphic(req, manifest) is verdict


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(_EDIT_KINDS), st.lists(st.integers(0, 40), min_size=1, max_size=4)),
        max_size=6,
    )
)
def test_homeomorphic_matches_the_rescanning_reference(edits):
    built = _embedded_pair()
    req = built[0]
    manifest = _edit_manifest(_manifest_model(built), edits)
    assert check_homeomorphic(req, manifest) == reference_check_homeomorphic(req, manifest)


@pytest.mark.parametrize("name", ["churn-vlan", "wide-ring"])
def test_homeomorphic_matches_the_reference_on_every_workload_manifest(monkeypatch, tmp_path, name):
    monkeypatch.syspath_prepend(str(FIXTURES.parent))
    from perfbench.workloads import WORKLOADS, Recorder

    checked = []

    def recorded(req, triples):
        verdict = check_homeomorphic(req, triples)
        manifest = Model()
        manifest.add_all(triples)
        assert verdict is reference_check_homeomorphic(req, manifest) is True
        checked.append(len(manifest.typed(vocab.PATH_HOP)))
        return verdict

    monkeypatch.setattr(actors_mod, "check_homeomorphic", recorded)
    workload = WORKLOADS[name](1, tmp_path)
    workload.round(workload.setup(), Recorder(), checks=False)
    assert len(checked) == workload.admitted and max(checked) >= 4


@pytest.mark.parametrize("name", ["churn-vlan", "wide-ring"])
def test_serializer_matches_the_reference_on_every_workload_document(monkeypatch, tmp_path, name):
    """Every manifest, delegation and ledger snapshot the actors write in a
    round serializes as the reference does."""
    monkeypatch.syspath_prepend(str(FIXTURES.parent))
    from perfbench.workloads import WORKLOADS, Recorder

    manifests = []

    def recorded(triples, prefixes=None):
        text = serialize_document(triples, prefixes)
        model = triples
        if prefixes is not None:  # a manifest: a prefix map and distinct triples
            model = Model(prefixes)
            model.add_all(triples)
            assert len(model) == len(triples)
            manifests.append(text)
        assert text == reference_serialize(model)
        return text

    monkeypatch.setattr(actors_mod, "serialize_document", recorded)
    workload = WORKLOADS[name](1, tmp_path)
    workload.round(workload.setup(), Recorder(), checks=False)
    assert len(manifests) == workload.admitted
