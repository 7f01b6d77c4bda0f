import itertools
import random

import pytest

from netslice import embed, vocab
from netslice.actors import Broker, World
from netslice.embed import (
    DomainState,
    DoubleRelease,
    InsufficientResources,
    OverAllocation,
    PathRequest,
    bind_domains,
    prepare_domain,
    shortest_valid_path,
)
from netslice.graphstore import (
    Iri,
    Model,
    RDF_TYPE,
    Triple,
    integer,
    parse_document,
    serialize_document,
    string,
)
from netslice.models import (
    RequestNode,
    build_delegation,
    parse_request,
    residual_of,
)
from netslice.pathquery import HopWitness
from netslice.vocab import ETHERNET_ELEMENT, NO_LABELS, LabelSet, render_label_set

from conftest import FIXTURES, count_calls, provisioned
from generators import (
    federation_world,
    instance_device_iri,
    instance_model,
    random_layered_instance,
)
from oracles import (
    ReferenceResidualState,
    best_first_simple_paths,
    binding_fits,
    oracle_best_hop_count,
    reference_binding,
    reference_compile,
    sub_graph,
)

RNC = "http://geni-orca.renci.org/sites/renci/"


def rnc(name):
    return Iri(RNC + name)


@pytest.fixture
def renci_state():
    raw = parse_document((FIXTURES / "renci.ndl").read_text())
    return prepare_domain(raw)


def test_fig_path_two_hops_via_switch(renci_state):
    preq = PathRequest(rnc("Server/A"), rnc("Server/B"), ETHERNET_ELEMENT, 1000)
    result = shortest_valid_path(renci_state.model, preq)
    assert result is not None
    assert [h.element for h in result.hops] == [
        rnc("Server/A"),
        rnc("Renci/6509"),
        rnc("Server/B"),
    ]
    assert result.hop_count() == 2
    assert result.allocated_label == 100  # lowest common label in 100-110
    assert result.internal_elements[0] == rnc("Server/A")
    assert result.internal_elements[-1] == rnc("Server/B")
    assert rnc("Server/A/f1/ethernet") in result.internal_elements
    assert rnc("10GB/1/0/ethernet") in result.internal_elements


def test_no_path_from_isolated_node(renci_state):
    m = renci_state.model.copy()
    lone = rnc("Lonely")
    m.add(Triple(lone, RDF_TYPE, vocab.DEVICE))
    preq = PathRequest(lone, rnc("Server/B"), ETHERNET_ELEMENT, 0)
    assert shortest_valid_path(m, preq) is None


def test_required_label_is_honored(renci_state):
    preq = PathRequest(
        rnc("Server/A"), rnc("Server/B"), ETHERNET_ELEMENT, 100, required_label=105
    )
    result = shortest_valid_path(renci_state.model, preq)
    assert result is not None
    assert result.allocated_label == 105
    missing = PathRequest(
        rnc("Server/A"), rnc("Server/B"), ETHERNET_ELEMENT, 100, required_label=4000
    )
    assert shortest_valid_path(renci_state.model, missing) is None


@pytest.mark.parametrize(
    "dest, bandwidth, label, message",
    [
        ("Server/A", 0, None, "path source and destination must differ"),
        ("Server/B", -1, None, "bandwidth must be non-negative"),
        ("Server/B", 0, -1, "required label must be non-negative"),
    ],
)
def test_path_request_refuses_malformed_fields(dest, bandwidth, label, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        PathRequest(rnc("Server/A"), rnc(dest), ETHERNET_ELEMENT, bandwidth, required_label=label)


def test_path_request_takes_zero_bandwidth_and_label():
    preq = PathRequest(rnc("Server/A"), rnc("Server/B"), ETHERNET_ELEMENT, 0, required_label=0)
    assert (preq.bandwidth, preq.required_label) == (0, 0)
    assert preq == PathRequest(rnc("Server/A"), rnc("Server/B"), ETHERNET_ELEMENT, 0, 0)


def _mini_substrate(links):
    """Tiny single-domain substrate text from (name, a, b, capacity, pool)."""
    lines = [
        "@prefix comp: <http://geni-orca.renci.org/owl/compute.owl#> .",
        "@prefix eth: <http://geni-orca.renci.org/owl/ethernet.owl#> .",
        "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .",
        "@prefix t: <urn:mini/> .",
        "@prefix topo: <http://geni-orca.renci.org/owl/topology.owl#> .",
        "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .",
        "t:dom rdf:type topo:NetworkDomain .",
    ]
    devices = sorted({a for _, a, _, _, _ in links} | {b for _, _, b, _, _ in links})
    for d in devices:
        lines += [
            f"t:{d} rdf:type topo:Device .",
            f"t:{d} topo:inDomain t:dom .",
            f"t:{d} topo:atLayer eth:EthernetNetworkElement .",
        ]
    for name, a, b, cap, pool in links:
        lines += [
            f"t:{a}/{name} rdf:type topo:Interface .",
            f"t:{b}/{name} rdf:type topo:Interface .",
            f"t:{a} topo:hasInterface t:{a}/{name} .",
            f"t:{b} topo:hasInterface t:{b}/{name} .",
            f"t:{a}/{name} topo:linkedTo t:{b}/{name} .",
            f"t:{name} rdf:type topo:NetworkConnection .",
            f"t:{name} topo:hasEndpoint t:{a}/{name} .",
            f"t:{name} topo:hasEndpoint t:{b}/{name} .",
            f"t:{name} topo:atLayer eth:EthernetNetworkElement .",
            f't:{name} topo:availableBandwidth "{cap}"^^xsd:integer .',
        ]
        if pool:
            lines.append(f't:{name} topo:availableLabelSet "{render_label_set(pool)}" .')
    return "\n".join(lines) + "\n"


def test_invalid_shortest_candidate_falls_through_to_longer_path():
    # direct a-b link has no labels; detour a-c-b shares label 5
    text = _mini_substrate(
        [
            ("l0", "a", "b", 1000, set()),
            ("l1", "a", "c", 1000, {5}),
            ("l2", "c", "b", 1000, {5}),
        ]
    )
    state = prepare_domain(parse_document(text))
    preq = PathRequest(Iri("urn:mini/a"), Iri("urn:mini/b"), ETHERNET_ELEMENT, 10)
    result = shortest_valid_path(state.model, preq)
    assert result is not None
    assert [h.element.value for h in result.hops] == ["urn:mini/a", "urn:mini/c", "urn:mini/b"]
    assert result.allocated_label == 5


def test_attempt_limit_returns_none():
    text = _mini_substrate(
        [
            ("l0", "a", "b", 1000, set()),
            ("l1", "a", "c", 1000, {5}),
            ("l2", "c", "b", 1000, {5}),
        ]
    )
    state = prepare_domain(parse_document(text))
    preq = PathRequest(Iri("urn:mini/a"), Iri("urn:mini/b"), ETHERNET_ELEMENT, 10)
    assert shortest_valid_path(state.model, preq, limit=1) is None


@pytest.mark.parametrize("limit", [0, -3])
def test_limit_below_one_is_rejected(renci_state, limit):
    preq = PathRequest(rnc("Server/A"), rnc("Server/B"), ETHERNET_ELEMENT, 1000)
    with pytest.raises(ValueError, match="limit must be at least 1"):
        shortest_valid_path(renci_state.model, preq, limit=limit)


def _oracle_revalidates(instance, result, source, bandwidth, required):
    """The oracle's own feasibility predicate, applied to the exact path the
    engine returned."""
    from oracles import feasible_simple_paths

    dest = result.hops[-1].element.value.rsplit("/", 1)[1]
    feasible = feasible_simple_paths(
        instance, source, dest, bandwidth, required, ETHERNET_ELEMENT
    )
    names = tuple(
        seg.carriers[0].value.rsplit("/", 1)[1] for seg in result.segments
    )
    return any(path_names == names for _, path_names in feasible)


def _witness_chain(result) -> list:
    """The HopWitness chain a path walks, rebuilt from its hops."""
    return [
        HopWitness(a.element, b.element, (a.egress, b.ingress))
        for a, b in zip(result.hops, result.hops[1:])
    ]


def test_pathfinding_matches_exhaustive_oracle():
    rng = random.Random(31337)
    misses = 0
    for round_no in range(200):
        instance = random_layered_instance(rng)
        m = instance_model(instance)
        names = sorted(instance["devices"])
        source, dest = rng.sample(names, 2)
        bandwidth = rng.choice([0, 100, 500, 1000])
        required = rng.choice([None, None, None, 5, 10])
        preq = PathRequest(
            instance_device_iri(source),
            instance_device_iri(dest),
            ETHERNET_ELEMENT,
            bandwidth,
            required_label=required,
        )
        got = shortest_valid_path(m, preq, limit=10)
        best = oracle_best_hop_count(
            instance, source, dest, bandwidth, required, ETHERNET_ELEMENT
        )
        if got is None and best is not None:
            # only acceptable when caused by the attempt limit
            unlimited = shortest_valid_path(m, preq, limit=10**6)
            assert unlimited is not None and unlimited.hop_count() == best, (
                f"round {round_no}: engine missed a feasible path"
            )
            misses += 1
            continue
        if got is not None:
            assert best is not None, f"round {round_no}: engine invented a path"
            assert got.hop_count() == best, f"round {round_no}: suboptimal hop count"
            assert _oracle_revalidates(instance, got, source, bandwidth, required), (
                f"round {round_no}: returned path fails independent re-validation"
            )
            assert list(got.internal_elements) == sub_graph(_witness_chain(got)), (
                f"round {round_no}: internal elements differ from the reference"
            )
    assert misses <= 4  # limit-induced misses stay rare


def _first_candidates(m, source, dest, n=100):
    chains = embed._candidate_paths(m.derived(embed._compile), source, dest)
    got = [
        tuple((step.neighbor, step.via) for step in chain) for chain in itertools.islice(chains, n)
    ]
    want = [
        tuple((w.neighbor, w.via) for w in chain)
        for chain in itertools.islice(best_first_simple_paths(m, source, dest), n)
    ]
    return got, want


def test_candidate_order_matches_best_first_reference_on_random_instances():
    rng = random.Random(0xA57A)
    with_parallel_links = 0
    for round_no in range(300):
        instance = random_layered_instance(rng, max_devices=12, max_links=20)
        ends = [frozenset(link["ends"]) for link in instance["links"]]
        with_parallel_links += len(set(ends)) < len(ends)
        source, dest = rng.sample(sorted(instance["devices"]), 2)
        got, want = _first_candidates(
            instance_model(instance), instance_device_iri(source), instance_device_iri(dest)
        )
        assert got == want, f"round {round_no}: candidate order differs"
    assert with_parallel_links >= 100


def _domain(site):
    return Iri(f"urn:fed:{site}/dom")


def test_candidate_order_matches_best_first_reference_on_a_federation():
    world, sites = federation_world(12, 1, 1)
    view = world.broker.routing_view()
    compared = 0
    for a, b in itertools.permutations(sites, 2):
        got, want = _first_candidates(view, _domain(a), _domain(b))
        assert got == want, f"{a} -> {b}: candidate order differs"
        compared += len(got)
    assert compared > 132 * 10


@pytest.fixture(scope="module")
def wide_ring():
    world, sites = federation_world(64, 1, 1)
    return world.broker.routing_view(), [_domain(site) for site in sites]


def test_long_route_expands_each_domain_at_most_once(wide_ring, monkeypatch):
    view, domains = wide_ring
    m = view.copy()
    calls = count_calls(monkeypatch, embed._compile)
    preq = PathRequest(domains[0], domains[16], ETHERNET_ELEMENT, 100)
    route = shortest_valid_path(m, preq)
    assert route is not None and route.hop_count() >= 16
    assert calls == [(m,)]  # one compile, which lists each domain's steps once
    assert set(m.derived(embed._compile).steps) == set(domains)
    calls.clear()
    assert shortest_valid_path(m, preq) == route
    assert calls == []  # the same model state is compiled once


def test_unreachable_destination_expands_each_domain_at_most_once(wide_ring, monkeypatch):
    view, domains = wide_ring
    island = Iri("urn:fed:island/dom")
    m = view.copy()
    m.add(Triple(island, RDF_TYPE, vocab.NETWORK_DOMAIN))
    calls = count_calls(monkeypatch, embed._compile)
    preq = PathRequest(domains[0], island, ETHERNET_ELEMENT, 100)
    assert shortest_valid_path(m, preq) is None
    assert calls == [(m,)]
    calls.clear()
    assert shortest_valid_path(m, preq) is None
    assert calls == []


def _assert_same_topology(got, want):
    """Equal, with every node's steps and predecessors in the same order."""
    assert got == want
    assert list(got.steps) == list(want.steps) and list(got.preds) == list(want.preds)
    assert list(got.layers) == list(want.layers)


def _add_twins_and_loops(m, rng):
    """Edit a closed instance model: some links get a twin over the same two
    interfaces, at another layer and named to sort before or after them, or
    an untyped one; some devices an interface linked to their own."""
    eth, ip = ETHERNET_ELEMENT, vocab.IP_ELEMENT
    for link in [t.subject for t in m.match(p=RDF_TYPE, o=vocab.NETWORK_CONNECTION)]:
        if rng.random() < 0.4:
            twin = Iri(f"urn:gen/{rng.choice('az')}{link.local()}")
            ends = m.objects(link, vocab.HAS_ENDPOINT)
            m.add_all([Triple(twin, vocab.HAS_ENDPOINT, end) for end in ends])
            if rng.random() < 0.8:
                m.add(Triple(twin, RDF_TYPE, vocab.NETWORK_CONNECTION))
                m.add(Triple(twin, vocab.AT_LAYER, rng.choice([eth, ip])))
    for dev in [t.subject for t in m.match(p=vocab.HAS_INTERFACE)]:
        if rng.random() < 0.2:
            loop = Iri(dev.value + "/loop")
            m.add(Triple(m.objects(dev, vocab.HAS_INTERFACE)[0], vocab.LINKED_TO, loop))
            m.add(Triple(loop, vocab.INTERFACE_OF, dev))
    return m


def test_compile_matches_the_adjacent_reference_on_random_instances():
    rng = random.Random(0xC0DE)
    for _ in range(300):
        m = instance_model(random_layered_instance(rng, max_devices=12, max_links=20))
        _assert_same_topology(embed._compile(m), reference_compile(m))
        m = _add_twins_and_loops(m, rng)
        _assert_same_topology(embed._compile(m), reference_compile(m))


@pytest.mark.parametrize("name", ["churn-vlan", "wide-ring"])
def test_compile_matches_the_adjacent_reference_on_the_workload_federations(
    monkeypatch, tmp_path, name
):
    monkeypatch.syspath_prepend(str(FIXTURES.parent))
    from perfbench.workloads import WORKLOADS

    world = WORKLOADS[name](1, tmp_path).setup()
    models = [world.broker.routing_view(), *(am.state.model for am in world.ams.values())]
    for m in models:
        _assert_same_topology(embed._compile(m), reference_compile(m))
    assert sum(len(embed._compile(m).steps) for m in models) > 100


def _crossing(a: Iri, b: Iri, name: str) -> list:
    """Triples of one more border crossing between domains a and b, as a
    closed routing view states it."""
    ia, ib = Iri(f"{a.value}/{name}"), Iri(f"{b.value}/{name}")
    triples = [
        Triple(ia, vocab.LINKED_TO, ib),
        Triple(ib, vocab.LINKED_TO, ia),
    ]
    for domain, iface in ((a, ia), (b, ib)):
        triples += [
            Triple(domain, vocab.HAS_INTERFACE, iface),
            Triple(iface, vocab.INTERFACE_OF, domain),
            Triple(iface, vocab.AT_LAYER, ETHERNET_ELEMENT),
            Triple(iface, vocab.AVAILABLE_BANDWIDTH, integer(5000)),
            Triple(iface, vocab.AVAILABLE_LABEL_SET, string("100-110")),
        ]
    return triples


def test_compiled_topology_is_dropped_when_the_model_changes(wide_ring):
    view, domains = wide_ring
    m = view.copy()
    preq = PathRequest(domains[0], domains[16], ETHERNET_ELEMENT, 100)
    assert shortest_valid_path(m, preq).hop_count() >= 16
    shortcut = _crossing(domains[0], domains[16], "shortcut")
    branched = m.copy()
    for t in shortcut:
        m.add(t)
    assert shortest_valid_path(m, preq).hop_count() == 1
    # a copy taken before the shortcut keeps the long route and compiles its own
    assert shortest_valid_path(branched, preq).hop_count() >= 16
    assert branched.derived(embed._compile) is not m.derived(embed._compile)
    m.remove(shortcut[0])
    assert shortest_valid_path(m, preq).hop_count() >= 16
# -- domain binding ------------------------------------------------------------------


def _broker_for(*texts):
    broker = Broker()
    for text in texts:
        state = prepare_domain(parse_document(text))
        broker.register_delegation(serialize_document(build_delegation(state.substrate)))
    return broker


def _bind(req, broker):
    return bind_domains(req, broker.routing_view(), dict(broker.free))


def _two_domains(units_a=1, units_b=1, cls="VM"):
    out = []
    for site, units in (("a", units_a), ("b", units_b)):
        out.append(
            "\n".join(
                [
                    "@prefix comp: <http://geni-orca.renci.org/owl/compute.owl#> .",
                    "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .",
                    f"@prefix s: <urn:bind:{site}/> .",
                    "@prefix topo: <http://geni-orca.renci.org/owl/topology.owl#> .",
                    "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .",
                    "s:dom rdf:type topo:NetworkDomain .",
                    "s:host rdf:type topo:Device .",
                    "s:host topo:inDomain s:dom .",
                    "s:host topo:hasInterface s:host/if0 .",
                    "s:host/if0 rdf:type topo:Interface .",
                    f"s:host comp:provisions comp:{cls} .",
                    f's:host comp:availableUnits "{units}"^^xsd:integer .',
                ]
            )
            + "\n"
        )
    return out


def _pair_request():
    raw = parse_document((FIXTURES / "request-pair.ndl").read_text())
    closed = vocab.close(raw)
    return parse_request(closed, source=raw)


def test_bind_domains_first_fit_spreads_after_exhaustion():
    broker = _broker_for(*_two_domains(1, 1))
    req = _pair_request()
    binding = _bind(req, broker)
    assert binding[req.nodes[0].iri] == (Iri("urn:bind:a/dom"), Iri("urn:bind:a/dom/pool/VM"))
    assert binding[req.nodes[1].iri] == (Iri("urn:bind:b/dom"), Iri("urn:bind:b/dom/pool/VM"))
    assert _domains(binding) == reference_binding(broker, req)


def test_bind_domains_bound_node_without_units_fails():
    broker = _broker_for(*_two_domains(0, 2))
    req = _pair_request()
    # bind the first node to the empty domain
    bound = req.nodes[0]._replace(in_domain=Iri("urn:bind:a/dom"))
    req = req._replace(nodes=(bound, *req.nodes[1:]))
    with pytest.raises(InsufficientResources):
        _bind(req, broker)
    assert reference_binding(broker, req) is None


def test_bind_domains_no_cross_class_substitution():
    broker = _broker_for(*_two_domains(2, 2, cls="VM"))
    req = _pair_request()
    req = req._replace(
        nodes=tuple(node._replace(compute_class=vocab.BARE_METAL_CE) for node in req.nodes)
    )
    with pytest.raises(InsufficientResources):
        _bind(req, broker)
    assert reference_binding(broker, req) is None


def _domains(binding):
    return {node: domain for node, (domain, _) in binding.items()}


MINI_VM = "<urn:provider:classes/MiniVM>"  # a provider's subclass of comp:VM


def _pool_domain(site, hosts):
    """A domain of hosts and no links; hosts: (provisioned classes, units) each."""
    lines = [
        "@prefix comp: <http://geni-orca.renci.org/owl/compute.owl#> .",
        "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .",
        "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .",
        f"@prefix s: <urn:bind:{site}/> .",
        "@prefix topo: <http://geni-orca.renci.org/owl/topology.owl#> .",
        "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .",
        f"{MINI_VM} rdf:type <http://www.w3.org/2002/07/owl#Class> .",
        f"{MINI_VM} rdfs:subClassOf comp:VM .",
        "s:dom rdf:type topo:NetworkDomain .",
    ]
    for i, (classes, units) in enumerate(hosts):
        lines += [
            f"s:host{i} rdf:type topo:Device .",
            f"s:host{i} topo:inDomain s:dom .",
            f"s:host{i} topo:hasInterface s:host{i}/if0 .",
            f"s:host{i}/if0 rdf:type topo:Interface .",
            f's:host{i} comp:availableUnits "{units}"^^xsd:integer .',
        ]
        lines += [f"s:host{i} comp:provisions {cls} ." for cls in classes]
    return "\n".join(lines) + "\n"


def _nodes_request(nodes):
    """The pair request with its nodes replaced: (compute class, domain or None) each."""
    return _pair_request()._replace(
        nodes=[
            RequestNode(Iri(f"urn:bind:node/{i}"), cls, (), domain)
            for i, (cls, domain) in enumerate(nodes)
        ],
    )


def test_bind_domains_draws_single_class_pools_first():
    # the VM node leaves the shared pool to the bare-metal node
    broker = _broker_for(_pool_domain("a", [(["comp:VM", "comp:BareMetalCE"], 1), (["comp:VM"], 1)]))
    req = _nodes_request([(vocab.VM, None), (vocab.BARE_METAL_CE, None)])
    binding = _bind(req, broker)
    assert [pool.local() for _, pool in binding.values()] == ["VM", "BareMetalCE+VM"]


def test_bind_domains_moves_an_earlier_node_to_make_room():
    # the VM node first takes the BareMetalCE+VM pool; the bare-metal node
    # can use no other, so the VM node moves to the VM+MiniVM pool
    broker = _broker_for(
        _pool_domain("a", [(["comp:VM", "comp:BareMetalCE"], 1), (["comp:VM", MINI_VM], 1)])
    )
    req = _nodes_request([(vocab.VM, None), (vocab.BARE_METAL_CE, None)])
    free = dict(broker.free)
    binding = bind_domains(req, broker.routing_view(), free)
    assert [pool.local() for _, pool in binding.values()] == ["VM+MiniVM", "BareMetalCE+VM"]
    assert all(free[k] == 0 for k in free if k[0] == "units")
    assert binding_fits(broker, req, binding)


def test_bind_domains_matches_exhaustive_search_on_random_pools():
    rng = random.Random(0xB1D)
    classes = ["comp:VM", "comp:BareMetalCE", MINI_VM]
    requested = [vocab.VM, vocab.BARE_METAL_CE, Iri(MINI_VM[1:-1]), vocab.COMPUTE_ELEMENT]
    sites = ["a", "b", "c"]
    bound = refused = 0
    for _ in range(150):
        broker = _broker_for(
            *(
                _pool_domain(site, [
                    (rng.sample(classes, rng.randint(1, 3)), rng.randint(0, 2))
                    for _ in range(rng.randint(1, 3))
                ])
                for site in sites[: rng.randint(1, 3)]
            )
        )
        domains = [Iri(f"urn:bind:{site}/dom") for site in sites]
        req = _nodes_request([
            (rng.choice(requested), rng.choice([None, None, *domains]))
            for _ in range(rng.randint(1, 5))
        ])
        expected = reference_binding(broker, req)
        try:
            binding = _bind(req, broker)
        except InsufficientResources:
            binding = None
        assert (binding and _domains(binding)) == expected
        assert binding is None or binding_fits(broker, req, binding)
        bound += binding is not None
        refused += binding is None
    assert bound >= 40 and refused >= 40


# -- allocation ---------------------------------------------------------------------


def _world(*fixtures):
    world = World()
    for name in fixtures:
        world.add_substrate((FIXTURES / name).read_text())
    return world


PAIR_REQUEST = (FIXTURES / "request-pair.ndl").read_text()


def test_allocate_release_restores_bytes():
    world = _world("renci.ndl")
    before = world.serialized_states()
    assert world.submit_request("s1", PAIR_REQUEST) is not None
    assert world.conservation_problems() == []
    assert world.serialized_states()["am-1"] != before["am-1"]
    world.delete_slice("s1")
    assert world.serialized_states() == before
    assert world.conservation_problems() == []


def test_release_twice_is_double_release():
    world = _world("renci.ndl")
    assert world.submit_request("s1", PAIR_REQUEST) is not None
    state = world.ams[Iri("http://geni-orca.renci.org/sites/renci/Renci")].state
    state.release_token("slice:s1")
    with pytest.raises(DoubleRelease):
        state.release_token("slice:s1")


def test_released_plan_can_be_reallocated():
    world = _world("renci.ndl")
    before = world.serialized_states()
    assert world.submit_request("s1", PAIR_REQUEST) is not None
    allocated = world.serialized_states()
    world.delete_slice("s1")
    assert world.submit_request("s2", PAIR_REQUEST) is not None
    assert world.serialized_states() == allocated
    assert world.conservation_problems() == []
    world.delete_slice("s2")
    assert world.serialized_states() == before


def test_over_allocation_on_shared_link():
    text = _mini_substrate([("l0", "a", "b", 1000, {5, 6})])
    state = prepare_domain(parse_document(text))
    link = Iri("urn:mini/l0")
    state.apply_ops("p1", [("bw", link, 600)])
    with pytest.raises(OverAllocation):
        state.apply_ops("p2", [("bw", link, 600)])
    assert not state.has_token("p2")
    assert state.conservation_problems() == []
    state.release_token("p1")
    assert state.conservation_problems() == []


def test_conservation_reports_broken_records():
    # a figure out of use is skipped only while free holds the document's
    # own object; every other departure from free + used == original shows
    text = _mini_substrate([("l0", "a", "b", 1000, {5, 6}), ("l1", "a", "b", 1000, {7})])
    link, other = Iri("urn:mini/l0"), Iri("urn:mini/l1")
    corruptions = [
        lambda s: s.free.__setitem__(("bw", link), 999),
        lambda s: s.free.__setitem__(("label", link), LabelSet({5, 9})),
        lambda s: s.free.pop(("bw", other)),
        # a journal that holds a label `free` never paid
        lambda s: s.active.__setitem__("forged", [("label", link, 6)]),
        # a live token's journal that lost an op `free` paid
        lambda s: (s.apply_ops("t", [("bw", other, 10), ("label", other, 7)]), s.active["t"].pop(0)),
    ]
    for corrupt in corruptions:
        state = prepare_domain(parse_document(text))
        assert state.conservation_problems() == []
        corrupt(state)
        assert state.conservation_problems() != []
    # a ledger's figures are not checked by parse_substrate
    ledger = parse_document(_mini_substrate([("l0", "a", "b", -1, {5})]))
    negative = DomainState(None, ledger, residual_of(ledger))
    assert negative.conservation_problems() != []


def test_failed_op_list_rolls_back_partial_work():
    text = _mini_substrate([("l0", "a", "b", 1000, {5, 6})])
    state = prepare_domain(parse_document(text))
    link = Iri("urn:mini/l0")
    state.apply_ops("p0", [("bw", link, 100), ("label", link, 6)])
    before = serialize_document(state.snapshot())
    with pytest.raises(OverAllocation):
        state.apply_ops("p1", [("bw", link, 600), ("label", link, 5), ("label", link, 99)])
    assert serialize_document(state.snapshot()) == before
    assert not state.has_token("p1")
    state.release_token("p0")
    assert serialize_document(state.snapshot()) == serialize_document(state.model)


def test_projection_writes_the_literal_forms_of_allocation():
    state = prepare_domain(parse_document(_mini_substrate([("l0", "a", "b", 1000, {5})])))
    link = Iri("urn:mini/l0")
    state.apply_ops("p", [("bw", link, 1000), ("label", link, 5)])
    lines = serialize_document(state.snapshot()).splitlines()
    residual = [l for l in lines if l.startswith("t:l0 ") and ("available" in l or "inUse" in l)]
    # an exhausted label set is dropped; a zero bandwidth is kept
    assert residual == [
        't:l0 topo:availableBandwidth "0"^^xsd:integer .',
        't:l0 topo:inUseBandwidth "1000"^^xsd:integer .',
        't:l0 topo:inUseLabelSet "5" .',
    ]


def test_random_plans_keep_conservation():
    # independent bookkeeping: plain dicts track what should be free,
    # updated only from the ops we know we issued
    rng = random.Random(77)
    capacities = {"l0": 1000, "l1": 800, "l2": 500}
    pools = {"l0": set(range(5, 15)), "l1": set(range(5, 12)), "l2": set(range(7, 9))}
    text = _mini_substrate(
        [(name, *ends, capacities[name], pools[name]) for name, ends in
         [("l0", ("a", "b")), ("l1", ("b", "c")), ("l2", ("a", "c"))]]
    )
    baseline = serialize_document(prepare_domain(parse_document(text)).model)
    state = prepare_domain(parse_document(text))
    expected_bw = dict(capacities)
    expected_pool = {k: set(v) for k, v in pools.items()}
    active = {}
    for step in range(300):
        if active and rng.random() < 0.45:
            token = rng.choice(sorted(active))
            state.release_token(token)
            for kind, name, arg in active.pop(token):
                if kind == "bw":
                    expected_bw[name] += arg
                else:
                    expected_pool[name].add(arg)
        else:
            token = f"t{step}"
            name = f"l{rng.randrange(3)}"
            link = Iri(f"urn:mini/{name}")
            bw = rng.choice([50, 100, 200])
            ops = [("bw", link, bw)]
            recorded = [("bw", name, bw)]
            if rng.random() < 0.5:
                label = rng.randrange(5, 15)
                ops.append(("label", link, label))
                recorded.append(("label", name, label))
            fits = expected_bw[name] >= bw and all(
                arg in expected_pool[name] for kind, _, arg in recorded if kind == "label"
            )
            try:
                state.apply_ops(token, ops)
                assert fits, f"step {step}: engine accepted what bookkeeping rejects"
                active[token] = recorded
                for kind, _, arg in recorded:
                    if kind == "bw":
                        expected_bw[name] -= arg
                    else:
                        expected_pool[name].discard(arg)
            except OverAllocation:
                assert not fits, f"step {step}: engine rejected what bookkeeping allows"
        # the engine's residual, read back through its serialized
        # projection, must match the oracle's books exactly
        projected = residual_of(parse_document(serialize_document(state.snapshot())))
        for name in capacities:
            link = Iri(f"urn:mini/{name}")
            assert projected[("bw", link)] == expected_bw[name]
            assert set(projected.get(("label", link), NO_LABELS)) == expected_pool[name]
        assert state.conservation_problems() == []
    for token in sorted(active):
        state.release_token(token)
    assert serialize_document(state.snapshot()) == baseline


@pytest.mark.parametrize("fixture", ["renci.ndl", "ring-a.ndl"])
def test_projection_after_random_ops_and_release_is_the_document(fixture):
    text = (FIXTURES / fixture).read_text()
    document = serialize_document(prepare_domain(parse_document(text)).model)
    state = prepare_domain(parse_document(text))
    keys = sorted(state.original, key=lambda k: (k[1].value, k[0]))
    rng = random.Random(fixture)
    for step in range(200):
        if state.active and rng.random() < 0.4:
            state.release_token(rng.choice(sorted(state.active)))
        else:
            ops = []
            for kind, subject in rng.sample(keys, min(3, len(keys))):
                original = state.original[(kind, subject)]
                if kind == "label":
                    if original:
                        ops.append((kind, subject, rng.choice(sorted(original))))
                else:
                    ops.append((kind, subject, rng.randint(0, max(original, 0) // 3)))
            try:
                state.apply_ops(f"t{step}", ops)
            except OverAllocation:
                pass
        assert state.conservation_problems() == []
        projected = residual_of(parse_document(serialize_document(state.snapshot())))
        assert projected == {k: v for k, v in state.free.items() if v != NO_LABELS}
    for token in sorted(state.active):
        state.release_token(token)
    assert state.used == {}
    assert serialize_document(state.snapshot()) == document


@pytest.mark.parametrize("fixture", ["renci.ndl", "ring-a.ndl"])
def test_journal_fold_agrees_with_a_kept_used_map(fixture):
    # the reference rewrites a used map beside free on every op; the engine
    # keeps only the journals and folds them when asked
    state = prepare_domain(parse_document((FIXTURES / fixture).read_text()))
    reference = ReferenceResidualState(state.model, state.original)
    keys = sorted(state.original, key=lambda k: (k[1].value, k[0]))
    stranger = Iri("urn:stranger/link")  # a subject no figure of the document names
    rng = random.Random(f"fold-{fixture}")

    def same_outcome(call, *args):
        outcomes = []
        for target in (state, reference):
            try:
                getattr(target, call)(*args)
                outcomes.append(None)
            except (OverAllocation, DoubleRelease) as e:
                outcomes.append(type(e))
        assert outcomes[0] == outcomes[1], (call, args, outcomes)
        return outcomes[0]

    def as_sets(figures):
        return {k: frozenset(v) if k[0] == "label" else v for k, v in figures.items()}

    outcomes, released, zero_taken = set(), [], False
    for step in range(300):
        roll = rng.random()
        if released and roll < 0.1:
            outcomes.add(same_outcome("release_token", rng.choice(released)))
        elif state.active and roll < 0.4:
            token = rng.choice(sorted(state.active))
            released.append(token)
            outcomes.add(same_outcome("release_token", token))
        else:
            ops = []
            for kind, subject in rng.sample(keys, min(rng.randint(1, 4), len(keys))):
                original = state.original[(kind, subject)]
                if kind == "label":
                    pool = sorted(original) or [0]
                    ops.append((kind, subject, rng.choice(pool + [pool[-1] + 1])))
                else:
                    ops.append((kind, subject, rng.choice([0, 0, 1, max(original, 0) // 3, original + 1])))
            if rng.random() < 0.1:
                ops.append(("bw", stranger, 0))
            ops = rng.sample(ops, len(ops))
            outcome = same_outcome("apply_ops", f"t{step}", ops)
            outcomes.add(outcome)
            zero_taken |= outcome is None and any(k != "label" and not n for k, _, n in ops)
        assert as_sets(state.used) == as_sets(reference.used)
        assert as_sets(state.free) == as_sets(reference.free)
        for key, figure in reference.free.items():
            assert (state.free[key] is state.original.get(key)) == (figure is state.original.get(key)), key
        assert serialize_document(state.snapshot()) == serialize_document(reference.snapshot())
        assert state.conservation_problems() == reference.conservation_problems() == []
    assert outcomes == {None, OverAllocation, DoubleRelease} and zero_taken


def test_double_release_on_a_ledger_is_double_release():
    with pytest.raises(DoubleRelease):
        DomainState(None, Model(), residual_of(Model())).release_token("x")


# -- full embedding -------------------------------------------------------------------


def test_embed_pair_on_single_domain():
    world = _world("renci.ndl")
    request, _, plan, hosts, paths = provisioned(world, "demo", PAIR_REQUEST)
    assert len(plan.binding) == 2
    assert {host for host, _, _ in hosts.values()} == {rnc("Server/A"), rnc("Server/B")}
    assert all(domain == rnc("Renci") for domain, _ in plan.binding.values())
    link = request.links[0].iri
    _, branches = plan.strands[link]
    assert len(branches) == 1
    [branch] = branches
    stitched = [
        hop.element for i in range(len(branch.route.hops))
        for hop in paths[((link, branch.to_node), i)].hops
    ]
    assert stitched[1:-1] == [rnc("Renci/6509")]


def test_embed_failure_rolls_back():
    world = _world("renci.ndl")
    before = world.serialized_states()
    # demand more bandwidth than any link carries
    oversized = PAIR_REQUEST.replace('req:bandwidth "1000"', 'req:bandwidth "99999"')
    assert world.submit_request("demo", oversized) is None
    assert world.controller.slices["demo"].failure.step == "Redeem"
    assert world.serialized_states() == before
    assert world.conservation_problems() == []


RING = ("ring-a.ndl", "ring-b.ndl", "ring-c.ndl")


def _ring_request(*domains, bandwidth=100):
    site = {"a": "urn:orca:site:a/Domain", "b": "urn:orca:site:b/Domain", "c": "urn:orca:site:c/Domain"}
    lines = [
        "@prefix comp: <http://geni-orca.renci.org/owl/compute.owl#> .",
        "@prefix eth: <http://geni-orca.renci.org/owl/ethernet.owl#> .",
        "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .",
        "@prefix req: <http://geni-orca.renci.org/owl/request.owl#> .",
        "@prefix rq: <urn:ringreq/> .",
        "@prefix time: <http://www.w3.org/2006/time#> .",
        "@prefix topo: <http://geni-orca.renci.org/owl/topology.owl#> .",
        "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .",
        "rq:Reservation/1 rdf:type req:Reservation .",
        "rq:Reservation/1 req:hasTerm rq:Term/1 .",
        "rq:Term/1 rdf:type time:Interval .",
        'rq:Term/1 time:hasBeginning "2026-01-01T00:00:00Z"^^xsd:dateTime .',
        'rq:Term/1 time:hasDurationSeconds "3600"^^xsd:integer .',
        "rq:Link/1 rdf:type topo:NetworkConnection .",
        "rq:Link/1 topo:atLayer eth:EthernetNetworkElement .",
        f'rq:Link/1 req:bandwidth "{bandwidth}"^^xsd:integer .',
    ]
    for i, d in enumerate(domains, start=1):
        lines += [
            f"rq:Reservation/1 req:element rq:Node/{i} .",
            f"rq:Node/{i} rdf:type comp:ComputeElement .",
            f"rq:Node/{i} topo:inDomain <{site[d]}> .",
            f"rq:Node/{i} topo:hasInterface rq:Node/{i}/if0 .",
            f"rq:Node/{i}/if0 rdf:type topo:Interface .",
            f"rq:Link/1 topo:hasInterface rq:Node/{i}/if0 .",
        ]
    lines.append("rq:Reservation/1 req:element rq:Link/1 .")
    return "\n".join(lines) + "\n"


def _only_branch(world, slice_id, request_text):
    """Provision a one-link request; the first strand of its link and the
    detail path of each of its route hops."""
    request, _, plan, _, paths = provisioned(world, slice_id, request_text)
    link = request.links[0].iri
    branch = plan.strands[link][1][0]
    detail = [paths.get(((link, branch.to_node), i)) for i in range(len(branch.route.hops))]
    return branch, [path for path in detail if path is not None]


def test_embed_across_adjacent_ring_domains():
    world = _world(*RING)
    before = world.serialized_states()
    branch, domain_paths = _only_branch(world, "ring1", _ring_request("a", "b"))
    assert len(branch.route.segments) == 1  # adjacent domains: direct crossing
    assert len(domain_paths) == len(branch.route.hops)
    assert {hop.element.value for hop in branch.route.hops} == {
        "urn:orca:site:a/Domain",
        "urn:orca:site:b/Domain",
    }
    # all domain states stay conserved
    assert world.conservation_problems() == []
    world.delete_slice("ring1")
    assert world.serialized_states() == before


def test_embed_label_continuity_across_ring():
    world = _world(*RING)
    branch, domain_paths = _only_branch(world, "ring2", _ring_request("a", "c"))
    assert len(branch.route.segments) == 1  # a-c are adjacent too
    label = branch.route.segments[0].label
    assert label == 140  # lowest common label on the a-c border pools
    for path in domain_paths:
        for seg in path.segments:
            assert seg.label == label
    world.delete_slice("ring2")
    assert world.conservation_problems() == []


def test_embed_rejects_excessive_label_demand():
    world = _world(*RING)
    before = world.serialized_states()
    # borders carry 5000
    assert world.submit_request("ring3", _ring_request("a", "b", bandwidth=7000)) is None
    assert world.controller.slices["ring3"].failure.step == "Embedding"
    assert world.serialized_states() == before
