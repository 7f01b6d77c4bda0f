"""Random instance generators shared by the embed and acceptance tests.

Each generated substrate comes in two forms: a plain-python description
(dicts and tuples, used by the independent oracles) and the semantic model
the engine actually runs on. The oracle side never reads the model.

`federation_world` builds the ring-with-chords federation of the scale
criteria: one substrate per domain, bordering its two ring neighbours and
the domain half-way round.
"""

from __future__ import annotations

import random

from netslice import vocab
from netslice.actors import World
from netslice.graphstore import (
    Iri,
    Model,
    OWL_INVERSE_OF,
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_SUBCLASS_OF,
    RDFS_SUBPROPERTY_OF,
    Triple,
    entail,
    integer,
    string,
)
from netslice.vocab import (
    ETHERNET_ELEMENT,
    IP_ELEMENT,
    render_label_set,
)

ETH = ETHERNET_ELEMENT
IP4 = IP_ELEMENT


def random_layered_instance(rng: random.Random, max_devices=12, max_links=20):
    """One pathfinding instance: device/link description plus its model."""
    n_devices = rng.randint(2, max_devices)
    devices = {}
    for i in range(n_devices):
        name = f"d{i}"
        devices[name] = {
            "layer": ETH if rng.random() < 0.75 else IP4,
            "translator": rng.random() < 0.12,
            "adaptations": [(ETH, IP4, 1)] if rng.random() < 0.45 else [],
            "units": rng.randint(1, 4) if rng.random() < 0.4 else 0,
        }
    links = []
    n_links = rng.randint(1, max_links)
    names = sorted(devices)
    for j in range(n_links):
        a, b = rng.sample(names, 2)
        layer = ETH if rng.random() < 0.8 else IP4
        links.append(
            {
                "name": f"l{j}",
                "ends": (a, b),
                "layer": layer,
                "capacity": rng.choice([0, 100, 200, 500, 1000]),
                "pool": frozenset(rng.sample(range(2, 21), rng.randint(0, 6)))
                if layer == ETH
                else frozenset(),
            }
        )
    return {"devices": devices, "links": links}


def instance_model(instance) -> Model:
    """Entailed model for a generated instance."""
    base = "urn:gen/"
    m = Model({"g": base})
    domain = Iri(base + "domain")
    m.add(Triple(domain, RDF_TYPE, vocab.NETWORK_DOMAIN))
    for name, d in sorted(instance["devices"].items()):
        dev = Iri(base + name)
        m.add(Triple(dev, RDF_TYPE, vocab.DEVICE))
        m.add(Triple(dev, vocab.IN_DOMAIN, domain))
        m.add(Triple(dev, vocab.AT_LAYER, d["layer"]))
        if d["translator"]:
            m.add(Triple(dev, RDF_TYPE, vocab.LABEL_TRANSLATOR))
        if d.get("units"):
            for cls in d.get("classes", [vocab.VM]):
                m.add(Triple(dev, vocab.PROVISIONS, cls))
            m.add(Triple(dev, vocab.AVAILABLE_UNITS, integer(d["units"])))
        for k, (client, server, cap) in enumerate(d["adaptations"]):
            a = Iri(base + f"{name}/adapt/{k}")
            m.add(Triple(dev, vocab.HAS_ADAPTATION, a))
            m.add(Triple(a, RDF_TYPE, vocab.ADAPTATION))
            m.add(Triple(a, vocab.ADAPTATION_CLIENT, client))
            m.add(Triple(a, vocab.ADAPTATION_SERVER, server))
            m.add(Triple(a, vocab.ADAPTATION_CAPACITY, integer(cap)))
    for link in instance["links"]:
        a, b = link["ends"]
        link_iri = Iri(base + link["name"])
        if_a = Iri(base + f"{a}/{link['name']}")
        if_b = Iri(base + f"{b}/{link['name']}")
        for dev, iface in ((a, if_a), (b, if_b)):
            m.add(Triple(Iri(base + dev), vocab.HAS_INTERFACE, iface))
            m.add(Triple(iface, RDF_TYPE, vocab.INTERFACE))
        m.add(Triple(if_a, vocab.LINKED_TO, if_b))
        m.add(Triple(link_iri, RDF_TYPE, vocab.NETWORK_CONNECTION))
        m.add(Triple(link_iri, vocab.HAS_ENDPOINT, if_a))
        m.add(Triple(link_iri, vocab.HAS_ENDPOINT, if_b))
        m.add(Triple(link_iri, vocab.AT_LAYER, link["layer"]))
        m.add(Triple(link_iri, vocab.AVAILABLE_BANDWIDTH, integer(link["capacity"])))
        if link["pool"]:
            m.add(Triple(link_iri, vocab.AVAILABLE_LABEL_SET, string(render_label_set(link["pool"]))))
    return vocab.close(m)


def instance_device_iri(name: str) -> Iri:
    return Iri("urn:gen/" + name)


# Schema relations a random property may specialise, so that a triple using
# that property states a schema axiom.
_SCHEMA_RELATIONS = [RDFS_DOMAIN, RDFS_RANGE, RDFS_SUBPROPERTY_OF, OWL_INVERSE_OF, RDFS_SUBCLASS_OF]


def random_schema_model(rng: random.Random, base: str = "urn:acc4/") -> Model:
    """Random subclass, subproperty, domain, range and inverse axioms plus
    typed and related instances: the entailment oracle's inputs. Some
    properties are sub-properties of a schema relation, and some triples
    relate properties to classes or properties, so schema triples get
    derived while the closure runs."""
    m = Model()
    classes = [Iri(base + f"C{i}") for i in range(rng.randint(2, 30))]
    props = [Iri(base + f"p{i}") for i in range(rng.randint(1, 15))]
    insts = [Iri(base + f"x{i}") for i in range(rng.randint(1, 12))]
    for c in classes:
        if rng.random() < 0.6:
            m.add(Triple(c, RDFS_SUBCLASS_OF, rng.choice(classes)))
    for p in props:
        r = rng.random()
        if r < 0.3:
            m.add(Triple(p, RDFS_SUBPROPERTY_OF, rng.choice(props)))
        if 0.2 < r < 0.5:
            m.add(Triple(p, RDFS_DOMAIN, rng.choice(classes)))
        if 0.4 < r < 0.7:
            m.add(Triple(p, RDFS_RANGE, rng.choice(classes)))
        if r > 0.75:
            m.add(Triple(p, OWL_INVERSE_OF, rng.choice(props)))
    for x in insts:
        if rng.random() < 0.85:
            m.add(Triple(x, RDF_TYPE, rng.choice(classes)))
        if rng.random() < 0.85:
            m.add(Triple(x, rng.choice(props), rng.choice(insts)))
        if rng.random() < 0.2:
            m.add(Triple(x, rng.choice(props), integer(rng.randrange(5))))
    for p in props:
        if rng.random() < 0.15:
            m.add(Triple(p, RDFS_SUBPROPERTY_OF, rng.choice(_SCHEMA_RELATIONS)))
        if rng.random() < 0.25:
            m.add(Triple(rng.choice(props + classes), p, rng.choice(classes + props)))
    return m


def federation_substrate(site, n_hosts, units, neighbors, pool="100-150", bare_metal=()):
    """One domain: n_hosts hosts behind two switches, borders per neighbor.
    Every host provisions VMs; the hosts numbered in bare_metal also
    provision BareMetalCE."""
    s = f"urn:fed:{site}/"
    lines = [
        "@prefix comp: <http://geni-orca.renci.org/owl/compute.owl#> .",
        "@prefix eth: <http://geni-orca.renci.org/owl/ethernet.owl#> .",
        "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .",
        f"@prefix s: <{s}> .",
        "@prefix topo: <http://geni-orca.renci.org/owl/topology.owl#> .",
        "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .",
        "s:dom rdf:type topo:NetworkDomain .",
    ]
    for sw in ("sw0", "sw1"):
        lines += [
            f"s:{sw} rdf:type topo:Device .",
            f"s:{sw} topo:inDomain s:dom .",
            f"s:{sw} topo:hasSwitchMatrix s:{sw}/matrix .",
            f"s:{sw}/matrix rdf:type eth:EthernetNetworkElement .",
        ]
    for pair in range(2):
        lines += [
            f"s:sw0 topo:hasInterface s:sw0/x{pair} .",
            f"s:sw1 topo:hasInterface s:sw1/x{pair} .",
            f"s:sw0/x{pair} rdf:type topo:Interface .",
            f"s:sw1/x{pair} rdf:type topo:Interface .",
            f"s:sw0/x{pair} topo:linkedTo s:sw1/x{pair} .",
            f"s:xlink{pair} rdf:type topo:NetworkConnection .",
            f"s:xlink{pair} topo:hasEndpoint s:sw0/x{pair} .",
            f"s:xlink{pair} topo:hasEndpoint s:sw1/x{pair} .",
            "s:xlink%d topo:atLayer eth:EthernetNetworkElement ." % pair,
            f's:xlink{pair} topo:availableBandwidth "10000"^^xsd:integer .',
            f's:xlink{pair} topo:availableLabelSet "100-199" .',
        ]
    for h in range(n_hosts):
        lines += [
            f"s:host{h} rdf:type topo:Device .",
            f"s:host{h} topo:inDomain s:dom .",
            f"s:host{h} comp:provisions comp:VM .",
            f's:host{h} comp:availableUnits "{units}"^^xsd:integer .',
        ]
        if h in bare_metal:
            lines.append(f"s:host{h} comp:provisions comp:BareMetalCE .")
        for tag, sw in (("a", "sw0"), ("b", "sw1")):  # dual-homed hosts
            lines += [
                f"s:host{h} topo:hasInterface s:host{h}/if{tag} .",
                f"s:host{h}/if{tag} rdf:type topo:Interface .",
                f"s:host{h}/if{tag} topo:linkedTo s:{sw}/h{h} .",
                f"s:{sw} topo:hasInterface s:{sw}/h{h} .",
                f"s:{sw}/h{h} rdf:type topo:Interface .",
                f"s:hlink{h}{tag} rdf:type topo:NetworkConnection .",
                f"s:hlink{h}{tag} topo:hasEndpoint s:host{h}/if{tag} .",
                f"s:hlink{h}{tag} topo:hasEndpoint s:{sw}/h{h} .",
                f"s:hlink{h}{tag} topo:atLayer eth:EthernetNetworkElement .",
                f's:hlink{h}{tag} topo:availableBandwidth "10000"^^xsd:integer .',
                f's:hlink{h}{tag} topo:availableLabelSet "100-199" .',
            ]
    for other in neighbors:
        sw = "sw0"
        lines += [
            f"s:{sw} topo:hasInterface s:{sw}/to-{other} .",
            f"s:{sw}/to-{other} rdf:type topo:BorderInterface .",
            f"s:{sw}/to-{other} topo:atLayer eth:EthernetNetworkElement .",
            f's:{sw}/to-{other} topo:availableBandwidth "5000"^^xsd:integer .',
            f's:{sw}/to-{other} topo:availableLabelSet "{pool}" .',
            f"s:{sw}/to-{other} topo:linkedTo <urn:fed:{other}/sw0/to-{site}> .",
        ]
    return "\n".join(lines) + "\n"


def federation_world(n_domains, n_hosts, units, mixed=False):
    """A ring of domains with chords; mixed: host h of domain i also
    provisions BareMetalCE when 3 divides i + h."""
    world = World()
    sites = [f"d{i:02d}" for i in range(n_domains)]
    for i, site in enumerate(sites):
        neighbors = [sites[(i - 1) % n_domains], sites[(i + 1) % n_domains]]
        chord = sites[(i + n_domains // 2) % n_domains]
        if chord not in neighbors and chord != site:
            neighbors.append(chord)
        metal = {h for h in range(n_hosts) if (i + h) % 3 == 0} if mixed else ()
        neighbors = sorted(set(neighbors))
        world.add_substrate(federation_substrate(site, n_hosts, units, neighbors, bare_metal=metal))
    return world, sites


def federation_request(
    tag, members, bandwidth=100, broadcast=False, term_begin="2026-01-01T00:00:00Z", classes=None
):
    """A request over federation_world: one link joining compute nodes.
    members: (node ordinal, site the node is bound to or None) per node;
    classes: node ordinal -> compute class local name, VM by default."""
    kind = "topo:BroadcastConnection" if broadcast else "topo:NetworkConnection"
    lines = [
        "@prefix comp: <http://geni-orca.renci.org/owl/compute.owl#> .",
        "@prefix eth: <http://geni-orca.renci.org/owl/ethernet.owl#> .",
        "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .",
        "@prefix req: <http://geni-orca.renci.org/owl/request.owl#> .",
        f"@prefix rq: <urn:req:{tag}/> .",
        "@prefix time: <http://www.w3.org/2006/time#> .",
        "@prefix topo: <http://geni-orca.renci.org/owl/topology.owl#> .",
        "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .",
        "rq:Reservation/1 rdf:type req:Reservation .",
        "rq:Reservation/1 req:hasTerm rq:Term/1 .",
        "rq:Term/1 rdf:type time:Interval .",
        f'rq:Term/1 time:hasBeginning "{term_begin}"^^xsd:dateTime .',
        'rq:Term/1 time:hasDurationSeconds "3600"^^xsd:integer .',
        f"rq:Link/1 rdf:type {kind} .",
        "rq:Link/1 topo:atLayer eth:EthernetNetworkElement .",
        f'rq:Link/1 req:bandwidth "{bandwidth}"^^xsd:integer .',
        "rq:Reservation/1 req:element rq:Link/1 .",
    ]
    for n, site in members:
        lines += [
            f"rq:Reservation/1 req:element rq:Node/{n} .",
            f"rq:Node/{n} rdf:type comp:{(classes or {}).get(n, 'VM')} .",
            f"rq:Node/{n} topo:hasInterface rq:Node/{n}/if0 .",
            f"rq:Node/{n}/if0 rdf:type topo:Interface .",
            f"rq:Link/1 topo:hasInterface rq:Node/{n}/if0 .",
        ]
        if site is not None:
            lines.append(f"rq:Node/{n} topo:inDomain <urn:fed:{site}/dom> .")
    return "\n".join(lines) + "\n"
