"""Seeded input generators for the benchmark.

They mirror the shapes of the federation substrate and request documents of
the acceptance suite (criteria 6 and 8) and of its random layered path
instances (criterion 3), with the label pools made configurable. Every
function is a pure function of its arguments; randomness comes only from the
`random.Random` passed in, so one seed gives one input set.
"""

from __future__ import annotations

import random

from netslice import vocab
from netslice.graphstore import Iri, Model, RDF_TYPE, Triple, integer, serialize_document, string
from netslice.vocab import ETHERNET_ELEMENT, IP_ELEMENT, render_label_set

ETH = ETHERNET_ELEMENT
IP4 = IP_ELEMENT
INSTANCE_BASE = "urn:gen/"

_SUBSTRATE_PREFIXES = [
    "@prefix comp: <http://geni-orca.renci.org/owl/compute.owl#> .",
    "@prefix eth: <http://geni-orca.renci.org/owl/ethernet.owl#> .",
    "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .",
]
_TAIL_PREFIXES = [
    "@prefix topo: <http://geni-orca.renci.org/owl/topology.owl#> .",
    "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .",
]


def federation_sites(n_domains: int) -> list:
    """Site names of a federation, in ring order."""
    return [f"d{i:02d}" for i in range(n_domains)]


def federation_neighbors(n_domains: int) -> dict:
    """Ring with chords: each site links to both ring neighbours and to the
    site half-way round the ring."""
    sites = federation_sites(n_domains)
    out = {}
    for i, site in enumerate(sites):
        neighbors = {sites[(i - 1) % n_domains], sites[(i + 1) % n_domains]}
        chord = sites[(i + n_domains // 2) % n_domains]
        if chord != site:
            neighbors.add(chord)
        neighbors.discard(site)
        out[site] = sorted(neighbors)
    return out


def federation_substrate(
    site: str,
    n_hosts: int,
    units: int,
    neighbors,
    link_pool: str = "100-199",
    border_pool: str = "100-150",
) -> str:
    """One domain: n_hosts dual-homed hosts behind two switches, plus one
    border interface per neighbour. `link_pool` labels every internal link,
    `border_pool` every border."""
    s = f"urn:fed:{site}/"
    lines = _SUBSTRATE_PREFIXES + [f"@prefix s: <{s}> ."] + _TAIL_PREFIXES
    lines.append("s:dom rdf:type topo:NetworkDomain .")
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
            f"s:xlink{pair} topo:atLayer eth:EthernetNetworkElement .",
            f's:xlink{pair} topo:availableBandwidth "10000"^^xsd:integer .',
            f's:xlink{pair} topo:availableLabelSet "{link_pool}" .',
        ]
    for h in range(n_hosts):
        lines += [
            f"s:host{h} rdf:type topo:Device .",
            f"s:host{h} topo:inDomain s:dom .",
            f"s:host{h} comp:provisions comp:VM .",
            f's:host{h} comp:availableUnits "{units}"^^xsd:integer .',
        ]
        for tag, sw in (("a", "sw0"), ("b", "sw1")):
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
                f's:hlink{h}{tag} topo:availableLabelSet "{link_pool}" .',
            ]
    for other in neighbors:
        lines += [
            f"s:sw0 topo:hasInterface s:sw0/to-{other} .",
            f"s:sw0/to-{other} rdf:type topo:BorderInterface .",
            f"s:sw0/to-{other} topo:atLayer eth:EthernetNetworkElement .",
            f's:sw0/to-{other} topo:availableBandwidth "5000"^^xsd:integer .',
            f's:sw0/to-{other} topo:availableLabelSet "{border_pool}" .',
            f"s:sw0/to-{other} topo:linkedTo <urn:fed:{other}/sw0/to-{site}> .",
        ]
    return "\n".join(lines) + "\n"


def federation_substrates(
    n_domains: int, n_hosts: int, units: int, link_pool: str = "100-199", border_pool: str = "100-150"
) -> list:
    """Substrate documents of a whole ring-with-chords federation."""
    return [
        federation_substrate(site, n_hosts, units, neighbors, link_pool, border_pool)
        for site, neighbors in federation_neighbors(n_domains).items()
    ]


def request_text(
    tag: str,
    members,
    bandwidth: int = 100,
    broadcast: bool = False,
    term_begin: str = "2026-01-01T00:00:00Z",
    duration_s: int = 3600,
) -> str:
    """A one-link slice request. members: (node ordinal, site or None)
    pairs; a site binds the node to that federation domain."""
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
        f'rq:Term/1 time:hasDurationSeconds "{duration_s}"^^xsd:integer .',
        f"rq:Link/1 rdf:type {kind} .",
        "rq:Link/1 topo:atLayer eth:EthernetNetworkElement .",
        f'rq:Link/1 req:bandwidth "{bandwidth}"^^xsd:integer .',
        "rq:Reservation/1 req:element rq:Link/1 .",
    ]
    for n, site in members:
        lines += [
            f"rq:Reservation/1 req:element rq:Node/{n} .",
            f"rq:Node/{n} rdf:type comp:VM .",
            f"rq:Node/{n} topo:hasInterface rq:Node/{n}/if0 .",
            f"rq:Node/{n}/if0 rdf:type topo:Interface .",
            f"rq:Link/1 topo:hasInterface rq:Node/{n}/if0 .",
        ]
        if site is not None:
            lines.append(f"rq:Node/{n} topo:inDomain <urn:fed:{site}/dom> .")
    return "\n".join(lines) + "\n"


def random_layered_instance(rng: random.Random, max_devices: int = 12, max_links: int = 20) -> dict:
    """One pathfinding instance as plain data: devices with layer,
    translator flag, adaptations and units; links with ends, layer, capacity
    and label pool. The oracle reads only this description."""
    devices = {}
    for i in range(rng.randint(2, max_devices)):
        devices[f"d{i}"] = {
            "layer": ETH if rng.random() < 0.75 else IP4,
            "translator": rng.random() < 0.12,
            "adaptations": [(ETH, IP4, 1)] if rng.random() < 0.45 else [],
            "units": rng.randint(1, 4) if rng.random() < 0.4 else 0,
        }
    names = sorted(devices)
    links = []
    for j in range(rng.randint(1, max_links)):
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


def instance_device_iri(name: str) -> Iri:
    return Iri(INSTANCE_BASE + name)


def instance_document(instance: dict) -> str:
    """The raw (not entailed) NDL-Lite document of a layered instance, as
    the `path` subcommand reads it."""
    m = Model({"g": INSTANCE_BASE})
    domain = Iri(INSTANCE_BASE + "domain")
    m.add(Triple(domain, RDF_TYPE, vocab.NETWORK_DOMAIN))
    for name, d in sorted(instance["devices"].items()):
        dev = instance_device_iri(name)
        m.add(Triple(dev, RDF_TYPE, vocab.DEVICE))
        m.add(Triple(dev, vocab.IN_DOMAIN, domain))
        m.add(Triple(dev, vocab.AT_LAYER, d["layer"]))
        if d["translator"]:
            m.add(Triple(dev, RDF_TYPE, vocab.LABEL_TRANSLATOR))
        if d["units"]:
            m.add(Triple(dev, vocab.PROVISIONS, vocab.VM))
            m.add(Triple(dev, vocab.AVAILABLE_UNITS, integer(d["units"])))
        for k, (client, server, cap) in enumerate(d["adaptations"]):
            a = Iri(INSTANCE_BASE + f"{name}/adapt/{k}")
            m.add(Triple(dev, vocab.HAS_ADAPTATION, a))
            m.add(Triple(a, RDF_TYPE, vocab.ADAPTATION))
            m.add(Triple(a, vocab.ADAPTATION_CLIENT, client))
            m.add(Triple(a, vocab.ADAPTATION_SERVER, server))
            m.add(Triple(a, vocab.ADAPTATION_CAPACITY, integer(cap)))
    for link in instance["links"]:
        a, b = link["ends"]
        link_iri = Iri(INSTANCE_BASE + link["name"])
        if_a = Iri(INSTANCE_BASE + f"{a}/{link['name']}")
        if_b = Iri(INSTANCE_BASE + f"{b}/{link['name']}")
        for dev, iface in ((a, if_a), (b, if_b)):
            m.add(Triple(instance_device_iri(dev), vocab.HAS_INTERFACE, iface))
            m.add(Triple(iface, RDF_TYPE, vocab.INTERFACE))
        m.add(Triple(if_a, vocab.LINKED_TO, if_b))
        m.add(Triple(link_iri, RDF_TYPE, vocab.NETWORK_CONNECTION))
        m.add(Triple(link_iri, vocab.HAS_ENDPOINT, if_a))
        m.add(Triple(link_iri, vocab.HAS_ENDPOINT, if_b))
        m.add(Triple(link_iri, vocab.AT_LAYER, link["layer"]))
        m.add(Triple(link_iri, vocab.AVAILABLE_BANDWIDTH, integer(link["capacity"])))
        if link["pool"]:
            m.add(Triple(link_iri, vocab.AVAILABLE_LABEL_SET, string(render_label_set(link["pool"]))))
    return serialize_document(m)
