"""Typed views and builders for the four document kinds in the slice
lifecycle: substrate description, substrate delegation, slice request,
slice manifest.

Views are plain named tuples extracted from an entailed model; builders are
pure functions back to models. Naming of generated entities is a
deterministic function of (slice id, request entity ordinal) so rebuilt
manifests serialize byte-identically.
"""

from __future__ import annotations

import heapq
import re
from datetime import datetime, timedelta, timezone
from typing import NamedTuple, Optional

from . import vocab
from .graphstore import (
    Iri,
    Literal,
    Model,
    RDF_TYPE,
    Triple,
    _new,
    int_value,
    integer,
    string,
)
from .vocab import (
    AT_LAYER,
    AVAILABLE_BANDWIDTH,
    AVAILABLE_LABEL_SET,
    AVAILABLE_UNITS,
    BORDER_INTERFACE,
    BROADCAST_CONNECTION,
    COMPUTE_ELEMENT,
    CONNECTED_TO,
    DEVICE,
    ELEMENT,
    HAS_ADAPTATION,
    HAS_BEGINNING,
    HAS_DURATION_SECONDS,
    HAS_INTERFACE,
    HAS_TERM,
    HOP_DEVICE,
    HOP_INDEX,
    HOP_LABEL,
    ALLOCATED_LABEL,
    HOSTED_ON,
    IN_DOMAIN,
    IN_USE_BANDWIDTH,
    IN_USE_LABEL_SET,
    IN_USE_UNITS,
    INTERNALLY_REACHABLE,
    LABEL_TRANSLATOR,
    LAYERS,
    LINKED_TO,
    MANAGEMENT_ADDRESS,
    NETWORK_CONNECTION,
    NETWORK_DOMAIN,
    PATH_HOP,
    PROVISIONED_FROM,
    PROVISIONS,
    RESERVATION,
    REQUESTED_BANDWIDTH,
    SERVER_CLOUD,
    LabelSet,
    NO_LABELS,
    parse_label_set,
    render_label_set,
)


class SubstrateError(Exception):
    """Substrate invariant violations; collects every problem found."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class RequestError(Exception):
    pass


class PlanIncomplete(Exception):
    pass


class LabelSetError(ValueError):
    """A malformed label-set literal, named by the subject that states it."""

    def __init__(self, subject: Iri, lexical: str, reason: str):
        self.subject = subject
        super().__init__(f"{subject.value}: unparseable label set {lexical!r}: {reason}")


def parse_datetime(lexical: str) -> datetime:
    """Strict ISO 8601 UTC instant: YYYY-MM-DDTHH:MM:SSZ, ASCII digits."""
    try:
        fields = re.fullmatch(r"(?a)(\d{4})-(\d\d)-(\d\d)T(\d\d):(\d\d):(\d\d)Z", lexical)
        if fields is None:
            raise ValueError("not YYYY-MM-DDTHH:MM:SSZ")
        return datetime(*map(int, fields.groups()), tzinfo=timezone.utc)
    except ValueError as e:
        raise ValueError(f"bad dateTime {lexical!r}: {e}") from None


def render_datetime(dt: datetime) -> str:
    return dt.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


# (available property, in-use property) per allocation op kind
RESIDUAL_PROPERTIES = {
    "bw": (AVAILABLE_BANDWIDTH, IN_USE_BANDWIDTH),
    "label": (AVAILABLE_LABEL_SET, IN_USE_LABEL_SET),
    "units": (AVAILABLE_UNITS, IN_USE_UNITS),
}


def residual_of(m: Model) -> dict:
    """The residual figures m states, keyed like allocation ops:
    ("bw" | "label" | "units", subject) -> int, or the LabelSet of a label
    pool.

    A figure that is not an integer is left out, so it reads as 0. Equal
    label-set literals share one LabelSet. Raises LabelSetError on a
    malformed label set."""
    out = {}
    pools: dict[str, LabelSet] = {}
    for kind, (prop, _) in RESIDUAL_PROPERTIES.items():
        for subject in dict.fromkeys(t.subject for t in m.match(p=prop)):
            lit = m.value(subject, prop)
            if kind != "label":
                n = int_value(lit)
                if n is not None:
                    out[(kind, subject)] = n
            elif isinstance(lit, Literal):
                if lit.lexical not in pools:
                    try:
                        pools[lit.lexical] = parse_label_set(lit.lexical)
                    except ValueError as e:
                        raise LabelSetError(subject, lit.lexical, str(e)) from None
                out[(kind, subject)] = pools[lit.lexical]
    return out


# -- substrate ------------------------------------------------------------------


class SubstrateDevice(NamedTuple):
    iri: Iri
    interfaces: tuple
    label_translator: bool


class ComputePool(NamedTuple):
    node: Iri  # attachment point; a device with interfaces
    provides: Iri  # compute element class provisioned from this pool


class BorderInterface(NamedTuple):
    iri: Iri
    owner: Iri  # internal device owning the interface
    layer: Optional[Iri]
    remote: Optional[Iri]  # the peer border interface in another domain


class SubstrateGraph(NamedTuple):
    domain: Iri
    devices: tuple
    links: tuple  # each link's two interfaces, sorted by IRI, in link IRI order
    pools: tuple
    borders: tuple
    residual: dict  # residual_of the model: the only copy of its figures
    class_axioms: tuple = ()  # subclass triples for provider-defined pool classes


def _interface_owner(m: Model, iface: Iri, candidates: set) -> list:
    return [o for o in m.objects(iface, vocab.INTERFACE_OF) if o in candidates]


def _pool_problems(kind: str, subject: Iri, layer, pool: LabelSet):
    """The problem of a label pool outside its pooled layer's domain, if any."""
    spec = LAYERS.get(layer)
    if spec is not None and spec.pooled and not spec.pool_in_domain(pool):
        domain = f"{spec.min_label}-{spec.max_label}"
        yield f"{kind} {subject.value} label pool exceeds layer domain {domain}"


def parse_substrate(m: Model) -> SubstrateGraph:
    """Typed view of an entailed substrate advertisement: the domain's
    devices, links, compute pools and border interfaces, and its checked
    residual_of figures.

    Raises SubstrateError listing every problem found in the links,
    borders, label pools and adaptations. Adaptations are checked but not
    kept: the search reads them, and device layers, from the model."""
    residual = residual_of(m)
    problems = []
    domains = m.typed(NETWORK_DOMAIN)
    if len(domains) != 1:
        raise SubstrateError([f"expected exactly one NetworkDomain, found {len(domains)}"])
    domain = domains[0]

    devices = []
    for d in m.typed(DEVICE):
        if m.value(d, IN_DOMAIN) != domain:
            continue
        for a in m.objects(d, HAS_ADAPTATION):
            client = m.value(a, vocab.ADAPTATION_CLIENT)
            server = m.value(a, vocab.ADAPTATION_SERVER)
            if not isinstance(client, Iri) or not isinstance(server, Iri):
                problems.append(f"adaptation {a.value} missing client or server layer")
            elif client == server:
                problems.append(f"adaptation {a.value} client and server layers must differ")
            # no capacity, or 0, reads as 1, as in the search
            if (int_value(m.value(a, vocab.ADAPTATION_CAPACITY)) or 0) < 0:
                problems.append(f"adaptation {a.value} capacity must not be negative")
        devices.append(
            SubstrateDevice(
                iri=d,
                interfaces=tuple(o for o in m.objects(d, HAS_INTERFACE) if isinstance(o, Iri)),
                label_translator=LABEL_TRANSLATOR in m.types(d),
            )
        )
    devices.sort(key=lambda d: d.iri.value)
    device_iris = {d.iri for d in devices}

    pools = []
    for node in sorted({t.subject for t in m.match(p=PROVISIONS)}, key=lambda s: s.value):
        if m.value(node, IN_DOMAIN) != domain:
            continue
        for cls in m.objects(node, PROVISIONS):
            if isinstance(cls, Iri):
                pools.append(ComputePool(node=node, provides=cls))
    attach_points = device_iris | {p.node for p in pools}

    links = []
    for link in m.typed(NETWORK_CONNECTION):
        if BROADCAST_CONNECTION in m.types(link):
            problems.append(f"substrate link {link.value} may not be a broadcast connection")
            continue
        ifaces = sorted(
            (o for o in m.objects(link, vocab.HAS_ENDPOINT) if isinstance(o, Iri)),
            key=lambda i: i.value,
        )
        if len(ifaces) != 2:
            problems.append(f"link {link.value} has {len(ifaces)} interfaces, expected 2")
            continue
        for iface in ifaces:
            owners = _interface_owner(m, iface, attach_points)
            if len(owners) != 1:
                problems.append(
                    f"link endpoint {iface.value} belongs to {len(owners)} elements, expected 1"
                )
        a, b = ifaces
        if Triple(a, LINKED_TO, b) not in m and Triple(b, LINKED_TO, a) not in m:
            problems.append(f"link {link.value} endpoints are not linkedTo each other")
        layer = m.value(link, AT_LAYER)
        if not isinstance(layer, Iri):
            problems.append(f"link {link.value} has no atLayer")
            continue
        if residual.get(("bw", link), -1) < 0:
            problems.append(f"link {link.value} has no non-negative availableBandwidth")
        pool = residual.get(("label", link), NO_LABELS)
        problems.extend(_pool_problems("link", link, layer, pool))
        links.append((a, b))

    local_ifaces = {
        t.object
        for t in m.match(p=HAS_INTERFACE)
        if t.subject in attach_points and isinstance(t.object, Iri)
    }
    borders = []
    for bif in m.typed(BORDER_INTERFACE):
        owners = _interface_owner(m, bif, attach_points)
        if len(owners) != 1:
            problems.append(f"border interface {bif.value} has {len(owners)} owners, expected 1")
            continue
        layer = m.value(bif, AT_LAYER)
        pool = residual.get(("label", bif), NO_LABELS)
        problems.extend(_pool_problems("border interface", bif, layer, pool))
        remotes = [
            r for r in m.objects(bif, LINKED_TO) if isinstance(r, Iri) and r not in local_ifaces
        ]
        borders.append(
            BorderInterface(
                iri=bif,
                owner=owners[0],
                layer=layer if isinstance(layer, Iri) else None,
                remote=remotes[0] if remotes else None,
            )
        )
    borders.sort(key=lambda b: b.iri.value)

    if problems:
        raise SubstrateError(sorted(problems))

    # provider-defined compute subclasses travel with the substrate so the
    # delegation (and the broker's binding) can see them
    builtin = vocab.entailed_schema()
    axioms = []
    for p in pools:
        if builtin.types(p.provides):
            continue
        for t in m.match(s=p.provides):
            if t.predicate in (vocab.RDFS_SUBCLASS_OF, RDF_TYPE) and isinstance(t.object, Iri):
                if t not in builtin:
                    axioms.append(t)
    axioms = tuple(sorted(set(axioms), key=lambda t: (t.subject.value, t.predicate.value, str(t.object))))
    return SubstrateGraph(
        domain, tuple(devices), tuple(links), tuple(pools), tuple(borders), residual, axioms
    )


def build_delegation(s: SubstrateGraph, free: Optional[dict] = None) -> Model:
    """Compress a substrate into the abstract delegation advertised to a broker:
    one domain node, its border interfaces, aggregate compute units, and
    border-pair internal reachability: two borders are reachable when
    substrate links join their owners, from one labelling of components.
    Figures come from `free`, keyed like residual_of, by default the
    substrate's own."""
    if free is None:
        free = s.residual
    triples = [(s.domain, RDF_TYPE, NETWORK_DOMAIN)]
    for b in s.borders:
        triples += [(s.domain, HAS_INTERFACE, b.iri), (b.iri, RDF_TYPE, BORDER_INTERFACE)]
        triples.append((b.iri, AVAILABLE_BANDWIDTH, integer(free.get(("bw", b.iri), 0))))
        if b.layer is not None:
            triples.append((b.iri, AT_LAYER, b.layer))
        pool = free.get(("label", b.iri), NO_LABELS)
        if pool:
            triples.append((b.iri, AVAILABLE_LABEL_SET, string(render_label_set(pool))))
        if b.remote is not None:
            triples.append((b.iri, LINKED_TO, b.remote))
    # internal reachability between borders: a union-find root per owner
    root = {}

    def find(x):
        while root.get(x, x) != x:
            root[x] = root.get(root[x], root[x])  # path halving
            x = root[x]
        return x

    owner_of = {i: d.iri for d in s.devices for i in d.interfaces}
    for p in s.pools:
        owner_of.setdefault(p.node, p.node)
    for a, b in s.links:
        da, db = owner_of.get(a), owner_of.get(b)
        if da and db:
            root[find(da)] = find(db)
    for i, b1 in enumerate(s.borders):
        for b2 in s.borders[i + 1 :]:
            if find(b1.owner) == find(b2.owner):
                triples.append((b1.iri, INTERNALLY_REACHABLE, b2.iri))
    # one delegated pool per distinct set of provided classes, so a host
    # that provisions several classes advertises its units once
    hosts = {}  # node -> (the classes it provisions, its units)
    for p in s.pools:
        hosts.setdefault(p.node, (set(), free.get(("units", p.node), 0)))[0].add(p.provides)
    totals = {}
    for provided, units in hosts.values():
        key = tuple(sorted(provided, key=lambda c: c.value))
        totals[key] = totals.get(key, 0) + units
    for provided, total in totals.items():
        pool_node = Iri(f"{s.domain.value}/pool/{'+'.join(c.local() for c in provided)}")
        triples += [(pool_node, RDF_TYPE, SERVER_CLOUD), (pool_node, IN_DOMAIN, s.domain)]
        triples += [(pool_node, PROVISIONS, c) for c in provided]
        triples.append((pool_node, AVAILABLE_UNITS, integer(total)))
    if any(d.label_translator for d in s.devices):
        triples.append((s.domain, RDF_TYPE, LABEL_TRANSLATOR))
    triples.extend(s.class_axioms)
    m = Model(dict(vocab.BASE_PREFIXES))
    m.add_all([_new(Triple, t) for t in triples])
    return m


def parse_delegation(m: Model) -> Iri:
    """The one domain a closed delegation describes. The broker routes and
    binds over the closed delegation models, and reads figures from its
    free map."""
    domains = m.typed(NETWORK_DOMAIN)
    if len(domains) != 1:
        raise SubstrateError([f"delegation must describe exactly one domain, got {len(domains)}"])
    return domains[0]


def pool_classes(m: Model, node: Iri) -> tuple:
    """The compute classes a delegated pool node provisions, sorted by IRI."""
    provided = (c for c in m.objects(node, PROVISIONS) if isinstance(c, Iri))
    return tuple(sorted(provided, key=lambda c: c.value))


# -- slice request ----------------------------------------------------------------


class RequestNode(NamedTuple):
    iri: Iri
    compute_class: Iri
    interfaces: tuple
    in_domain: Optional[Iri] = None


class RequestLink(NamedTuple):
    iri: Iri
    interfaces: tuple  # stubs, each owned by exactly one RequestNode
    layer: Iri
    bandwidth: int
    broadcast: bool

    def owners(self, req: "SliceRequest") -> tuple:
        by_iface = {}
        for node in req.nodes:
            for i in node.interfaces:
                by_iface[i] = node
        return tuple(by_iface[i] for i in self.interfaces)


class Term(NamedTuple):
    begin: datetime
    duration_seconds: int

    @property
    def end(self) -> datetime:
        return self.begin + timedelta(seconds=self.duration_seconds)


class SliceRequest(NamedTuple):
    nodes: tuple
    links: tuple
    term: Term
    model: Model  # the source request document (not the entailed merge)


def _minimal_compute_class(m: Model, types: set) -> Optional[Iri]:
    compute = {t for t in types if vocab.satisfies(m, t, COMPUTE_ELEMENT)}
    minimal = [
        t
        for t in compute
        if not any(other != t and vocab.satisfies(m, other, t) for other in compute)
    ]
    return sorted(minimal, key=lambda t: t.value)[0] if minimal else None


def parse_request(m: Model, source: Optional[Model] = None) -> SliceRequest:
    """Typed slice request from an entailed model (schema merged in).

    Nodes without an inDomain binding stay unbound; the controller binds
    them later. Domain-repetition and endpoint-count policy live in the
    rules module, not here.
    """
    reservations = m.typed(RESERVATION)
    if len(reservations) != 1:
        raise RequestError(f"expected exactly one Reservation, found {len(reservations)}")
    res = reservations[0]

    terms = [o for o in m.objects(res, HAS_TERM) if isinstance(o, Iri)]
    if len(terms) != 1:
        raise RequestError("reservation must reference exactly one term interval")
    begin_lit = m.value(terms[0], HAS_BEGINNING)
    duration = int_value(m.value(terms[0], HAS_DURATION_SECONDS))
    if not isinstance(begin_lit, Literal) or duration is None:
        raise RequestError(f"term {terms[0].value} must carry hasBeginning and hasDurationSeconds")
    if duration <= 0:
        raise RequestError("term duration must be positive")
    term = Term(parse_datetime(begin_lit.lexical), duration)
    try:
        term.end
    except OverflowError:
        raise RequestError("term ends beyond the representable date range") from None

    nodes = []
    links = []
    for element in m.objects(res, ELEMENT):
        if not isinstance(element, Iri):
            raise RequestError(f"reservation element {element!r} is not an IRI")
        types = m.types(element)
        cls = _minimal_compute_class(m, types)
        if cls is not None:
            in_domain = m.value(element, IN_DOMAIN)
            nodes.append(
                RequestNode(
                    iri=element,
                    compute_class=cls,
                    interfaces=tuple(
                        o for o in m.objects(element, HAS_INTERFACE) if isinstance(o, Iri)
                    ),
                    in_domain=in_domain if isinstance(in_domain, Iri) else None,
                )
            )
        elif NETWORK_CONNECTION in types:
            layer = m.value(element, AT_LAYER)
            if not isinstance(layer, Iri):
                raise RequestError(f"link {element.value} has no atLayer")
            bandwidth = int_value(m.value(element, REQUESTED_BANDWIDTH)) or 0
            if bandwidth < 0:
                raise RequestError(f"link {element.value} requests negative bandwidth {bandwidth}")
            links.append(
                RequestLink(
                    iri=element,
                    interfaces=tuple(
                        sorted(
                            (o for o in m.objects(element, HAS_INTERFACE) if isinstance(o, Iri)),
                            key=lambda i: i.value,
                        )
                    ),
                    layer=layer,
                    bandwidth=bandwidth,
                    broadcast=BROADCAST_CONNECTION in types,
                )
            )
        else:
            raise RequestError(
                f"element {element.value} is neither a compute element nor a connection"
            )
    nodes.sort(key=lambda n: n.iri.value)
    links.sort(key=lambda l: l.iri.value)

    owned = {}
    for n in nodes:
        for i in n.interfaces:
            if i in owned:
                raise RequestError(f"interface {i.value} owned by two nodes")
            owned[i] = n
    for l in links:
        if not l.broadcast and len(l.interfaces) != 2:
            raise RequestError(
                f"point-to-point link {l.iri.value} has {len(l.interfaces)} interfaces"
            )
        for i in l.interfaces:
            if i not in owned:
                raise RequestError(f"link {l.iri.value} interface {i.value} owned by no node")
    return SliceRequest(
        nodes=tuple(nodes),
        links=tuple(links),
        term=term,
        model=source if source is not None else m,
    )


# -- manifest ---------------------------------------------------------------------


def slice_base(slice_id: str) -> str:
    return f"urn:orca:slice:{slice_id}"


def build_manifest(req: SliceRequest, plan) -> tuple:
    """The manifest document as (prefix map, triples): every request
    statement, in order, then the provisioned entities, each linked back to
    its request entity via provisionedFrom; each triple once, and no index.

    Raises PlanIncomplete when the plan misses a request element.
    """
    base = slice_base(plan.slice_id)
    prefixes = {**vocab.BASE_PREFIXES, "sl": base + "/", **req.model.prefixes}

    vm_of, triples = {}, []
    for k, node in enumerate(req.nodes):
        placement = plan.placements.get(node.iri)
        if placement is None:
            raise PlanIncomplete(f"no placement for node {node.iri.value}")
        vm = Iri(f"{base}/vm/{k}")
        vm_of[node.iri] = vm
        triples += [(vm, RDF_TYPE, placement.compute_class), (vm, PROVISIONED_FROM, node.iri)]
        triples.append((vm, IN_DOMAIN, placement.domain))
        triples.append((vm, MANAGEMENT_ADDRESS, string(placement.management_address or "")))
        if placement.host is not None:
            triples.append((vm, HOSTED_ON, placement.host))

    for j, link in enumerate(req.links):
        realization = plan.realizations.get(link.iri)
        if realization is None:
            raise PlanIncomplete(f"no realization for link {link.iri.value}")
        net = Iri(f"{base}/net/{j}")
        triples += [(net, RDF_TYPE, NETWORK_CONNECTION), (net, AT_LAYER, link.layer)]
        triples.append((net, PROVISIONED_FROM, link.iri))
        triples += [(net, ALLOCATED_LABEL, integer(n)) for n in sorted(realization.labels())]
        root_vm = vm_of.get(realization.root_node)
        if root_vm is None:
            raise PlanIncomplete(f"link {link.iri.value} root node is not placed")
        triples.append((net, CONNECTED_TO, root_vm))
        hop_counter = 0
        for branch in realization.branches:
            target_vm = vm_of.get(branch.to_node)
            if target_vm is None:
                raise PlanIncomplete(f"link {link.iri.value} member is not placed")
            prev = net
            for device, label in branch.hop_devices():
                hop = Iri(f"{base}/net/{j}/hop/{hop_counter}")
                hop_counter += 1
                triples += [(hop, RDF_TYPE, PATH_HOP), (hop, PROVISIONED_FROM, link.iri)]
                triples += [(hop, HOP_DEVICE, device), (hop, HOP_INDEX, integer(hop_counter - 1))]
                if label is not None:
                    triples.append((hop, HOP_LABEL, integer(label)))
                triples.append((prev, CONNECTED_TO, hop))
                prev = hop
            triples.append((prev, CONNECTED_TO, target_vm))
    return prefixes, list(dict.fromkeys([*req.model, *[_new(Triple, t) for t in triples]]))


def check_homeomorphic(req: SliceRequest, manifest) -> bool:
    """True iff smoothing out degree-2 path hops from the provisioned
    topology leaves a graph isomorphic to the request topology under the
    provisionedFrom correspondence. The manifest is any iterable of its
    triples, read once.

    Request topology here is the incidence graph: one vertex per node, one
    per link, an edge wherever a node owns one of the link's interfaces.
    """
    corr, hops, edges = {}, set(), []
    for s, p, o in manifest:
        if p is PROVISIONED_FROM:
            if isinstance(o, Iri) and corr.setdefault(s, o) is not o:
                return False
        elif p is CONNECTED_TO:
            edges.append((s, o))
        elif p is RDF_TYPE and o is PATH_HOP:
            hops.add(s)
    verts = set(corr)
    hops &= verts
    near = {v: set() for v in verts}  # the edges, as neighbour sets
    for s, o in edges:
        if s in verts and o in verts and s is not o:
            near[s].add(o)
            near[o].add(s)

    # smooth out degree-2 hops, least IRI first. No degree grows, so a hop is
    # queued once, on reaching 2, and skipped if it has dropped below 2 since.
    heap = [(h.value, h) for h in hops if len(near[h]) == 2]
    heapq.heapify(heap)
    while heap:
        h = heapq.heappop(heap)[1]
        if len(near[h]) != 2:
            continue
        a, b = near.pop(h)
        hops.discard(h)
        verts.discard(h)
        for v, w in ((a, b), (b, a)):
            near[v].discard(h)
            if w not in near[v]:
                near[v].add(w)
            elif v in hops and len(near[v]) == 2:
                heapq.heappush(heap, (v.value, v))
    if hops:
        return False  # a hop vertex survived smoothing: not a simple chain

    mapped = {frozenset((corr[v], corr[w])) for v in near for w in near[v]}
    expected = set()
    for link in req.links:
        for owner in link.owners(req):
            expected.add(frozenset((owner.iri, link.iri)))
    if mapped != expected:
        return False

    # provisioned entity sets must biject onto request elements
    images = {}
    for v in verts:
        images.setdefault(corr[v], []).append(v)
    for node in req.nodes:
        if len(images.get(node.iri, [])) != 1:
            return False
    for link in req.links:
        if len(images.get(link.iri, [])) != 1:
            return False
    return True
