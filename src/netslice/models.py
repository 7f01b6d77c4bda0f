"""Typed views and builders for the four document kinds in the slice
lifecycle: substrate description, substrate delegation, slice request,
slice manifest.

Views are plain dataclasses extracted from an entailed model; builders are
pure functions back to models. Naming of generated entities is a
deterministic function of (slice id, request entity ordinal) so rebuilt
manifests serialize byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import Optional

from . import vocab
from .graphstore import (
    Iri,
    Literal,
    Model,
    RDF_TYPE,
    Triple,
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
    DISK_IMAGE,
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
    INTERFACE_OF,
    INTERNALLY_REACHABLE,
    LABEL_TRANSLATOR,
    LAYERS,
    LINKED_TO,
    MANAGEMENT_ADDRESS,
    NETWORK_CONNECTION,
    NETWORK_DOMAIN,
    PATH_HOP,
    POST_BOOT_SCRIPT,
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
    """Strict ISO 8601 UTC instant: YYYY-MM-DDTHH:MM:SSZ."""
    try:
        dt = datetime.strptime(lexical, "%Y-%m-%dT%H:%M:%SZ")
    except ValueError as e:
        raise ValueError(f"bad dateTime {lexical!r}: {e}") from None
    return dt.replace(tzinfo=timezone.utc)


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


@dataclass(frozen=True)
class SubstrateDevice:
    iri: Iri
    interfaces: tuple
    label_translator: bool


@dataclass(frozen=True)
class SubstrateLink:
    iri: Iri
    interfaces: tuple  # exactly two, sorted by IRI
    layer: Iri
    capacity: int
    label_pool: LabelSet  # the labels the document states free


@dataclass(frozen=True)
class ComputePool:
    node: Iri  # attachment point; a device with interfaces
    provides: Iri  # compute element class provisioned from this pool
    units: int


@dataclass(frozen=True)
class BorderInterface:
    iri: Iri
    owner: Iri  # internal device owning the interface
    layer: Optional[Iri]
    bandwidth: int
    label_pool: LabelSet  # the labels the document states free
    remote: Optional[Iri]  # the peer border interface in another domain


@dataclass(frozen=True)
class SubstrateGraph:
    domain: Iri
    devices: tuple
    links: tuple
    pools: tuple
    borders: tuple
    class_axioms: tuple = ()  # subclass triples for provider-defined pool classes


def _interface_owner(m: Model, iface: Iri, candidates: set) -> list:
    return [o for o in m.objects(iface, vocab.INTERFACE_OF) if o in candidates]


def _pool_problems(kind: str, subject: Iri, layer, pool: LabelSet):
    """The problem of a label pool outside its pooled layer's domain, if any."""
    spec = LAYERS.get(layer)
    if spec is not None and spec.pooled and not spec.pool_in_domain(pool):
        domain = f"{spec.min_label}-{spec.max_label}"
        yield f"{kind} {subject.value} label pool exceeds layer domain {domain}"


def parse_substrate(m: Model, residual: Optional[dict] = None) -> SubstrateGraph:
    """Typed view of an entailed substrate advertisement: the domain's
    devices, links, compute pools and border interfaces. `residual` is
    residual_of(m), when the caller already has it.

    Raises SubstrateError listing every problem found in the links,
    borders, label pools and adaptations. Adaptations are checked but not
    kept: the search reads them, and device layers, from the model."""
    if residual is None:
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
        units = residual.get(("units", node), 0)
        for cls in m.objects(node, PROVISIONS):
            if isinstance(cls, Iri):
                pools.append(ComputePool(node=node, provides=cls, units=units))
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
        capacity = residual.get(("bw", link))
        if capacity is None or capacity < 0:
            problems.append(f"link {link.value} has no non-negative availableBandwidth")
            capacity = 0
        pool = residual.get(("label", link), NO_LABELS)
        problems.extend(_pool_problems("link", link, layer, pool))
        links.append(SubstrateLink(link, (a, b), layer, capacity, pool))
    links.sort(key=lambda l: l.iri.value)

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
                bandwidth=residual.get(("bw", bif), 0),
                label_pool=pool,
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
        domain, tuple(devices), tuple(links), tuple(pools), tuple(borders), axioms
    )


def build_delegation(s: SubstrateGraph) -> Model:
    """Compress a substrate into the abstract delegation advertised to a broker:
    one domain node, its border interfaces, aggregate compute units, and
    border-pair internal reachability: two borders are reachable when
    substrate links join their owners, from one labelling of components."""
    m = Model(dict(vocab.BASE_PREFIXES))
    m.add(Triple(s.domain, RDF_TYPE, NETWORK_DOMAIN))
    for b in s.borders:
        m.add(Triple(s.domain, HAS_INTERFACE, b.iri))
        m.add(Triple(b.iri, RDF_TYPE, BORDER_INTERFACE))
        m.add(Triple(b.iri, AVAILABLE_BANDWIDTH, integer(b.bandwidth)))
        if b.layer is not None:
            m.add(Triple(b.iri, AT_LAYER, b.layer))
        if b.label_pool:
            m.add(Triple(b.iri, AVAILABLE_LABEL_SET, string(render_label_set(b.label_pool))))
        if b.remote is not None:
            m.add(Triple(b.iri, LINKED_TO, b.remote))
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
    for link in s.links:
        a, b = link.interfaces
        da, db = owner_of.get(a), owner_of.get(b)
        if da and db:
            root[find(da)] = find(db)
    for i, b1 in enumerate(s.borders):
        for b2 in s.borders[i + 1 :]:
            if find(b1.owner) == find(b2.owner):
                m.add(Triple(b1.iri, INTERNALLY_REACHABLE, b2.iri))
    # one delegated pool per distinct set of provided classes, so a host
    # that provisions several classes advertises its units once
    hosts = {}  # node -> (the classes it provisions, its units)
    for p in s.pools:
        hosts.setdefault(p.node, (set(), p.units))[0].add(p.provides)
    totals = {}
    for provided, units in hosts.values():
        key = tuple(sorted(provided, key=lambda c: c.value))
        totals[key] = totals.get(key, 0) + units
    for provided, total in totals.items():
        pool_node = Iri(f"{s.domain.value}/pool/{'+'.join(c.local() for c in provided)}")
        m.add(Triple(pool_node, RDF_TYPE, SERVER_CLOUD))
        m.add(Triple(pool_node, IN_DOMAIN, s.domain))
        m.add_all(Triple(pool_node, PROVISIONS, c) for c in provided)
        m.add(Triple(pool_node, AVAILABLE_UNITS, integer(total)))
    if any(d.label_translator for d in s.devices):
        m.add(Triple(s.domain, RDF_TYPE, LABEL_TRANSLATOR))
    m.add_all(s.class_axioms)
    return m


@dataclass(frozen=True)
class DelegationView:
    """What a broker keeps of one registered delegation besides its ledger.
    The broker routes and binds over the closed delegation models, and reads
    the pools' units from its free figures."""

    domain: Iri


def parse_delegation(m: Model) -> DelegationView:
    """Typed view of a closed delegation."""
    domains = m.typed(NETWORK_DOMAIN)
    if len(domains) != 1:
        raise SubstrateError([f"delegation must describe exactly one domain, got {len(domains)}"])
    return DelegationView(domain=domains[0])


def pool_classes(m: Model, node: Iri) -> tuple:
    """The compute classes a delegated pool node provisions, sorted by IRI."""
    provided = (c for c in m.objects(node, PROVISIONS) if isinstance(c, Iri))
    return tuple(sorted(provided, key=lambda c: c.value))


# -- slice request ----------------------------------------------------------------


@dataclass(frozen=True)
class RequestNode:
    iri: Iri
    compute_class: Iri
    interfaces: tuple
    in_domain: Optional[Iri] = None
    disk_image: Optional[str] = None
    post_boot_script: Optional[str] = None


@dataclass(frozen=True)
class RequestLink:
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


@dataclass(frozen=True)
class Term:
    begin: datetime
    duration_seconds: int

    @property
    def end(self) -> datetime:
        return self.begin + timedelta(seconds=self.duration_seconds)


@dataclass(frozen=True)
class SliceRequest:
    reservation: Iri
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
        raise RequestError("term must carry hasBeginning and hasDurationSeconds")
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
            image = m.value(element, DISK_IMAGE)
            script = m.value(element, POST_BOOT_SCRIPT)
            nodes.append(
                RequestNode(
                    iri=element,
                    compute_class=cls,
                    interfaces=tuple(
                        o for o in m.objects(element, HAS_INTERFACE) if isinstance(o, Iri)
                    ),
                    in_domain=in_domain if isinstance(in_domain, Iri) else None,
                    disk_image=image.lexical if isinstance(image, Literal) else None,
                    post_boot_script=script.lexical if isinstance(script, Literal) else None,
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
        reservation=res,
        nodes=tuple(nodes),
        links=tuple(links),
        term=term,
        model=source if source is not None else m,
    )


# -- manifest ---------------------------------------------------------------------


def slice_base(slice_id: str) -> str:
    return f"urn:orca:slice:{slice_id}"


def build_manifest(req: SliceRequest, plan) -> Model:
    """Manifest model: every request statement plus provisioned entities,
    each linked back to its request entity via provisionedFrom.

    Raises PlanIncomplete when the plan misses a request element.
    """
    base = slice_base(plan.slice_id)
    m = Model(dict(req.model.prefixes))
    for name, ns in vocab.BASE_PREFIXES.items():
        m.prefixes.setdefault(name, ns)
    m.prefixes.setdefault("sl", base + "/")
    m.add_all(req.model)

    vm_of = {}
    for k, node in enumerate(req.nodes):
        placement = plan.placements.get(node.iri)
        if placement is None:
            raise PlanIncomplete(f"no placement for node {node.iri.value}")
        vm = Iri(f"{base}/vm/{k}")
        vm_of[node.iri] = vm
        m.add(Triple(vm, RDF_TYPE, placement.compute_class))
        m.add(Triple(vm, PROVISIONED_FROM, node.iri))
        m.add(Triple(vm, IN_DOMAIN, placement.domain))
        m.add(Triple(vm, MANAGEMENT_ADDRESS, string(placement.management_address or "")))
        if placement.host is not None:
            m.add(Triple(vm, HOSTED_ON, placement.host))

    for j, link in enumerate(req.links):
        realization = plan.realizations.get(link.iri)
        if realization is None:
            raise PlanIncomplete(f"no realization for link {link.iri.value}")
        net = Iri(f"{base}/net/{j}")
        m.add(Triple(net, RDF_TYPE, NETWORK_CONNECTION))
        m.add(Triple(net, AT_LAYER, link.layer))
        m.add(Triple(net, PROVISIONED_FROM, link.iri))
        for label in sorted(realization.labels()):
            m.add(Triple(net, ALLOCATED_LABEL, integer(label)))
        root_vm = vm_of.get(realization.root_node)
        if root_vm is None:
            raise PlanIncomplete(f"link {link.iri.value} root node is not placed")
        m.add(Triple(net, CONNECTED_TO, root_vm))
        hop_counter = 0
        for branch in realization.branches:
            target_vm = vm_of.get(branch.to_node)
            if target_vm is None:
                raise PlanIncomplete(f"link {link.iri.value} member is not placed")
            prev = net
            for device, label in branch.hop_devices():
                hop = Iri(f"{base}/net/{j}/hop/{hop_counter}")
                hop_counter += 1
                m.add(Triple(hop, RDF_TYPE, PATH_HOP))
                m.add(Triple(hop, PROVISIONED_FROM, link.iri))
                m.add(Triple(hop, HOP_DEVICE, device))
                m.add(Triple(hop, HOP_INDEX, integer(hop_counter - 1)))
                if label is not None:
                    m.add(Triple(hop, HOP_LABEL, integer(label)))
                m.add(Triple(prev, CONNECTED_TO, hop))
                prev = hop
            m.add(Triple(prev, CONNECTED_TO, target_vm))
    return m


def check_homeomorphic(req: SliceRequest, manifest: Model) -> bool:
    """True iff smoothing out degree-2 path hops from the provisioned
    topology leaves a graph isomorphic to the request topology under the
    provisionedFrom correspondence.

    Request topology here is the incidence graph: one vertex per node, one
    per link, an edge wherever a node owns one of the link's interfaces.
    """
    corr = {}
    for t in manifest.match(p=PROVISIONED_FROM):
        if isinstance(t.object, Iri):
            if t.subject in corr and corr[t.subject] != t.object:
                return False
            corr[t.subject] = t.object
    verts = set(corr)
    hops = {v for v in verts if PATH_HOP in manifest.types(v)}
    edges = set()
    for t in manifest.match(p=CONNECTED_TO):
        if t.subject in verts and isinstance(t.object, Iri) and t.object in verts:
            if t.subject != t.object:
                edges.add(frozenset((t.subject, t.object)))

    # smooth out degree-2 hop vertices
    changed = True
    while changed:
        changed = False
        degree = {}
        for e in edges:
            for v in e:
                degree[v] = degree.get(v, 0) + 1
        for h in sorted(hops, key=lambda v: v.value):
            if degree.get(h, 0) == 2:
                incident = [e for e in edges if h in e]
                neighbors = sorted(
                    {v for e in incident for v in e if v != h}, key=lambda v: v.value
                )
                if len(neighbors) != 2:
                    continue  # parallel edges to one neighbor: not a chain
                edges -= set(incident)
                edges.add(frozenset(neighbors))
                hops.discard(h)
                verts.discard(h)
                changed = True
                break
    if hops:
        return False  # a hop vertex survived smoothing: not a simple chain

    mapped = set()
    for e in edges:
        a, b = sorted(e, key=lambda v: v.value)
        mapped.add(frozenset((corr[a], corr[b])))

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
