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


class RequestError(ValueError):
    """A request the typed view refuses."""


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
    pools: tuple
    borders: tuple  # in IRI order
    reachable: tuple  # (border, border) IRI pairs, in border order, whose owners links join
    translator: bool  # whether a device in the domain is a LabelTranslator
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
    compute pools (in node IRI, then class IRI order, the AM's first-fit
    order), its border interfaces, which pairs of borders reach each other
    (their owners are joined by links between the domain's devices),
    whether a device in it translates labels, and its checked residual_of
    figures. Devices and links are checked but not kept: the search reads
    them, their layers and adaptations from the model.

    Raises SubstrateError listing every problem found in the links,
    borders, label pools and adaptations."""
    residual = residual_of(m)
    problems = []
    domains = m.typed(NETWORK_DOMAIN)
    if len(domains) != 1:
        raise SubstrateError([f"expected exactly one NetworkDomain, found {len(domains)}"])
    domain = domains[0]

    devices = set()
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
        devices.add(d)

    pools = []
    for node in sorted({t.subject for t in m.match(p=PROVISIONS)}, key=lambda s: s.value):
        if m.value(node, IN_DOMAIN) != domain:
            continue
        for cls in m.objects(node, PROVISIONS):
            if isinstance(cls, Iri):
                pools.append(ComputePool(node=node, provides=cls))
    attach_points = devices | {p.node for p in pools}

    root = {}  # a union-find over the devices that links join

    def find(x):
        while root.get(x, x) != x:
            root[x] = root.get(root[x], root[x])  # path halving
            x = root[x]
        return x

    for link in m.typed(NETWORK_CONNECTION):
        if BROADCAST_CONNECTION in m.types(link):
            problems.append(f"substrate link {link.value} may not be a broadcast connection")
            continue
        ifaces = [o for o in m.objects(link, vocab.HAS_ENDPOINT) if isinstance(o, Iri)]
        if len(ifaces) != 2:
            problems.append(f"link {link.value} has {len(ifaces)} interfaces, expected 2")
            continue
        joined = []
        for iface in ifaces:
            owners = _interface_owner(m, iface, attach_points)
            if len(owners) != 1:
                problems.append(
                    f"link endpoint {iface.value} belongs to {len(owners)} elements, expected 1"
                )
            elif owners[0] in devices:
                joined.append(find(owners[0]))
        if len(joined) == 2:
            root[joined[0]] = joined[1]
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

    borders = []
    for bif in m.typed(BORDER_INTERFACE):
        owners = _interface_owner(m, bif, attach_points)
        if len(owners) != 1:
            problems.append(f"border interface {bif.value} has {len(owners)} owners, expected 1")
            continue
        layer = m.value(bif, AT_LAYER)
        pool = residual.get(("label", bif), NO_LABELS)
        problems.extend(_pool_problems("border interface", bif, layer, pool))
        remotes = [  # a peer no element of the domain owns
            r
            for r in m.objects(bif, LINKED_TO)
            if isinstance(r, Iri) and not _interface_owner(m, r, attach_points)
        ]
        borders.append(
            BorderInterface(
                iri=bif,
                owner=owners[0],
                layer=layer if isinstance(layer, Iri) else None,
                remote=remotes[0] if remotes else None,
            )
        )

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
    reachable = tuple(
        (b1.iri, b2.iri)
        for i, b1 in enumerate(borders)
        for b2 in borders[i + 1 :]
        if find(b1.owner) == find(b2.owner)
    )
    translator = any(LABEL_TRANSLATOR in m.types(d) for d in devices)
    return SubstrateGraph(domain, tuple(pools), tuple(borders), reachable, translator, residual, axioms)


def build_delegation(s: SubstrateGraph, free: Optional[dict] = None) -> Model:
    """Compress a substrate into the abstract delegation advertised to a broker:
    one domain node, its border interfaces, aggregate compute units, the
    view's border-pair internal reachability and its translator flag.
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
    triples += [(b1, INTERNALLY_REACHABLE, b2) for b1, b2 in s.reachable]
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
    if s.translator:
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
    members: tuple  # the IRIs of the nodes owning its interfaces, each once, in IRI order


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
    """The least-IRI compute class of types that no other of them specialises."""
    compute = [t for t in types if vocab.satisfies(m, t, COMPUTE_ELEMENT)]
    specialised = {s for u in compute for s in vocab.superclasses(m, u) if s is not u}
    return min((t for t in compute if t not in specialised), key=lambda t: t.value, default=None)


def _single(m: Model, s: Iri, p: Iri):
    """The one value of a request property, or None; a RequestError if several."""
    values = m._spo.get(s, {}).get(p, ())
    if len(values) > 1:
        raise RequestError(f"{s.value} states {len(values)} values of {p.local()}, expected one")
    return next(iter(values), None)


def parse_request(m: Model, source: Model) -> SliceRequest:
    """Typed slice request from an entailed model (schema merged in);
    `source` is the request document itself, which the view keeps and a
    manifest repeats.

    Nodes without an inDomain binding stay unbound; the controller binds
    them later. Domain repetition and endpoint counts are rule violations;
    a point-to-point link must still state exactly two interfaces.
    """
    reservations = m._pos.get(RDF_TYPE, {}).get(RESERVATION, ())
    if len(reservations) != 1:
        raise RequestError(f"expected exactly one Reservation, found {len(reservations)}")
    (res,) = reservations

    terms = [o for o in m._spo[res].get(HAS_TERM, ()) if isinstance(o, Iri)]
    if len(terms) != 1:
        raise RequestError("reservation must reference exactly one term interval")
    begin_lit = _single(m, terms[0], HAS_BEGINNING)
    duration = int_value(_single(m, terms[0], HAS_DURATION_SECONDS))
    if not isinstance(begin_lit, Literal) or duration is None:
        raise RequestError(f"term {terms[0].value} must carry hasBeginning and hasDurationSeconds")
    if duration <= 0:
        raise RequestError("term duration must be positive")
    term = Term(parse_datetime(begin_lit.lexical), duration)
    try:
        term.end
    except OverflowError:
        raise RequestError("term ends beyond the representable date range") from None

    nodes, connections = [], []
    for element in m.objects(res, ELEMENT):
        if not isinstance(element, Iri):
            raise RequestError(f"reservation element {element!r} is not an IRI")
        types = m.types(element)
        cls = _minimal_compute_class(m, types)
        interfaces = tuple(o for o in m.objects(element, HAS_INTERFACE) if isinstance(o, Iri))
        if cls is not None:
            in_domain = _single(m, element, IN_DOMAIN)
            in_domain = in_domain if isinstance(in_domain, Iri) else None
            nodes.append(RequestNode(element, cls, interfaces, in_domain))
        elif NETWORK_CONNECTION in types:
            layer = _single(m, element, AT_LAYER)
            if not isinstance(layer, Iri):
                raise RequestError(f"link {element.value} has no atLayer")
            stated = _single(m, element, REQUESTED_BANDWIDTH)
            bandwidth = 0 if stated is None else int_value(stated)
            if bandwidth is None:
                raise RequestError(f"link {element.value} requests bandwidth {stated!r}, not an xsd:integer")
            if bandwidth < 0:
                raise RequestError(f"link {element.value} requests negative bandwidth {bandwidth}")
            connections.append((element, interfaces, layer, bandwidth, BROADCAST_CONNECTION in types))
        else:
            raise RequestError(f"element {element.value} is neither a compute element nor a connection")
    nodes.sort(key=lambda n: n.iri.value)

    owned = {}
    for n in nodes:
        for i in n.interfaces:
            if i in owned:
                raise RequestError(f"interface {i.value} owned by two nodes")
            owned[i] = n.iri
    links = []
    for iri, interfaces, layer, bandwidth, broadcast in sorted(connections, key=lambda c: c[0].value):
        if not broadcast and len(interfaces) != 2:
            raise RequestError(f"point-to-point link {iri.value} has {len(interfaces)} interfaces")
        for i in interfaces:
            if i not in owned:
                raise RequestError(f"link {iri.value} interface {i.value} owned by no node")
        members = tuple(sorted({owned[i] for i in interfaces}, key=lambda n: n.value))
        links.append(RequestLink(iri, interfaces, layer, bandwidth, broadcast, members))
    return SliceRequest(tuple(nodes), tuple(links), term, source)


# -- manifest ---------------------------------------------------------------------


def slice_base(slice_id: str) -> str:
    return f"urn:orca:slice:{slice_id}"


def build_manifest(req: SliceRequest, slice_id: str, plan, hosts: dict, paths: dict) -> tuple:
    """The manifest document as (prefix map, triples): every request
    statement, in order, then the provisioned entities, each linked back to
    its request entity via provisionedFrom; each triple once, and no index.

    `plan` is the `EmbeddingPlan` the slice was ticketed from, and the
    aggregate managers' redeem answers fill it in: `hosts` maps each node
    to (host, compute class, management address), and `paths` maps
    ((link, member), route hop index) to that hop's detail path. A strand's
    path hops are its detail paths' elements stitched end to end, hosts
    excluded, each with the label it is entered by, numbered on across the
    link's strands.
    """
    base = slice_base(slice_id)
    prefixes = {**vocab.BASE_PREFIXES, "sl": base + "/", **req.model.prefixes}

    vm_of, triples = {}, []
    for k, node in enumerate(req.nodes):
        host, compute_class, address = hosts[node.iri]
        vm = Iri(f"{base}/vm/{k}")
        vm_of[node.iri] = vm
        triples += [(vm, RDF_TYPE, compute_class), (vm, PROVISIONED_FROM, node.iri)]
        triples.append((vm, IN_DOMAIN, plan.binding[node.iri][0]))
        triples += [(vm, MANAGEMENT_ADDRESS, string(address)), (vm, HOSTED_ON, host)]

    for j, link in enumerate(req.links):
        root, branches = plan.strands[link.iri]
        detail = [
            [paths[((link.iri, b.to_node), i)] for i in range(len(b.route.hops))] for b in branches
        ]
        labels = {
            seg.label
            for branch, expansions in zip(branches, detail)
            for path in (branch.route, *expansions)
            for seg in path.segments
            if seg.label is not None
        }
        net = Iri(f"{base}/net/{j}")
        triples += [(net, RDF_TYPE, NETWORK_CONNECTION), (net, AT_LAYER, link.layer)]
        triples.append((net, PROVISIONED_FROM, link.iri))
        triples += [(net, ALLOCATED_LABEL, integer(n)) for n in sorted(labels)]
        triples.append((net, CONNECTED_TO, vm_of[root]))
        hop_counter = 0
        for branch, expansions in zip(branches, detail):
            stitched = [
                (hop.element, path.segments[max(i - 1, 0)].label if path.segments else None)
                for path in expansions
                for i, hop in enumerate(path.hops)
            ]
            prev = net
            for device, label in stitched[1:-1]:
                hop = Iri(f"{base}/net/{j}/hop/{hop_counter}")
                triples += [(hop, RDF_TYPE, PATH_HOP), (hop, PROVISIONED_FROM, link.iri)]
                triples += [(hop, HOP_DEVICE, device), (hop, HOP_INDEX, integer(hop_counter))]
                if label is not None:
                    triples.append((hop, HOP_LABEL, integer(label)))
                triples.append((prev, CONNECTED_TO, hop))
                prev = hop
                hop_counter += 1
            triples.append((prev, CONNECTED_TO, vm_of[branch.to_node]))
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
    if mapped != {frozenset((member, link.iri)) for link in req.links for member in link.members}:
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
