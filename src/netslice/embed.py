"""Constrained pathfinding and request embedding.

The pathfinder yields candidate simple paths over device-level adjacency
in (hop count, lexicographic hop sequence) order and validates each against
label availability, bandwidth residuals and layer adaptation capabilities;
a failed candidate is skipped and the search continues with the next one.
The search reads a topology compiled once per model state and kept on the
model until its triples change (`Model.derived`): every device's adjacency
with its step keys, each step's carriers and layer, device layers,
adaptations, domain and translator flags and internallyReachable pairs. It
orders its queue by an A* bound (Hart, Nilsson & Raphael 1968): hops so far
plus the hop distance still to go. The bound is consistent and a prefix
sorts before its extensions, so candidates come out in the same order as
plain best-first enumeration, without expanding prefixes that can no
longer reach the destination.

The same engine and the same path type (`PathResult`, its `PathHop`s and
`PathSegment`s) serve both levels of the two-level embedding: the broker's
abstract delegation graph (domain nodes, border interfaces, reachability
flags), routed by `embed_request`, and a provider's detailed substrate
(devices, switch matrices, adaptations), expanded by `expand_domain_hop`
when an aggregate manager redeems a ticket. A strand keeps its broker
route: the route's segments are its border crossings, and each route hop
enters and leaves its domain by the hop's ingress and egress interfaces.

Residual capacity is typed data, never rewritten triples: a mapping keyed
like allocation ops, ("bw" | "label" | "units", subject), holds what is
free. The path search reads one beside the model; a DomainState keeps one
per domain, the broker's ledgers share one, and the broker deducts a
request's own crossings from a scratch copy of it. Only
`DomainState.snapshot()` writes residual figures back into a model, for
serializing; a delegation reads them from the map.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from functools import reduce
from itertools import islice
from operator import and_
from typing import NamedTuple, Optional

from . import vocab
from .graphstore import (
    Iri, Literal, Model, Record, Triple, _new, entail, int_value, integer, string, term_key,
)
from .models import (
    RESIDUAL_PROPERTIES, SliceRequest, SubstrateGraph, parse_substrate, pool_classes, residual_of,
)
from .vocab import (
    AT_LAYER,
    IN_DOMAIN,
    INTERNALLY_REACHABLE,
    LABEL_TRANSLATOR,
    LAYERS,
    NETWORK_CONNECTION,
    NETWORK_DOMAIN,
    NO_LABELS,
    PROVISIONS,
    RDFS_SUBCLASS_OF,
    render_label_set,
)


class InsufficientResources(Exception):
    def __init__(self, node: Iri, compute_class: Iri):
        self.node = node
        self.compute_class = compute_class
        super().__init__(f"no domain has units of {compute_class.local()} for {node.value}")


class EmbeddingFailed(Exception):
    def __init__(self, element: Iri, reason: str):
        self.element = element
        self.reason = reason
        super().__init__(f"{element.value}: {reason}")


class OverAllocation(Exception):
    pass


class DoubleRelease(Exception):
    pass


# -- path finding ---------------------------------------------------------------


class PathRequest(namedtuple("PathRequest", "source dest layer bandwidth required_label")):
    __slots__ = ()

    def __new__(cls, source: Iri, dest: Iri, layer: Iri, bandwidth=0, required_label=None):
        if source == dest:
            raise ValueError("path source and destination must differ")
        if bandwidth < 0:
            raise ValueError("bandwidth must be non-negative")
        if required_label is not None and required_label < 0:
            raise ValueError("required label must be non-negative")
        return _new(cls, (source, dest, layer, bandwidth, required_label))


class PathHop(NamedTuple):
    element: Iri
    ingress: Optional[Iri]
    egress: Optional[Iri]


class PathSegment(NamedTuple):
    """One traversed connection: the interface pair, the model entities
    carrying its resources (a link entity, or the two border interfaces of
    a crossing), and the allocated label if any."""

    a_iface: Iri
    b_iface: Iri
    carriers: tuple
    label: Optional[int]


class PathResult(NamedTuple):
    hops: tuple
    segments: tuple
    consumed_bandwidth: int

    @property
    def internal_elements(self) -> tuple:
        """Every element and interface along the path in walk order: each
        hop's ingress, element and egress, consecutive duplicates removed."""
        out = []
        for hop in self.hops:
            for element in (hop.ingress, hop.element, hop.egress):
                if element is not None and (not out or out[-1] != element):
                    out.append(element)
        return tuple(out)

    @property
    def allocated_label(self) -> Optional[int]:
        return next((seg.label for seg in self.segments if seg.label is not None), None)

    def hop_count(self) -> int:
        return len(self.segments)


class _Step(NamedTuple):
    """One compiled adjacency step: its neighbour and the interfaces it
    leaves and enters by, its place in the candidate order, and the carriers
    and layer of what it crosses (`_segment_of`)."""

    key: tuple  # (neighbour IRI, via IRIs) as text
    neighbor: Iri
    via: tuple  # (local interface, remote interface)
    carriers: Optional[tuple]  # None: the crossing layers disagree
    layer: Optional[Iri]  # None: the request's layer


class _Topology(NamedTuple):
    """What the search reads of a model, derived once per model state by
    `_compile`. It holds no reference to the model."""

    steps: dict  # node -> [_Step] in key order, for every subject of hasInterface
    preds: dict  # node -> nodes with a step to it
    layers: dict  # element -> its switching layer, or None
    adaptations: frozenset  # (device, {client, server}) with capacity >= 1
    domains: frozenset
    translators: frozenset
    reachable: frozenset  # {a, b} per internallyReachable triple


def _compile(m: Model) -> _Topology:
    """The search topology of m, for `m.derived(_compile)`. A node's steps
    are its hasInterface / linkedTo / interfaceOf walks off the index
    leaves, self-loops dropped, in key order (keys differ, so no two IRIs
    are compared)."""
    spo, steps, preds = m._spo, {}, {}
    for node in dict.fromkeys(s for by_o in m._pos.get(vocab.HAS_INTERFACE, {}).values() for s in by_o):
        out = steps[node] = []
        for key, n, a, b in sorted(
            ((n.value, (a.value, b.value)), n, a, b)
            for a in spo[node][vocab.HAS_INTERFACE] if isinstance(a, Iri)
            for b in spo.get(a, {}).get(vocab.LINKED_TO, ()) if isinstance(b, Iri)
            for n in spo.get(b, {}).get(vocab.INTERFACE_OF, ()) if isinstance(n, Iri) and n is not node
        ):
            out.append(_Step(key, n, (a, b), *_segment_of(m, a, b)))
            preds.setdefault(n, []).append(node)
    adaptations = set()
    for t in m.match(p=vocab.HAS_ADAPTATION):
        client = m.value(t.object, vocab.ADAPTATION_CLIENT)
        server = m.value(t.object, vocab.ADAPTATION_SERVER)
        cap = int_value(m.value(t.object, vocab.ADAPTATION_CAPACITY)) or 1
        if isinstance(client, Iri) and isinstance(server, Iri) and cap >= 1:
            adaptations.add((t.subject, frozenset((client, server))))
    layers = {node: _device_layer(m, node) for node in (*steps, *preds)}
    reachable = (frozenset((t.subject, t.object)) for t in m.match(p=INTERNALLY_REACHABLE))
    return _Topology(
        steps, preds, layers, frozenset(adaptations), frozenset(m.typed(NETWORK_DOMAIN)),
        frozenset(m.typed(LABEL_TRANSLATOR)), frozenset(reachable),
    )


def _candidate_paths(topo: _Topology, source: Iri, dest: Iri):
    """Simple paths from source to dest as _Step chains, in order of (hop
    count, lexicographic hop sequence). Parallel links yield distinct
    candidates.

    `togo` holds hop distances to dest over the compiled steps, ignoring
    simplicity, from a reverse BFS run one layer at a time as far as the
    search asks: a node not reached yet is farther than all reached, so a
    lookup runs layers until the node is reached or the BFS is exhausted
    (it cannot reach dest). A prefix is queued under (hops so far + togo of
    its last node, its key); one that can no longer reach dest is dropped.
    `togo[u] <= 1 + togo[v]` on every step u -> v (the bound is
    consistent), so an extension's bound is never below its prefix's, and
    a prefix's key sorts before every extension of it: entries pop in
    increasing (bound, key) order. A complete path's bound is its hop
    count, and every prefix of a path to dest is kept, so the paths come
    out in exactly the order of plain best-first enumeration by (hop count,
    key), and all of them come out.
    """
    togo = {dest: 0}
    frontier = [dest]

    def reached(node) -> bool:
        nonlocal frontier
        while node not in togo and frontier:
            depth, layer = togo[frontier[0]] + 1, []
            for v in frontier:
                for p in topo.preds.get(v, ()):
                    if p not in togo:
                        togo[p] = depth
                        layer.append(p)
            frontier = layer
        return node in togo

    if not reached(source):
        return
    heap = [(togo[source], (), ())]
    while heap:
        _, key, chain = heapq.heappop(heap)
        last = chain[-1].neighbor if chain else source
        if last == dest:
            yield chain
            continue
        visited = {source} | {s.neighbor for s in chain}
        for step in topo.steps[last]:
            neighbor = step.neighbor
            if neighbor in visited or not (neighbor in togo or reached(neighbor)):
                continue
            bound = len(chain) + 1 + togo[neighbor]
            heapq.heappush(heap, (bound, key + (step.key,), chain + (step,)))


def _device_layer(m: Model, device: Iri) -> Optional[Iri]:
    direct = m.value(device, AT_LAYER)
    if isinstance(direct, Iri) and direct in LAYERS:
        return direct
    for matrix in m.objects(device, vocab.HAS_SWITCH_MATRIX):
        if isinstance(matrix, Iri):
            for t in m.types(matrix):
                if t in LAYERS:
                    return t
    return None


def _carrier_bandwidth(free: dict, carriers) -> int:
    return min((free.get(("bw", c), 0) for c in carriers), default=0)


def _segment_of(m: Model, a_iface: Iri, b_iface: Iri):
    """The resource carriers and layer of one interface pair: (None, None)
    when the crossing layers disagree, a None layer when none is stated."""
    links = [  # of several, the first in IRI order is taken
        link for link in m._pos.get(vocab.HAS_ENDPOINT, {}).get(a_iface, ())
        if b_iface in m._spo[link][vocab.HAS_ENDPOINT] and NETWORK_CONNECTION in m.types(link)
    ]
    if links:
        link = min(links, key=term_key)
        layer = m.value(link, AT_LAYER)
        return (link,), layer if isinstance(layer, Iri) else None
    layers = {lv for lv in (m.value(i, AT_LAYER) for i in (a_iface, b_iface)) if isinstance(lv, Iri)}
    if len(layers) > 1:
        return None, None  # disagreeing crossing layers: unusable
    return (a_iface, b_iface), (layers.pop() if layers else None)


def _validate_candidate(topo: _Topology, free: dict, source: Iri, chain: tuple, preq: PathRequest):
    """Check one candidate path. Returns a PathResult or None."""
    elements = [source] + [s.neighbor for s in chain]

    segments = []
    for step in chain:
        if step.carriers is None or _carrier_bandwidth(free, step.carriers) < preq.bandwidth:
            return None
        segments.append([*step.via, step.layer or preq.layer, step.carriers, None])

    # layer transitions: at every element boundary, the two incident layers
    # must either agree or be bridged by an adaptation on that element.
    # Endpoints behave as if attached at the request layer.
    boundary_layers = (
        [(preq.layer, segments[0][2])]
        + [(segments[i][2], segments[i + 1][2]) for i in range(len(segments) - 1)]
        + [(segments[-1][2], preq.layer)]
    )
    for i, element in enumerate(elements):
        lin, lout = boundary_layers[i]
        is_domain = element in topo.domains
        intermediate = 0 < i < len(elements) - 1
        if lin != lout:
            if is_domain or (element, frozenset((lin, lout))) not in topo.adaptations:
                return None
        elif intermediate:
            if is_domain:
                crossing = frozenset((chain[i - 1].via[1], chain[i].via[0]))
                if crossing not in topo.reachable:
                    return None
            elif topo.layers[element] != lin:
                return None

    # label continuity: maximal runs of same-layer pooled segments, split
    # where a translator-capable element sits between two segments.
    scopes = []
    current = []
    for i, seg in enumerate(segments):
        spec = LAYERS.get(seg[2])
        pooled = spec is not None and spec.pooled
        if not pooled:
            if current:
                scopes.append(current)
                current = []
            continue
        if current:
            joint = elements[i]  # element between segment i-1 and i
            if joint in topo.translators or segments[current[-1]][2] != seg[2]:
                scopes.append(current)
                current = []
        current.append(i)
    if current:
        scopes.append(current)
    for scope in scopes:
        pools = [free.get(("label", c), NO_LABELS) for i in scope for c in segments[i][3]]
        if preq.required_label is None:
            common = reduce(and_, pools)
            if not common:
                return None
            chosen = common.lowest()
        elif all(preq.required_label in pool for pool in pools):
            chosen = preq.required_label
        else:
            return None
        for i in scope:
            segments[i][4] = chosen

    hops = []
    for i, element in enumerate(elements):
        ingress = chain[i - 1].via[1] if i > 0 else None
        egress = chain[i].via[0] if i < len(chain) else None
        hops.append(PathHop(element, ingress, egress))
    return PathResult(
        hops=tuple(hops),
        segments=tuple(PathSegment(a, b, carriers, label) for a, b, _, carriers, label in segments),
        consumed_bandwidth=preq.bandwidth,
    )


def shortest_valid_path(m: Model, preq: PathRequest, limit: int = 10, free: Optional[dict] = None):
    """Minimal-hop feasible path, or None.

    Candidates come out in (hop count, lexicographic) order, each simple
    path once; a failed candidate is skipped and the next one tried. Gives
    up after `limit` failed candidates or when the graph is exhausted.
    Bandwidth and labels are checked against `free` (see the module
    docstring), by default the figures m states.
    """
    if limit < 1:
        raise ValueError("limit must be at least 1")
    if free is None:
        free = residual_of(m)
    topo = m.derived(_compile)
    for chain in islice(_candidate_paths(topo, preq.source, preq.dest), limit):
        result = _validate_candidate(topo, free, preq.source, chain, preq)
        if result is not None:
            return result
    return None


# -- residual state ---------------------------------------------------------------


def _literal(kind: str, value) -> Literal:
    return string(render_label_set(value)) if kind == "label" else integer(value)


class DomainState:
    """One domain's substrate (or, at the broker, one delegation ledger) plus
    its residual state.

    The model is the document and is never rewritten. Residual state lives
    in three mappings keyed like allocation ops: `original` (the figures the
    document states), `free` and `used` (only entries in use), with
    free + used == original throughout: a sum of integers for bandwidth and
    units, a disjoint union of LabelSets for a label pool, so taking or
    returning a label costs the same on a 4,093-label pool as on a
    one-label one. `snapshot()` projects them back to
    triples so that a released state serializes byte-identically to the
    document. `share` moves `free` into a map that other states write to as
    well, so only the state's own keys are its figures.
    """

    def __init__(self, substrate: Optional[SubstrateGraph], model: Model, original: dict):
        self.substrate = substrate
        self.model = model
        self.original = original
        self.free: dict = dict(self.original)
        self.used: dict = {}
        self.active: dict[str, list] = {}  # token -> ops applied under it
        self._address_counter = 0

    def _step(self, op, sign: int) -> None:
        """Apply (sign 1) or revert (sign -1) one op; applying raises
        OverAllocation when the op does not fit."""
        kind, subject, amount = op
        if kind not in RESIDUAL_PROPERTIES:
            raise ValueError(f"unknown op {op!r}")
        key = (kind, subject)
        if kind == "label":
            free, used = self.free.get(key, NO_LABELS), self.used.get(key, NO_LABELS)
            if sign > 0:
                if amount not in free:
                    raise OverAllocation(f"{subject.value}: label {amount} not available")
                free, used = free.take(amount), used.put(amount)
            else:
                used = used.take(amount)
                if used or key not in self.original:  # else the document's figure comes back below
                    free = free.put(amount)
        else:
            free, unit = self.free.get(key, 0), "Mbps" if kind == "bw" else "units"
            if sign > 0 and amount > free:
                raise OverAllocation(f"{subject.value}: {amount} {unit} requested, {free} available")
            free, used = free - sign * amount, self.used.get(key, 0) + sign * amount
        if used:
            self.free[key], self.used[key] = free, used
        else:  # all returned: share the document's figure again
            self.used.pop(key, None)
            self.free[key] = self.original.get(key, free)

    def share(self, free: dict) -> None:
        """Keep the free figures in `free` from now on: they are written into
        it, and every later change writes through to it."""
        free.update(self.free)
        self.free = free

    def apply_ops(self, token: str, ops) -> None:
        """Apply an op list atomically under a token; rolls back on failure."""
        journal = self.active.setdefault(token, [])
        done = []
        try:
            for op in ops:
                self._step(op, 1)
                done.append(op)
        except OverAllocation:
            for op in reversed(done):
                self._step(op, -1)
            if not journal:
                self.active.pop(token, None)
            raise
        journal.extend(done)

    def release_token(self, token: str) -> None:
        journal = self.active.pop(token, None)
        if journal is None:
            owner = self.substrate.domain.value if self.substrate is not None else "ledger"
            raise DoubleRelease(f"{owner}: token {token!r} not active")
        for op in reversed(journal):
            self._step(op, -1)

    def has_token(self, token: str) -> bool:
        return token in self.active

    def next_address(self) -> str:
        self._address_counter += 1
        n = self._address_counter
        return f"10.103.{(n >> 8) & 255}.{n & 255}"

    def snapshot(self) -> Model:
        """The model with the residual written back for every figure in
        use: available figures (an empty label set dropped) and in-use ones.
        With nothing in use this is the model itself, which callers must
        not mutate."""
        if not self.used:
            return self.model
        m = self.model.copy()
        for (kind, subject), used in self.used.items():
            available, in_use = RESIDUAL_PROPERTIES[kind]
            for prop in (available, in_use):
                for t in list(m.match(s=subject, p=prop)):
                    m.remove(t)
            figures = ((available, self.free[(kind, subject)]), (in_use, used))
            if kind == "label" and not figures[0][1]:  # an exhausted label set is dropped
                figures = figures[1:]
            # loaded key by key, so no later removal empties an index leaf they refill
            m.add_all([_new(Triple, (subject, prop, _literal(kind, x))) for prop, x in figures])
        return m

    def conservation_problems(self) -> list:
        """Violations of free + used == original over the state's own keys,
        the document's figures and those in use, empty when sound. A figure
        out of use whose free entry is still the document's own object holds
        unless that figure is negative, so only the others are compared."""
        problems = []
        original, free = self.original, self.free
        keys = {
            key for key, orig in original.items()
            if free.get(key) is not orig or (key[0] != "label" and orig < 0)
        }
        keys.update(self.used)
        for kind, subject in sorted(keys, key=lambda k: (k[1].value, k[0])):
            zero = NO_LABELS if kind == "label" else 0
            orig, free, used = (
                d.get((kind, subject), zero) for d in (self.original, self.free, self.used)
            )
            if kind == "label":
                if free | used != orig or free & used:
                    problems.append(f"labels {subject.value}: partition of {str(orig)!r} broken")
            elif free + used != orig or free < 0 or used < 0:
                problems.append(f"{kind} {subject.value}: {free}+{used} != {orig}")
        return problems


def prepare_domain(raw: Model, base: Optional[Model] = None) -> DomainState:
    """DomainState for a raw substrate document: close it onto `base`, a
    frozen closed T-box (a World's, with its extensions; by default the
    built-in one), and take the typed view. Conformance checking is the
    caller's business."""
    closed = entail(raw, closed=vocab.entailed_schema() if base is None else base)
    substrate = parse_substrate(closed)
    return DomainState(substrate, closed, substrate.residual)


# -- embedding plan ----------------------------------------------------------------


class Placement(Record):
    __slots__ = ("node", "domain", "compute_class", "host", "management_address", "pool")

    def __init__(self, node: Iri, domain: Iri, compute_class: Iri, pool: Iri):
        self.node, self.domain, self.compute_class = node, domain, compute_class
        self.pool = pool  # the delegated pool binding took a unit from
        self.host = self.management_address = None  # filled in by redeem


class BranchPath(Record):
    """One root-to-member strand of a request link: its route over the
    delegations, the label each route hop's expansion must carry for
    continuity, and the per-hop detail expansions that redeem fills in."""

    __slots__ = ("to_node", "route", "required", "domain_paths")

    def __init__(self, to_node: Iri, route: PathResult, required: list):
        self.to_node = to_node
        self.route = route  # over domains; one hop, and no segment, within a domain
        self.required = required  # label or None per route hop (`_required_labels_per_domain`)
        self.domain_paths = []  # PathResult per route hop

    def hop_devices(self):
        """Intermediate (device, label) pairs along the stitched strand,
        endpoints' hosts excluded."""
        devices = [
            (hop.element, path.segments[max(i - 1, 0)].label if path.segments else None)
            for path in self.domain_paths
            for i, hop in enumerate(path.hops)
        ]
        return devices[1:-1]

    def labels(self):
        return {
            seg.label
            for path in (self.route, *self.domain_paths)
            for seg in path.segments
            if seg.label is not None
        }


class LinkRealization(Record):
    __slots__ = ("root_node", "branches")

    def __init__(self, root_node: Iri, branches: list):
        self.root_node, self.branches = root_node, branches  # a BranchPath per non-root member

    def labels(self):
        out = set()
        for b in self.branches:
            out |= b.labels()
        return out


class EmbeddingPlan(Record):
    __slots__ = ("slice_id", "placements", "realizations")

    def __init__(self, slice_id: str):
        self.slice_id = slice_id
        self.placements = {}  # node Iri -> Placement
        self.realizations = {}  # link Iri -> LinkRealization


# -- domain binding ----------------------------------------------------------------


def _pools_by_class(m: Model) -> dict:
    """The delegated pools of a closed merge of delegations, for
    `m.derived`: requested compute class -> domain -> pools able to
    provision it, domains in IRI order and each domain's pools by the
    number of classes they provision, then by their sorted class IRIs, so
    a pool kept for one class is drawn before one that several share. A
    pool serves the classes it provisions and their superclasses in m,
    provider extensions included."""
    pools = [
        (m.value(node, IN_DOMAIN), node, pool_classes(m, node))
        for node in dict.fromkeys(t.subject for t in m.match(p=PROVISIONS))
    ]
    index = {}
    for domain, node, provided in sorted(
        (p for p in pools if isinstance(p[0], Iri) and NETWORK_DOMAIN in m.types(p[0])),
        key=lambda p: (p[0].value, len(p[2]), [c.value for c in p[2]]),
    ):
        for cls in {sup for c in provided for sup in (c, *m.objects(c, RDFS_SUBCLASS_OF))}:
            index.setdefault(cls, {}).setdefault(domain, []).append(node)
    return index


def bind_domains(req: SliceRequest, routing: Optional[Model], free: dict) -> dict:
    """Assign every request node a delegated pool of the first domain, in
    IRI order, whose pools that serve its class (`_pools_by_class` of the
    routing view) can take it besides the nodes already assigned there;
    a bound node tries its own domain only. Each node holds one unit of
    `free`, the request's scratch copy of the broker's free figures.
    Returns node -> (domain, pool). Raises InsufficientResources when no
    domain can take a node."""
    index = routing.derived(_pools_by_class) if routing is not None else {}
    binding = {}
    pools_of = {}  # node -> the pools serving it in the domain tried or taken
    for node in req.nodes:
        by_domain = index.get(node.compute_class, {})
        for domain in by_domain if node.in_domain is None else (node.in_domain,):
            pools_of[node.iri] = by_domain.get(domain, ())
            pool = _claim_unit(node.iri, pools_of, binding, free, set())
            if pool is not None:
                binding[node.iri] = (domain, pool)
                break
        else:
            raise InsufficientResources(node.iri, node.compute_class)
    return binding


def _claim_unit(node: Iri, pools_of: dict, binding: dict, free: dict, seen: set):
    """A pool of `pools_of[node]` whose unit node can hold: the first with a
    unit left in `free`, which it takes, else one whose unit an assigned
    node gives up by moving to another of its pools (an augmenting path of
    bipartite matching; `seen` holds the pools already tried). None when
    there is neither, and then nothing has changed."""
    pools = pools_of[node]
    pool = next((p for p in pools if free.get(("units", p), 0) >= 1), None)
    if pool is not None:
        free[("units", pool)] -= 1
        return pool
    for pool in pools:
        if pool in seen:
            continue
        seen.add(pool)
        for holder, (domain, held) in binding.items():
            if held == pool:
                moved = _claim_unit(holder, pools_of, binding, free, seen)
                if moved is not None:
                    binding[holder] = (domain, moved)
                    return pool
    return None


# -- delegation-level embedding ----------------------------------------------------


def _required_labels_per_domain(route: PathResult, broker_view: Model):
    """For each domain hop of an inter-domain route, the label its internal
    expansion must carry (None when the domain translates labels or the
    crossings are unlabelled)."""
    translators = broker_view.derived(_compile).translators
    required = []
    for i, hop in enumerate(route.hops):  # the segments in and out of hop i
        labels = {s.label for s in route.segments[max(i - 1, 0):i + 1] if s.label is not None}
        required.append(None if hop.element in translators or not labels else min(labels))
    return required


def embed_request(
    req: SliceRequest, routing: Optional[Model], free: dict, slice_id: str
) -> EmbeddingPlan:
    """Delegation-level embedding of a validated request: bind every node to
    a delegated pool, then route every link strand over the broker's
    routing view and the delegations' free figures. Each placement's unit
    and each strand's crossings are deducted from `free`, a scratch copy
    the caller hands over, so later nodes and strands of the request fit
    around them. Hosts and per-domain paths are left to the aggregate
    managers. Raises InsufficientResources or EmbeddingFailed."""
    binding = bind_domains(req, routing, free)
    plan = EmbeddingPlan(slice_id)
    for node in req.nodes:
        domain, pool = binding[node.iri]
        plan.placements[node.iri] = Placement(node.iri, domain, node.compute_class, pool=pool)
    for link in req.links:
        root, others = link_members(req, link, plan.placements)
        realization = LinkRealization(root_node=root, branches=[])
        for member in others:
            branch = route_branch(
                routing,
                free,
                member,
                plan.placements[root].domain,
                plan.placements[member].domain,
                link.layer,
                link.bandwidth,
                link=link.iri,
            )
            deduct_crossing_from_view(free, branch.route)
            realization.branches.append(branch)
        plan.realizations[link.iri] = realization
    return plan


def _owner_device(state: DomainState, border_iface: Iri) -> Optional[Iri]:
    return next((b.owner for b in state.substrate.borders if b.iri == border_iface), None)


def link_members(req, link, placements) -> tuple:
    """(root node, other member nodes) of a link: the root sits in the
    lexicographically first participating domain."""
    members = sorted({n.iri for n in link.owners(req)}, key=lambda n: n.value)
    domains = {n: placements[n].domain for n in members}
    root_domain = min(domains[n].value for n in members)
    root = [n for n in members if domains[n].value == root_domain][0]
    return root, [n for n in members if n != root]


def route_branch(
    broker_view: Optional[Model],
    free: dict,
    to_node: Iri,
    src_domain: Iri,
    dst_domain: Iri,
    layer: Iri,
    bandwidth: int,
    link: Iri,
) -> BranchPath:
    """Delegation-level route for one strand: the domains it traverses, the
    border interfaces it enters and leaves by, and the crossing labels."""
    if src_domain == dst_domain:
        return BranchPath(to_node, _trivial_path(src_domain), [None])
    if broker_view is None:
        raise EmbeddingFailed(link, "no delegations available for inter-domain route")
    route = shortest_valid_path(
        broker_view, PathRequest(src_domain, dst_domain, layer, bandwidth), free=free
    )
    if route is None:
        raise EmbeddingFailed(link, "no inter-domain route")
    return BranchPath(to_node, route, _required_labels_per_domain(route, broker_view))


def border_ops(iface: Iri, bandwidth: int, label: Optional[int]) -> list:
    """Allocation ops for one side of a border crossing."""
    ops = [("bw", iface, bandwidth)]
    if label is not None:
        ops.append(("label", iface, label))
    return ops


def deduct_crossing_from_view(free: dict, route: PathResult) -> None:
    """Tentative accounting on a request's scratch free figures: later
    strands of the same request must not resell the labels or bandwidth the
    crossings of this route took."""
    for seg in route.segments:
        for iface in (seg.a_iface, seg.b_iface):
            free[("bw", iface)] = free.get(("bw", iface), 0) - route.consumed_bandwidth
            if seg.label is not None:
                key = ("label", iface)
                free[key] = free.get(key, NO_LABELS).take(seg.label)


def expand_domain_hop(
    state: DomainState,
    hop: PathHop,
    required_label: Optional[int],
    layer: Iri,
    bandwidth: int,
    from_device: Optional[Iri],
    to_device: Optional[Iri],
    link: Iri,
) -> PathResult:
    """Detail expansion of one domain's hop of a strand's route. The terminal
    ends use the placed hosts; transit ends use the border interfaces'
    owners."""
    entry = _owner_device(state, hop.ingress) if hop.ingress else from_device
    exit_ = _owner_device(state, hop.egress) if hop.egress else to_device
    if entry is None or exit_ is None:
        raise EmbeddingFailed(link, f"unknown border interface in {hop.element.value}")
    if entry == exit_:
        return _trivial_path(entry)
    path = shortest_valid_path(
        state.model,
        PathRequest(entry, exit_, layer, bandwidth, required_label),
        free=state.free,
    )
    if path is None:
        raise EmbeddingFailed(
            link, f"delegation admitted {hop.element.value} but detail expansion failed"
        )
    return path


def _trivial_path(element: Iri) -> PathResult:
    return PathResult(hops=(PathHop(element, None, None),), segments=(), consumed_bandwidth=0)


def path_ops(path: PathResult) -> list:
    ops = []
    for seg in path.segments:
        for carrier in seg.carriers:
            ops.append(("bw", carrier, path.consumed_bandwidth))
            if seg.label is not None:
                ops.append(("label", carrier, seg.label))
    return ops
