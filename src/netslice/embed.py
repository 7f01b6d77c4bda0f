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

The same engine serves both levels of the two-level embedding: the broker's
abstract delegation graph (domain nodes, border interfaces, reachability
flags), routed by `embed_request`, and a provider's detailed substrate
(devices, switch matrices, adaptations), expanded by `expand_domain_hop`
when an aggregate manager redeems a ticket.

Residual capacity is typed data, never rewritten triples: a mapping keyed
like allocation ops, ("bw" | "label" | "units", subject), holds what is
free. The path search reads one beside the model; a DomainState keeps one
per domain, the broker's ledgers share one, and the broker deducts a
request's own crossings from a scratch copy of it. Only
`DomainState.snapshot()` writes residual figures back into a model, for
serializing and delegating.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import reduce
from operator import and_
from typing import NamedTuple, Optional, Sequence

from . import vocab
from .graphstore import Iri, Literal, Model, Triple, int_value, integer, string
from .models import (
    RESIDUAL_PROPERTIES, SliceRequest, SubstrateGraph, parse_substrate, pool_classes, residual_of,
)
from .pathquery import HopWitness, Pred, Seq, adjacent, sub_graph
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

DEVICE_ADJACENCY = Seq(
    Pred(vocab.HAS_INTERFACE), Pred(vocab.LINKED_TO), Pred(vocab.INTERFACE_OF)
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


@dataclass(frozen=True)
class PathRequest:
    source: Iri
    dest: Iri
    layer: Iri
    bandwidth: int = 0
    required_label: Optional[int] = None

    def __post_init__(self):
        if self.source == self.dest:
            raise ValueError("path source and destination must differ")
        if self.bandwidth < 0:
            raise ValueError("bandwidth must be non-negative")


@dataclass(frozen=True)
class PathHop:
    element: Iri
    ingress: Optional[Iri]
    egress: Optional[Iri]
    layer: Optional[Iri]


@dataclass(frozen=True)
class PathSegment:
    """One traversed connection: the interface pair, its layer, the model
    entities carrying its resources (a link entity, or the two border
    interfaces of a crossing), and the allocated label if any."""

    a_iface: Iri
    b_iface: Iri
    layer: Iri
    carriers: tuple
    label: Optional[int]


@dataclass(frozen=True)
class PathResult:
    hops: tuple
    segments: tuple
    consumed_bandwidth: int
    internal_elements: tuple

    @property
    def allocated_label(self) -> Optional[int]:
        for seg in self.segments:
            if seg.label is not None:
                return seg.label
        return None

    def hop_count(self) -> int:
        return len(self.segments)


class _Step(NamedTuple):
    """One compiled adjacency step: its witness, its place in the candidate
    order, and the carriers and layer of what it crosses (`_segment_of`)."""

    key: tuple  # (neighbour IRI, via IRIs) as text
    witness: HopWitness
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
    """The search topology of m, for `m.derived(_compile)`."""
    steps, preds = {}, {}
    for node in dict.fromkeys(t.subject for t in m.match(p=vocab.HAS_INTERFACE)):
        out = steps[node] = []
        for w in adjacent(m, node, DEVICE_ADJACENCY):
            key = (w.neighbor.value, tuple(v.value for v in w.via))
            out.append(_Step(key, w, *_segment_of(m, *w.via)))
            preds.setdefault(w.neighbor, []).append(node)
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
        last = chain[-1].witness.neighbor if chain else source
        if last == dest:
            yield chain
            continue
        visited = {source} | {s.witness.neighbor for s in chain}
        for step in topo.steps[last]:
            neighbor = step.witness.neighbor
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
    for link in m.subjects(vocab.HAS_ENDPOINT, a_iface):
        if NETWORK_CONNECTION in m.types(link) and b_iface in m.objects(link, vocab.HAS_ENDPOINT):
            layer = m.value(link, AT_LAYER)
            return (link,), layer if isinstance(layer, Iri) else None
    layers = {lv for lv in (m.value(i, AT_LAYER) for i in (a_iface, b_iface)) if isinstance(lv, Iri)}
    if len(layers) > 1:
        return None, None  # disagreeing crossing layers: unusable
    return (a_iface, b_iface), (layers.pop() if layers else None)


def _validate_candidate(topo: _Topology, free: dict, source: Iri, chain: tuple, preq: PathRequest):
    """Check one candidate path. Returns a PathResult or None."""
    witnesses = [s.witness for s in chain]
    elements = [source] + [w.neighbor for w in witnesses]

    segments = []
    for step in chain:
        if step.carriers is None or _carrier_bandwidth(free, step.carriers) < preq.bandwidth:
            return None
        segments.append([*step.witness.via, step.layer or preq.layer, step.carriers, None])

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
                crossing = frozenset((witnesses[i - 1].via[1], witnesses[i].via[0]))
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
        ingress = witnesses[i - 1].via[1] if i > 0 else None
        egress = witnesses[i].via[0] if i < len(chain) else None
        hops.append(PathHop(element, ingress, egress, topo.layers[element]))
    return PathResult(
        hops=tuple(hops),
        segments=tuple(PathSegment(*seg) for seg in segments),
        consumed_bandwidth=preq.bandwidth,
        internal_elements=tuple(sub_graph(witnesses)),
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
    failures = 0
    for chain in _candidate_paths(topo, preq.source, preq.dest):
        result = _validate_candidate(topo, free, preq.source, chain, preq)
        if result is not None:
            return result
        failures += 1
        if failures >= limit:
            return None
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

    def __init__(self, substrate: Optional[SubstrateGraph], model: Model, original=None):
        self.substrate = substrate
        self.model = model
        self.original: dict = residual_of(model) if original is None else original
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
            free = self.free[(kind, subject)]
            if kind != "label" or free:  # an exhausted label set is dropped
                m.add(Triple(subject, available, _literal(kind, free)))
            m.add(Triple(subject, in_use, _literal(kind, used)))
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


def prepare_domain(raw: Model, extra_schemas: Sequence[Model] = ()) -> DomainState:
    """DomainState for a raw substrate document: close it with the schema
    (plus any extension T-boxes) and take the typed view. Conformance
    checking is the caller's business."""
    closed = vocab.close(*extra_schemas, raw)
    residual = residual_of(closed)
    return DomainState(parse_substrate(closed, residual), closed, residual)


# -- embedding plan ----------------------------------------------------------------


@dataclass
class Placement:
    node: Iri
    domain: Iri
    compute_class: Iri
    host: Optional[Iri] = None
    management_address: Optional[str] = None
    pool: Optional[Iri] = None  # the delegated pool binding took a unit from


@dataclass
class BorderCrossing:
    domain_a: Iri
    iface_a: Iri
    domain_b: Iri
    iface_b: Iri
    layer: Iri
    label: Optional[int]
    bandwidth: int


@dataclass
class DomainHop:
    """One domain's share of an inter-domain route: where the strand enters
    and leaves (None at the terminal ends), and the label its internal
    expansion must carry for continuity."""

    domain: Iri
    entry_iface: Optional[Iri]
    exit_iface: Optional[Iri]
    required_label: Optional[int]


@dataclass
class BranchPath:
    """One root-to-member strand of a request link: its delegation-level
    route, then the per-domain detail expansions that redeem fills in."""

    to_node: Iri
    hops: list  # DomainHop per traversed domain
    crossings: list  # BorderCrossing between consecutive domains
    domain_paths: list = field(default_factory=list)  # (domain Iri, PathResult)

    def hop_devices(self):
        """Intermediate (device, label) pairs along the stitched strand,
        endpoints' hosts excluded."""
        devices = []
        for _, path in self.domain_paths:
            for i, hop in enumerate(path.hops):
                label = path.segments[i - 1].label if i > 0 else (
                    path.segments[0].label if path.segments else None
                )
                devices.append((hop.element, label))
        return devices[1:-1] if len(devices) >= 2 else []

    def labels(self):
        out = set()
        for crossing in self.crossings:
            if crossing.label is not None:
                out.add(crossing.label)
        for _, path in self.domain_paths:
            for seg in path.segments:
                if seg.label is not None:
                    out.add(seg.label)
        return out


@dataclass
class LinkRealization:
    link: Iri
    root_node: Iri
    branches: list  # BranchPath per non-root member

    def labels(self):
        out = set()
        for b in self.branches:
            out |= b.labels()
        return out


@dataclass
class EmbeddingPlan:
    slice_id: str
    placements: dict = field(default_factory=dict)  # node Iri -> Placement
    realizations: dict = field(default_factory=dict)  # link Iri -> LinkRealization


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
    for i, hop in enumerate(route.hops):
        labels = set()
        if i > 0 and route.segments[i - 1].label is not None:
            labels.add(route.segments[i - 1].label)
        if i < len(route.segments) and route.segments[i].label is not None:
            labels.add(route.segments[i].label)
        if hop.element in translators or not labels:
            required.append(None)
        else:
            required.append(min(labels))
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
        realization = LinkRealization(link=link.iri, root_node=root, branches=[])
        for member in others:
            branch = route_branch(
                routing,
                free,
                member,
                plan.placements[root].domain,
                plan.placements[member].domain,
                link.layer,
                link.bandwidth,
                limit=10,
                link=link.iri,
            )
            for crossing in branch.crossings:
                deduct_crossing_from_view(free, crossing)
            realization.branches.append(branch)
        plan.realizations[link.iri] = realization
    return plan


def _owner_device(state: DomainState, border_iface: Iri) -> Optional[Iri]:
    for b in state.substrate.borders:
        if b.iri == border_iface:
            return b.owner
    return None


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
    limit: int,
    link: Iri,
) -> BranchPath:
    """Delegation-level route for one strand: the domains it traverses, the
    border interfaces it enters and leaves by, and the crossing labels."""
    if src_domain == dst_domain:
        return BranchPath(to_node, [DomainHop(src_domain, None, None, None)], [])
    if broker_view is None:
        raise EmbeddingFailed(link, "no delegations available for inter-domain route")
    route = shortest_valid_path(
        broker_view, PathRequest(src_domain, dst_domain, layer, bandwidth), limit, free
    )
    if route is None:
        raise EmbeddingFailed(link, "no inter-domain route")
    required = _required_labels_per_domain(route, broker_view)
    hops = [
        DomainHop(hop.element, hop.ingress, hop.egress, required[i])
        for i, hop in enumerate(route.hops)
    ]
    crossings = [
        BorderCrossing(
            domain_a=route.hops[i].element,
            iface_a=seg.a_iface,
            domain_b=route.hops[i + 1].element,
            iface_b=seg.b_iface,
            layer=seg.layer,
            label=seg.label,
            bandwidth=bandwidth,
        )
        for i, seg in enumerate(route.segments)
    ]
    return BranchPath(to_node, hops, crossings)


def border_ops(iface: Iri, bandwidth: int, label: Optional[int]) -> list:
    """Allocation ops for one side of a border crossing."""
    ops = [("bw", iface, bandwidth)]
    if label is not None:
        ops.append(("label", iface, label))
    return ops


def deduct_crossing_from_view(free: dict, crossing: BorderCrossing) -> None:
    """Tentative accounting on a request's scratch free figures: later
    strands of the same request must not resell the label or bandwidth this
    crossing took."""
    for iface in (crossing.iface_a, crossing.iface_b):
        free[("bw", iface)] = free.get(("bw", iface), 0) - crossing.bandwidth
        if crossing.label is not None:
            key = ("label", iface)
            free[key] = free.get(key, NO_LABELS).take(crossing.label)


def expand_domain_hop(
    state: DomainState,
    hop: DomainHop,
    layer: Iri,
    bandwidth: int,
    from_device: Optional[Iri],
    to_device: Optional[Iri],
    limit: int,
    link: Iri,
) -> PathResult:
    """Detail expansion of one domain's share of a strand. The terminal ends
    use the placed hosts; transit ends use the border interfaces' owners."""
    entry = _owner_device(state, hop.entry_iface) if hop.entry_iface else from_device
    exit_ = _owner_device(state, hop.exit_iface) if hop.exit_iface else to_device
    if entry is None or exit_ is None:
        raise EmbeddingFailed(link, f"unknown border interface in {hop.domain.value}")
    if entry == exit_:
        return _trivial_path(entry)
    path = shortest_valid_path(
        state.model,
        PathRequest(entry, exit_, layer, bandwidth, hop.required_label),
        limit,
        state.free,
    )
    if path is None:
        raise EmbeddingFailed(
            link, f"delegation admitted {hop.domain.value} but detail expansion failed"
        )
    return path


def _trivial_path(device: Iri) -> PathResult:
    return PathResult(
        hops=(PathHop(device, None, None, None),),
        segments=(),
        consumed_bandwidth=0,
        internal_elements=(device,),
    )


def path_ops(path: PathResult) -> list:
    ops = []
    for seg in path.segments:
        for carrier in seg.carriers:
            ops.append(("bw", carrier, path.consumed_bandwidth))
            if seg.label is not None:
                ops.append(("label", carrier, seg.label))
    return ops
