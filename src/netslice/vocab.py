"""Built-in vocabulary: the topology/compute/request/manifest T-box,
layer descriptors, and schema conformance checking.

The full published ontology tree is reduced here to the classes and
properties the embedding and validation algorithms actually touch.
Providers can layer extension schema files on top (CLI --schema).
"""

from __future__ import annotations

import re
from bisect import bisect_right
from functools import lru_cache
from typing import NamedTuple, Optional

from .graphstore import (
    Iri,
    Literal,
    Model,
    OWL_CLASS,
    OWL_DATATYPE_PROPERTY,
    OWL_INVERSE_OF,
    OWL_OBJECT_PROPERTY,
    RDF_NS,
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_NS,
    RDFS_RANGE,
    RDFS_SUBCLASS_OF,
    Triple,
    XSD_NS,
    _SCHEMA_RELATIONS,
    _new as _new_tuple,
    entail,
    merge,
    parse_document,
)

TOPO_NS = "http://geni-orca.renci.org/owl/topology.owl#"
COMP_NS = "http://geni-orca.renci.org/owl/compute.owl#"
ETH_NS = "http://geni-orca.renci.org/owl/ethernet.owl#"
IP4_NS = "http://geni-orca.renci.org/owl/ip4.owl#"
REQ_NS = "http://geni-orca.renci.org/owl/request.owl#"
MANI_NS = "http://geni-orca.renci.org/owl/manifest.owl#"
TIME_NS = "http://www.w3.org/2006/time#"

BASE_PREFIXES = {
    "topo": TOPO_NS,
    "comp": COMP_NS,
    "eth": ETH_NS,
    "ip4": IP4_NS,
    "req": REQ_NS,
    "mani": MANI_NS,
    "time": TIME_NS,
    "rdf": RDF_NS,
    "rdfs": RDFS_NS,
    "owl": "http://www.w3.org/2002/07/owl#",
    "xsd": XSD_NS,
}

# -- classes -------------------------------------------------------------------

NETWORK_ELEMENT = Iri(TOPO_NS + "NetworkElement")
NETWORK_DOMAIN = Iri(TOPO_NS + "NetworkDomain")
DEVICE = Iri(TOPO_NS + "Device")
NETWORK_TRANSPORT_ELEMENT = Iri(TOPO_NS + "NetworkTransportElement")
INTERFACE = Iri(TOPO_NS + "Interface")
BORDER_INTERFACE = Iri(TOPO_NS + "BorderInterface")
NETWORK_CONNECTION = Iri(TOPO_NS + "NetworkConnection")
BROADCAST_CONNECTION = Iri(TOPO_NS + "BroadcastConnection")
LABEL = Iri(TOPO_NS + "Label")
LABEL_TRANSLATOR = Iri(TOPO_NS + "LabelTranslator")
ADAPTATION = Iri(TOPO_NS + "Adaptation")
ETHERNET_ELEMENT = Iri(ETH_NS + "EthernetNetworkElement")
VLAN = Iri(ETH_NS + "VLAN")
IP_ELEMENT = Iri(IP4_NS + "IPNetworkElement")
IP_ADDRESS = Iri(IP4_NS + "IPAddress")

COMPUTE_ELEMENT = Iri(COMP_NS + "ComputeElement")
SERVER_CLOUD = Iri(COMP_NS + "ServerCloud")
TESTBED = Iri(COMP_NS + "Testbed")
CLASSIFIED_CE = Iri(COMP_NS + "ClassifiedComputeElement")
BARE_METAL_CE = Iri(COMP_NS + "BareMetalCE")
VM = Iri(COMP_NS + "VM")

RESERVATION = Iri(REQ_NS + "Reservation")
INTERVAL = Iri(TIME_NS + "Interval")
PATH_HOP = Iri(MANI_NS + "PathHop")

# -- object properties ---------------------------------------------------------

HAS_INTERFACE = Iri(TOPO_NS + "hasInterface")
HAS_ENDPOINT = Iri(TOPO_NS + "hasEndpoint")
INTERFACE_OF = Iri(TOPO_NS + "interfaceOf")
LINKED_TO = Iri(TOPO_NS + "linkedTo")
CONNECTED_TO = Iri(TOPO_NS + "connectedTo")
AT_LAYER = Iri(TOPO_NS + "atLayer")
IN_DOMAIN = Iri(TOPO_NS + "inDomain")
HAS_LABEL = Iri(TOPO_NS + "hasLabel")
HAS_SWITCH_MATRIX = Iri(TOPO_NS + "hasSwitchMatrix")
HAS_ADAPTATION = Iri(TOPO_NS + "hasAdaptation")
ADAPTATION_CLIENT = Iri(TOPO_NS + "adaptationClientLayer")
ADAPTATION_SERVER = Iri(TOPO_NS + "adaptationServerLayer")
INTERNALLY_REACHABLE = Iri(TOPO_NS + "internallyReachableTo")
ELEMENT = Iri(REQ_NS + "element")
HAS_TERM = Iri(REQ_NS + "hasTerm")
PROVISIONS = Iri(COMP_NS + "provisions")
PROVISIONED_FROM = Iri(MANI_NS + "provisionedFrom")
HOP_DEVICE = Iri(MANI_NS + "hopDevice")
HOSTED_ON = Iri(MANI_NS + "hostedOn")

# -- data properties -----------------------------------------------------------

AVAILABLE_BANDWIDTH = Iri(TOPO_NS + "availableBandwidth")
IN_USE_BANDWIDTH = Iri(TOPO_NS + "inUseBandwidth")
AVAILABLE_LABEL_SET = Iri(TOPO_NS + "availableLabelSet")
IN_USE_LABEL_SET = Iri(TOPO_NS + "inUseLabelSet")
LABEL_VALUE = Iri(TOPO_NS + "labelValue")
AVAILABLE_UNITS = Iri(COMP_NS + "availableUnits")
IN_USE_UNITS = Iri(COMP_NS + "inUseUnits")
ADAPTATION_CAPACITY = Iri(TOPO_NS + "adaptationCapacity")
REQUESTED_BANDWIDTH = Iri(REQ_NS + "bandwidth")
DISK_IMAGE = Iri(COMP_NS + "diskImage")
POST_BOOT_SCRIPT = Iri(COMP_NS + "postBootScript")
HAS_BEGINNING = Iri(TIME_NS + "hasBeginning")
HAS_DURATION_SECONDS = Iri(TIME_NS + "hasDurationSeconds")
MANAGEMENT_ADDRESS = Iri(MANI_NS + "managementAddress")
HOP_LABEL = Iri(MANI_NS + "hopLabel")
HOP_INDEX = Iri(MANI_NS + "hopIndex")
ALLOCATED_LABEL = Iri(MANI_NS + "allocatedLabel")

RDFS_CLASS = Iri(RDFS_NS + "Class")

_SUBCLASSES = [
    (NETWORK_DOMAIN, NETWORK_ELEMENT),
    (DEVICE, NETWORK_ELEMENT),
    (NETWORK_TRANSPORT_ELEMENT, NETWORK_ELEMENT),
    (INTERFACE, NETWORK_TRANSPORT_ELEMENT),
    (BORDER_INTERFACE, INTERFACE),
    (NETWORK_CONNECTION, NETWORK_TRANSPORT_ELEMENT),
    (BROADCAST_CONNECTION, NETWORK_CONNECTION),
    (LABEL, NETWORK_ELEMENT),
    (LABEL_TRANSLATOR, DEVICE),
    (ADAPTATION, NETWORK_ELEMENT),
    (ETHERNET_ELEMENT, NETWORK_ELEMENT),
    (VLAN, LABEL),
    (IP_ELEMENT, NETWORK_ELEMENT),
    (IP_ADDRESS, LABEL),
    (COMPUTE_ELEMENT, NETWORK_ELEMENT),
    (SERVER_CLOUD, COMPUTE_ELEMENT),
    (TESTBED, COMPUTE_ELEMENT),
    (CLASSIFIED_CE, COMPUTE_ELEMENT),
    (BARE_METAL_CE, CLASSIFIED_CE),
    (VM, CLASSIFIED_CE),
    (PATH_HOP, NETWORK_ELEMENT),
]

# property -> (domain, range); ranges of marker-valued properties are rdfs:Class
_OBJECT_PROPERTIES = {
    HAS_INTERFACE: (NETWORK_ELEMENT, INTERFACE),
    # substrate links bind their endpoints with hasEndpoint, not
    # hasInterface: the inverse of hasInterface would otherwise make
    # link entities look like next-hop neighbors of devices.
    HAS_ENDPOINT: (NETWORK_CONNECTION, INTERFACE),
    INTERFACE_OF: (INTERFACE, NETWORK_ELEMENT),
    # linkedTo crosses documents: the far end of an inter-domain link is a
    # foreign IRI this model knows nothing about, so keep domain and range
    # at NetworkElement rather than Interface.
    LINKED_TO: (NETWORK_ELEMENT, NETWORK_ELEMENT),
    CONNECTED_TO: (NETWORK_ELEMENT, NETWORK_ELEMENT),
    AT_LAYER: (NETWORK_ELEMENT, RDFS_CLASS),
    IN_DOMAIN: (NETWORK_ELEMENT, NETWORK_DOMAIN),
    HAS_LABEL: (NETWORK_ELEMENT, LABEL),
    HAS_SWITCH_MATRIX: (DEVICE, NETWORK_ELEMENT),
    HAS_ADAPTATION: (NETWORK_ELEMENT, ADAPTATION),
    ADAPTATION_CLIENT: (ADAPTATION, RDFS_CLASS),
    ADAPTATION_SERVER: (ADAPTATION, RDFS_CLASS),
    INTERNALLY_REACHABLE: (NETWORK_ELEMENT, NETWORK_ELEMENT),
    ELEMENT: (RESERVATION, NETWORK_ELEMENT),
    HAS_TERM: (RESERVATION, INTERVAL),
    PROVISIONS: (NETWORK_ELEMENT, RDFS_CLASS),
    PROVISIONED_FROM: (NETWORK_ELEMENT, NETWORK_ELEMENT),
    HOP_DEVICE: (PATH_HOP, NETWORK_ELEMENT),
    HOSTED_ON: (COMPUTE_ELEMENT, NETWORK_ELEMENT),
}

_INVERSES = [
    (HAS_INTERFACE, INTERFACE_OF),
    (LINKED_TO, LINKED_TO),  # symmetric: one statement yields both directions
    (CONNECTED_TO, CONNECTED_TO),
    (INTERNALLY_REACHABLE, INTERNALLY_REACHABLE),
]

_DATA_PROPERTIES = {
    AVAILABLE_BANDWIDTH: NETWORK_ELEMENT,
    IN_USE_BANDWIDTH: NETWORK_ELEMENT,
    AVAILABLE_LABEL_SET: NETWORK_ELEMENT,
    IN_USE_LABEL_SET: NETWORK_ELEMENT,
    LABEL_VALUE: LABEL,
    AVAILABLE_UNITS: NETWORK_ELEMENT,
    IN_USE_UNITS: NETWORK_ELEMENT,
    ADAPTATION_CAPACITY: ADAPTATION,
    REQUESTED_BANDWIDTH: NETWORK_CONNECTION,
    DISK_IMAGE: COMPUTE_ELEMENT,
    POST_BOOT_SCRIPT: COMPUTE_ELEMENT,
    HAS_BEGINNING: INTERVAL,
    HAS_DURATION_SECONDS: INTERVAL,
    MANAGEMENT_ADDRESS: COMPUTE_ELEMENT,
    HOP_LABEL: PATH_HOP,
    HOP_INDEX: PATH_HOP,
    ALLOCATED_LABEL: NETWORK_CONNECTION,
}


class LayerSpec(NamedTuple):
    """One transport layer: its marker class, label class, and label domain."""

    layer: Iri
    label_class: Iri
    min_label: Optional[int] = None  # integer-labelled layers only
    max_label: Optional[int] = None
    address_pattern: Optional[str] = None  # string-labelled layers
    pooled: bool = False  # links carry allocatable label pools

    def label_ok(self, lexical: str) -> bool:
        if self.address_pattern is not None:
            return re.fullmatch(self.address_pattern, lexical) is not None
        if not (lexical.isascii() and lexical.isdigit()):
            return False
        try:
            v = int(lexical)
        except ValueError:  # more digits than int() converts
            return False
        return self.pool_in_domain(LabelSet((v,)))

    def pool_in_domain(self, pool: LabelSet) -> bool:
        """True when every label of a pool lies in this integer-labelled
        layer's label domain; an empty pool passes."""
        return not pool or (self.min_label <= pool.lowest() and pool.highest() <= self.max_label)


ETHERNET_LAYER = LayerSpec(
    layer=ETHERNET_ELEMENT,
    label_class=VLAN,
    min_label=2,
    max_label=4094,
    pooled=True,
)
_OCTET = r"(?:25[0-5]|2[0-4][0-9]|[01]?[0-9]?[0-9])"  # 0-255 in ASCII digits
IP4_LAYER = LayerSpec(
    layer=IP_ELEMENT,
    label_class=IP_ADDRESS,
    address_pattern=rf"{_OCTET}(?:\.{_OCTET}){{3}}",
)

LAYERS = {spec.layer: spec for spec in (ETHERNET_LAYER, IP4_LAYER)}
_LABEL_CLASS_LAYER = {spec.label_class: spec for spec in LAYERS.values()}


def builtin_schema() -> Model:
    """The T-box as a Model. Constructed fresh; callers may mutate."""
    classes = {NETWORK_ELEMENT, RESERVATION, INTERVAL}.union(*_SUBCLASSES)
    triples = [(sub, RDFS_SUBCLASS_OF, sup) for sub, sup in _SUBCLASSES]
    triples += [(c, RDF_TYPE, OWL_CLASS) for c in sorted(classes, key=lambda c: c.value)]
    for p, (dom, rng) in _OBJECT_PROPERTIES.items():
        triples += [(p, RDF_TYPE, OWL_OBJECT_PROPERTY), (p, RDFS_DOMAIN, dom), (p, RDFS_RANGE, rng)]
    triples += [(a, OWL_INVERSE_OF, b) for a, b in _INVERSES]
    for prop, dom in _DATA_PROPERTIES.items():
        triples += [(prop, RDF_TYPE, OWL_DATATYPE_PROPERTY), (prop, RDFS_DOMAIN, dom)]
        triples.append((prop, RDFS_RANGE, RDFS_CLASS))
    m = Model(BASE_PREFIXES)
    m.add_all([_new_tuple(Triple, t) for t in triples])
    return m


@lru_cache(maxsize=1)
def entailed_schema() -> Model:
    """Shared entailed T-box, built once per process and frozen."""
    return entail(builtin_schema()).freeze()


def close(*docs: Model) -> Model:
    """Entailed closure of the built-in T-box merged with docs: equal to
    entailing merge([builtin_schema(), *docs]), but only the documents' own
    triples are processed against the cached, frozen T-box closure. A single
    document is read as it is, and the closure is copied on write."""
    return entail(docs[0] if len(docs) == 1 else merge(docs), closed=entailed_schema())


def read_closed(*docs, base: Optional[Model] = None, read=parse_document) -> Model:
    """close(*map(read, docs)) onto base, a frozen closed T-box (by default the built-in one):
    read(doc, into) reads each doc straight into one copy of base, which it returns with doc's
    prefix map, and the copy closes in place, so each statement is indexed once."""
    base = entailed_schema() if base is None else base
    out = base.copy()
    maps = [Model(read(doc, out).prefixes) for doc in docs]  # merged as close merges them
    out.prefixes = merge([Model(base.prefixes), merge(maps)]).prefixes
    return entail(out, closed=base, in_place=True)


def superclasses(m: Model, cls: Iri):
    """cls's superclasses in the closed model m (provider extensions too)."""
    return m._spo.get(cls, {}).get(RDFS_SUBCLASS_OF, {})


def satisfies(m: Model, cls: Iri, requested: Iri) -> bool:
    """True when instances of cls are instances of requested in the closed model m."""
    return cls is requested or requested in superclasses(m, cls)


# -- label sets ------------------------------------------------------------------

# Label pools are sets of integer labels held as inclusive spans, the way
# GMPLS Label Set objects encode them (RFC 3471). Their literal form is the
# canonical span list: "2-10,15,20-30".


class LabelSet:
    """An immutable set of integer labels held as sorted, disjoint,
    non-adjacent spans.

    The spans are one flat tuple of half-open bounds, (lo0, hi0 + 1, lo1,
    hi1 + 1, ...), strictly increasing, so equal sets have equal bounds and
    a label is a member exactly when an odd number of bounds are at or
    below it. Membership and taking or returning one label cost a bisect
    and a copy of the bounds, and `&` and `|` one merge of the two bound
    lists: all grow with the number of spans, not of labels.
    """

    __slots__ = ("_bounds",)

    def __init__(self, labels=()):
        """The set of an iterable of integer labels."""
        self._bounds = _canonical((v, v) for v in labels)

    def lowest(self) -> int:
        """The lowest label; raises IndexError on an empty set."""
        return self._bounds[0]

    def highest(self) -> int:
        """The highest label; raises IndexError on an empty set."""
        return self._bounds[-1] - 1

    # take and put flip one label's membership: the symmetric difference of
    # the bounds with (label, label + 1). Each of the two goes in where it is
    # not a bound and out where it is, which splits a span or joins two.

    def take(self, label: int) -> LabelSet:
        """This set without `label`."""
        b = self._bounds
        i = bisect_right(b, label)
        if not i & 1:
            return self
        s = _new(LabelSet)
        s._bounds = (b[: i - 1] if b[i - 1] == label else b[:i] + (label,)) + (
            b[i + 1 :] if b[i] == label + 1 else (label + 1,) + b[i:]
        )
        return s

    def put(self, label: int) -> LabelSet:
        """This set with `label`."""
        b = self._bounds
        i = bisect_right(b, label)
        if i & 1:
            return self
        s = _new(LabelSet)
        s._bounds = (b[: i - 1] if i and b[i - 1] == label else b[:i] + (label,)) + (
            b[i + 1 :] if i < len(b) and b[i] == label + 1 else (label + 1,) + b[i:]
        )
        return s

    def __contains__(self, label) -> bool:
        return bisect_right(self._bounds, label) & 1 == 1

    def __iter__(self):
        b = self._bounds
        for i in range(0, len(b), 2):
            yield from range(b[i], b[i + 1])

    def __len__(self) -> int:
        b = self._bounds
        return sum(b[1::2]) - sum(b[::2])

    def __bool__(self) -> bool:
        return bool(self._bounds)

    def __and__(self, other: LabelSet) -> LabelSet:
        if not isinstance(other, LabelSet):
            return NotImplemented
        if self is other:  # equal literals share one set (models.residual_of)
            return self
        return _from_bounds(_merge(self._bounds, other._bounds, (False, False, False, True)))

    def __or__(self, other: LabelSet) -> LabelSet:
        if not isinstance(other, LabelSet):
            return NotImplemented
        return _from_bounds(_merge(self._bounds, other._bounds, (False, True, True, True)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabelSet):
            return NotImplemented
        return self._bounds == other._bounds

    def __hash__(self) -> int:
        return hash(self._bounds)

    def __str__(self) -> str:
        """The canonical label-set literal."""
        b = self._bounds
        return ",".join(
            str(b[i]) if b[i] + 1 == b[i + 1] else f"{b[i]}-{b[i + 1] - 1}"
            for i in range(0, len(b), 2)
        )

    def __repr__(self) -> str:
        return f"parse_label_set({str(self)!r})"


_new = object.__new__


def _from_bounds(bounds: tuple) -> LabelSet:
    s = _new(LabelSet)
    s._bounds = bounds
    return s


def _canonical(spans) -> tuple:
    """Half-open bounds of the union of inclusive (lo, hi) spans, lo <= hi,
    in any order, overlapping or not."""
    bounds = []
    for lo, hi in sorted(spans):
        if bounds and lo <= bounds[-1]:
            bounds[-1] = max(bounds[-1], hi + 1)
        else:
            bounds += (lo, hi + 1)
    return tuple(bounds)


def _merge(a: tuple, b: tuple, keep: tuple) -> tuple:
    """Bounds of a set operation over two bound tuples, in one ordered
    sweep. `keep[2 * in_a + in_b]` says whether a label inside a (or not)
    and inside b (or not) belongs to the result; a bound goes out wherever
    that answer changes, which keeps the result canonical."""
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    inside = False
    while i < na or j < nb:
        if j == nb or (i < na and a[i] < b[j]):
            x = a[i]
            i += 1
        elif i == na or b[j] < a[i]:
            x = b[j]
            j += 1
        else:
            x = a[i]
            i += 1
            j += 1
        now = keep[(i & 1) << 1 | (j & 1)]
        if now is not inside:
            out.append(x)
            inside = now
    return tuple(out)


NO_LABELS = LabelSet()


# One part of a label-set literal, "N" or "N-M", in ASCII digits only.
_LABEL_SPAN_RE = re.compile(r"([0-9]+)(?:-([0-9]+))?")


def parse_label_set(lexical: str) -> LabelSet:
    """Labels of a label-set literal, built from its spans without
    expanding them. Raises ValueError on a malformed part (anything but
    "N" or "N-M" in ASCII digits: no sign, space or underscore) or a
    reversed span."""
    if not lexical:
        return NO_LABELS
    spans = []
    for part in lexical.split(","):
        match = _LABEL_SPAN_RE.fullmatch(part)
        if match is None:
            raise ValueError(f"malformed part {part!r}: expected N or N-M")
        lo = int(match[1])
        hi = lo if match[2] is None else int(match[2])
        if lo > hi:
            raise ValueError(f"reversed span {part!r}")
        spans.append((lo, hi))
    return _from_bounds(_canonical(spans))


def render_label_set(values) -> str:
    """The canonical literal of a LabelSet or of any iterable of integer
    labels, duplicates and order notwithstanding."""
    return str(values if isinstance(values, LabelSet) else LabelSet(values))


# -- conformance -----------------------------------------------------------------


class ConformanceIssue(NamedTuple):
    kind: str  # untyped-instance | domain-violation | label-out-of-range | dangling-interface
    subject: Iri
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} {self.subject.value}: {self.detail}"


_SCHEMA_PREDICATES = {RDF_TYPE, *_SCHEMA_RELATIONS}

_SCHEMA_TYPES = {OWL_CLASS, OWL_OBJECT_PROPERTY, OWL_DATATYPE_PROPERTY}


def _declared_domains(*models: Model) -> dict:
    """Each property's first declared IRI domain in the merge of models, in
    the order the merged model's POS index lists them."""
    merged = Model()
    for m in models:
        merged.add_all(m.match(p=RDFS_DOMAIN))
    declared: dict = {}
    for s, _, o in merged.match(p=RDFS_DOMAIN):
        if isinstance(o, Iri):
            declared.setdefault(s, o)
    return declared


def _known_classes(schema: Model) -> frozenset:
    """The classes the T-box alone types owl:Class, directly or by a superclass:
    documents only add types and superclasses, so these stay known."""
    spo = schema._spo
    return frozenset(c for c, level in spo.items() for t in level.get(RDF_TYPE, ())
                     if satisfies(schema, t, OWL_CLASS))


def validate_conformance(*docs: Model, closed: Optional[Model] = None) -> list:
    """Schema conformance issues for documents checked against the
    built-in T-box, which the documents may or may not include. `closed` is
    close(*docs), when the caller already has it.

    Checks run over the documents' asserted triples. An instance's types
    are the classes that the documents or the T-box assert for it with
    rdf:type, plus their superclasses in close(*docs): entailment's
    domain/range rules would repair the very type gaps the checker is meant
    to flag, so no other derived type counts. When a property has several
    declared domains, the first in the merge of the T-box and the documents
    counts. Issues are data, not errors: instances without a known class
    (one typed owl:Class), property domain violations, label values outside
    their layer's domain, and interfaces attached to nothing.
    """
    m = docs[0] if len(docs) == 1 else merge(docs)
    if closed is None:
        closed = close(m)
    schema = entailed_schema()  # its rdf:type triples are all asserted ones
    spo, tbox = m._spo, schema._spo
    known_classes = schema.derived(_known_classes)

    def types_of(x: Iri) -> set:
        asserted = {o for o in spo.get(x, {}).get(RDF_TYPE, ()) if isinstance(o, Iri)}
        if x in tbox:
            asserted |= schema.types(x)
        return asserted.union(*(superclasses(closed, c) for c in asserted))

    issues = []
    report = issues.append
    # the T-box's table is derived once; documents' own domains merge after it
    if RDFS_DOMAIN in m._pos:
        declared_domains = _declared_domains(schema, m)
    else:
        declared_domains = schema.derived(_declared_domains)

    # the T-box's subjects are schema entities, skipped; issues are sorted last
    for s, level in spo.items():
        types = types_of(s)
        if types & _SCHEMA_TYPES:
            continue  # schema entity
        if not any(c in known_classes or OWL_CLASS in types_of(c) for c in types):
            report(ConformanceIssue("untyped-instance", s, "no rdf:type naming a known class"))
            continue
        for p in level:
            dom = declared_domains.get(p)
            if p in _SCHEMA_PREDICATES or dom in (None, RDFS_CLASS) or dom in types:
                continue
            detail = f"{p.local()} requires {dom.local()}, subject types exclude it"
            report(ConformanceIssue("domain-violation", s, detail))
        # label entities: value must sit inside the layer's label domain
        for label_class, spec in _LABEL_CLASS_LAYER.items():
            if label_class in types:
                for v in level.get(LABEL_VALUE, ()):
                    if isinstance(v, Literal) and not spec.label_ok(v.lexical):
                        detail = f"labelValue {v.lexical!r} outside {label_class.local()} domain"
                        report(ConformanceIssue("label-out-of-range", s, detail))
        # pooled label sets on links and border interfaces
        spec = LAYERS.get(m.value(s, AT_LAYER)) if AT_LAYER in level else None
        if spec is not None and spec.pooled:
            for prop in (AVAILABLE_LABEL_SET, IN_USE_LABEL_SET):
                lit = m.value(s, prop)
                if not isinstance(lit, Literal):
                    continue
                try:
                    pool = parse_label_set(lit.lexical)
                except ValueError:
                    detail = f"unparseable label set {lit.lexical!r}"
                    report(ConformanceIssue("label-out-of-range", s, detail))
                    continue
                if not spec.pool_in_domain(pool):
                    detail = f"label set {lit.lexical!r} exceeds layer domain"
                    report(ConformanceIssue("label-out-of-range", s, detail))
        if INTERFACE in types and not closed._spo.get(s, {}).get(INTERFACE_OF):
            report(ConformanceIssue("dangling-interface", s, "interface attached to no element"))
    # repeated property uses give equal issues, which collapse
    return sorted(set(issues), key=lambda i: (i.kind, i.subject.value, i.detail))
