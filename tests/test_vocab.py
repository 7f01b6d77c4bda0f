import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import netslice
from netslice import graphstore, vocab
from netslice.graphstore import (
    Iri,
    Literal,
    Model,
    OWL_CLASS,
    OWL_INVERSE_OF,
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_SUBCLASS_OF,
    RDFS_SUBPROPERTY_OF,
    Triple,
    Var,
    entail,
    integer,
    merge,
    parse_document,
    query_bgp,
    serialize_document,
    string,
)
from netslice.vocab import (
    LabelSet,
    builtin_schema,
    close,
    entailed_schema,
    parse_label_set,
    render_label_set,
    satisfies,
    validate_conformance,
)

from conftest import FIXTURES, LOOSE_LABEL_SETS
from generators import random_schema_model
from oracles import naive_entail, reference_parse_label_set, reference_render_label_set

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st


def test_subclasses_of_classified_compute_element():
    closed = entailed_schema()
    got = query_bgp(closed, [(Var("c"), RDFS_SUBCLASS_OF, vocab.CLASSIFIED_CE)])
    assert [b["c"] for b in got] == [vocab.BARE_METAL_CE, vocab.VM]


def test_has_interface_inverse_declared():
    schema = builtin_schema()
    assert Triple(vocab.HAS_INTERFACE, vocab.OWL_INVERSE_OF, vocab.INTERFACE_OF) in schema


def test_vm_is_network_element_transitively():
    closed = entailed_schema()
    assert Triple(vocab.VM, RDFS_SUBCLASS_OF, vocab.NETWORK_ELEMENT) in closed


def test_class_hierarchy_acyclic():
    closed = entailed_schema()
    for t in closed.match(p=RDFS_SUBCLASS_OF):
        assert t.subject != t.object, f"subclass cycle through {t.subject}"


def test_every_property_has_domain_and_range():
    schema = builtin_schema()
    props = schema.typed(vocab.OWL_OBJECT_PROPERTY) + schema.typed(vocab.OWL_DATATYPE_PROPERTY)
    assert props
    for p in props:
        assert schema.value(p, RDFS_DOMAIN) is not None, p
        assert schema.value(p, RDFS_RANGE) is not None, p
        dom = schema.value(p, RDFS_DOMAIN)
        assert dom == vocab.RDFS_CLASS or Triple(dom, RDF_TYPE, OWL_CLASS) in schema


def test_schema_serialization_is_stable(tmp_path):
    golden = FIXTURES / "golden" / "schema.ndl"
    text = serialize_document(builtin_schema())
    assert golden.read_text() == text


# Lists the T-box closure after interning `argv[1]` other IRIs first, which
# moves the addresses (and so the identity hashes) of the T-box's terms.
_LIST_TBOX = """
import sys
from netslice.graphstore import Iri
padding = [Iri(f"urn:pad/{i}") for i in range(int(sys.argv[1]))]
from netslice.vocab import entailed_schema
print(list(entailed_schema()))
"""


def test_entailed_schema_lists_in_the_same_order_in_every_interpreter():
    src = str(Path(netslice.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    listings = [
        subprocess.run(
            [sys.executable, "-c", _LIST_TBOX, str(padding)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        ).stdout
        for padding in (0, 7)
    ]
    assert listings[0] == listings[1] != ""


@pytest.mark.parametrize(
    "lexical, ok",
    [
        ("999.1.1.1", False),
        ("256.0.0.1", False),
        ("\u0661\u0662.1.1.1", False),
        ("0.0.0.0", True),
        ("10.0.0.1", True),
        ("255.255.255.255", True),
    ],
)
def test_ip4_label_takes_four_ascii_octets_of_0_to_255(lexical, ok):
    assert vocab.IP4_LAYER.label_ok(lexical) is ok
    m = Model(dict(vocab.BASE_PREFIXES))
    label = Iri("urn:x/address")
    m.add(Triple(label, RDF_TYPE, vocab.IP_ADDRESS))
    m.add(Triple(label, vocab.LABEL_VALUE, Literal(lexical)))
    expected = [] if ok else [("label-out-of-range", label)]
    assert [(i.kind, i.subject) for i in _conformance_of(m)] == expected


def test_label_set_roundtrip():
    assert parse_label_set("") == LabelSet()
    assert parse_label_set("5") == LabelSet({5})
    assert parse_label_set("2-4,9") == LabelSet({2, 3, 4, 9})
    assert parse_label_set("9,3-4,2-3") == parse_label_set("2-4,9")
    assert render_label_set({9, 2, 3, 4}) == "2-4,9"
    assert render_label_set(parse_label_set("100-110")) == "100-110"
    assert render_label_set([]) == ""


@pytest.mark.parametrize("labels, text", [([2, 2, 3], "2-3"), ([5, 3, 3, 4], "3-5")])
def test_render_label_set_is_canonical_with_duplicates(labels, text):
    assert render_label_set(labels) == text


@pytest.mark.parametrize(
    "lexical",
    ["9-3", "5,,6", "2-x", "-4", "1-2-3", *LOOSE_LABEL_SETS, pytest.param("9" * 5000, id="5000-digits")],
)
def test_label_set_rejects_malformed_literals(lexical):
    with pytest.raises(ValueError):
        parse_label_set(lexical)


@pytest.mark.parametrize(
    "lexical",
    ["+5", "1_000", " 7 ", "7 ", "\u0663", "\uff15", "5-7", pytest.param("9" * 5000, id="5000-digits")],
)
def test_label_value_takes_ascii_digits_only(lexical):
    assert not vocab.ETHERNET_LAYER.label_ok(lexical)
    assert vocab.ETHERNET_LAYER.label_ok("7") and vocab.ETHERNET_LAYER.label_ok("1000")


def test_parse_label_set_of_a_huge_span_is_bounded():
    tracemalloc.start()
    try:
        start = time.perf_counter()
        pool = parse_label_set("2-2000000")
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1
    assert peak < 1_000_000
    assert (len(pool), pool.lowest(), pool.highest()) == (1999999, 2, 2000000)


# label sets built from a few runs, so that spans touch, overlap and split
_label_sets = st.lists(
    st.tuples(st.integers(min_value=0, max_value=120), st.integers(min_value=1, max_value=12)),
    max_size=8,
).map(lambda runs: frozenset(v for lo, n in runs for v in range(lo, lo + n)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.frozensets(st.integers(min_value=0, max_value=5000), max_size=60), _label_sets))
def test_label_set_render_parse_roundtrip(labels):
    # the residual projection's byte-identity rests on this
    text = render_label_set(labels)
    assert text == reference_render_label_set(labels)
    assert parse_label_set(text) == LabelSet(labels)
    assert str(parse_label_set(text)) == text


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=200), st.integers(0, 20)), max_size=6))
def test_parse_label_set_agrees_with_the_reference_on_unordered_spans(runs):
    lexical = ",".join(str(lo) if n == 0 else f"{lo}-{lo + n}" for lo, n in runs)
    want = reference_parse_label_set(lexical)
    got = parse_label_set(lexical)
    assert set(got) == want
    assert got == LabelSet(want)
    assert str(got) == reference_render_label_set(want)


@settings(max_examples=500, deadline=None)
@given(_label_sets, _label_sets, st.integers(min_value=-1, max_value=135))
def test_label_set_agrees_with_frozensets(a, b, label):
    sa, sb = LabelSet(a), LabelSet(b)
    assert list(sa) == sorted(a)
    assert (label in sa) == (label in a)
    assert (len(sa), bool(sa)) == (len(a), bool(a))
    if a:
        assert (sa.lowest(), sa.highest()) == (min(a), max(a))
    # every result is canonical: equal to the set built afresh, and so
    # rendered as the reference renders the equal frozenset
    results = [
        (sa.take(label), a - {label}),
        (sa.put(label), a | {label}),
        (sa & sb, a & b),
        (sa | sb, a | b),
    ]
    for got, want in results:
        assert set(got) == want
        assert got == LabelSet(want)
        assert str(got) == reference_render_label_set(want)
    assert (sa == sb) == (a == b)
    again = parse_label_set(",".join(reversed(str(sa).split(","))))
    assert again == sa and hash(again) == hash(sa)
    if a == b:
        assert hash(sa) == hash(sb)


def _conformance_of(model: Model):
    return validate_conformance(merge([builtin_schema(), model]))


def test_substrate_fixture_is_conformance_clean():
    m = parse_document((FIXTURES / "renci.ndl").read_text())
    assert _conformance_of(m) == []


def test_request_fixture_is_conformance_clean():
    m = parse_document((FIXTURES / "request-pair.ndl").read_text())
    assert _conformance_of(m) == []


def test_ring_fixtures_are_conformance_clean():
    for name in ("ring-a.ndl", "ring-b.ndl", "ring-c.ndl"):
        m = parse_document((FIXTURES / name).read_text())
        assert _conformance_of(m) == [], name


def test_vlan_label_out_of_range():
    m = Model(dict(vocab.BASE_PREFIXES))
    label = Iri("urn:x/label")
    m.add(Triple(label, RDF_TYPE, vocab.VLAN))
    m.add(Triple(label, vocab.LABEL_VALUE, integer(5000)))
    issues = _conformance_of(m)
    assert len(issues) == 1
    assert issues[0].kind == "label-out-of-range"
    assert issues[0].subject == label


def test_domain_violation_for_misused_property():
    m = Model(dict(vocab.BASE_PREFIXES))
    x, y = Iri("urn:x/x"), Iri("urn:x/y")
    m.add(Triple(x, RDF_TYPE, vocab.INTERVAL))
    m.add(Triple(x, vocab.HAS_INTERFACE, y))
    issues = _conformance_of(m)
    kinds = {(i.kind, i.subject) for i in issues}
    assert ("domain-violation", x) in kinds


def test_untyped_instance_reported():
    m = Model(dict(vocab.BASE_PREFIXES))
    m.add(Triple(Iri("urn:x/x"), vocab.CONNECTED_TO, Iri("urn:x/y")))
    issues = _conformance_of(m)
    assert any(i.kind == "untyped-instance" and i.subject == Iri("urn:x/x") for i in issues)


def test_dangling_interface_reported():
    m = Model(dict(vocab.BASE_PREFIXES))
    iface = Iri("urn:x/if0")
    m.add(Triple(iface, RDF_TYPE, vocab.INTERFACE))
    issues = _conformance_of(m)
    assert any(i.kind == "dangling-interface" and i.subject == iface for i in issues)


def test_removing_triples_never_creates_domain_violations():
    # monotonicity spot check: drop triples one at a time from a clean model
    m = parse_document((FIXTURES / "renci.ndl").read_text())
    baseline = {
        (i.kind, i.subject, i.detail)
        for i in _conformance_of(m)
        if i.kind == "domain-violation"
    }
    assert baseline == set()
    for drop in list(m)[:10]:
        reduced = m.copy()
        reduced.remove(drop)
        for issue in _conformance_of(reduced):
            assert issue.kind != "domain-violation"


_HEADER = """\
@prefix comp: <http://geni-orca.renci.org/owl/compute.owl#> .
@prefix eth: <http://geni-orca.renci.org/owl/ethernet.owl#> .
@prefix mani: <http://geni-orca.renci.org/owl/manifest.owl#> .
@prefix owl: <http://www.w3.org/2002/07/owl#> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix topo: <http://geni-orca.renci.org/owl/topology.owl#> .
"""


def test_redeclared_builtin_domain_counts_in_merge_order():
    # Of several domains declared for one property, the first in the merge
    # of the T-box and the document counts: the one whose class the T-box
    # declares as a domain earlier, whichever side declared it.
    doc = parse_document(
        _HEADER
        + """\
topo:hasSwitchMatrix rdfs:domain topo:NetworkElement .
topo:hasInterface rdfs:domain topo:Device .
topo:labelValue rdfs:domain comp:ComputeElement .
<urn:x/vm> rdf:type comp:VM .
<urn:x/vm> topo:hasSwitchMatrix <urn:x/m> .
<urn:x/vm> topo:hasInterface <urn:x/vm/if> .
<urn:x/vm/if> rdf:type topo:Interface .
<urn:x/vm/if> topo:interfaceOf <urn:x/vm> .
<urn:x/vlan> rdf:type eth:VLAN .
<urn:x/vlan> topo:labelValue "7" .
"""
    )
    expected = [
        "domain-violation urn:x/vlan: labelValue requires ComputeElement, subject types exclude it"
    ]
    assert [str(i) for i in validate_conformance(doc)] == expected
    assert [str(i) for i in _conformance_of(doc)] == expected


def test_extension_schema_subclassing_a_builtin_class():
    schema = parse_document(
        _HEADER + "<urn:gpu#GpuVM> rdf:type owl:Class .\n<urn:gpu#GpuVM> rdfs:subClassOf comp:VM .\n"
    )
    doc = parse_document(
        _HEADER
        + """\
<urn:x/g> rdf:type <urn:gpu#GpuVM> .
<urn:x/g> comp:diskImage "img" .
<urn:x/g> mani:hopIndex "1" .
<urn:x/g> topo:hasInterface <urn:x/g/if> .
<urn:x/g/if> rdf:type topo:Interface .
<urn:x/d> rdf:type <urn:gpu#Other> .
"""
    )
    expected = [
        "domain-violation urn:x/g: hopIndex requires PathHop, subject types exclude it",
        "untyped-instance urn:x/d: no rdf:type naming a known class",
    ]
    assert [str(i) for i in validate_conformance(schema, doc)] == expected
    assert [str(i) for i in validate_conformance(merge([builtin_schema(), schema, doc]))] == expected


def test_conformance_of_documents_matches_the_schema_merge():
    rng = random.Random(0xC0F0)
    for round_no in range(40):
        docs = [random_schema_model(rng) for _ in range(rng.randint(1, 3))]
        expected = validate_conformance(merge([builtin_schema(), *docs]))
        assert validate_conformance(*docs) == expected, f"round {round_no}"


def test_close_serializes_like_entailing_the_schema_merge():
    paths = sorted(FIXTURES.glob("*.ndl")) + sorted((FIXTURES / "golden").glob("*.ndl"))
    docs = [parse_document(p.read_text()) for p in paths]
    for path, doc in zip(paths, docs):
        expected = serialize_document(entail(merge([builtin_schema(), doc])))
        assert serialize_document(close(doc)) == expected, path.name
    expected = serialize_document(entail(merge([builtin_schema(), *docs])))
    assert serialize_document(close(*docs)) == expected


def test_satisfies_follows_subclass_closure():
    schema = entailed_schema()
    assert satisfies(schema, vocab.VM, vocab.VM)
    assert satisfies(schema, vocab.VM, vocab.COMPUTE_ELEMENT)
    assert not satisfies(schema, vocab.VM, vocab.BARE_METAL_CE)
    assert not satisfies(schema, vocab.COMPUTE_ELEMENT, vocab.VM)


# -- conformance typing: one closure, asserted types -----------------------------


def _without_domain_range(m: Model) -> Model:
    out = m.copy()
    for t in [*m.match(p=RDFS_DOMAIN), *m.match(p=RDFS_RANGE)]:
        out.remove(t)
    return out


_TBOX_WITHOUT_DOMAIN_RANGE = entail(_without_domain_range(builtin_schema())).freeze()


def _two_closure_conformance(*docs: Model, closed=None) -> list:
    """Conformance as it read when typing consulted a second closure: the
    documents without their domain/range axioms, closed onto the closure of
    the T-box without its own (`closed`, when the caller already has it).
    The other checks are the same."""
    m = docs[0] if len(docs) == 1 else merge(docs)
    if closed is None:
        closed = entail(_without_domain_range(m), closed=_TBOX_WITHOUT_DOMAIN_RANGE)
    domains = Model()
    domains.add_all(entailed_schema().match(p=RDFS_DOMAIN))
    domains.add_all(m.match(p=RDFS_DOMAIN))
    declared = {}
    for s, _, o in domains.match(p=RDFS_DOMAIN):
        if isinstance(o, Iri):
            declared.setdefault(s, o)
    schema_types = {OWL_CLASS, vocab.OWL_OBJECT_PROPERTY, vocab.OWL_DATATYPE_PROPERTY}
    schema_predicates = {
        RDF_TYPE, RDFS_SUBCLASS_OF, RDFS_SUBPROPERTY_OF, RDFS_DOMAIN, RDFS_RANGE, OWL_INVERSE_OF
    }
    label_layers = {spec.label_class: spec for spec in vocab.LAYERS.values()}
    issues = set()
    for s in {t.subject for t in m}:
        types = closed.types(s)
        if types & schema_types:
            continue
        if not any(Triple(c, RDF_TYPE, OWL_CLASS) in closed for c in types):
            issues.add(("untyped-instance", s, "no rdf:type naming a known class"))
            continue
        for _, p, _ in m.match(s=s):
            dom = declared.get(p)
            if p not in schema_predicates and dom not in (None, vocab.RDFS_CLASS) and dom not in types:
                detail = f"{p.local()} requires {dom.local()}, subject types exclude it"
                issues.add(("domain-violation", s, detail))
        for label_class, spec in label_layers.items():
            for v in m.objects(s, vocab.LABEL_VALUE) if label_class in types else ():
                if isinstance(v, Literal) and not spec.label_ok(v.lexical):
                    detail = f"labelValue {v.lexical!r} outside {label_class.local()} domain"
                    issues.add(("label-out-of-range", s, detail))
        spec = vocab.LAYERS.get(m.value(s, vocab.AT_LAYER))
        for prop in (vocab.AVAILABLE_LABEL_SET, vocab.IN_USE_LABEL_SET) if spec and spec.pooled else ():
            lit = m.value(s, prop)
            if not isinstance(lit, Literal):
                continue
            try:
                pool = parse_label_set(lit.lexical)
            except ValueError:
                issues.add(("label-out-of-range", s, f"unparseable label set {lit.lexical!r}"))
                continue
            if not spec.pool_in_domain(pool):
                detail = f"label set {lit.lexical!r} exceeds layer domain"
                issues.add(("label-out-of-range", s, detail))
        if vocab.INTERFACE in types and not closed.objects(s, vocab.INTERFACE_OF):
            issues.add(("dangling-interface", s, "interface attached to no element"))
    return [f"{kind} {s.value}: {detail}" for kind, s, detail in sorted(
        issues, key=lambda i: (i[0], i[1].value, i[2])
    )]


def _conformance_inputs():
    """(name, variants of one input): each fixture document alone, beside
    the T-box and merged into it, then seeded random schema documents, alone
    and beside the T-box. The variants of one input have the same closure,
    and the same two-closure reading's closure."""
    schema = builtin_schema()
    paths = sorted(FIXTURES.glob("**/*.ndl"))
    assert paths
    for path in paths:
        doc = parse_document(path.read_text())
        yield path.name, [(doc,), (doc, schema), (merge([schema, doc]),)]
    rng = random.Random(0x7B0C)
    for round_no in range(1000):
        docs = tuple(random_schema_model(rng) for _ in range(rng.randint(1, 3)))
        yield f"round {round_no}", [docs, (schema, *docs)]


def test_one_closure_conformance_matches_the_two_closure_reading():
    checked = 0
    for name, variants in _conformance_inputs():
        closed = close(*variants[0])
        before = entail(_without_domain_range(merge(variants[0])), closed=_TBOX_WITHOUT_DOMAIN_RANGE)
        for docs in variants:
            got = [str(i) for i in validate_conformance(*docs, closed=closed)]
            assert got == _two_closure_conformance(*docs, closed=before), name
            checked += 1
    assert checked >= 2000


def test_conformance_closes_the_documents_when_no_closure_is_given():
    for path in sorted(FIXTURES.glob("**/*.ndl")):
        doc = parse_document(path.read_text())
        assert validate_conformance(doc) == validate_conformance(doc, closed=close(doc)), path.name


def test_entailed_schema_types_only_what_the_tbox_asserts():
    # conformance reads the T-box's asserted types off its closure
    assert set(entailed_schema().match(p=RDF_TYPE)) == set(builtin_schema().match(p=RDF_TYPE))


_META_HEADER = """\
@prefix comp: <http://geni-orca.renci.org/owl/compute.owl#> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
"""


@pytest.mark.parametrize(
    "body, before",
    [
        # a sub-property of rdf:type types no instance
        (
            "<urn:t> rdfs:subPropertyOf rdf:type .\n<urn:x> <urn:t> comp:VM .\n",
            ["untyped-instance urn:t: no rdf:type naming a known class"],
        ),
        # a domain axiom derived through a sub-property of rdfs:domain types
        # no instance, as an asserted one does not
        (
            "<urn:q> rdfs:subPropertyOf rdfs:domain .\n<urn:p> <urn:q> comp:VM .\n"
            "<urn:x> <urn:p> <urn:y> .\n",
            [
                "untyped-instance urn:p: no rdf:type naming a known class",
                "untyped-instance urn:q: no rdf:type naming a known class",
            ],
        ),
    ],
    ids=["subproperty-of-type", "derived-domain"],
)
def test_types_come_from_rdf_type_assertions_only(body, before):
    doc = parse_document(_META_HEADER + body)
    assert _two_closure_conformance(doc) == before
    untyped_x = "untyped-instance urn:x: no rdf:type naming a known class"
    assert [str(i) for i in validate_conformance(doc)] == sorted([*before, untyped_x])


# -- closing documents onto the built-in T-box's rule tables --------------------

_TBOX = entailed_schema()
_CLASSES = _TBOX.typed(OWL_CLASS)
_OBJECT_PROPERTIES = _TBOX.typed(vocab.OWL_OBJECT_PROPERTY)
_DATA_PROPERTIES = _TBOX.typed(vocab.OWL_DATATYPE_PROPERTY)
_FRESH = [Iri("urn:doc/p"), Iri("urn:doc/C")]  # a predicate and a class the T-box never names
# instance nodes, and T-box classes and properties standing as nodes
_NODES = [Iri(f"urn:doc/n{i}") for i in range(4)] + [vocab.INTERFACE, vocab.HAS_INTERFACE]
_LITERALS = [string("x"), integer(7), Literal("2-4094")]

_instance_triple = st.one_of(
    st.tuples(
        st.sampled_from(_NODES),
        st.sampled_from(_OBJECT_PROPERTIES + _FRESH[:1]),
        st.sampled_from(_NODES + _CLASSES + _FRESH[1:]),
    ),
    st.tuples(
        st.sampled_from(_NODES),
        st.sampled_from(_DATA_PROPERTIES + _OBJECT_PROPERTIES[:2] + _FRESH[:1]),
        st.sampled_from(_LITERALS),
    ),
    st.tuples(
        st.sampled_from(_NODES),
        st.just(RDF_TYPE),
        st.sampled_from(_CLASSES + _FRESH + _NODES[:1] + _LITERALS[:1]),
    ),
)


def _document(triples) -> Model:
    doc = Model()
    doc.add_all(Triple(*t) for t in triples)
    return doc


@settings(max_examples=80, deadline=None)
@given(st.lists(_instance_triple, max_size=14))
def test_one_pass_closure_matches_the_naive_fixpoint(triples):
    # every object and datatype property (inverse pairs among them), IRI
    # and literal objects, a predicate and a class the T-box never names,
    # and T-box classes and properties as subjects and objects
    doc = _document(triples)
    assert set(close(doc)) == naive_entail(merge([builtin_schema(), doc]))


def test_every_builtin_property_closes_in_one_pass_like_the_fixpoint():
    # one triple per predicate and object kind, against the plain fixpoint
    # over the schema merge (criterion 4 holds that one to the naive oracle)
    nodes = [Iri("urn:doc/a"), Iri("urn:doc/b")]
    for p in _OBJECT_PROPERTIES + _DATA_PROPERTIES + [RDF_TYPE]:
        for o in [nodes[1], string("v"), *_CLASSES]:
            doc = _document([(nodes[0], p, o)])
            assert close(doc) == entail(merge([builtin_schema(), doc])), (p, o)


_EXT = [Iri(f"urn:ext/{name}") for name in ("q", "dom", "C", "D")]

# Schema a document states: each closes against tables built for the
# document. The last three give an instance predicate a schema predicate as
# a super-property, so that its instance triples derive schema or type a
# node by their object.
_SCHEMA_FORMS = [
    [(_EXT[2], RDFS_SUBCLASS_OF, vocab.INTERFACE), (_NODES[0], RDF_TYPE, _EXT[2])],
    [(vocab.INTERFACE, RDFS_SUBCLASS_OF, _EXT[3]), (_NODES[1], vocab.HAS_INTERFACE, _NODES[2])],
    [(_EXT[0], RDFS_SUBPROPERTY_OF, vocab.LINKED_TO), (_NODES[0], _EXT[0], _NODES[3])],
    [(_EXT[0], RDFS_DOMAIN, _EXT[2]), (_EXT[0], RDFS_RANGE, vocab.INTERFACE)],
    [(vocab.HAS_INTERFACE, OWL_INVERSE_OF, _EXT[0]), (_NODES[2], _EXT[0], _NODES[1])],
    [(_EXT[0], RDFS_SUBPROPERTY_OF, RDF_TYPE), (_NODES[0], _EXT[0], vocab.INTERFACE)],
    [(_EXT[1], RDFS_SUBPROPERTY_OF, RDFS_DOMAIN), (_EXT[0], _EXT[1], _EXT[2])],
    [(_EXT[1], RDFS_SUBPROPERTY_OF, RDFS_DOMAIN), (vocab.LINKED_TO, _EXT[1], _EXT[3])],
]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from(_SCHEMA_FORMS), min_size=1, max_size=3),
    st.lists(_instance_triple, max_size=10),
)
def test_documents_stating_schema_close_like_the_naive_fixpoint(forms, triples):
    doc = _document([t for form in forms for t in form] + triples)
    assert set(close(doc)) == naive_entail(merge([builtin_schema(), doc]))


@pytest.mark.parametrize("extension", _SCHEMA_FORMS[5:], ids=["sub-type", "sub-domain", "sub-domain-of-tbox"])
def test_instance_triples_that_derive_schema_or_type_by_their_object_close_like_the_naive_fixpoint(
    extension,
):
    # the extension is part of the closed base here, so the document states
    # no schema: its instance triple derives a schema triple the base's
    # tables lack, or an rdf:type triple whose class is its object
    ext = _document(extension[:1])
    base = entail(merge([builtin_schema(), ext])).freeze()
    doc = _document(extension[1:] + [(_NODES[0], vocab.LINKED_TO, _NODES[1])])
    assert set(entail(doc, closed=base)) == naive_entail(merge([builtin_schema(), ext, doc]))


def test_one_pass_budget_raises_exactly_past_the_derived_count():
    docs = [parse_document((FIXTURES / name).read_text()) for name in ("renci.ndl", "request-pair.ndl")]
    for doc in docs:
        derived = len(naive_entail(merge([builtin_schema(), doc]))) - len(merge([_TBOX, doc]))
        assert derived > 1
        for budget in (0, derived - 1, derived, derived + 1):
            if derived > budget:
                with pytest.raises(graphstore.ClosureBudgetExceeded) as err:
                    entail(doc, budget=budget, closed=_TBOX)
                assert (err.value.derived, err.value.cap) == (budget + 1, budget)
            else:
                got = entail(doc, budget=budget, closed=_TBOX)
                assert len(got) - len(merge([_TBOX, doc])) == derived


def test_fresh_names_leave_the_consequence_memo_as_it_was():
    *_, names, memo = _TBOX.derived(graphstore._rules)
    assert names and names <= {*_TBOX._spo, OWL_INVERSE_OF}
    close(_document([(_NODES[0], _FRESH[0], _NODES[1]), (_NODES[0], RDF_TYPE, _FRESH[1])]))
    before = [dict(by_predicate) for by_predicate in memo]
    doc = Model()
    for i in range(10_000):
        node = Iri(f"urn:many/n{i}")
        doc.add(Triple(node, Iri(f"urn:many/p{i}"), Iri(f"urn:many/o{i}")))
        doc.add(Triple(node, Iri(f"urn:many/d{i}"), string(str(i))))
        doc.add(Triple(node, RDF_TYPE, Iri(f"urn:many/C{i}")))
    closed = close(doc)
    assert len(closed) == len(_TBOX) + len(doc)
    assert list(memo) == before
    assert all(p in names for by_predicate in memo for p in by_predicate)


# Lists the closure of a fixture document after interning `argv[1]` other
# IRIs first, which moves the identity hashes of every term.
_LIST_CLOSURE = """
import sys
from netslice.graphstore import Iri, parse_document
padding = [Iri(f"urn:pad/{i}") for i in range(int(sys.argv[1]))]
from netslice.vocab import close
print(list(close(parse_document(open(sys.argv[2]).read()))))
"""


def test_one_pass_closure_lists_in_the_same_order_in_every_interpreter():
    src = str(Path(netslice.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    listings = [
        subprocess.run(
            [sys.executable, "-c", _LIST_CLOSURE, str(padding), str(FIXTURES / "renci.ndl")],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        ).stdout
        for padding in (0, 7)
    ]
    assert listings[0] == listings[1] != ""


def test_a_refused_closure_leaves_every_kept_consequence_usable(monkeypatch):
    # a caller's small default budget (as the budget tests set it) refuses
    # the document, but what the base keeps meanwhile closes it in full later
    base = entail(builtin_schema()).freeze()
    doc = parse_document((FIXTURES / "renci.ndl").read_text())
    monkeypatch.setattr(graphstore.entail, "__defaults__", (5, None))
    with pytest.raises(graphstore.ClosureBudgetExceeded):
        entail(doc, closed=base)
    monkeypatch.undo()
    assert any(base.derived(graphstore._rules)[-1])
    assert entail(doc, closed=base) == entail(merge([builtin_schema(), doc]))
