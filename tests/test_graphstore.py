import copy
import gc
import pickle
import random
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netslice import graphstore
from netslice.graphstore import (
    ClosureBudgetExceeded,
    Iri,
    Literal,
    Model,
    OWL_INVERSE_OF,
    ParseError,
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_SUBCLASS_OF,
    RDFS_SUBPROPERTY_OF,
    Triple,
    Var,
    XSD_INTEGER,
    EvaluationBudgetExceeded,
    entail,
    int_value,
    integer,
    lex,
    merge,
    parse_document,
    query_bgp,
    serialize_document,
)
from netslice.vocab import builtin_schema, entailed_schema
from conftest import FIXTURES, HUGE_INTEGER, LOOSE_INTEGERS
from generators import random_schema_model
from oracles import (
    bgp_by_assignment,
    naive_entail,
    reference_entail,
    reference_parse_document,
    reference_render_iri,
    reference_serialize,
)

EX = "urn:ex/"


def ex(name):
    return Iri(EX + name)


def t(s, p, o):
    return Triple(ex(s), ex(p), o if isinstance(o, Literal) else ex(o))


def test_equal_terms_are_one_object():
    assert Iri(EX + "a") is ex("a")
    assert Literal("5", XSD_INTEGER) is integer(5)
    assert Literal("x") is Literal("x", Iri("http://www.w3.org/2001/XMLSchema#string"))
    assert Literal("5", XSD_INTEGER) is not Literal("5")
    assert Literal("5", XSD_INTEGER) != Literal("5")
    assert ex("a") != Literal(EX + "a")


@pytest.mark.parametrize(
    "lexical, value",
    [("100", 100), ("+100", 100), ("-7", -7), ("007", 7), ("", None), ("+", None), ("1e3", None)]
    + [(lexical, None) for lexical in LOOSE_INTEGERS]
    + [pytest.param(HUGE_INTEGER, None, id="5000-digits")],
)
def test_int_value_reads_only_the_xsd_integer_lexical_space(lexical, value):
    assert int_value(Literal(lexical, XSD_INTEGER)) == value
    assert int_value(Literal(lexical)) is None


def test_terms_are_immutable():
    a, five = ex("a"), integer(5)
    with pytest.raises(AttributeError):
        a.value = EX + "b"
    with pytest.raises(AttributeError):
        five.lexical = "6"
    with pytest.raises(AttributeError):
        del five.datatype
    assert (a.value, five.lexical) == (EX + "a", "5")


@pytest.mark.parametrize("term", [ex("a"), integer(5), Literal("x y")], ids=repr)
def test_copies_and_pickles_return_the_interned_term(term):
    assert copy.copy(term) is term
    assert copy.deepcopy(term) is term
    assert pickle.loads(pickle.dumps(term)) is term
    triple = Triple(ex("s"), ex("p"), term)
    assert pickle.loads(pickle.dumps(triple)) == triple
    assert copy.deepcopy(triple).object is term


# What an RDF 1.1 N-Triples IRIREF may not hold.
_IRIREF_FORBIDDEN = '<>"{}|^`\\' + "".join(map(chr, range(0x21)))


@pytest.mark.parametrize(
    "bad", dict.fromkeys(["", "urn:a b", "urn:a\tb", *(f"urn:a{c}b" for c in _IRIREF_FORBIDDEN)])
)
def test_invalid_iri_raises_and_is_not_interned(bad):
    with pytest.raises(ValueError):
        Iri(bad)
    assert bad not in graphstore._IRIS


def test_unused_terms_leave_the_intern_table():
    value = EX + f"collectable/{random.random()}"
    iri_ref = weakref.ref(Iri(value))
    literal_ref = weakref.ref(Literal(value, ex("type")))
    gc.collect()
    assert iri_ref() is None and literal_ref() is None
    assert value not in graphstore._IRIS
    assert (value, ex("type")) not in graphstore._LITERALS


def test_a_dead_terms_entry_goes_only_while_it_still_holds_that_term():
    class Term:
        __slots__ = ("__weakref__",)

    table, old, new = {}, Term(), Term()
    graphstore._intern(table, "k", old)
    # the cycle collector holds a dead term's reference until its callback
    # runs, and a callback it runs first may intern the value anew
    stale = table["k"]
    graphstore._intern(table, "k", new)
    del old
    assert stale() is None and table["k"]() is new
    del new
    assert table == {}


def test_triples_of_equal_terms_are_equal_and_hash_equal():
    a = Triple(ex("s"), ex("p"), Literal("5", XSD_INTEGER))
    b = Triple(Iri(EX + "s"), Iri(EX + "p"), integer(5))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert repr(a) == (
        'Triple(subject=<urn:ex/s>, predicate=<urn:ex/p>, '
        'object="5"^^<http://www.w3.org/2001/XMLSchema#integer>)'
    )


def test_parse_single_statement():
    doc = (
        "@prefix t: <http://geni-orca.renci.org/owl/topology.owl#> .\n"
        "<urn:a> t:hasInterface <urn:a-if0> .\n"
    )
    m = parse_document(doc)
    assert len(m) == 1
    only = next(iter(m))
    assert only.subject == Iri("urn:a")
    assert only.predicate == Iri("http://geni-orca.renci.org/owl/topology.owl#hasInterface")
    assert only.object == Iri("urn:a-if0")


def test_parse_missing_object_is_syntax_error():
    with pytest.raises(ParseError) as err:
        parse_document("<urn:a> <urn:p> .\n")
    assert err.value.line == 1


def test_parse_undeclared_prefix():
    with pytest.raises(ParseError, match="undeclared prefix"):
        parse_document("t:a t:p t:b .\n")


def test_parse_literal_subject_rejected():
    with pytest.raises(ParseError, match="subject"):
        parse_document('"lex" <urn:p> <urn:o> .\n')


def test_parse_comments_and_blank_lines():
    doc = "# header\n\n<urn:a> <urn:p> <urn:b> .  # trailing\n"
    assert len(parse_document(doc)) == 1


def test_parse_typed_literal_and_escapes():
    doc = (
        "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
        '<urn:a> <urn:p> "5"^^xsd:integer .\n'
        '<urn:a> <urn:q> "line\\nbreak \\"quoted\\"" .\n'
    )
    m = parse_document(doc)
    objs = {o for _t in m for o in [_t.object]}
    assert Literal("5", XSD_INTEGER) in objs
    assert Literal('line\nbreak "quoted"') in objs


def test_serialize_empty_model():
    assert serialize_document(Model()) == ""
    m = Model({"t": "urn:t/"})
    assert serialize_document(m) == "@prefix t: <urn:t/> .\n"


def test_roundtrip_is_fixpoint():
    doc = (
        "@prefix e: <urn:ex/> .\n"
        "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
        'e:a e:p "12"^^xsd:integer .\n'
        "e:a e:q e:b .\n"
        '<urn:other:thing> e:q "plain" .\n'
    )
    m = parse_document(doc)
    once = serialize_document(m)
    again = serialize_document(parse_document(once))
    assert once == again
    assert parse_document(once) == m
    assert parse_document(once).prefixes == m.prefixes


def test_serialization_invariant_under_insertion_order():
    rng = random.Random(7)
    triples = [t(f"s{i}", f"p{i % 3}", f"o{i % 5}") for i in range(40)]
    base = Model({"e": EX})
    base.add_all(triples)
    expected = serialize_document(base)
    for _ in range(10):
        shuffled = triples[:]
        rng.shuffle(shuffled)
        m = Model({"e": EX})
        m.add_all(shuffled)
        assert serialize_document(m) == expected


def render_term(t, prefixes: dict) -> str:
    return graphstore._render(t, graphstore._namespaces(prefixes))


def test_render_term_compacts_like_the_reference():
    # overlapping and equal namespaces, empty and unsafe locals
    rng = random.Random(0x5E7)
    spaces = ["urn:a/", "urn:a/b", "urn:a/b/", "urn:a/b/c.", "urn:", "urn:a/b/c/d#", "urn:z#"]
    pieces = ["", "b", "/", "c", ".", "d#", "x-y", "e", "~", "0"]
    for _ in range(2000):
        names = [rng.choice("pqrs") + rng.choice(["", "1"]) for _ in range(4)]
        prefixes = {name: rng.choice(spaces) for name in names}
        value = rng.choice(spaces) + "".join(rng.choice(pieces) for _ in range(rng.randrange(4)))
        assert render_term(Iri(value), prefixes) == reference_render_iri(value, prefixes)


# Nested namespaces ("urn:a/" in "urn:a/b" in "urn:a/b/"), one that leaves
# locals ending in "." ("urn:a/b/c."), and one shorter than the rest ("u:").
_SPACES = [
    "urn:a/", "urn:a/b", "urn:a/b/", "urn:a/b/c.", "urn:a/b/c/d#", "urn:z#", "u:", "http://x.org/ns#"
]
# Locals that are empty, safe, unsafe ("~", "#", a leading "." or "-") or end in ".".
_LOCALS = st.text(alphabet="ab0_/.#~-", max_size=4)
_IRIS = st.builds(
    lambda ns, local: Iri(ns + local), st.sampled_from([*_SPACES, "urn:other/"]), _LOCALS
)
# Every character a literal escapes, and two it does not.
_LITERALS = st.builds(
    Literal,
    st.text(alphabet='a \\"\n\r\t\x01\u00e9', max_size=5),
    st.one_of(st.sampled_from([graphstore.XSD_STRING, XSD_INTEGER]), _IRIS),
)
# Two names for one namespace, the empty prefix name, and maps with none.
_PREFIX_MAPS = st.dictionaries(
    st.sampled_from(["", "p", "q", "p1", "ns.x", "a-b"]), st.sampled_from(_SPACES), max_size=5
)


@settings(max_examples=300, deadline=None)
@given(_PREFIX_MAPS, st.lists(st.tuples(_IRIS, _IRIS, st.one_of(_IRIS, _LITERALS)), max_size=10))
def test_serializer_is_byte_equal_to_the_reference_and_round_trips(prefixes, rows):
    m = Model(prefixes)
    m.add_all(Triple(*row) for row in rows)
    text = serialize_document(m)
    assert text == reference_serialize(m)
    assert serialize_document(list(m), prefixes) == text
    again = parse_document(text)
    assert again == m and again.prefixes == prefixes
    assert serialize_document(again) == text


def test_set_semantics_on_re_add():
    m = Model()
    trip = t("a", "p", "b")
    assert m.add(trip)
    assert not m.add(trip)
    assert len(m) == 1


def test_derived_is_kept_until_the_triples_change():
    builds = []

    def count(m):
        builds.append(len(m))
        return len(m)

    m = Model()
    m.add(t("a", "p", "b"))
    assert m.derived(count) == m.derived(count) == 1
    assert builds == [1]
    m.add(t("a", "p", "b"))  # already present: nothing changed
    assert m.derived(count) == 1 and builds == [1]
    m.add(t("a", "p", "c"))
    assert m.derived(count) == 2 and builds == [1, 2]
    copied = m.copy()
    m.remove(t("a", "p", "b"))
    m.remove(t("a", "p", "b"))
    assert m.derived(count) == 1 and builds == [1, 2, 1]
    assert copied.derived(count) == 2 and builds == [1, 2, 1, 2]


def test_indexes_agree_with_full_rescan():
    rng = random.Random(3)
    m = Model()
    pool = [t(f"s{rng.randrange(6)}", f"p{rng.randrange(4)}", f"o{rng.randrange(6)}") for _ in range(60)]
    for trip in pool:
        m.add(trip)
    for trip in rng.sample(pool, 20):
        m.remove(trip)
    everything = set(m)
    for s in [None, ex("s1"), ex("s2")]:
        for p in [None, ex("p0"), ex("p1")]:
            for o in [None, ex("o3")]:
                got = set(m.match(s, p, o))
                want = {
                    x
                    for x in everything
                    if (s is None or x.subject == s)
                    and (p is None or x.predicate == p)
                    and (o is None or x.object == o)
                }
                assert got == want


def test_merge_identity_and_union_bound():
    a = Model({"e": EX})
    a.add_all([t("a", "p", "b"), t("b", "p", "c")])
    b = Model()
    b.add_all([t("b", "p", "c"), t("c", "p", "d")])
    assert merge([a, Model()]) == a
    merged = merge([a, b])
    assert len(merged) <= len(a) + len(b)
    assert len(merged) == 3


def test_merge_commutative_associative_on_triples():
    ms = []
    for k in range(3):
        m = Model()
        m.add_all([t(f"s{k}{i}", "p", f"o{i}") for i in range(4)])
        ms.append(m)
    assert merge([ms[0], merge([ms[1], ms[2]])]) == merge([merge([ms[0], ms[1]]), ms[2]])
    assert merge([ms[1], ms[0]]) == merge([ms[0], ms[1]])


def test_merge_prefix_conflict_later_wins(caplog):
    a = Model({"x": "urn:one/"})
    b = Model({"x": "urn:two/"})
    with caplog.at_level("WARNING"):
        merged = merge([a, b])
    assert merged.prefixes["x"] == "urn:two/"
    assert any("redefined" in r.message for r in caplog.records)


def test_entail_subclass_chain():
    m = Model()
    A, B, C, x = ex("A"), ex("B"), ex("C"), ex("x")
    m.add(Triple(B, RDFS_SUBCLASS_OF, A))
    m.add(Triple(C, RDFS_SUBCLASS_OF, B))
    m.add(Triple(x, RDF_TYPE, C))
    closed = entail(m)
    assert Triple(x, RDF_TYPE, B) in closed
    assert Triple(x, RDF_TYPE, A) in closed
    assert Triple(C, RDFS_SUBCLASS_OF, A) in closed


def test_entail_inverse_property():
    m = Model()
    has_if, if_of = ex("hasInterface"), ex("interfaceOf")
    n, i = ex("n"), ex("i")
    m.add(Triple(has_if, OWL_INVERSE_OF, if_of))
    m.add(Triple(n, has_if, i))
    closed = entail(m)
    assert Triple(i, if_of, n) in closed
    # symmetry of the declaration itself
    assert Triple(if_of, OWL_INVERSE_OF, has_if) in closed


def test_entail_monotone_and_idempotent():
    m = random_schema_model(random.Random(11))
    closed = entail(m)
    assert set(m) <= set(closed)
    assert entail(closed) == closed


def test_entail_matches_naive_fixpoint_oracle():
    rng = random.Random(20260808)
    for _ in range(25):
        m = random_schema_model(rng)
        assert set(entail(m)) == naive_entail(m)


def test_entail_sees_schema_triples_derived_mid_fixpoint():
    # q's domain and range are derived from axioms stated through
    # sub-properties of rdfs:domain and rdfs:range, after q's first use has
    # been processed; r's triples reach q through rdfs:subPropertyOf later
    m = Model()
    m.add(t("x", "q", "y"))
    m.add(Triple(ex("dom"), RDFS_SUBPROPERTY_OF, RDFS_DOMAIN))
    m.add(Triple(ex("rng"), RDFS_SUBPROPERTY_OF, RDFS_RANGE))
    m.add(t("q", "dom", "C"))
    m.add(t("q", "rng", "D"))
    m.add(t("z", "r", "w"))
    m.add(t("r", "sub", "q"))
    m.add(Triple(ex("sub"), RDFS_SUBPROPERTY_OF, RDFS_SUBPROPERTY_OF))
    closed = entail(m)
    for inst, cls in [("x", "C"), ("y", "D"), ("z", "C"), ("w", "D")]:
        assert Triple(ex(inst), RDF_TYPE, ex(cls)) in closed
    assert set(closed) == naive_entail(m)


def test_entail_matches_the_naive_fixpoint_with_schema_terms_anywhere():
    # schema relations and rdf:type as subjects, predicates and objects:
    # here rdf:type becomes a sub-property of n1 through an inverse of
    # rdfs:subPropertyOf, so types derived before that is known must still
    # derive their n1 triples
    n = [ex(f"n{i}") for i in range(6)]
    m = Model()
    m.add_all(Triple(*t) for t in [
        (RDF_TYPE, RDFS_RANGE, n[1]), (n[1], n[0], RDF_TYPE), (n[4], n[5], RDFS_DOMAIN),
        (n[5], RDFS_DOMAIN, n[3]), (RDFS_SUBPROPERTY_OF, OWL_INVERSE_OF, n[0]),
    ])
    assert set(entail(m)) == naive_entail(m)
    rng = random.Random(0x5C4E)
    terms = [RDF_TYPE, RDFS_SUBCLASS_OF, RDFS_SUBPROPERTY_OF, RDFS_DOMAIN, RDFS_RANGE, OWL_INVERSE_OF, *n]
    for round_no in range(300):
        m = Model()
        for _ in range(rng.randint(1, 12)):
            m.add(Triple(rng.choice(terms), rng.choice(terms), rng.choice(terms + [integer(1)])))
        expected = naive_entail(m)
        assert set(entail(m)) == expected, f"round {round_no}"
        base, rest = Model(), Model()
        for t in m:
            (base if rng.random() < 0.5 else rest).add(t)
        assert set(entail(rest, closed=entail(base).freeze())) == expected, f"round {round_no}, split"


def _closes_like_the_reference(m, closed=None):
    got = entail(m, closed=closed)
    stated = list(m) if closed is None else [*closed, *(t for t in m if t not in closed)]
    assert list(got)[: len(stated)] == stated
    return set(got) == set(reference_entail(m, closed=closed))


def test_entail_closes_like_the_pairwise_reference():
    # the rule tables close what the reference's pairwise joins close, after
    # the stated triples in their order: on the T-box, every fixture onto
    # it and random models. No output reads the derived triples' order.
    tbox = entailed_schema()
    assert _closes_like_the_reference(builtin_schema())
    fixtures = sorted(FIXTURES.rglob("*.ndl"))
    assert len(fixtures) >= 10
    for path in fixtures:
        doc = parse_document(path.read_text())
        assert _closes_like_the_reference(merge([builtin_schema(), doc])), path.name
        assert _closes_like_the_reference(doc, closed=tbox), path.name
    rng = random.Random(0x0DE7)
    for round_no in range(1000):
        m = random_schema_model(rng)
        assert _closes_like_the_reference(m), f"round {round_no}"
        assert _closes_like_the_reference(m, closed=tbox), f"round {round_no}, onto the T-box"


def test_entail_budget_raises_exactly_past_the_derived_count():
    rng = random.Random(0xB0D6E7)
    for round_no in range(60):
        m = random_schema_model(rng)
        derived = len(naive_entail(m)) - len(m)
        for budget in {0, derived - 1, derived, derived + 1, rng.randrange(derived + 2)}:
            if budget < 0:
                continue
            if derived > budget:
                with pytest.raises(ClosureBudgetExceeded) as err:
                    entail(m, budget=budget)
                assert (err.value.derived, err.value.cap) == (budget + 1, budget)
            else:
                assert len(entail(m, budget=budget)) - len(m) == derived, f"round {round_no}"


def test_entail_budget():
    m = Model()
    classes = [ex(f"C{i}") for i in range(60)]
    for a, b in zip(classes, classes[1:]):
        m.add(Triple(a, RDFS_SUBCLASS_OF, b))
    with pytest.raises(ClosureBudgetExceeded):
        entail(m, budget=10)


def test_query_single_pattern():
    m = Model()
    m.add(t("ServerA", "hasInterface", "ifA"))
    m.add(t("ServerB", "hasInterface", "ifB"))
    got = query_bgp(m, [(ex("ServerA"), ex("hasInterface"), Var("i"))])
    assert got == [{"i": ex("ifA")}]


def test_query_no_match_is_empty():
    m = Model()
    m.add(t("a", "p", "b"))
    assert query_bgp(m, [(ex("zz"), ex("p"), Var("o"))]) == []


def test_query_join_matches_assignment_oracle():
    rng = random.Random(99)
    for _ in range(30):
        m = Model()
        for _ in range(rng.randrange(4, 11)):
            m.add(t(f"s{rng.randrange(4)}", f"p{rng.randrange(3)}", f"o{rng.randrange(4)}"))
        patterns = [
            (Var("x"), ex(f"p{rng.randrange(3)}"), Var("y")),
            (Var("y"), ex(f"p{rng.randrange(3)}"), Var("z")),
            (Var("x"), Var("q"), Var("z")),
        ]
        assert query_bgp(m, patterns) == bgp_by_assignment(m, patterns)


def test_query_unbound_predicate_variable():
    m = Model()
    m.add(t("a", "p", "b"))
    got = query_bgp(m, [(ex("a"), Var("p"), ex("b"))])
    assert got == [{"p": ex("p")}]


def test_join_results_do_not_depend_on_the_written_order():
    rng = random.Random(7)
    for _ in range(30):
        m = Model()
        for _ in range(rng.randrange(4, 14)):
            m.add(t(f"s{rng.randrange(4)}", f"p{rng.randrange(2)}", f"s{rng.randrange(4)}"))
        patterns = [
            (Var("x"), ex(f"p{rng.randrange(2)}"), Var("y")),
            (Var("y"), ex(f"p{rng.randrange(2)}"), Var("z")),
            (Var("z"), Var("q"), ex(f"s{rng.randrange(4)}")),
        ]
        filters = [(Var("x"), Var("z"), True)]
        expected = [b for b in bgp_by_assignment(m, patterns) if b["x"] != b["z"]]
        for order in ([0, 1, 2], [2, 1, 0], [1, 2, 0]):
            assert query_bgp(m, [patterns[k] for k in order], filters) == expected


def test_join_refuses_a_cross_product_over_its_budget():
    m = Model()
    for k in range(4):
        m.add(t(f"s{k}", "p", f"o{k}"))
    cross = [(Var("a"), ex("p"), Var("b")), (Var("c"), ex("p"), Var("d"))]
    assert len(query_bgp(m, cross, budget=20)) == 16
    with pytest.raises(EvaluationBudgetExceeded, match=r"produced 20 rows \(cap 19\)"):
        query_bgp(m, cross, budget=19)
    with pytest.raises(ValueError, match="bound by no pattern"):
        query_bgp(m, cross, [(Var("a"), Var("nowhere"), False)])


@pytest.mark.parametrize(
    "text, marks, tokens",
    [
        # a document line: a dot is a mark only before whitespace, '#' or the end
        (
            'e:a <urn:b#c> "x\\ty"^^e:t.x .# c',
            (".",),
            [("word", "e:a", 1, 1), ("iri", "urn:b#c", 1, 5), ("literal", "x\ty", 1, 15),
             ("mark", ".", 1, 29)],
        ),
        # a rule: marks end words, "<-" is one mark, "?X" is a variable
        (
            'violation("m # x", ?X) <-(?X a:b.c ?y).',
            ("(", ")", ",", ".", "<-"),
            [("word", "violation", 1, 1), ("mark", "(", 1, 10), ("literal", "m # x", 1, 11),
             ("mark", ",", 1, 18), ("var", "X", 1, 20), ("mark", ")", 1, 22),
             ("mark", "<-", 1, 24), ("mark", "(", 1, 26), ("var", "X", 1, 27),
             ("word", "a:b.c", 1, 30), ("var", "y", 1, 36), ("mark", ")", 1, 38),
             ("mark", ".", 1, 39)],
        ),
        (
            "^a:b/(c:d|<urn:e>)*",
            ("(", ")", "|", "/", "*", "+", "^"),
            [("mark", "^", 1, 1), ("word", "a:b", 1, 2), ("mark", "/", 1, 5),
             ("mark", "(", 1, 6), ("word", "c:d", 1, 7), ("mark", "|", 1, 10),
             ("iri", "urn:e", 1, 11), ("mark", ")", 1, 18), ("mark", "*", 1, 19)],
        ),
        # lines count from one, columns restart on each line
        (
            '"a"\n  ?v ?w:x # c\n\t<urn:x>\r',
            (),
            [("literal", "a", 1, 1), ("var", "v", 2, 3), ("word", "?w:x", 2, 6),
             ("iri", "urn:x", 3, 2)],
        ),
    ],
    ids=["document", "rule", "path", "lines"],
)
def test_lex_reads_terms_and_marks_with_their_positions(text, marks, tokens):
    assert [(k.kind, k.value, k.line, k.col) for k in lex(text, marks)] == tokens


@pytest.mark.parametrize(
    "text, line, col, reason",
    [
        ('x\n  "abc', 2, 3, "unterminated string literal"),
        ('"a\\qb"', 1, 3, "bad escape in string literal"),
        ('"ab\\', 1, 4, "bad escape in string literal"),
        ('"a"^^ x', 1, 6, "missing datatype after ^^"),
        ('"a"^^<x', 1, 6, "unterminated datatype IRI"),
        ("<urn:a\n>", 1, 1, "unterminated IRI reference"),
    ],
)
def test_lex_errors_name_line_and_column(text, line, col, reason):
    with pytest.raises(ParseError) as raised:
        lex(text)
    assert (raised.value.line, raised.value.col, raised.value.reason) == (line, col, reason)


def test_parse_substrate_fixture_chain_present():
    from conftest import FIXTURES

    m = parse_document((FIXTURES / "renci.ndl").read_text())
    rnc = "http://geni-orca.renci.org/sites/renci/"
    topo = "http://geni-orca.renci.org/owl/topology.owl#"
    assert Triple(
        Iri(rnc + "Server/A"), Iri(topo + "hasInterface"), Iri(rnc + "Server/A/f1/ethernet")
    ) in m
    assert Triple(
        Iri(rnc + "Server/A/f1/ethernet"), Iri(topo + "linkedTo"), Iri(rnc + "10GB/1/0/ethernet")
    ) in m


def test_merge_request_with_schema_connects_class_hierarchy():
    from conftest import FIXTURES
    from netslice.vocab import RESERVATION, NETWORK_ELEMENT, builtin_schema

    request = parse_document((FIXTURES / "request-pair.ndl").read_text())
    closed = entail(merge([builtin_schema(), request]))
    res = Iri("urn:orca:request:pair/Reservation/1")
    assert Triple(res, RDF_TYPE, RESERVATION) in closed
    # the request's node types now sit inside the schema hierarchy
    node = Iri("urn:orca:request:pair/Node/1")
    assert Triple(node, RDF_TYPE, NETWORK_ELEMENT) in closed


def test_query_fixture_interface():
    from conftest import FIXTURES

    m = parse_document((FIXTURES / "renci.ndl").read_text())
    rnc = "http://geni-orca.renci.org/sites/renci/"
    topo = "http://geni-orca.renci.org/owl/topology.owl#"
    got = query_bgp(m, [(Iri(rnc + "Server/A"), Iri(topo + "hasInterface"), Var("i"))])
    assert got == [{"i": Iri(rnc + "Server/A/f1/ethernet")}]


def _index_answers(m):
    """What m answers, in order: its triples, and the matches of each of its
    subjects, predicates and (predicate, object) pairs."""
    return (
        list(m),
        [list(m.match(s=x)) for x in {t.subject: None for t in m}],
        [list(m.match(p=x)) for x in {t.predicate: None for t in m}],
        [list(m.match(p=t.predicate, o=t.object)) for t in m],
    )


def _names(m, kind):
    """m's IRIs of one kind of random_schema_model ("C" classes, "p"
    properties, "x" instances), sorted; the first of each kind if m has none."""
    head = "urn:acc4/" + kind
    found = {x for t in m for x in t if isinstance(x, Iri) and x.value.startswith(head)}
    return sorted(found, key=lambda x: x.value) or [Iri(f"urn:acc4/{kind}0")]


def _schema_document(rng, m):
    """A document that adds schema about m's classes and properties: a
    subclass of a class, a new superclass for one, a sub-property and a new
    super-property of a property, and a new domain, range or inverse for
    one, each with an instance triple that uses it, in a random selection."""
    classes, props, insts = _names(m, "C"), _names(m, "p"), _names(m, "x")
    new = [Iri(f"urn:doc/n{i}") for i in range(4)]
    c, p, x, y = rng.choice(classes), rng.choice(props), rng.choice(insts), rng.choice(insts)
    forms = [
        [(new[0], RDFS_SUBCLASS_OF, c), (new[1], RDF_TYPE, new[0])],
        [(c, RDFS_SUBCLASS_OF, new[0]), (new[0], RDFS_SUBCLASS_OF, rng.choice(classes))],
        [(new[2], RDFS_SUBPROPERTY_OF, p), (x, new[2], y)],
        [(p, RDFS_SUBPROPERTY_OF, new[3]), (new[3], RDFS_DOMAIN, rng.choice(classes))],
        [(p, RDFS_DOMAIN, rng.choice(classes)), (x, p, y)],
        [(p, RDFS_RANGE, rng.choice(classes + new[:1])), (y, p, x)],
        [(p, OWL_INVERSE_OF, rng.choice(props + new[2:])), (x, p, y)],
    ]
    doc = Model()
    for form in rng.sample(forms, rng.randint(1, len(forms))):
        doc.add_all(Triple(*t) for t in form)
    return doc


def test_entail_with_closed_base_matches_naive_fixpoint():
    # each random document split into a pre-closed base plus the rest: the
    # base's triples are not re-processed, and the closure must not change
    # whether or not the entailed model already contains the base, or
    # whether the base is frozen, which leaves it as it was
    rng = random.Random(0xC105ED)
    for round_no in range(100):
        m = random_schema_model(rng)
        expected = naive_entail(m)
        for split in range(3):
            base, rest = Model(), Model()
            for t in m:
                (base if rng.random() < 0.5 else rest).add(t)
            for closed_base in (entail(base), entail(base).freeze()):
                before = _index_answers(closed_base)
                got = entail(merge([closed_base, rest]), closed=closed_base)
                assert set(got) == expected, f"round {round_no}, split {split}"
                got = entail(rest, closed=closed_base)
                assert set(got) == expected, f"round {round_no}, split {split}, base outside"
                assert _index_answers(closed_base) == before, f"round {round_no}, split {split}"
        if round_no % 2:
            continue
        # a document that adds schema about the base's own IRIs, which
        # drops the base's schema lookups for them
        frozen = entail(m).freeze()
        before = _index_answers(frozen)
        doc = _schema_document(rng, m)
        expected = naive_entail(merge([m, doc]))
        assert set(entail(doc, closed=frozen)) == expected, f"round {round_no}, document"
        assert set(entail(merge([frozen, doc]), closed=frozen)) == expected
        assert _index_answers(frozen) == before, f"round {round_no}, document"


def _answers(m, terms):
    """m's answer to every match shape over the given terms, sorted."""
    shapes = [None, *terms]
    return {
        (s, p, o): sorted(m.match(s, p, o), key=str)
        for s in shapes
        for p in shapes
        for o in shapes
    }


def test_copy_of_a_frozen_model_changes_only_itself():
    # seeded add/remove runs on a copy of a frozen model, and on a copy of
    # that copy once frozen in turn, against models built triple by triple
    rng = random.Random(0xC0B1)
    pool = [t(f"s{i}", f"p{j}", f"s{k}") for i in range(4) for j in range(3) for k in range(4)]
    pool += [t(f"s{i}", "p0", integer(i % 2)) for i in range(4)]
    terms = [ex(f"s{i}") for i in range(4)] + [ex(f"p{j}") for j in range(3)] + [integer(0)]
    for round_no in range(30):
        base = Model()
        base.add_all(rng.sample(pool, rng.randrange(len(pool))))
        for trip in rng.sample(list(base), len(base) // 4):
            base.remove(trip)
        frozen = [base.freeze()]
        before = [(list(base), _answers(base, terms))]
        with pytest.raises(TypeError):
            base.add(rng.choice(pool))
        with pytest.raises(TypeError):
            base.remove(rng.choice(pool))
        copied, reference = base.copy(), Model()
        for trip in base:
            reference.add(trip)
        for step in range(120):
            if step == 60:
                frozen.append(copied.freeze())
                before.append((list(copied), _answers(copied, terms)))
                copied = copied.copy()
            trip = rng.choice(pool)
            op = rng.choice(("add", "remove"))
            assert getattr(copied, op)(trip) == getattr(reference, op)(trip)
        assert copied == reference and len(copied) == len(reference)
        assert _answers(copied, terms) == _answers(reference, terms), f"round {round_no}"
        for model, (triples, answers) in zip(frozen, before):
            assert list(model) == triples and _answers(model, terms) == answers, f"round {round_no}"



_LOAD_POOL = [t(f"s{i}", f"p{j}", f"s{k}") for i in range(3) for j in range(2) for k in range(3)]
_LOAD_POOL += [t(f"s{i}", "p0", integer(i)) for i in range(3)]
_LOAD_TERMS = [ex(f"s{i}") for i in range(3)] + [ex(f"p{j}") for j in range(2)] + [integer(0)]
_picks = st.lists(st.integers(0, len(_LOAD_POOL) - 1), max_size=16)


@settings(max_examples=200, deadline=None)
@given(base=_picks, loaded=_picks, from_frozen=st.booleans())
def test_add_all_loads_what_repeated_adds_load(base, loaded, from_frozen):
    # one insertion loop serves add and add_all, on plain models and on
    # copies of frozen ones: same counts, order, indexes and memo fate
    start = Model()
    for k in base:
        start.add(_LOAD_POOL[k])
    if from_frozen:
        start.freeze()
    before = list(start)
    bulk, single = start.copy(), start.copy()

    def build(m):
        return object()

    memos = [m.derived(build) for m in (bulk, single)]
    triples = [_LOAD_POOL[k] for k in loaded]
    added = bulk.add_all(triples)
    flags = [single.add(trip) for trip in triples]
    assert added == sum(flags)
    assert list(bulk) == list(single)
    assert _answers(bulk, _LOAD_TERMS) == _answers(single, _LOAD_TERMS)
    assert len(bulk) == len(single) and bulk == single
    for m, memo in zip((bulk, single), memos):
        assert (m.derived(build) is memo) == (added == 0)
    assert list(start) == before


_JOIN_TERMS = [Var("x"), Var("y"), ex("s0"), ex("s1"), ex("p0"), integer(0)]


@settings(max_examples=200, deadline=None)
@given(
    picks=st.lists(st.integers(0, len(_LOAD_POOL) - 1), min_size=6, max_size=16),
    patterns=st.lists(st.tuples(*[st.sampled_from(_JOIN_TERMS)] * 3), min_size=1, max_size=3),
)
@example(picks=range(len(_LOAD_POOL)), patterns=[(Var("x"), ex("p0"), Var("x"))])
@example(picks=range(len(_LOAD_POOL)), patterns=[(Var("x"), ex("p0"), ex("s1"))])
@example(picks=range(len(_LOAD_POOL)), patterns=[(ex("s0"), ex("p0"), Var("x"))])
@example(picks=range(len(_LOAD_POOL)), patterns=[(Var("x"), ex("p0"), integer(0))])
def test_join_walks_match_the_assignment_oracle(picks, patterns):
    # every pattern shape, alone and joined: index leaf walks (one free
    # end), lookups (none free), repeated variables and literal constants
    m = Model()
    m.add_all(_LOAD_POOL[k] for k in picks)
    for pattern in patterns:
        assert query_bgp(m, [pattern]) == bgp_by_assignment(m, [pattern])
    assert query_bgp(m, patterns) == bgp_by_assignment(m, patterns)


# -- the line pattern against the character scanner ---------------------------


def _parse_outcome(parse, text):
    """What a parser makes of a document: its triples in insertion order and
    its prefix map, or the error it raises."""
    try:
        m = parse(text)
    except ParseError as e:
        return ("ParseError", e.line, e.col, e.reason)
    except ValueError as e:
        return ("ValueError", str(e))
    return ("ok", list(m), list(m.prefixes.items()))


_ODD_DOCUMENT = "\n".join([
    "@prefix e: <urn:e/> .",
    "@prefix : <urn:empty/> .",
    "<urn:a><urn:b><urn:c>.",
    "e:a e:p e:b .#comment",
    "\te:a\te:p\t:b\t.\r",
    '<urn:a> e:p "tab\\there \\"quoted\\" back\\\\slash\\n" .',
    '<urn:a> e:p "5"^^<http://www.w3.org/2001/XMLSchema#integer>.',
    '<urn:a> e:p "5"^^e:int .',
    "@prefix e: <urn:other/> .",
    "e:a :p e:b . # e: is redeclared",
])


def test_parse_accepts_odd_but_valid_spellings():
    m = parse_document(_ODD_DOCUMENT)
    a, b, c = Iri("urn:a"), Iri("urn:b"), Iri("urn:c")
    p = Iri("urn:e/p")
    assert list(m) == [
        Triple(a, b, c),
        Triple(Iri("urn:e/a"), p, Iri("urn:e/b")),
        Triple(Iri("urn:e/a"), p, Iri("urn:empty/b")),
        Triple(a, p, Literal('tab\there "quoted" back\\slash\n')),
        Triple(a, p, integer(5)),
        Triple(a, p, Literal("5", Iri("urn:e/int"))),
        Triple(Iri("urn:other/a"), Iri("urn:empty/p"), Iri("urn:other/b")),
    ]
    assert m.prefixes == {"e": "urn:other/", "": "urn:empty/"}
    assert _parse_outcome(parse_document, _ODD_DOCUMENT) == _parse_outcome(
        reference_parse_document, _ODD_DOCUMENT
    )


# Declared prefix names, one that is never declared, and malformed ones.
_PREFIX_NAMES = ["e", "", "x.y-1", "zz"]
_iri = st.text(alphabet='ab:/#."<@ \x0c', max_size=5).map(lambda v: f"<{v}>")
_curie = st.builds(
    "{}:{}".format,
    st.sampled_from(_PREFIX_NAMES),
    st.text(alphabet='ab.#:"<>/_^\\', max_size=4),
)
_term = st.one_of(_iri, _curie)
_literal = st.builds(
    lambda raw, datatype: '"' + render_term(Literal(raw), {})[1:-1] + '"' + datatype,
    st.text(alphabet='ab \t\r\n#<>."\\', max_size=6),
    st.one_of(st.just(""), _term.map("^^{}".format)),
)
_gap = st.sampled_from(["", " ", "\t", "\r", "  ", " \t"])
_statement = st.builds(
    "{}{}{}{}{}{}{}".format,
    _gap,
    st.one_of(_term, _term, _literal),
    _gap,
    st.one_of(_term, _term, _literal),
    _gap,
    st.one_of(_term, _literal),
    st.sampled_from([" .", ".", " . # c", ".#c", "\t.\r", " .\t#x y", ". ", " .x", ""]),
)
_prefix_line = st.builds(
    "{}@prefix{}{}:{}<{}>{}".format,
    _gap,
    st.sampled_from([" ", "\t", ""]),
    st.sampled_from(["e", "", "x.y-1", "1a", "a:b", ".x"]),
    st.sampled_from([" ", "\t", ""]),
    st.sampled_from(["urn:e/", "", "urn:a b/", "http://x#"]),
    st.sampled_from([" .", ".", " .#c", " . x", ""]),
)
_blank = st.sampled_from(["", "# c", "  \t", "\r", "#"])


@st.composite
def _valid_statement(draw):
    """A statement the grammar accepts, in any of its spellings: a token
    after a CURIE needs whitespace before it, one after an IRI or a
    literal does not."""
    line = draw(_gap)
    after_curie = False
    for position in ("subject", "predicate", "object", "dot"):
        line += draw(st.sampled_from([" ", "\t", "\r", " \t "]) if after_curie else _gap)
        if position == "dot":
            break
        kind = draw(st.sampled_from(["iri", "curie", "literal"][: 3 if position == "object" else 2]))
        if kind == "literal":
            raw = draw(st.text(alphabet='ab \t\r\n#<>."\\^', max_size=6))
            line += render_term(Literal(raw), {})
            kind = draw(st.sampled_from(["", "iri", "curie"]))
            line += "^^" if kind else ""
        if kind == "iri":
            line += "<" + draw(st.text(alphabet='ab:/#."<@^', min_size=1, max_size=5)) + ">"
        elif kind == "curie":
            line += draw(st.sampled_from(["e", "", "x.y-1"])) + ":"
            line += draw(st.text(alphabet='ab.#:"<>/_^\\', max_size=4))
        after_curie = kind == "curie"
    return line + "." + draw(st.sampled_from(["", " ", "#c", " # c", "\t\r"]))


_valid_prefix_line = st.builds(
    "{}@prefix{}{}:{}<{}>{}.{}".format,
    _gap,
    st.sampled_from([" ", "\t", " \r"]),
    st.sampled_from(["e", "", "x.y-1"]),
    st.sampled_from([" ", "\t", " \r"]),
    st.sampled_from(["urn:e/", "", "http://x#"]),
    _gap,
    st.sampled_from(["", " ", "#c", " # c"]),
)
_valid_documents = st.lists(
    st.one_of(_valid_statement(), _valid_statement(), _valid_statement(), _valid_prefix_line, _blank),
    max_size=10,
).map(lambda lines: "\n".join(["@prefix e: <urn:e/> .", "@prefix : <urn:empty/> .",
                                "@prefix x.y-1: <urn:x/> .", *lines]))
_documents = st.one_of(
    _valid_documents,
    st.lists(st.one_of(_statement, _statement, _prefix_line, _blank, st.just(" . ")), max_size=8).map(
        lambda lines: "\n".join(["@prefix e: <urn:e/> .", "@prefix : <urn:empty/> .", *lines])
    ),
)


@settings(max_examples=400, deadline=None)
@given(_documents)
@example(_ODD_DOCUMENT)
def test_parse_matches_the_reference_scanner(text):
    assert _parse_outcome(parse_document, text) == _parse_outcome(reference_parse_document, text)


# Lines whose tokens are split at single spaces, as the parser's fast
# path reads them: terms, literals, near-terms and @prefix declarations.
_token = st.one_of(
    _term,
    _literal,
    st.sampled_from(["@prefix", "e:", "<urn:x/>", "<urn:x", ".", "", "a", '"a"^^', '"a"^^e:', '"a"^^<x>y']),
)
_split_line = st.one_of(
    st.builds("{} {} {} .".format, _token, _token, _token),
    st.builds(
        "@prefix {}: {} .".format,
        st.sampled_from(["e", "", "x.y-1", "1a", "a:b", ".x", "z"]),
        st.sampled_from(["<urn:e/>", "<>", "<a>b", "urn:x", "<a\tb>", "<u:z/>"]),
    ),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_split_line, max_size=8))
def test_parse_of_single_spaced_lines_matches_the_reference_scanner(lines):
    text = "\n".join(["@prefix e: <urn:e/> .", "@prefix : <urn:empty/> .", *lines])
    assert _parse_outcome(parse_document, text) == _parse_outcome(reference_parse_document, text)


@settings(max_examples=400, deadline=None)
@given(
    _documents,
    st.lists(
        st.tuples(
            st.integers(min_value=0),
            st.sampled_from(["delete", "insert", "double"]),
            st.sampled_from(list('<>"\\.#: \t\r^@a\x0c')),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_parse_matches_the_reference_scanner_on_mutated_lines(text, edits):
    for at, edit, char in edits:
        at %= len(text) + 1
        if edit == "delete":
            text = text[:at] + text[at + 1 :]
        elif edit == "insert":
            text = text[:at] + char + text[at:]
        else:
            text = text[:at] + text[at : at + 1] * 2 + text[at + 1 :]
    assert _parse_outcome(parse_document, text) == _parse_outcome(reference_parse_document, text)
