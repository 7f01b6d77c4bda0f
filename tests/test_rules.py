import random

import pytest

from netslice import graphstore, vocab
from netslice.graphstore import (
    Iri,
    Literal,
    Model,
    RDF_TYPE,
    Triple,
    Var,
    parse_document,
)
from netslice.rules import (
    BuiltinAtom,
    MSG_BROADCAST_TOO_FEW,
    MSG_ORPHAN_ELEMENT,
    MSG_P2P_ENDPOINT_COUNT,
    PatternAtom,
    Rule,
    RuleSyntaxError,
    UnsafeRule,
    builtin_ruleset,
    evaluate,
    parse_ruleset,
    structural_violations,
    validate,
)

from conftest import FIXTURES
from oracles import all_rule_matches

BCAST_MSG = "Domains in broadcast link can't be repeated"


def _closed(raw):
    return vocab.close(raw)


def _load(name):
    return parse_document((FIXTURES / name).read_text())


def test_parse_builtin_broadcast_rule():
    from netslice.graphstore import RDF_TYPE

    rules = builtin_ruleset()
    assert len(rules) == 1
    rule = rules[0]
    assert rule.message == BCAST_MSG
    assert rule.subject == Var("X")
    assert len(rule.pattern_atoms()) == 13
    # nine atoms besides the four class-membership (rdf:type) ones
    assert len([a for a in rule.pattern_atoms() if a.p != RDF_TYPE]) == 9
    assert len([a for a in rule.body if isinstance(a, BuiltinAtom)]) == 6


def _document_object(spelling):
    """The object term a document reads from `spelling`."""
    return next(iter(parse_document(f"<urn:s> <urn:p> {spelling} .\n"))).object


@pytest.mark.parametrize(
    "text, message, atom",
    [
        (
            'violation("m", ?X) <- comp:ComputeElement(?X), (?X topo:inDomain ?D) .',
            "m",
            PatternAtom(Var("X"), RDF_TYPE, vocab.COMPUTE_ELEMENT),
        ),
        # a literal is read with the escapes of documents, to the same term
        (
            'violation("m", ?X) <- (?X topo:inDomain "a\\tb \\"q\\" \\\\"), (?X rdf:type ?C) .',
            "m",
            PatternAtom(Var("X"), vocab.IN_DOMAIN, _document_object('"a\\tb \\"q\\" \\\\"')),
        ),
        (
            'violation("m", ?X) <- (?X topo:inDomain "5"^^<http://www.w3.org/2001/XMLSchema#integer>) .',
            "m",
            PatternAtom(Var("X"), vocab.IN_DOMAIN, Literal("5", graphstore.XSD_INTEGER)),
        ),
        # a '#' inside a quoted message or an <iri#fragment> starts no comment
        (
            'violation("port #3 is bad", ?X) <- (?X <urn:p#f> ?Y) .  # a comment',
            "port #3 is bad",
            PatternAtom(Var("X"), Iri("urn:p#f"), Var("Y")),
        ),
    ],
    ids=["class-membership-sugar", "document-escapes", "typed-literal", "hash-in-quotes-and-iri"],
)
def test_parse_class_membership_sugar(text, message, atom):
    rule = parse_ruleset(text)[0]
    assert (rule.message, rule.body[0]) == (message, atom)


def test_parse_unsafe_rule_rejected():
    with pytest.raises(UnsafeRule):
        parse_ruleset('violation("m", ?X) <- notEqual(?X, ?Y) .')
    with pytest.raises(UnsafeRule):
        parse_ruleset('violation("m", ?X) <- (?A topo:inDomain ?B), equal(?A, ?Y) .')


def test_parse_empty_ruleset():
    assert parse_ruleset("") == []
    assert parse_ruleset("# only a comment\n") == []


@pytest.mark.parametrize(
    "text, error",
    [
        ('violation(?X, "msg") <- (?X topo:inDomain ?D) .', "line 1, col 11: violation message"),
        ('violation("m", ?X) <- (?X unknownprefix:p ?D) .', "line 1, col 27: undeclared prefix"),
        ('violation("m", ?X) <- (?X topo:inDomain ?D)', "unexpected end of rule text"),  # no dot
        # an unterminated quote is refused where it opens
        ('violation("m", ?X) <- (?X topo:inDomain "abc) .', "line 1, col 41: unterminated string"),
        ('violation("m", ?X) <-\n  (?X topo:inDomain "abc) .', "line 2, col 21: unterminated string"),
        ('violation("m", ?X) <- (?X topo:inDomain "a\\qb") .', "line 1, col 43: bad escape"),
        ('violation("m, ?X) <- (?X topo:inDomain ?D) .', "line 1, col 11: unterminated string"),
    ],
    ids=[
        "variable-message", "unknown-prefix", "missing-dot", "unterminated-quote",
        "unterminated-quote-line-2", "bad-escape", "unterminated-message",
    ],
)
def test_parse_syntax_errors(text, error):
    with pytest.raises(RuleSyntaxError) as raised:
        parse_ruleset(text)
    assert str(raised.value).startswith(error)


def test_broadcast_aba_fires_exactly_once():
    m = _closed(_load("broadcast-bad.ndl"))
    violations = evaluate(m, builtin_ruleset())
    assert len(violations) == 1
    v = violations[0]
    assert v.message == BCAST_MSG
    assert v.subject == Iri("urn:orca:request:bcast-bad/Link/1")
    # soundness: the recorded bindings re-check against the model
    bindings = dict(v.bindings)
    for atom in builtin_ruleset()[0].pattern_atoms():
        s = bindings[atom.s.name] if hasattr(atom.s, "name") else atom.s
        o = bindings[atom.o.name] if hasattr(atom.o, "name") else atom.o
        assert Triple(s, atom.p, o) in m


def test_broadcast_abc_is_clean():
    m = _closed(_load("broadcast-good.ndl"))
    assert evaluate(m, builtin_ruleset()) == []


def test_builtin_ruleset_quiet_on_shipped_fixtures():
    for name in ("renci.ndl", "request-pair.ndl", "ring-a.ndl", "broadcast-good.ndl"):
        m = _closed(_load(name))
        assert validate(m) == [], name


def test_monotone_adding_triples_never_removes_violation():
    m = _closed(_load("broadcast-bad.ndl"))
    before = evaluate(m, builtin_ruleset())
    m.add(
        Triple(
            Iri("urn:orca:request:bcast-bad/Node/9"),
            RDF_TYPE,
            vocab.COMPUTE_ELEMENT,
        )
    )
    after = evaluate(m, builtin_ruleset())
    assert {(v.message, v.subject) for v in before} <= {(v.message, v.subject) for v in after}


@pytest.mark.parametrize("provisioned", [False, True], ids=["plain", "stating-provisionedFrom"])
def test_structural_broadcast_with_two_endpoints(provisioned):
    # a reservation element is checked even when it states provisionedFrom,
    # as a manifest's provisioned entities do
    raw = _load("broadcast-bad.ndl")
    link = Iri("urn:orca:request:bcast-bad/Link/1")
    dropped = Triple(link, vocab.HAS_INTERFACE, Iri("urn:orca:request:bcast-bad/Node/3/if0"))
    raw.remove(dropped)
    if provisioned:
        raw.add(Triple(link, vocab.PROVISIONED_FROM, Iri("urn:orca:request:bcast-bad/Link/0")))
    violations = structural_violations(_closed(raw))
    assert any(v.message == MSG_BROADCAST_TOO_FEW and v.subject == link for v in violations)


def test_structural_p2p_with_three_endpoints():
    raw = _load("request-pair.ndl")
    link = Iri("urn:orca:request:pair/Link/1")
    raw.add(Triple(link, vocab.HAS_INTERFACE, Iri("urn:orca:request:pair/Node/9/if0")))
    violations = structural_violations(_closed(raw))
    assert any(v.message == MSG_P2P_ENDPOINT_COUNT and v.subject == link for v in violations)


def test_structural_orphan_element():
    raw = _load("request-pair.ndl")
    orphan = Iri("urn:orca:request:pair/Node/9")
    raw.add(Triple(orphan, RDF_TYPE, vocab.COMPUTE_ELEMENT))
    violations = structural_violations(_closed(raw))
    assert any(v.message == MSG_ORPHAN_ELEMENT and v.subject == orphan for v in violations)


def _random_model(rng):
    m = Model(dict(vocab.BASE_PREFIXES))
    base = "urn:rnd/"
    nodes = [Iri(base + f"n{i}") for i in range(rng.randint(3, 8))]
    domains = [Iri(base + f"d{i}") for i in range(rng.randint(1, 3))]
    links = [Iri(base + f"l{i}") for i in range(rng.randint(1, 3))]
    ifaces = [Iri(base + f"i{i}") for i in range(rng.randint(2, 8))]
    for _ in range(rng.randint(5, 40)):
        kind = rng.randrange(5)
        if kind == 0:
            m.add(Triple(rng.choice(nodes), RDF_TYPE, vocab.COMPUTE_ELEMENT))
        elif kind == 1:
            m.add(Triple(rng.choice(links), RDF_TYPE, vocab.BROADCAST_CONNECTION))
        elif kind == 2:
            m.add(Triple(rng.choice(nodes), vocab.IN_DOMAIN, rng.choice(domains)))
        elif kind == 3:
            m.add(Triple(rng.choice(links), vocab.HAS_INTERFACE, rng.choice(ifaces)))
        else:
            m.add(Triple(rng.choice(nodes), vocab.HAS_INTERFACE, rng.choice(ifaces)))
    return m


def _random_safe_rule(rng):
    preds = [vocab.IN_DOMAIN, vocab.HAS_INTERFACE]
    vars_ = [Var(n) for n in "XYZ"]
    body = [PatternAtom(vars_[0], rng.choice(preds), vars_[1])]
    if rng.random() < 0.7:
        body.append(PatternAtom(vars_[1] if rng.random() < 0.5 else vars_[0], rng.choice(preds), vars_[2]))
    if rng.random() < 0.5:
        bound = vars_[: 2 + (len(body) > 1)]
        a, b = rng.sample(bound, 2)
        body.append(BuiltinAtom(a, b, negated=rng.random() < 0.7))
    return Rule("random rule fired", vars_[0], tuple(body))


def test_evaluate_matches_exhaustive_substitution_oracle():
    rng = random.Random(20111)
    for round_no in range(60):
        m = _random_model(rng)
        rules = builtin_ruleset() + [_random_safe_rule(rng) for _ in range(2)]
        got = evaluate(m, rules)
        expected = set()
        for rule in rules:
            for binding in all_rule_matches(m, rule):
                subject = binding[rule.subject.name]
                if isinstance(subject, Iri):
                    expected.add((rule.message, subject))
        assert {(v.message, v.subject) for v in got} == expected, f"round {round_no}"
