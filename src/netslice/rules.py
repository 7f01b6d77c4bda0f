"""Datalog-lite validation rules.

Rules have a violation head and a body of triple patterns (arity 2),
class-membership sugar (arity 1), and equal/notEqual builtins. Evaluation
is a straight bottom-up join against an entailed model: no negation as
failure, no recursion, no derived facts beyond violations.

A few built-in structural checks (endpoint counts, reservation reachability)
need counting or negation that the rule language deliberately lacks; they
are implemented procedurally but report through the same Violation type.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence, Union

from . import vocab
from .graphstore import EvaluationBudgetExceeded  # noqa: F401 -- re-exported for callers
from .graphstore import ROW_BUDGET, RDF_TYPE, Iri, Literal, Model, ParseError, Term, Var
from .graphstore import lex, query_bgp, token_term
from .vocab import (
    BASE_PREFIXES,
    BROADCAST_CONNECTION,
    ELEMENT,
    HAS_INTERFACE,
    NETWORK_CONNECTION,
    RESERVATION,
)


class RuleSyntaxError(Exception):
    pass


class UnsafeRule(Exception):
    pass


class PatternAtom(NamedTuple):
    s: Union[Var, Iri]
    p: Iri
    o: Union[Var, Term]


class BuiltinAtom(NamedTuple):
    left: Union[Var, Term]
    right: Union[Var, Term]
    negated: bool  # True for notEqual


class Rule(NamedTuple):
    message: str
    subject: Var
    body: tuple

    def pattern_atoms(self):
        return [a for a in self.body if isinstance(a, PatternAtom)]


class Violation(NamedTuple):
    message: str
    subject: Iri
    bindings: tuple  # sorted (name, Term) pairs that fired the rule

    def __str__(self) -> str:
        return f'VIOLATION {self.message} {self.subject.value}'


def parse_ruleset(text: str) -> list:
    """Parse rules of the form::

        violation("message", ?X) <- (?X topo:hasInterface ?I), equal(?A, ?B), ... .

    Terms are read by `graphstore.lex`, as in documents, and CURIEs resolve
    against the built-in namespaces.
    Raises RuleSyntaxError, naming the line and column, on malformed input
    and UnsafeRule when a head or builtin variable is not bound by a
    pattern atom.
    """
    try:
        tokens = lex(text, ("(", ")", ",", ".", "<-"))
    except ParseError as e:
        raise RuleSyntaxError(str(e)) from None
    rules, pos = [], 0

    def fail(token, reason):
        return RuleSyntaxError(f"line {token.line}, col {token.col}: {reason}")

    def take(expected=None, kind=None, reason=None):
        """The next token, which must read `expected` or be of `kind`."""
        nonlocal pos
        if pos >= len(tokens):
            raise RuleSyntaxError("unexpected end of rule text")
        token = tokens[pos]
        if expected is not None and token.text != expected:
            raise fail(token, f"expected {expected!r}, got {token.text!r}")
        if kind is not None and token.kind != kind:
            raise fail(token, reason)
        pos += 1
        return token

    def term(token) -> Union[Var, Term]:
        try:
            return token_term(token, BASE_PREFIXES)
        except ValueError as e:
            raise fail(token, str(e)) from None

    while pos < len(tokens):
        take("violation")
        take("(")
        message = take(kind="literal", reason="violation message must be a quoted string").value
        take(",")
        subject = Var(take(kind="var", reason="violation subject must be a variable").value)
        take(")")
        take("<-")
        body = []
        while True:
            token = take()
            if token.text == "(":
                s, p, o = term(take()), term(take()), term(take())
                take(")")
                if isinstance(p, Var):
                    raise fail(token, "predicate position must be ground")
                if isinstance(s, Literal) or isinstance(p, Literal):
                    raise fail(token, "literal in subject or predicate position")
                body.append(PatternAtom(s, p, o))
            elif token.text in ("equal", "notEqual"):
                take("(")
                left = term(take())
                take(",")
                right = term(take())
                take(")")
                body.append(BuiltinAtom(left, right, negated=(token.text == "notEqual")))
            else:
                # class-membership sugar: Class(?X)
                cls = term(token)
                if not isinstance(cls, Iri):
                    raise fail(token, f"expected an atom, got {token.text!r}")
                take("(")
                inst = term(take())
                take(")")
                body.append(PatternAtom(inst, RDF_TYPE, cls))
            token = take()
            if token.text == ".":
                break
            if token.text != ",":
                raise fail(token, f"expected ',' or '.', got {token.text!r}")
        rules.append(_checked(Rule(message, subject, tuple(body))))
    return rules


def _checked(rule: Rule) -> Rule:
    bound = set()
    for atom in rule.pattern_atoms():
        for x in (atom.s, atom.o):
            if isinstance(x, Var):
                bound.add(x.name)
    if rule.subject.name not in bound:
        raise UnsafeRule(f"head variable ?{rule.subject.name} not bound by a pattern atom")
    for atom in rule.body:
        if isinstance(atom, BuiltinAtom):
            for x in (atom.left, atom.right):
                if isinstance(x, Var) and x.name not in bound:
                    raise UnsafeRule(f"builtin variable ?{x.name} not bound by a pattern atom")
    return rule


def evaluate(m: Model, rules: Sequence[Rule], budget: int = ROW_BUDGET) -> list:
    """All violations derivable from the rules against m, each rule's body
    joined by `graphstore.query_bgp` within `budget` rows.

    m should be entailed so type atoms see subclass instances. Duplicate
    (message, subject) pairs collapse to the first binding in deterministic
    order; results sort by (message, subject).
    """
    found = []
    for rule in rules:
        builtins = [a for a in rule.body if isinstance(a, BuiltinAtom)]
        for binding in query_bgp(m, rule.pattern_atoms(), builtins, budget):
            subject = binding[rule.subject.name]
            if isinstance(subject, Iri):
                found.append(Violation(rule.message, subject, tuple(sorted(binding.items()))))
    return _first_of_each(found)


def _first_of_each(violations) -> list:
    """The first violation of each (message, subject), sorted by both."""
    unique = {}
    for v in violations:
        unique.setdefault((v.message, v.subject), v)
    return [unique[k] for k in sorted(unique, key=lambda k: (k[0], k[1].value))]


# -- built-in ruleset ------------------------------------------------------------


BROADCAST_DOMAIN_RULE = """
# A broadcast connection spanning several domains must not repeat a domain:
# one repeated pair next to a third distinct domain marks a request that
# should have been normalized into a point-to-point connection.
violation("Domains in broadcast link can't be repeated", ?X) <-
    (?X rdf:type topo:BroadcastConnection),
    (?X topo:hasInterface ?I1), (?X topo:hasInterface ?I2), notEqual(?I1, ?I2),
    (?A topo:hasInterface ?I1), (?B topo:hasInterface ?I2),
    (?A rdf:type comp:ComputeElement), (?B rdf:type comp:ComputeElement),
    notEqual(?A, ?B),
    (?A topo:inDomain ?D1), (?B topo:inDomain ?D2), equal(?D1, ?D2),
    (?X topo:hasInterface ?I3), notEqual(?I1, ?I3), notEqual(?I2, ?I3),
    (?C topo:hasInterface ?I3), (?C rdf:type comp:ComputeElement),
    (?C topo:inDomain ?D3), notEqual(?D3, ?D1) .
"""


_BUILTIN_RULES = tuple(parse_ruleset(BROADCAST_DOMAIN_RULE))  # parsed once, at import


MSG_BROADCAST_TOO_FEW = "Broadcast link must have at least 3 interfaces"
MSG_P2P_ENDPOINT_COUNT = "Point-to-point link must have exactly 2 interfaces"
MSG_ORPHAN_ELEMENT = "Request element not reachable from reservation"


def structural_violations(m: Model) -> list:
    """Counting/negation checks the rule language cannot express. A subject
    stating provisionedFrom that no reservation lists as an element is a
    manifest's provisioned entity, and is not checked."""
    out = []
    spo, typed = m._spo, m._pos.get(RDF_TYPE, {})
    reservations = typed.get(RESERVATION, ())
    elements = {e for r in reservations for e in spo[r].get(ELEMENT, ())}

    def requested(cls) -> list:
        return [s for s in typed.get(cls, ()) if s in elements or vocab.PROVISIONED_FROM not in spo[s]]

    links = requested(NETWORK_CONNECTION)
    for link in links:
        level = spo[link]
        n = len({o for p in (HAS_INTERFACE, vocab.HAS_ENDPOINT) for o in level.get(p, ()) if isinstance(o, Iri)})
        if BROADCAST_CONNECTION in level[RDF_TYPE]:
            if n < 3:
                out.append(Violation(MSG_BROADCAST_TOO_FEW, link, ()))
        elif n != 2:
            out.append(Violation(MSG_P2P_ENDPOINT_COUNT, link, ()))
    if len(reservations) == 1:
        for element in [*requested(vocab.COMPUTE_ELEMENT), *links]:
            if element not in elements:
                out.append(Violation(MSG_ORPHAN_ELEMENT, element, ()))
    return _first_of_each(out)


def validate(m: Model, extra_rules: Sequence[Rule] = ()) -> list:
    """Built-in ruleset plus structural checks plus caller-supplied rules."""
    found = evaluate(m, [*_BUILTIN_RULES, *extra_rules])
    return _first_of_each([*found, *structural_violations(m)])
