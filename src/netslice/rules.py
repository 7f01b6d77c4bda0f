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

import re
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from . import vocab
from .graphstore import Iri, Literal, Model, RDF_TYPE, Term, Var, resolve, term_key
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


class EvaluationBudgetExceeded(Exception):
    def __init__(self, rows: int, cap: int):
        super().__init__(f"rule join produced {rows} rows (cap {cap})")


@dataclass(frozen=True)
class PatternAtom:
    s: Union[Var, Iri]
    p: Iri
    o: Union[Var, Term]


@dataclass(frozen=True)
class BuiltinAtom:
    left: Union[Var, Term]
    right: Union[Var, Term]
    negated: bool  # True for notEqual


@dataclass(frozen=True)
class Rule:
    message: str
    subject: Var
    body: tuple

    def pattern_atoms(self):
        return [a for a in self.body if isinstance(a, PatternAtom)]


@dataclass(frozen=True)
class Violation:
    message: str
    subject: Iri
    bindings: tuple  # sorted (name, Term) pairs that fired the rule

    def __str__(self) -> str:
        return f'VIOLATION {self.message} {self.subject.value}'


_TOKEN_RE = re.compile(
    r"""
    \s*(
        "(?:[^"\\]|\\.)*"      # quoted string
      | <[^>\s]*>              # iri ref
      | \?[A-Za-z_][A-Za-z0-9_]*  # variable
      | <-                     # arrow
      | [(),.]                 # punctuation
      | [^\s(),.]+             # bare word / curie
    )
    """,
    re.VERBOSE,
)


def _tokenize(text: str):
    tokens = []
    for line in text.split("\n"):
        body = line.split("#", 1)[0]
        pos = 0
        while pos < len(body):
            m = _TOKEN_RE.match(body, pos)
            if not m or not m.group(1):
                if body[pos:].strip():
                    raise RuleSyntaxError(f"cannot tokenize {body[pos:].strip()!r}")
                break
            tokens.append(m.group(1))
            pos = m.end()
    return tokens


def _unescape(s: str) -> str:
    return s[1:-1].replace('\\"', '"').replace("\\\\", "\\")


def parse_ruleset(text: str, prefixes: Optional[dict] = None) -> list:
    """Parse rules of the form::

        violation("message", ?X) <- (?X topo:hasInterface ?I), equal(?A, ?B), ... .

    CURIEs resolve against the supplied prefix map (built-in namespaces by
    default). Raises RuleSyntaxError on malformed input and UnsafeRule when
    a head or builtin variable is not bound by a pattern atom.
    """
    prefixes = dict(BASE_PREFIXES if prefixes is None else prefixes)
    tokens = _tokenize(text)
    rules = []
    pos = 0

    def take(expected=None):
        nonlocal pos
        if pos >= len(tokens):
            raise RuleSyntaxError("unexpected end of rule text")
        tok = tokens[pos]
        if expected is not None and tok != expected:
            raise RuleSyntaxError(f"expected {expected!r}, got {tok!r}")
        pos += 1
        return tok

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def term(tok) -> Union[Var, Term]:
        if tok.startswith("?"):
            return Var(tok[1:])
        if tok.startswith('"'):
            return Literal(_unescape(tok))
        try:
            return resolve(tok, prefixes)
        except ValueError as e:
            raise RuleSyntaxError(str(e)) from None

    while pos < len(tokens):
        take("violation")
        take("(")
        msg_tok = take()
        if not msg_tok.startswith('"'):
            raise RuleSyntaxError("violation message must be a quoted string")
        message = _unescape(msg_tok)
        take(",")
        subj_tok = take()
        if not subj_tok.startswith("?"):
            raise RuleSyntaxError("violation subject must be a variable")
        subject = Var(subj_tok[1:])
        take(")")
        take("<-")
        body = []
        while True:
            tok = take()
            if tok == "(":
                s = term(take())
                p = term(take())
                o = term(take())
                take(")")
                if isinstance(p, Var):
                    raise RuleSyntaxError("predicate position must be ground")
                if isinstance(s, Literal) or isinstance(p, Literal):
                    raise RuleSyntaxError("literal in subject or predicate position")
                body.append(PatternAtom(s, p, o))
            elif tok in ("equal", "notEqual"):
                take("(")
                left = term(take())
                take(",")
                right = term(take())
                take(")")
                body.append(BuiltinAtom(left, right, negated=(tok == "notEqual")))
            else:
                # class-membership sugar: Class(?X)
                cls = term(tok)
                if not isinstance(cls, Iri):
                    raise RuleSyntaxError(f"expected an atom, got {tok!r}")
                take("(")
                inst = term(take())
                take(")")
                body.append(PatternAtom(inst, RDF_TYPE, cls))
            nxt = take()
            if nxt == ".":
                break
            if nxt != ",":
                raise RuleSyntaxError(f"expected ',' or '.', got {nxt!r}")
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


def evaluate(m: Model, rules: Sequence[Rule], budget: int = 200_000) -> list:
    """All violations derivable from the rules against m.

    m should be entailed so type atoms see subclass instances. Duplicate
    (message, subject) pairs collapse to the first binding in deterministic
    order; results sort by (message, subject).
    """
    found = {}
    for rule in rules:
        rows = [{}]
        produced = 0
        for atom in rule.body:
            if isinstance(atom, BuiltinAtom):
                rows = [b for b in rows if _builtin_ok(atom, b)]
                continue
            next_rows = []
            for binding in rows:
                s = binding.get(atom.s.name) if isinstance(atom.s, Var) else atom.s
                o = binding.get(atom.o.name) if isinstance(atom.o, Var) else atom.o
                if isinstance(s, Literal):
                    continue
                for t in m.match(s if isinstance(s, Iri) else None, atom.p, o):
                    new = dict(binding)
                    ok = True
                    for x, val in ((atom.s, t.subject), (atom.o, t.object)):
                        if isinstance(x, Var):
                            prev = new.get(x.name)
                            if prev is None:
                                new[x.name] = val
                            elif prev != val:
                                ok = False
                                break
                    if ok:
                        next_rows.append(new)
                        produced += 1
                        if produced > budget:
                            raise EvaluationBudgetExceeded(produced, budget)
            rows = next_rows
        # Builtins are re-checked once all pattern atoms are joined, because a
        # builtin written before the binding atom must still constrain the
        # result. By then every builtin variable is bound (_checked).
        builtins = [a for a in rule.body if isinstance(a, BuiltinAtom)]
        rows = [b for b in rows if all(_builtin_ok(a, b) for a in builtins)]
        for binding in sorted(
            rows, key=lambda b: tuple(term_key(v) for _, v in sorted(b.items()))
        ):
            subject = binding[rule.subject.name]
            if not isinstance(subject, Iri):
                continue
            key = (rule.message, subject)
            if key not in found:
                found[key] = Violation(
                    rule.message,
                    subject,
                    tuple(sorted(binding.items())),
                )
    return [found[k] for k in sorted(found, key=lambda k: (k[0], k[1].value))]


def _builtin_ok(atom: BuiltinAtom, binding: dict) -> bool:
    left = binding.get(atom.left.name) if isinstance(atom.left, Var) else atom.left
    right = binding.get(atom.right.name) if isinstance(atom.right, Var) else atom.right
    if left is None or right is None:
        return True  # not yet ground; later atoms bind it and re-filtering happens
    return (left != right) if atom.negated else (left == right)


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


_BUILTIN_RULES = tuple(parse_ruleset(BROADCAST_DOMAIN_RULE))


def builtin_ruleset() -> list:
    """The built-in rules, parsed once at import."""
    return list(_BUILTIN_RULES)


MSG_BROADCAST_TOO_FEW = "Broadcast link must have at least 3 interfaces"
MSG_P2P_ENDPOINT_COUNT = "Point-to-point link must have exactly 2 interfaces"
MSG_ORPHAN_ELEMENT = "Request element not reachable from reservation"


def structural_violations(m: Model) -> list:
    """Counting/negation checks the rule language cannot express."""
    out = []
    for link in m.typed(NETWORK_CONNECTION):
        endpoints = {o for o in m.objects(link, HAS_INTERFACE) if isinstance(o, Iri)}
        endpoints |= {o for o in m.objects(link, vocab.HAS_ENDPOINT) if isinstance(o, Iri)}
        n = len(endpoints)
        if BROADCAST_CONNECTION in m.types(link):
            if n < 3:
                out.append(Violation(MSG_BROADCAST_TOO_FEW, link, ()))
        elif n != 2:
            out.append(Violation(MSG_P2P_ENDPOINT_COUNT, link, ()))
    reservations = m.typed(RESERVATION)
    if len(reservations) == 1:
        res = reservations[0]
        reachable = set(m.objects(res, ELEMENT))
        for element in m.typed(vocab.COMPUTE_ELEMENT) + m.typed(NETWORK_CONNECTION):
            if element not in reachable:
                out.append(Violation(MSG_ORPHAN_ELEMENT, element, ()))
    unique = {}
    for v in out:
        unique.setdefault((v.message, v.subject), v)
    return [unique[k] for k in sorted(unique, key=lambda k: (k[0], k[1].value))]


def validate(m: Model, extra_rules: Sequence[Rule] = ()) -> list:
    """Built-in ruleset plus structural checks plus caller-supplied rules."""
    violations = evaluate(m, [*_BUILTIN_RULES, *extra_rules])
    violations.extend(structural_violations(m))
    violations.sort(key=lambda v: (v.message, v.subject.value))
    unique = {}
    for v in violations:
        unique.setdefault((v.message, v.subject), v)
    return [unique[k] for k in sorted(unique, key=lambda k: (k[0], k[1].value))]
