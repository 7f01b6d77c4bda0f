"""Regular path expressions over a Model.

Two graph primitives sit on top of the generic evaluator: next-hop
adjacency discovery (`adjacent`) and internal-element extraction
(`sub_graph`). The pathfinder walks device-level adjacency with the
expression hasInterface / linkedTo / interfaceOf.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .graphstore import Iri, Model, resolve


@dataclass(frozen=True)
class Pred:
    iri: Iri


@dataclass(frozen=True)
class Inverse:
    expr: "PathExpr"


@dataclass(frozen=True)
class Seq:
    parts: tuple

    def __init__(self, *parts):
        if len(parts) == 1 and isinstance(parts[0], tuple):
            parts = parts[0]
        if len(parts) < 2:
            raise ValueError("Seq needs at least 2 children")
        object.__setattr__(self, "parts", tuple(parts))


@dataclass(frozen=True)
class Alt:
    parts: tuple

    def __init__(self, *parts):
        if len(parts) == 1 and isinstance(parts[0], tuple):
            parts = parts[0]
        if len(parts) < 2:
            raise ValueError("Alt needs at least 2 children")
        object.__setattr__(self, "parts", tuple(parts))


@dataclass(frozen=True)
class Star:
    expr: "PathExpr"


@dataclass(frozen=True)
class Plus:
    expr: "PathExpr"


PathExpr = Union[Pred, Inverse, Seq, Alt, Star, Plus]


@dataclass(frozen=True)
class HopWitness:
    """One concrete adjacency: the neighbor plus the intermediate nodes
    traversed to reach it (for the device expression: local interface,
    then remote interface)."""

    source: Iri
    neighbor: Iri
    via: tuple


def _step(m: Model, node: Iri, pred: Iri, forward: bool):
    if forward:
        return [o for o in m.objects(node, pred) if isinstance(o, Iri)]
    return m.subjects(pred, node)


def _eval(m: Model, starts: set, expr: PathExpr, forward: bool) -> set:
    if isinstance(expr, Pred):
        out = set()
        for n in starts:
            out.update(_step(m, n, expr.iri, forward))
        return out
    if isinstance(expr, Inverse):
        return _eval(m, starts, expr.expr, not forward)
    if isinstance(expr, Seq):
        parts = expr.parts if forward else tuple(reversed(expr.parts))
        cur = starts
        for part in parts:
            cur = _eval(m, cur, part, forward)
            if not cur:
                break
        return cur
    if isinstance(expr, Alt):
        out = set()
        for part in expr.parts:
            out.update(_eval(m, starts, part, forward))
        return out
    if isinstance(expr, Star):
        # Closure with a visited set; simple walks suffice for reachability.
        seen = set(starts)
        frontier = set(starts)
        while frontier:
            nxt = _eval(m, frontier, expr.expr, forward) - seen
            seen.update(nxt)
            frontier = nxt
        return seen
    if isinstance(expr, Plus):
        first = _eval(m, starts, expr.expr, forward)
        return _eval(m, first, Star(expr.expr), forward)
    raise TypeError(f"not a path expression: {expr!r}")


def eval_path(m: Model, start: Iri, expr: PathExpr) -> set:
    """Nodes reachable from start by a walk matching expr."""
    return _eval(m, {start}, expr, True)


def _atomic_steps(conn: PathExpr) -> list:
    """Flatten a Seq of Pred / Inverse(Pred) into (iri, forward) steps."""
    parts = conn.parts if isinstance(conn, Seq) else (conn,)
    steps = []
    for part in parts:
        if isinstance(part, Pred):
            steps.append((part.iri, True))
        elif isinstance(part, Inverse) and isinstance(part.expr, Pred):
            steps.append((part.expr.iri, False))
        else:
            raise ValueError("adjacency expression must be a Seq of atomic steps")
    return steps


def adjacent(m: Model, node: Iri, conn: PathExpr) -> list:
    """One HopWitness per distinct (neighbor, via) walk of conn from node.

    The witness records every intermediate node. Self-loops (neighbor ==
    node) are dropped. Sorted by (neighbor, via) for determinism.
    """
    steps = _atomic_steps(conn)
    walks = [(node,)]
    for pred, forward in steps:
        nxt = []
        for walk in walks:
            for target in _step(m, walk[-1], pred, forward):
                nxt.append(walk + (target,))
        walks = nxt
    witnesses = {
        HopWitness(source=node, neighbor=w[-1], via=w[1:-1])
        for w in walks
        if w[-1] != node
    }
    return sorted(witnesses, key=lambda h: (h.neighbor.value, tuple(v.value for v in h.via)))


def sub_graph(witness_chain: list) -> list:
    """All endpoints and via elements of a contiguous hop chain, in walk
    order, with consecutive duplicates removed."""
    out: list[Iri] = []
    for hop in witness_chain:
        for element in (hop.source, *hop.via, hop.neighbor):
            if not out or out[-1] != element:
                out.append(element)
    return out


# -- text form ----------------------------------------------------------------


class PathExprError(ValueError):
    pass


def parse_path_expr(text: str, prefixes: dict) -> PathExpr:
    """Parse `p`, `^p`, `a/b`, `a|b`, `p*`, `p+`, parentheses.

    Predicate names are CURIEs resolved against the supplied prefix map, or
    `<iri>` references.
    """
    tokens = _lex_path(text)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take(expected=None):
        tok = peek()
        if tok is None:
            raise PathExprError(f"unexpected end of path expression: {text!r}")
        if expected is not None and tok != expected:
            raise PathExprError(f"expected {expected!r}, got {tok!r} in {text!r}")
        pos[0] += 1
        return tok

    def parse_alt():
        parts = [parse_seq()]
        while peek() == "|":
            take()
            parts.append(parse_seq())
        return parts[0] if len(parts) == 1 else Alt(*parts)

    def parse_seq():
        parts = [parse_unary()]
        while peek() == "/":
            take()
            parts.append(parse_unary())
        return parts[0] if len(parts) == 1 else Seq(*parts)

    def parse_unary():
        if peek() == "^":
            take()
            return Inverse(parse_unary())
        expr = parse_atom()
        while peek() in ("*", "+"):
            expr = Star(expr) if take() == "*" else Plus(expr)
        return expr

    def parse_atom():
        tok = take()
        if tok == "(":
            inner = parse_alt()
            take(")")
            return inner
        if tok in ("|", "/", "*", "+", ")", "^"):
            raise PathExprError(f"unexpected {tok!r} in {text!r}")
        try:
            return Pred(resolve(tok, prefixes))
        except ValueError as e:
            raise PathExprError(f"{e} in {text!r}") from None

    expr = parse_alt()
    if pos[0] != len(tokens):
        raise PathExprError(f"trailing input after position {pos[0]} in {text!r}")
    return expr


def _lex_path(text: str) -> list:
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()|/*+^":
            tokens.append(c)
            i += 1
        elif c == "<":
            j = text.find(">", i)
            if j < 0:
                raise PathExprError(f"unterminated <iri> in {text!r}")
            tokens.append(text[i : j + 1])
            i = j + 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in "()|/*+^":
                j += 1
            tokens.append(text[i:j])
            i = j
    return tokens
