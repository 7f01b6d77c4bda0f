"""Regular path expressions over a Model.

`eval_path` evaluates an expression from a start node, and `netslice query
--path-expr` reads its text form. `adjacent` lists one-step walks of a
sequence expression with the nodes each passes through. The pathfinder in
`embed` compiles its own adjacency and uses neither; the test oracles
re-derive that adjacency with `adjacent`.
"""

from __future__ import annotations

from typing import NamedTuple, Union

from .graphstore import Iri, Model, ParseError, Record, _immutable, lex, token_term


class _Node(Record):
    """A path expression node: immutable, hashed by its fields, and equal
    only to a node of its own type, so a Star is never a Plus nor a Seq an
    Alt. Its constructor serves the one-operand nodes."""

    __slots__ = ()
    __setattr__ = __delattr__ = _immutable

    def __init__(self, expr: "PathExpr"):
        object.__setattr__(self, "expr", expr)

    def __hash__(self):
        return hash(self._values())


class Pred(_Node):
    __slots__ = ("iri",)

    def __init__(self, iri: Iri):
        object.__setattr__(self, "iri", iri)


class Inverse(_Node):
    __slots__ = ("expr",)


class Star(_Node):
    __slots__ = ("expr",)


class Plus(_Node):
    __slots__ = ("expr",)


class _Parts(_Node):
    """A path expression over two or more parts, given one by one or as a tuple."""

    __slots__ = ()

    def __init__(self, *parts):
        if len(parts) == 1 and isinstance(parts[0], tuple):
            parts = parts[0]
        if len(parts) < 2:
            raise ValueError(f"{type(self).__name__} needs at least 2 children")
        object.__setattr__(self, "parts", tuple(parts))


class Seq(_Parts):
    __slots__ = ("parts",)


class Alt(_Parts):
    __slots__ = ("parts",)


PathExpr = Union[Pred, Inverse, Seq, Alt, Star, Plus]


class HopWitness(NamedTuple):
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


# -- text form ----------------------------------------------------------------


class PathExprError(ValueError):
    pass


def parse_path_expr(text: str, prefixes: dict) -> PathExpr:
    """Parse `p`, `^p`, `a/b`, `a|b`, `p*`, `p+`, parentheses.

    Predicate names are CURIEs resolved against the supplied prefix map, or
    `<iri>` references, read by `graphstore.lex`.
    """
    try:
        tokens = lex(text, "()|/*+^")
    except ParseError as e:
        raise PathExprError(f"{e} in {text!r}") from None
    pos = 0

    def peek():
        """The text of the token at pos, or None at the end."""
        return tokens[pos].text if pos < len(tokens) else None

    def take():
        nonlocal pos
        if pos == len(tokens):
            raise PathExprError(f"unexpected end of path expression: {text!r}")
        pos += 1
        return tokens[pos - 1]

    def parse_alt():
        return joined("|", Alt, lambda: joined("/", Seq, parse_unary))

    def joined(separator, cls, parse_part):
        parts = [parse_part()]
        while peek() == separator:
            take()
            parts.append(parse_part())
        return parts[0] if len(parts) == 1 else cls(*parts)

    def parse_unary():
        if peek() == "^":
            take()
            return Inverse(parse_unary())
        expr = parse_atom()
        while peek() in ("*", "+"):
            expr = Star(expr) if take().text == "*" else Plus(expr)
        return expr

    def parse_atom():
        token = take()
        if token.text == "(":
            inner = parse_alt()
            if peek() != ")":
                raise PathExprError(f"expected ')' in {text!r}")
            take()
            return inner
        if token.kind not in ("iri", "word"):
            raise PathExprError(f"unexpected {token.text!r} at col {token.col} in {text!r}")
        try:
            return Pred(token_term(token, prefixes))
        except ValueError as e:
            raise PathExprError(f"{e} in {text!r}") from None

    expr = parse_alt()
    if pos != len(tokens):
        raise PathExprError(f"trailing input at col {tokens[pos].col} in {text!r}")
    return expr
