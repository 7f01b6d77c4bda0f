"""Regular path expressions over a Model.

`eval_path` evaluates an expression from a start node in one memoised walk,
and `netslice query --path-expr` reads its text form. `adjacent` lists
one-step walks of a sequence expression with the nodes each passes through.
The pathfinder in `embed` compiles its own adjacency and uses neither; the
test oracles re-derive that adjacency with `adjacent`.
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
    """The IRIs one pred step from node, in no order: its SPO index leaf
    without literals forward, its POS leaf backward."""
    if forward:
        return [o for o in m._spo.get(node, {}).get(pred, ()) if isinstance(o, Iri)]
    return m._pos.get(pred, {}).get(node, ())


def eval_path(m: Model, start: Iri, expr: PathExpr) -> set:
    """Nodes reachable from start by a walk matching expr. Each
    sub-expression is evaluated at most once per call from each node and
    direction, so closures nested in closures cost time polynomial in the
    sizes of the graph and the expression, not exponential in the nesting."""
    memo = {}

    def walk(node: Iri, expr: PathExpr, forward: bool) -> set:
        key = (node, id(expr), forward)  # a node's hash would walk its whole subtree
        if key in memo:
            return memo[key]
        if isinstance(expr, Pred):
            out = set(_step(m, node, expr.iri, forward))
        elif isinstance(expr, Inverse):
            out = walk(node, expr.expr, not forward)
        elif isinstance(expr, Seq):
            out = {node}
            for part in expr.parts if forward else reversed(expr.parts):
                out = {y for x in out for y in walk(x, part, forward)}
        elif isinstance(expr, Alt):
            out = set().union(*(walk(node, part, forward) for part in expr.parts))
        elif isinstance(expr, (Star, Plus)):
            # a Plus's start is reached (and walked again, from the memo) only if a step returns to it
            out = {node} if isinstance(expr, Star) else set()
            todo = [node]
            while todo:
                for y in walk(todo.pop(), expr.expr, forward):
                    if y not in out:
                        out.add(y)
                        todo.append(y)
        else:
            raise TypeError(f"not a path expression: {expr!r}")
        memo[key] = out
        return out

    return walk(start, expr, True)


def adjacent(m: Model, node: Iri, conn: PathExpr) -> list:
    """One HopWitness per distinct (neighbor, via) walk from node of conn, a
    Pred, an Inverse of a Pred or a Seq of these. The witness records every
    intermediate node. Self-loops (neighbor == node) are dropped. Sorted by
    (neighbor, via) for determinism."""
    walks = [(node,)]
    for step in conn.parts if isinstance(conn, Seq) else (conn,):
        forward = isinstance(step, Pred)
        if not forward and not (isinstance(step, Inverse) and isinstance(step.expr, Pred)):
            raise ValueError("adjacency expression must be a Seq of atomic steps")
        pred = step.iri if forward else step.expr.iri
        walks = [walk + (target,) for walk in walks for target in _step(m, walk[-1], pred, forward)]
    witnesses = {HopWitness(node, w[-1], w[1:-1]) for w in walks if w[-1] != node}
    return sorted(witnesses, key=lambda h: (h.neighbor.value, tuple(v.value for v in h.via)))


# -- text form ----------------------------------------------------------------


class PathExprError(ValueError):
    pass


MAX_PATH_DEPTH = 64  # levels of ^, * or + and parentheses one term may sit in


def parse_path_expr(text: str, prefixes: dict) -> PathExpr:
    """Parse `p`, `^p`, `a/b`, `a|b`, `p*`, `p+`, parentheses.

    Predicate names are CURIEs resolved against the supplied prefix map, or
    `<iri>` references, read by `graphstore.lex`. Each prefix ^, postfix *
    or + and parenthesised group around a term is a level, and a term under
    more than MAX_PATH_DEPTH levels is refused, before parsing or
    evaluating it would recurse that deep.
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

    def deeper(levels):
        """levels + 1, unless that is more than MAX_PATH_DEPTH."""
        if levels == MAX_PATH_DEPTH:
            raise PathExprError(f"path expression nested deeper than {MAX_PATH_DEPTH} levels: {text!r}")
        return levels + 1

    # Each parse_* reads an expression whose terms sit in `depth` levels
    # outside it, and returns it with the most levels it puts around a term.
    def parse_alt(depth):
        return joined("|", Alt, lambda: joined("/", Seq, lambda: parse_unary(depth)))

    def joined(separator, cls, parse_part):
        parts = [parse_part()]
        while peek() == separator:
            take()
            parts.append(parse_part())
        if len(parts) == 1:
            return parts[0]
        return cls(*(expr for expr, _ in parts)), max(levels for _, levels in parts)

    def parse_unary(depth):
        if peek() == "^":
            take()
            expr, levels = parse_unary(deeper(depth))
            return Inverse(expr), levels + 1
        expr, levels = parse_atom(depth)
        while peek() in ("*", "+"):
            deeper(depth + levels)
            levels += 1
            expr = Star(expr) if take().text == "*" else Plus(expr)
        return expr, levels

    def parse_atom(depth):
        token = take()
        if token.text == "(":
            inner, levels = parse_alt(deeper(depth))
            if peek() != ")":
                raise PathExprError(f"expected ')' in {text!r}")
            take()
            return inner, levels + 1
        if token.kind not in ("iri", "word"):
            raise PathExprError(f"unexpected {token.text!r} at col {token.col} in {text!r}")
        try:
            return Pred(token_term(token, prefixes)), 0
        except ValueError as e:
            raise PathExprError(f"{e} in {text!r}") from None

    expr, _ = parse_alt(0)
    if pos != len(tokens):
        raise PathExprError(f"trailing input at col {tokens[pos].col} in {text!r}")
    return expr
