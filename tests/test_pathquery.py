import random

import pytest

from netslice.graphstore import Iri, Model, Triple
from netslice.pathquery import (
    Alt,
    HopWitness,
    Inverse,
    PathExprError,
    Plus,
    Pred,
    Seq,
    Star,
    adjacent,
    eval_path,
    parse_path_expr,
)
from oracles import nfa_reachable, sub_graph

EX = "urn:ex/"


def ex(name):
    return Iri(EX + name)


def edge(m, s, p, o):
    m.add(Triple(ex(s), ex(p), ex(o)))


@pytest.fixture
def line_graph():
    # a -hasInterface-> a.if -linkedTo-> b.if -interfaceOf-> b, and onward b..c
    m = Model()
    for x, y in [("a", "b"), ("b", "c"), ("c", "d")]:
        edge(m, x, "hasInterface", f"{x}.to.{y}")
        edge(m, f"{x}.to.{y}", "linkedTo", f"{y}.to.{x}")
        edge(m, f"{y}.to.{x}", "interfaceOf", y)
        # reverse direction too, as entailment would materialize
        edge(m, y, "hasInterface", f"{y}.to.{x}")
        edge(m, f"{y}.to.{x}", "linkedTo", f"{x}.to.{y}")
        edge(m, f"{x}.to.{y}", "interfaceOf", x)
    return m


CONN = Seq(Pred(ex("hasInterface")), Pred(ex("linkedTo")), Pred(ex("interfaceOf")))


def test_eval_single_pred(line_graph):
    got = eval_path(line_graph, ex("a"), Pred(ex("hasInterface")))
    assert got == {ex("a.to.b")}


def test_eval_star_on_isolated_node():
    m = Model()
    edge(m, "other", "p", "other2")
    assert eval_path(m, ex("lone"), Star(Pred(ex("p")))) == {ex("lone")}


def test_eval_inverse(line_graph):
    got = eval_path(line_graph, ex("a.to.b"), Inverse(Pred(ex("hasInterface"))))
    assert got == {ex("a")}


def test_eval_plus_walks_line(line_graph):
    # links are bidirectional, so a itself is reachable via a -> b -> a
    got = eval_path(line_graph, ex("a"), Plus(CONN))
    assert got == {ex("a"), ex("b"), ex("c"), ex("d")}


def test_eval_matches_nfa_oracle_on_random_graphs():
    rng = random.Random(4242)
    preds = [ex(p) for p in "pqr"]

    def random_expr(depth):
        if depth == 0 or rng.random() < 0.3:
            return Pred(rng.choice(preds))
        kind = rng.randrange(5)
        if kind == 0:
            return Inverse(random_expr(depth - 1))
        if kind == 1:
            return Seq(random_expr(depth - 1), random_expr(depth - 1))
        if kind == 2:
            return Alt(random_expr(depth - 1), random_expr(depth - 1))
        if kind == 3:
            return Star(random_expr(depth - 1))
        return Plus(random_expr(depth - 1))

    for _ in range(120):
        m = Model()
        nodes = [ex(f"n{i}") for i in range(rng.randrange(3, 16))]
        for _ in range(rng.randrange(5, 25)):
            m.add(Triple(rng.choice(nodes), rng.choice(preds), rng.choice(nodes)))
        start = rng.choice(nodes)
        expr = random_expr(3)
        assert eval_path(m, start, expr) == nfa_reachable(m, start, expr)


def test_adjacent_basic(line_graph):
    got = adjacent(line_graph, ex("b"), CONN)
    assert got == [
        HopWitness(ex("b"), ex("a"), (ex("b.to.a"), ex("a.to.b"))),
        HopWitness(ex("b"), ex("c"), (ex("b.to.c"), ex("c.to.b"))),
    ]


def test_adjacent_no_interfaces():
    m = Model()
    edge(m, "x", "p", "y")
    assert adjacent(m, ex("x"), CONN) == []


def test_adjacent_neighbors_subset_of_eval_path(line_graph):
    for node in ["a", "b", "c"]:
        reach = eval_path(line_graph, ex(node), CONN)
        for w in adjacent(line_graph, ex(node), CONN):
            assert w.neighbor in reach


def test_adjacent_parallel_links_yield_two_witnesses():
    # two distinct link pairs between the same devices
    m = Model()
    for k in (0, 1):
        edge(m, "a", "hasInterface", f"a.if{k}")
        edge(m, f"a.if{k}", "linkedTo", f"b.if{k}")
        edge(m, f"b.if{k}", "interfaceOf", "b")
    got = adjacent(m, ex("a"), CONN)
    assert len(got) == 2
    assert {w.via for w in got} == {
        (ex("a.if0"), ex("b.if0")),
        (ex("a.if1"), ex("b.if1")),
    }
    assert all(w.neighbor == ex("b") for w in got)


def test_sub_graph_single_hop():
    w = HopWitness(ex("ServerA"), ex("switch"), (ex("ServerA.if"), ex("switch.if")))
    assert sub_graph([w]) == [ex("ServerA"), ex("ServerA.if"), ex("switch.if"), ex("switch")]


def test_sub_graph_empty_chain():
    assert sub_graph([]) == []


def test_sub_graph_three_hop_line(line_graph):
    chain = []
    for node, nxt in [("a", "b"), ("b", "c"), ("c", "d")]:
        w = [x for x in adjacent(line_graph, ex(node), CONN) if x.neighbor == ex(nxt)]
        chain.extend(w)
    elements = sub_graph(chain)
    assert elements[0] == ex("a")
    assert elements[-1] == ex("d")
    assert len(elements) == 10  # 4 devices + 6 interfaces, no consecutive dups
    assert all(a != b for a, b in zip(elements, elements[1:]))


def test_parse_path_expr_forms():
    prefixes = {"t": EX}
    assert parse_path_expr("t:p", prefixes) == Pred(ex("p"))
    assert parse_path_expr("^t:p", prefixes) == Inverse(Pred(ex("p")))
    assert parse_path_expr("t:a/t:b", prefixes) == Seq(Pred(ex("a")), Pred(ex("b")))
    assert parse_path_expr("t:a|t:b", prefixes) == Alt(Pred(ex("a")), Pred(ex("b")))
    assert parse_path_expr("t:p*", prefixes) == Star(Pred(ex("p")))
    assert parse_path_expr("(t:a/t:b)+", prefixes) == Plus(Seq(Pred(ex("a")), Pred(ex("b"))))
    assert parse_path_expr("<urn:ex/p>", prefixes) == Pred(ex("p"))


def test_path_expressions_equal_only_their_own_kind():
    a, b = Pred(ex("a")), Pred(ex("b"))
    assert Star(a) != Plus(a) and not Star(a) == Plus(a)
    assert Seq(a, b) != Alt(a, b) and not Seq(a, b) == Alt(a, b)
    assert Inverse(a) != Star(a) and Pred(ex("a")) != (ex("a"),)
    assert Seq(a, b) != (a, b) and Seq(a, b) != Seq(b, a)
    assert Star(Pred(ex("a"))) == Star(a) and Seq((a, b)) == Seq(a, b)
    assert hash(Seq((a, b))) == hash(Seq(a, b)) and len({Star(a), Star(a), Plus(a)}) == 2
    assert repr(Seq(a, Star(b))) == "Seq(parts=(Pred(iri=<urn:ex/a>), Star(expr=Pred(iri=<urn:ex/b>))))"
    for parts in ((a,), ((a,),), ()):
        with pytest.raises(ValueError, match="Seq needs at least 2 children"):
            Seq(*parts)
    with pytest.raises(AttributeError):
        a.iri = ex("b")


def test_parse_path_expr_errors():
    with pytest.raises(PathExprError):
        parse_path_expr("t:a/", {"t": EX})
    with pytest.raises(PathExprError):
        parse_path_expr("unknown:a", {})
    with pytest.raises(PathExprError):
        parse_path_expr("(t:a", {"t": EX})
