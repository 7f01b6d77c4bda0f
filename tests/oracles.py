"""Independent brute-force oracles.

Every oracle here recomputes a result the engine also computes, by a
deliberately different and simpler route: full rescans instead of indexes,
exhaustive enumeration instead of search. Keep them dumb.
"""

from __future__ import annotations

import heapq
import itertools
import re
from collections import Counter, deque

from netslice.embed import DEVICE_ADJACENCY
from netslice.graphstore import (
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
    term_key,
)
from netslice.models import pool_classes
from netslice.pathquery import adjacent
from netslice.vocab import IN_DOMAIN, satisfies


def naive_entail(m: Model) -> set:
    """Fixpoint of the entailment profile by repeated full rescans."""
    facts = set(m)

    def step(facts):
        new = set()
        for a in facts:
            for b in facts:
                # subclass transitivity
                if (
                    a.predicate == RDFS_SUBCLASS_OF
                    and b.predicate == RDFS_SUBCLASS_OF
                    and a.object == b.subject
                    and isinstance(b.object, Iri)
                ):
                    new.add(Triple(a.subject, RDFS_SUBCLASS_OF, b.object))
                # type via subclass
                if (
                    a.predicate == RDF_TYPE
                    and b.predicate == RDFS_SUBCLASS_OF
                    and a.object == b.subject
                    and isinstance(b.object, Iri)
                ):
                    new.add(Triple(a.subject, RDF_TYPE, b.object))
                # subproperty transitivity
                if (
                    a.predicate == RDFS_SUBPROPERTY_OF
                    and b.predicate == RDFS_SUBPROPERTY_OF
                    and a.object == b.subject
                    and isinstance(b.object, Iri)
                ):
                    new.add(Triple(a.subject, RDFS_SUBPROPERTY_OF, b.object))
                # triple via subproperty
                if (
                    b.predicate == RDFS_SUBPROPERTY_OF
                    and a.predicate == b.subject
                    and isinstance(b.object, Iri)
                ):
                    new.add(Triple(a.subject, b.object, a.object))
                # domain / range typing
                if (
                    b.predicate == RDFS_DOMAIN
                    and a.predicate == b.subject
                    and isinstance(b.object, Iri)
                ):
                    new.add(Triple(a.subject, RDF_TYPE, b.object))
                if (
                    b.predicate == RDFS_RANGE
                    and a.predicate == b.subject
                    and isinstance(a.object, Iri)
                    and isinstance(b.object, Iri)
                ):
                    new.add(Triple(a.object, RDF_TYPE, b.object))
                # inverse property symmetry
                if b.predicate == OWL_INVERSE_OF and isinstance(b.object, Iri):
                    new.add(Triple(b.object, OWL_INVERSE_OF, b.subject))
                    if a.predicate == b.subject and isinstance(a.object, Iri):
                        new.add(Triple(a.object, b.object, a.subject))
                    if a.predicate == b.object and isinstance(a.object, Iri):
                        new.add(Triple(a.object, b.subject, a.subject))
        return new - facts

    while True:
        new = step(facts)
        if not new:
            return facts
        facts |= new


def bgp_by_assignment(m: Model, patterns) -> list:
    """Try every assignment of variables to terms appearing in the model."""
    terms = set()
    for t in m:
        terms.add(t.subject)
        terms.add(t.predicate)
        terms.add(t.object)
    terms = sorted(terms, key=term_key)
    names = sorted({x.name for pat in patterns for x in pat if isinstance(x, Var)})
    facts = set(m)
    found = []
    for combo in itertools.product(terms, repeat=len(names)):
        binding = dict(zip(names, combo))
        ok = True
        for s, p, o in patterns:
            s = binding[s.name] if isinstance(s, Var) else s
            p = binding[p.name] if isinstance(p, Var) else p
            o = binding[o.name] if isinstance(o, Var) else o
            if not isinstance(s, Iri) or not isinstance(p, Iri):
                ok = False
                break
            if Triple(s, p, o) not in facts:
                ok = False
                break
        if ok:
            found.append(binding)
    found.sort(key=lambda b: tuple(term_key(b[n]) for n in names))
    return found


def nfa_reachable(m: Model, start: Iri, expr) -> set:
    """Product-automaton oracle for path expressions.

    Builds a Thompson-style epsilon-NFA over (predicate, direction) letters,
    then BFSes the product of the NFA with the graph.
    """
    from netslice.pathquery import Alt, Inverse, Plus, Pred, Seq, Star

    transitions = []  # (state, letter_or_None, state); letter = (pred, fwd?)
    counter = itertools.count()

    def build(e, flipped):
        """Returns (entry, exit) state pair for e; flipped inverts direction."""
        if isinstance(e, Pred):
            a, b = next(counter), next(counter)
            transitions.append((a, (e.iri, not flipped), b))
            return a, b
        if isinstance(e, Inverse):
            return build(e.expr, not flipped)
        if isinstance(e, Seq):
            parts = e.parts if not flipped else tuple(reversed(e.parts))
            entry, exit_ = None, None
            for part in parts:
                pa, pb = build(part, flipped)
                if entry is None:
                    entry = pa
                else:
                    transitions.append((exit_, None, pa))
                exit_ = pb
            return entry, exit_
        if isinstance(e, Alt):
            a, b = next(counter), next(counter)
            for part in e.parts:
                pa, pb = build(part, flipped)
                transitions.append((a, None, pa))
                transitions.append((pb, None, b))
            return a, b
        if isinstance(e, Star):
            a, b = next(counter), next(counter)
            pa, pb = build(e.expr, flipped)
            transitions.append((a, None, b))
            transitions.append((a, None, pa))
            transitions.append((pb, None, pa))
            transitions.append((pb, None, b))
            return a, b
        if isinstance(e, Plus):
            pa, pb = build(e.expr, flipped)
            sa, sb = build(Star(e.expr), flipped)
            transitions.append((pb, None, sa))
            return pa, sb
        raise TypeError(f"unknown expr {e!r}")

    entry, exit_ = build(expr, False)
    eps = {}
    letters = {}
    for a, letter, b in transitions:
        if letter is None:
            eps.setdefault(a, []).append(b)
        else:
            letters.setdefault(a, []).append((letter, b))

    fwd = {}
    back = {}
    for t in m:
        if isinstance(t.object, Iri):
            fwd.setdefault((t.subject, t.predicate), set()).add(t.object)
            back.setdefault((t.object, t.predicate), set()).add(t.subject)

    seen = set()
    queue = deque([(start, entry)])
    reached = set()
    while queue:
        node, state = queue.popleft()
        if (node, state) in seen:
            continue
        seen.add((node, state))
        if state == exit_:
            reached.add(node)
        for nxt in eps.get(state, ()):
            queue.append((node, nxt))
        for (pred, forward), nxt in letters.get(state, ()):
            targets = fwd.get((node, pred), ()) if forward else back.get((node, pred), ())
            for target in targets:
                queue.append((target, nxt))
    return reached


def all_rule_matches(m: Model, rule) -> list:
    """Exhaustive-substitution oracle for one validation rule.

    Nested loops over the full triple list per body atom, no indexes, no
    atom reordering. Builtins are checked only once both sides are ground.
    """
    from netslice.rules import BuiltinAtom, PatternAtom

    triples = sorted(m, key=lambda t: (term_key(t.subject), term_key(t.predicate), term_key(t.object)))
    results = []

    def builtins_ok(binding, final):
        for atom in rule.body:
            if not isinstance(atom, BuiltinAtom):
                continue
            a = binding.get(atom.left.name) if isinstance(atom.left, Var) else atom.left
            b = binding.get(atom.right.name) if isinstance(atom.right, Var) else atom.right
            if a is None or b is None:
                if final:
                    return False
                continue
            if atom.negated and a == b:
                return False
            if not atom.negated and a != b:
                return False
        return True

    pattern_atoms = [a for a in rule.body if isinstance(a, PatternAtom)]

    def recurse(i, binding):
        if not builtins_ok(binding, final=False):
            return
        if i == len(pattern_atoms):
            if builtins_ok(binding, final=True):
                results.append(dict(binding))
            return
        atom = pattern_atoms[i]
        for t in triples:
            new = dict(binding)
            ok = True
            for x, val in ((atom.s, t.subject), (atom.p, t.predicate), (atom.o, t.object)):
                if isinstance(x, Var):
                    if x.name in new and new[x.name] != val:
                        ok = False
                        break
                    new[x.name] = val
                elif x != val:
                    ok = False
                    break
            if ok:
                recurse(i + 1, new)

    recurse(0, {})
    return results


def best_first_simple_paths(m: Model, source: Iri, dest: Iri):
    """Reference candidate order: every simple path from source to dest as a
    HopWitness chain, popped best-first by (hop count, lexicographic hop
    sequence), re-deriving adjacency on every pop. Parallel links yield
    distinct candidates."""
    heap = [(0, (), ())]
    while heap:
        length, key, chain = heapq.heappop(heap)
        last = chain[-1].neighbor if chain else source
        if last == dest:
            yield chain
            continue
        visited = {source} | {w.neighbor for w in chain}
        for w in adjacent(m, last, DEVICE_ADJACENCY):
            if w.neighbor in visited:
                continue
            step_key = (w.neighbor.value, tuple(v.value for v in w.via))
            heapq.heappush(heap, (length + 1, key + (step_key,), chain + (w,)))


def feasible_simple_paths(instance, source, dest, bandwidth, required_label, request_layer):
    """Exhaustive simple-path feasibility oracle over a generated instance.

    Works entirely off the instance description. Yields (hop_count, names)
    for every feasible simple path; the caller takes the minimum.
    """
    devices = instance["devices"]
    by_end = {}
    for link in instance["links"]:
        a, b = link["ends"]
        by_end.setdefault(a, []).append((b, link))
        by_end.setdefault(b, []).append((a, link))

    results = []

    def path_feasible(link_seq, device_seq):
        # bandwidth on every traversed link
        for link in link_seq:
            if link["capacity"] < bandwidth:
                return False
        # layer boundaries; endpoints behave as attached at the request layer
        boundary = []
        boundary.append((request_layer, link_seq[0]["layer"]))
        for i in range(len(link_seq) - 1):
            boundary.append((link_seq[i]["layer"], link_seq[i + 1]["layer"]))
        boundary.append((link_seq[-1]["layer"], request_layer))
        for idx, dev_name in enumerate(device_seq):
            lin, lout = boundary[idx]
            dev = devices[dev_name]
            if lin != lout:
                if not any({c, s} == {lin, lout} and cap >= 1 for c, s, cap in dev["adaptations"]):
                    return False
            elif 0 < idx < len(device_seq) - 1:
                if dev["layer"] != lin:
                    return False
        # label continuity over ethernet scopes
        scopes = []
        current = []
        from netslice.vocab import ETHERNET_ELEMENT

        for i, link in enumerate(link_seq):
            if link["layer"] != ETHERNET_ELEMENT:
                if current:
                    scopes.append(current)
                    current = []
                continue
            if current and devices[device_seq[i]]["translator"]:
                scopes.append(current)
                current = []
            current.append(i)
        if current:
            scopes.append(current)
        for scope in scopes:
            common = None
            for i in scope:
                pool = link_seq[i]["pool"]
                common = pool if common is None else common & pool
            if required_label is not None:
                if required_label not in (common or ()):
                    return False
            elif not common:
                return False
        return True

    def dfs(at, device_seq, link_seq):
        if at == dest:
            if link_seq and path_feasible(link_seq, device_seq):
                results.append((len(link_seq), tuple(l["name"] for l in link_seq)))
            return
        for nxt, link in by_end.get(at, []):
            if nxt in device_seq:
                continue
            dfs(nxt, device_seq + [nxt], link_seq + [link])

    dfs(source, [source], [])
    return results


def oracle_best_hop_count(instance, source, dest, bandwidth, required_label, request_layer):
    feas = feasible_simple_paths(instance, source, dest, bandwidth, required_label, request_layer)
    return min((h for h, _ in feas), default=None)


def reference_parse_label_set(lexical: str) -> frozenset:
    """Labels of a label-set literal, expanded one by one into a frozenset.
    Raises ValueError on a malformed part or a reversed span."""
    if not lexical:
        return frozenset()
    out = set()
    for part in lexical.split(","):
        part = part.strip()
        if "-" in part:
            lo, hi = (int(v) for v in part.split("-", 1))
            if lo > hi:
                raise ValueError(f"reversed span {part!r}")
            out.update(range(lo, hi + 1))
        else:
            out.add(int(part))
    return frozenset(out)


def reference_render_label_set(labels: frozenset) -> str:
    """Canonical literal of a set of labels, by walking it in order."""
    vals = sorted(labels)
    if not vals:
        return ""
    spans = []
    start = prev = vals[0]
    for v in vals[1:]:
        if v == prev + 1:
            prev = v
            continue
        spans.append((start, prev))
        start = prev = v
    spans.append((start, prev))
    return ",".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


_REFERENCE_PREFIX_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_.-]*$|^$")


def _reference_scan_line(text: str, lineno: int) -> list:
    """Tokenize one line. Tokens are (kind, value, col, datatype_spec)."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t\r":
            i += 1
            continue
        col = i + 1
        if c == "#":
            break
        if c == "<":
            j = text.find(">", i + 1)
            if j < 0:
                raise ParseError(lineno, col, "unterminated IRI reference")
            value = text[i + 1 : j]
            tokens.append(("iri", value, col, None))
            i = j + 1
        elif c == '"':
            lex, i = _reference_scan_string(text, i, lineno)
            dt_spec = None
            if text[i : i + 2] == "^^":
                i += 2
                if i < n and text[i] == "<":
                    j = text.find(">", i + 1)
                    if j < 0:
                        raise ParseError(lineno, i + 1, "unterminated datatype IRI")
                    dt_spec = ("iri", text[i + 1 : j])
                    i = j + 1
                else:
                    j = i
                    while j < n and text[j] not in " \t\r":
                        j += 1
                    if j == i:
                        raise ParseError(lineno, i + 1, "missing datatype after ^^")
                    dt_spec = ("word", text[i:j])
                    i = j
            tokens.append(("literal", lex, col, dt_spec))
        elif c == "." and (i + 1 == n or text[i + 1] in " \t\r#"):
            tokens.append(("dot", ".", col, None))
            i += 1
        else:
            j = i
            while j < n and text[j] not in " \t\r":
                j += 1
            tokens.append(("word", text[i:j], col, None))
            i = j
    return tokens


_REFERENCE_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}


def _reference_scan_string(text: str, i: int, lineno: int):
    """Scan a quoted string starting at text[i] == '"'. Returns (lexical, next_i)."""
    col = i + 1
    out = []
    i += 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\\":
            if i + 1 >= n or text[i + 1] not in _REFERENCE_ESCAPES:
                raise ParseError(lineno, i + 1, "bad escape in string literal")
            out.append(_REFERENCE_ESCAPES[text[i + 1]])
            i += 2
        elif c == '"':
            return "".join(out), i + 1
        else:
            out.append(c)
            i += 1
    raise ParseError(lineno, col, "unterminated string literal")


def reference_parse_document(text: str) -> Model:
    """An NDL-Lite document parsed line by line with a character scanner:
    the parser the line pattern replaced. Same Model, same ParseError (line,
    column and message) and the same ValueError on a malformed IRI."""
    m = Model()

    def resolve_word(word: str, lineno: int, col: int) -> Iri:
        if ":" not in word:
            raise ParseError(lineno, col, f"expected IRI, CURIE or literal, got {word!r}")
        name, local = word.split(":", 1)
        if name not in m.prefixes:
            raise ParseError(lineno, col, f"undeclared prefix {name!r}")
        return Iri(m.prefixes[name] + local)

    for lineno, line in enumerate(text.split("\n"), start=1):
        tokens = _reference_scan_line(line, lineno)
        if not tokens:
            continue
        if tokens[0][0] == "word" and tokens[0][1] == "@prefix":
            if (
                len(tokens) != 4
                or tokens[1][0] != "word"
                or not tokens[1][1].endswith(":")
                or tokens[2][0] != "iri"
                or tokens[3][0] != "dot"
            ):
                raise ParseError(lineno, tokens[0][2], "malformed @prefix declaration")
            name = tokens[1][1][:-1]
            if not _REFERENCE_PREFIX_NAME_RE.match(name):
                raise ParseError(lineno, tokens[1][2], f"bad prefix name {name!r}")
            m.declare(name, tokens[2][1])
            continue
        if len(tokens) != 4 or tokens[3][0] != "dot":
            raise ParseError(
                lineno,
                tokens[-1][2],
                "expected 'S P O .' (terms and terminating dot separated by spaces)",
            )
        terms = []
        for pos, (kind, value, col, dt_spec) in enumerate(tokens[:3]):
            if kind == "iri":
                try:
                    terms.append(Iri(value))
                except ValueError as e:
                    raise ParseError(lineno, col, str(e)) from None
            elif kind == "word":
                terms.append(resolve_word(value, lineno, col))
            elif kind == "literal":
                if pos == 0:
                    raise ParseError(lineno, col, "literal not allowed in subject position")
                if pos == 1:
                    raise ParseError(lineno, col, "literal not allowed in predicate position")
                if dt_spec is None:
                    terms.append(Literal(value))
                elif dt_spec[0] == "iri":
                    terms.append(Literal(value, Iri(dt_spec[1])))
                else:
                    terms.append(Literal(value, resolve_word(dt_spec[1], lineno, col)))
            else:
                raise ParseError(lineno, col, f"unexpected {kind!r} token")
        m.add(Triple(terms[0], terms[1], terms[2]))
    return m


_SAFE_LOCAL = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_/.-]*$")


def reference_render_iri(value: str, prefixes: dict) -> str:
    """An IRI compacted against a prefix map by scoring every namespace that
    prefixes it with a safe local part: the longest wins, ties break on the
    prefix name; no such namespace leaves it in angle brackets."""
    best = None
    for name, ns in prefixes.items():
        if value.startswith(ns):
            local = value[len(ns) :]
            if local and not (_SAFE_LOCAL.match(local) and not local.endswith(".")):
                continue
            if best is None or len(ns) > best[0] or (len(ns) == best[0] and name < best[1]):
                best = (len(ns), name, local)
    return f"<{value}>" if best is None else f"{best[1]}:{best[2]}"


def _delegated_pools(broker) -> dict:
    """(domain, pool) -> (the classes the pool provisions, its units left),
    read from every ledger's delegation model and in-use figures."""
    pools = {}
    for domain, ledger in broker.ledgers.items():
        for pool in ledger.model.subjects(IN_DOMAIN, domain):
            classes = pool_classes(ledger.model, pool)
            if classes:
                key = ("units", pool)
                left = ledger.original.get(key, 0) - ledger.used.get(key, 0)
                pools[(domain, pool)] = (classes, left)
    return pools


def _serves(schema, classes, requested) -> bool:
    return any(satisfies(schema, c, requested) for c in classes)


def reference_binding(broker, req):
    """Domain binding by exhaustive search. Each request node in turn goes
    to the first domain in IRI order (only its own, when it is bound) where
    some choice of one pool per node bound there so far, this one included,
    stays within every pool's units left; a node may take any pool whose
    classes `satisfies` its class in the routing view. Returns node ->
    domain, or None where the engine raises InsufficientResources."""
    pools = _delegated_pools(broker)
    schema = broker.routing_view()
    choices = {}  # domain -> the usable pools of each node placed there
    binding = {}
    for node in req.nodes:
        for domain in sorted({d for d, _ in pools}, key=lambda d: d.value):
            if node.in_domain not in (None, domain):
                continue
            usable = [
                p for (d, p), (classes, _) in pools.items()
                if d == domain and _serves(schema, classes, node.compute_class)
            ]
            tried = choices.get(domain, []) + [usable]
            if any(
                all(n <= pools[(domain, p)][1] for p, n in Counter(pick).items())
                for pick in itertools.product(*tried)
            ):
                choices[domain] = tried
                binding[node.iri] = domain
                break
        else:
            return None
    return binding


def binding_fits(broker, req, binding) -> bool:
    """Whether an engine binding (node -> (domain, pool)) gives every node a
    pool of its domain that serves its class, within every pool's units
    left."""
    pools = _delegated_pools(broker)
    schema = broker.routing_view()
    taken = Counter(binding[node.iri] for node in req.nodes)
    return all(
        _serves(schema, pools.get(binding[node.iri], ((), 0))[0], node.compute_class)
        for node in req.nodes
    ) and all(n <= pools[key][1] for key, n in taken.items())
