"""In-memory triple store with a line-oriented text format ("NDL-Lite"),
basic graph pattern queries, and a fixed forward-chaining entailment profile.

The document format is deliberately small: ``@prefix`` headers, one triple
per line, IRIs, CURIEs, and typed literals. Canonical serialization sorts
prefixes and triples so model files are diffable and byte-stable.

Terms are interned: `Iri` and `Literal` keep one live instance per value in
a weak table, so every index touch hashes and compares them by identity, and
a value's entry goes when its last user does. A `Triple` is a named tuple of
terms, hashed and compared as a tuple.
"""

from __future__ import annotations

import gc
import re
import weakref
from itertools import chain, islice
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
OWL_NS = "http://www.w3.org/2002/07/owl#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"

# Whitespace, and what else an RDF 1.1 N-Triples IRIREF may not hold: the
# characters <>"{}|^`\ and U+0000-U+0020. An IRI free of them is written
# back between <...> as it is.
_BAD_IRI_RE = re.compile(r'[\s\x00-\x20<>"{}|^`\\]')
# Locals that survive a CURIE round trip without quoting.
_SAFE_LOCAL_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_/.-]*$")
_PREFIX_NAME = r"[A-Za-z][A-Za-z0-9_.-]*"
_PREFIX_NAME_RE = re.compile(rf"^{_PREFIX_NAME}$|^$")
_new = tuple.__new__  # _new(Triple, (s, p, o)) skips the named tuple's __new__ frame


def _immutable(obj, name, *value):
    raise AttributeError(f"cannot change {name!r} of an immutable {type(obj).__name__}")


class Iri:
    """An absolute IRI, interned: one live instance per value, so equality
    and hashing are identity. Validated once, when the value is first seen."""

    __slots__ = ("value", "__weakref__")

    def __new__(cls, value: str) -> "Iri":
        ref = _IRIS.get(value)
        self = ref() if ref is not None else None
        if self is None:
            if not value:
                raise ValueError("empty IRI")
            bad = _BAD_IRI_RE.search(value)
            if bad:
                what = "whitespace" if bad[0].isspace() else f"forbidden character {bad[0]!r}"
                raise ValueError(f"IRI contains {what}: {value!r}")
            self = object.__new__(cls)
            object.__setattr__(self, "value", value)
            _intern(_IRIS, value, self)
        return self

    def local(self) -> str:
        """Fragment or final path segment, for messages and display."""
        v = self.value
        for sep in ("#", "/", ":"):
            if sep in v:
                return v.rsplit(sep, 1)[1] or v
        return v

    def __repr__(self) -> str:
        return f"<{self.value}>"

    def __reduce__(self):
        return (Iri, (self.value,))

    __setattr__ = __delattr__ = _immutable


# Value -> weak reference to its term: a process keeps the terms its models hold.
_IRIS: "dict[str, _Entry]" = {}
_LITERALS: "dict[tuple, _Entry]" = {}


class _Entry(weakref.ref):
    """An intern table's weak reference to the term of `key`, which drops
    the entry when the term dies, unless a newer term has taken the key."""

    __slots__ = ("table", "key")

    def drop(self) -> None:
        if self.table.get(self.key) is self:
            del self.table[self.key]


def _intern(table: dict, key, term) -> None:
    entry = table[key] = _Entry(term, _Entry.drop)
    entry.table, entry.key = table, key


XSD_STRING = Iri(XSD_NS + "string")
XSD_INTEGER = Iri(XSD_NS + "integer")
XSD_DATETIME = Iri(XSD_NS + "dateTime")


class Literal:
    """A literal value: lexical form plus datatype IRI, interned like Iri on
    the pair.

    Plain quoted strings carry xsd:string. Only xsd:string, xsd:integer and
    xsd:dateTime get interpreted anywhere; other datatypes pass through
    opaquely.
    """

    __slots__ = ("lexical", "datatype", "__weakref__")

    def __new__(cls, lexical: str, datatype: Iri = XSD_STRING) -> "Literal":
        key = (lexical, datatype)
        ref = _LITERALS.get(key)
        self = ref() if ref is not None else None
        if self is None:
            self = object.__new__(cls)
            object.__setattr__(self, "lexical", lexical)
            object.__setattr__(self, "datatype", datatype)
            _intern(_LITERALS, key, self)
        return self

    def __repr__(self) -> str:
        if self.datatype == XSD_STRING:
            return f'"{self.lexical}"'
        return f'"{self.lexical}"^^<{self.datatype.value}>'

    def __reduce__(self):
        return (Literal, (self.lexical, self.datatype))

    __setattr__ = __delattr__ = _immutable


Term = Union[Iri, Literal]


class Triple(NamedTuple):
    subject: Iri
    predicate: Iri
    object: Term


class Var(NamedTuple):
    """Query variable, written ``?name`` in pattern text."""

    name: str


PatternTerm = Union[Iri, Literal, Var]


class Record:
    """Base of the package's slotted records: equal to a record of its own
    type with equal fields, shown by its fields, and unhashable unless a
    subclass defines a hash. Fields are the subclass's `__slots__`."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({shown})"


RDF_TYPE = Iri(RDF_NS + "type")
RDFS_SUBCLASS_OF = Iri(RDFS_NS + "subClassOf")
RDFS_SUBPROPERTY_OF = Iri(RDFS_NS + "subPropertyOf")
RDFS_DOMAIN = Iri(RDFS_NS + "domain")
RDFS_RANGE = Iri(RDFS_NS + "range")
OWL_INVERSE_OF = Iri(OWL_NS + "inverseOf")
OWL_CLASS = Iri(OWL_NS + "Class")
OWL_OBJECT_PROPERTY = Iri(OWL_NS + "ObjectProperty")
OWL_DATATYPE_PROPERTY = Iri(OWL_NS + "DatatypeProperty")


def term_key(t: Term):
    """Total deterministic order over terms (IRIs before literals)."""
    if isinstance(t, Iri):
        return (0, t.value, "")
    return (1, t.lexical, t.datatype.value)


def int_value(t: Optional[Term]) -> Optional[int]:
    """Integer of an xsd:integer literal, else None: its lexical form is
    XSD's, an optional sign and ASCII digits, nothing around them, and
    int() converts it (past its digit limit, it does not)."""
    if isinstance(t, Literal) and t.datatype == XSD_INTEGER:
        digits = t.lexical[1:] if t.lexical[:1] in ("+", "-") else t.lexical
        if digits.isascii() and digits.isdigit():
            try:
                return int(t.lexical)
            except ValueError:  # more digits than int() converts
                pass
    return None


def integer(n: int) -> Literal:
    return Literal(str(n), XSD_INTEGER)


def string(s: str) -> Literal:
    return Literal(s, XSD_STRING)


class ParseError(Exception):
    """Malformed NDL-Lite input. Carries 1-based line and column."""

    def __init__(self, line: int, col: int, reason: str):
        self.line = line
        self.col = col
        self.reason = reason
        super().__init__(f"line {line}, col {col}: {reason}")


class ClosureBudgetExceeded(Exception):
    """Entailment derived more triples than the configured cap allows."""

    def __init__(self, derived: int, cap: int):
        self.derived = derived
        self.cap = cap
        super().__init__(f"entailment produced {derived} derived triples (cap {cap})")


class Model:
    """A set of triples with a prefix map and SPO/POS indexes.

    Set semantics: re-adding a triple is a no-op. Equality compares triple
    sets only; the prefix map is presentation. Mutation happens only through
    add/remove, until `freeze`; readers may share a model freely, and what
    they derive from it through `derived` is kept until its triples change.
    """

    __slots__ = ("prefixes", "_triples", "_spo", "_pos", "_derived", "_frozen", "_base")

    def __init__(self, prefixes: Optional[dict] = None):
        self.prefixes: dict[str, str] = dict(prefixes or {})
        self._triples: dict[Triple, None] = {}
        self._spo: dict[Iri, dict[Iri, dict[Term, None]]] = {}
        self._pos: dict[Iri, dict[Term, dict[Iri, None]]] = {}
        self._derived: dict = {}  # build function -> build(self)
        self._frozen = False
        self._base: Optional[Model] = None  # frozen model whose inner dicts these may be

    # -- mutation ---------------------------------------------------------

    def freeze(self) -> "Model":
        """Make every later add or remove raise TypeError; returns the model."""
        self._frozen = True
        return self

    def add(self, t: Triple) -> bool:
        """Insert a triple. Returns False if it was already present."""
        return self.add_all((t,)) == 1

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Insert triples in order; returns how many were new."""
        if self._frozen:
            raise TypeError("cannot add to a frozen model")
        known, spo, pos, base = self._triples, self._spo, self._pos, self._base
        added = 0
        for t in triples:
            if t in known:
                continue
            if not added:  # what was derived goes, once
                self._derived.clear()
            known[t] = None
            added += 1
            s, p, o = t
            if base is None:
                spo.setdefault(s, {}).setdefault(p, {})[o] = None
                pos.setdefault(p, {}).setdefault(o, {})[s] = None
            else:
                _own(spo, base._spo, s, p)[o] = None
                _own(pos, base._pos, p, o)[s] = None
        return added

    def remove(self, t: Triple) -> bool:
        if self._frozen:
            raise TypeError("cannot remove from a frozen model")
        if t not in self._triples:
            return False
        self._derived.clear()
        del self._triples[t]
        s, p, o = t
        spo, pos = ({}, {}) if self._base is None else (self._base._spo, self._base._pos)
        for index, shared, (a, b, c) in ((self._spo, spo, t), (self._pos, pos, (p, o, s))):
            leaf = _own(index, shared, a, b)
            del leaf[c]
            if not leaf:
                del index[a][b]
                if not index[a]:
                    del index[a]
        return True

    # -- access -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._triples)

    def __contains__(self, t: Triple) -> bool:
        return t in self._triples

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Model):
            return NotImplemented
        return self._triples.keys() == other._triples.keys()

    __hash__ = None  # mutable

    def match(
        self,
        s: Optional[Iri] = None,
        p: Optional[Iri] = None,
        o: Optional[Term] = None,
    ) -> Iterator[Triple]:
        """All triples matching the given fixed positions (None = wildcard)."""
        if s is not None:  # the subject's SPO level
            by_p = self._spo.get(s, {})
            for pred in by_p if p is None else (p,) if p in by_p else ():
                objs = by_p[pred]
                for obj in objs if o is None else (o,) if o in objs else ():
                    yield _new(Triple, (s, pred, obj))
        elif p is not None:  # the predicate's POS level
            by_o = self._pos.get(p, {})
            for obj in by_o if o is None else (o,) if o in by_o else ():
                for subj in by_o[obj]:
                    yield _new(Triple, (subj, p, obj))
        elif o is not None:
            for pred, by_o in self._pos.items():
                for subj in by_o.get(o, ()):
                    yield _new(Triple, (subj, pred, o))
        else:
            yield from self._triples

    def objects(self, s: Iri, p: Iri) -> list:
        """Objects of (s, p, ·), sorted for determinism."""
        return sorted(self._spo.get(s, {}).get(p, ()), key=term_key)

    def value(self, s: Iri, p: Iri) -> Optional[Term]:
        objs = self._spo.get(s, {}).get(p, ())  # the first of objects(s, p), unsorted
        return min(objs, key=term_key) if len(objs) > 1 else next(iter(objs), None)

    def subjects(self, p: Iri, o: Term) -> list:
        """Subjects of (·, p, o), sorted."""
        return sorted(self._pos.get(p, {}).get(o, ()), key=term_key)

    def typed(self, cls: Iri) -> list:
        """Instances carrying rdf:type cls."""
        return self.subjects(RDF_TYPE, cls)

    def types(self, s: Iri) -> set:
        return {o for o in self._spo.get(s, {}).get(RDF_TYPE, ()) if isinstance(o, Iri)}

    def derived(self, build):
        """`build(self)`, kept until `add` or `remove` changes the triples.
        The result must not refer back to the model (no reference cycle)."""
        if build not in self._derived:
            self._derived[build] = build(self)
        return self._derived[build]

    def copy(self) -> "Model":
        """An independent copy. A frozen model's copy shares its inner index
        dicts, and copies one only when a write first touches it; any other
        model is copied index by index, far fewer hashes than re-adding.
        Nothing derived is shared: the copy derives afresh."""
        m = Model(self.prefixes)
        m._triples = dict(self._triples)
        if self._frozen:
            m._base = self
            m._spo, m._pos = dict(self._spo), dict(self._pos)
        else:
            m._spo, m._pos = _copied(self._spo), _copied(self._pos)
        return m


def _copied(index: dict) -> dict:
    """A copy of a dict of dicts of dicts, down to the innermost dicts."""
    return {a: {b: dict(c) for b, c in bs.items()} for a, bs in index.items()}


def _own(index: dict, shared: dict, a, b) -> dict:
    """index[a][b], created where missing and copied first, level by level,
    where it is still the dict that the frozen base's index `shared` holds."""
    level = index.get(a)
    base_level = shared.get(a)
    if level is None:
        level = index[a] = {}
    elif level is base_level:
        level = index[a] = dict(level)
    leaf = level.get(b)
    if leaf is None:
        leaf = level[b] = {}
    elif base_level is not None and leaf is base_level.get(b):
        leaf = level[b] = dict(leaf)
    return leaf


# -- text format ------------------------------------------------------------

# One NDL-Lite line is blank or holds an @prefix declaration or an "S P O ."
# statement, and then at most a comment. Whitespace is space, tab or CR. A
# term is an <iri>, a prefix:local CURIE or, as an object only, a quoted
# literal with an optional ^^datatype. An IRI or a literal ends where it
# closes, so the next token may follow at once; a CURIE runs to the next
# whitespace; a dot ends a statement only before whitespace, '#' or the end.
_LITERAL_RE = re.compile(r'"((?:[^"\\]|\\[\\"ntr])*)"(?:\^\^(.+))?')
_ESCAPE_RE = re.compile(r"\\(.)")
_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}
# The writer's side of _ESCAPES: the characters it reads back, as escapes.
_ESCAPED = str.maketrans({raw: "\\" + code for code, raw in _ESCAPES.items()})
_TO_ESCAPE_RE = re.compile(f"[{re.escape(''.join(_ESCAPES.values()))}]")


def parse_document(text: str, into: Optional[Model] = None) -> Model:
    """Parse an NDL-Lite document into a new Model, or into `into` after its triples. Its
    CURIEs read its own prefixes only, and its prefix map becomes the model's.

    A line spelled "S P O ." or "@prefix name: <namespace> ." with single
    spaces is split at them; any other line, or one with a token that does
    not read, is lexed. Either way a term is read by `resolve` or, quoted,
    by `_literal`, as in rules and queries. Raises ParseError with line and
    column on malformed lines, undeclared prefixes, a literal in subject or
    predicate position, or a malformed IRI (empty, or holding a character an
    IRI may not hold) written as a term or a datatype, directly or as a CURIE.
    """
    m = Model() if into is None else into
    prefixes = m.prefixes = {}
    terms: dict = {}  # token -> term under the current prefix map
    triples = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        parts = line.split(" ")
        if len(parts) == 4 and parts[3] == ".":
            if parts[0] == "@prefix" and _declared(parts, prefixes, terms):
                continue
            if (found := _split_statement(parts, terms, prefixes)) is not None:
                triples.append(found)
                continue
        if line and (found := _lexed_statement(line, lineno, prefixes, terms)) is not None:
            triples.append(found)
    m.add_all(triples)
    return m


def _split_statement(parts: list, terms: dict, prefixes: dict) -> Optional[Triple]:
    """The triple of a line split at single spaces into S, P, O and ".", or
    None if a token is no term of its position, for the lexer to read the
    line and name the fault. `terms` holds only terms."""
    s, p, o = parts[0], parts[1], parts[2]
    try:
        subject = terms.get(s) or resolve(s, prefixes)
        predicate = terms.get(p) or resolve(p, prefixes)
        obj = terms.get(o) or (_literal(o, prefixes) if o[:1] == '"' else resolve(o, prefixes))
    except ValueError:
        return None
    if subject.__class__ is not Iri or predicate.__class__ is not Iri:
        return None
    terms[s], terms[p], terms[o] = subject, predicate, obj
    return _new(Triple, (subject, predicate, obj))


def _declared(parts: list, prefixes: dict, terms: dict) -> bool:
    """Whether a line split at single spaces into "@prefix", "name:",
    "<namespace>" and "." declares a prefix; if so, it is declared."""
    name, namespace = parts[1][:-1], parts[2]
    iri = namespace[:1] == "<" and namespace.find(">") == len(namespace) - 1
    if parts[1][-1:] != ":" or not _PREFIX_NAME_RE.match(name) or not iri:
        return False
    prefixes[name] = namespace[1:-1]
    terms.clear()
    return True


def _lexed_statement(line: str, lineno: int, prefixes: dict, terms: dict) -> Optional[Triple]:
    """The triple of a line read token by token, or None for a blank line,
    a comment or a prefix declaration, which is made; else a ParseError."""
    tokens = lex(line, ".", lineno)
    if not tokens:
        return None
    kinds = [token.kind for token in tokens]
    if kinds[0] == "word" and tokens[0].value == "@prefix":
        if kinds != ["word", "word", "iri", "mark"] or not tokens[1].value.endswith(":"):
            raise ParseError(lineno, tokens[0].col, "malformed @prefix declaration")
        name = tokens[1].value[:-1]
        if not _PREFIX_NAME_RE.match(name):
            raise ParseError(lineno, tokens[1].col, f"bad prefix name {name!r}")
        prefixes[name] = tokens[2].value
        terms.clear()
        return None
    if len(tokens) != 4 or kinds[3] != "mark":
        reason = "expected 'S P O .' (terms and terminating dot separated by spaces)"
        raise ParseError(lineno, tokens[-1].col, reason)
    statement = []
    for pos, token in enumerate(tokens[:3]):
        if token.kind == "mark":
            raise ParseError(lineno, token.col, "unexpected 'dot' token")
        literal = token.kind == "literal"
        if literal and pos < 2:
            where = "subject" if pos == 0 else "predicate"
            raise ParseError(lineno, token.col, f"literal not allowed in {where} position")
        try:
            statement.append(_literal(token.text, prefixes) if literal else resolve(token.text, prefixes))
        except ValueError as e:
            raise ParseError(lineno, token.col, str(e)) from None
    return _new(Triple, tuple(statement))


# -- terms: one grammar for documents, rules, BGPs, paths and scenarios -------


class Token(NamedTuple):
    """A term or punctuation mark that `lex` read, at its 1-based line and
    column. `kind` is "iri", "literal", "var", "word" or "mark"; `value` is
    the IRI, the lexical form (escapes read), the variable's name or the
    text; `text` is what the token spans, a literal's ^^datatype included."""

    kind: str
    value: str
    line: int
    col: int
    text: str


_VAR_RE = re.compile(r"\?([A-Za-z_][A-Za-z0-9_]*)")
_STRING_RE = re.compile(r'"((?:[^"\\]|\\.)*)(")?')


def lex(text: str, marks: Sequence[str] = (), line: int = 1) -> list:
    """The tokens of text, whose first line is numbered `line`.

    Space, tab, CR and newline separate tokens; a '#' where a token would
    start comments out the rest of its line. A token is one of the caller's
    `marks` (the longest that fits; "." only before whitespace, '#' or the
    line's end), an <iri>, a quoted literal (escapes \\\\ \\" \\n \\t \\r) with
    an optional ^^<iri> or ^^word datatype, or a word, which ends at
    whitespace or at a mark other than "."; `?name` is a variable. Raises
    ParseError at an unclosed IRI or literal, a bad escape or a missing
    datatype."""
    marks = sorted(marks, key=len, reverse=True)
    stops = "".join(mark[0] for mark in marks if mark != ".")
    word_re = re.compile(f"[^ \\t\\r{re.escape(stops)}]*")
    tokens = []
    for lineno, row in enumerate(text.split("\n"), start=line):
        i = 0
        while i < len(row):
            c = row[i]
            if c in " \t\r":
                i += 1
                continue
            if c == "#":
                break
            mark = next((m for m in marks if row.startswith(m, i)), None)
            if mark == "." and row[i + 1 : i + 2] not in ("", " ", "\t", "\r", "#"):
                mark = None
            if mark is not None:
                kind, value, j = "mark", mark, i + len(mark)
            elif c == "<":
                j = _iri_end(row, i, lineno, "unterminated IRI reference")
                kind, value = "iri", row[i + 1 : j - 1]
            elif c == '"':
                kind, (j, value) = "literal", _string(row, i, lineno)
                if row.startswith("^^", j):  # an <iri> or a word
                    start = j + 2
                    if row.startswith("<", start):
                        j = _iri_end(row, start, lineno, "unterminated datatype IRI")
                    elif (j := word_re.match(row, start).end()) == start:
                        raise ParseError(lineno, start + 1, "missing datatype after ^^")
            else:
                j = word_re.match(row, i).end()
                var = _VAR_RE.fullmatch(row, i, j)
                kind, value = ("var", var[1]) if var else ("word", row[i:j])
            tokens.append(Token(kind, value, lineno, i + 1, row[i:j]))
            i = j
    return tokens


def _iri_end(row: str, i: int, lineno: int, reason: str) -> int:
    """The end of the <iri> that opens at row[i]."""
    j = row.find(">", i + 1)
    if j < 0:
        raise ParseError(lineno, i + 1, reason)
    return j + 1


def _string(row: str, i: int, lineno: int) -> tuple:
    """(end, lexical form) of the quoted literal that opens at row[i]."""
    match = _STRING_RE.match(row, i)
    body = match[1]
    for escape in _ESCAPE_RE.finditer(body):
        if escape[1] not in _ESCAPES:
            raise ParseError(lineno, i + 2 + escape.start(), "bad escape in string literal")
    if match[2] is None:
        if match.end() < len(row):  # a backslash ends the line
            raise ParseError(lineno, match.end() + 1, "bad escape in string literal")
        raise ParseError(lineno, i + 1, "unterminated string literal")
    return match.end(), _ESCAPE_RE.sub(lambda e: _ESCAPES[e[1]], body)


def token_term(token: Token, prefixes: dict) -> PatternTerm:
    """The Var a `?name` token writes, else the Literal or Iri its text
    writes, read as in documents. Raises ValueError for a mark or a term
    that does not resolve."""
    if token.kind == "var":
        return Var(token.value)
    if token.kind == "mark":
        raise ValueError(f"expected a term, got {token.text!r}")
    return _literal(token.text, prefixes) if token.kind == "literal" else resolve(token.text, prefixes)


def resolve(text: str, prefixes: dict) -> Iri:
    """The IRI that an ``<iri>``, or a ``prefix:local`` CURIE of a declared
    prefix, names: the one reading of an IRI in documents, rules, queries,
    path expressions and command-line arguments. Raises ValueError; callers
    map it to their own error type."""
    if text[:1] == "<" and text.find(">") == len(text) - 1:
        return Iri(text[1:-1])
    name, colon, local = text.partition(":")
    if colon and name in prefixes:
        return Iri(prefixes[name] + local)
    if not colon or text[:1] == "<":
        raise ValueError(f"expected IRI, CURIE or literal, got {text!r}")
    raise ValueError(f"undeclared prefix {name!r}")


def _literal(text: str, prefixes: dict) -> Literal:
    """The Literal of a quoted token, its ^^datatype read by `resolve`.
    Raises ValueError."""
    literal = _LITERAL_RE.fullmatch(text)
    if literal is None:
        raise ValueError(f"expected IRI, CURIE or literal, got {text!r}")
    datatype = XSD_STRING if literal[2] is None else resolve(literal[2], prefixes)
    return Literal(_ESCAPE_RE.sub(lambda e: _ESCAPES[e[1]], literal[1]), datatype)


def _namespaces(prefixes: dict) -> tuple:
    """(k, groups): k is the shortest namespace's length; a group holds the
    namespaces that share their first k characters as (length, {namespace:
    its smallest prefix name}) pairs, longest first. Only an IRI's group can
    prefix it, and its longest namespace that leaves a safe local wins."""
    k = min(map(len, prefixes.values()), default=0)
    groups = {}
    for name, ns in sorted(prefixes.items()):
        groups.setdefault(ns[:k], {}).setdefault(len(ns), {}).setdefault(ns, name)
    return k, {lead: sorted(g.items(), reverse=True) for lead, g in groups.items()}


def _render(t: Term, namespaces: tuple) -> str:
    """A term's text, with IRIs compacted against `_namespaces` when safe."""
    if isinstance(t, Iri):
        v = t.value
        k, groups = namespaces
        for length, names in groups.get(v[:k], ()):
            name = names.get(v[:length])
            if name is not None:
                local = v[length:]
                if not local or (_SAFE_LOCAL_RE.match(local) and not local.endswith(".")):
                    return f"{name}:{local}"
        return f"<{v}>"
    lex = t.lexical.translate(_ESCAPED) if _TO_ESCAPE_RE.search(t.lexical) else t.lexical
    if t.datatype is XSD_STRING:
        return f'"{lex}"'
    return f'"{lex}"^^{_render(t.datatype, namespaces)}'


def serialize_document(triples: Iterable[Triple], prefixes: Optional[dict] = None) -> str:
    """Canonical NDL-Lite text of distinct triples under a prefix map (by
    default a Model's own): sorted prefixes, then sorted compacted triples.

    parse_document(serialize_document(m)) reproduces m exactly; serializing
    again yields identical bytes.
    """
    prefixes = triples.prefixes if prefixes is None else prefixes
    lines = [f"@prefix {name}: <{iri}> ." for name, iri in sorted(prefixes.items())]
    # each distinct term is rendered once. No subject or predicate text holds
    # a character at or below a space, so lines sort as their term texts do.
    namespaces = _namespaces(prefixes)
    text = {term: _render(term, namespaces) for term in set(chain.from_iterable(triples))}
    lines += sorted(f"{text[s]} {text[p]} {text[o]} ." for s, p, o in triples)
    return "\n".join(lines) + ("\n" if lines else "")


def merge(models: Sequence[Model]) -> Model:
    """Union of triple sets. Prefix conflicts: the later model wins, with a warning.

    The result starts as a copy of the first model."""
    if not models:
        return Model()
    out = models[0].copy()
    for m in models[1:]:
        for name, iri in m.prefixes.items():
            old = out.prefixes.get(name)
            if old is not None and old != iri:
                import logging  # on a conflict only: the package import leaves it out

                logging.getLogger(__name__).warning("prefix %r redefined: %s -> %s", name, old, iri)
            out.prefixes[name] = iri
        out.add_all(m)
    return out


# -- entailment ---------------------------------------------------------------

# Fixed profile: subclass transitivity, type propagation via subclass,
# subproperty transitivity and propagation, inverse-property symmetry,
# domain/range typing. Only ever adds triples.
# The schema relations: their triples with IRI objects state the axioms the rules read.
_SCHEMA_RELATIONS = frozenset(
    (RDFS_SUBCLASS_OF, RDFS_SUBPROPERTY_OF, RDFS_DOMAIN, RDFS_RANGE, OWL_INVERSE_OF)
)


def _rules(triples: Iterable[Triple]) -> tuple:
    """(tables, below, names, memo) for `m.derived`: tables[r][x] lists
    x's superclasses or super-properties (transitively), or domains,
    ranges or inverses (both ways; owl:inverseOf is its own); below, see
    `_grow`; names, the properties a table keys; memo, their `_consequences`."""
    tables = {r: {} for r in _SCHEMA_RELATIONS}
    tables[OWL_INVERSE_OF][OWL_INVERSE_OF] = {OWL_INVERSE_OF: None}
    below = {RDFS_SUBCLASS_OF: {}, RDFS_SUBPROPERTY_OF: {}}  # one per transitive relation
    _grow(tables, below, (t for t in triples if t[1] in tables and t[2].__class__ is Iri))
    names = {x for r in _SCHEMA_RELATIONS if r is not RDFS_SUBCLASS_OF for x in tables[r]}
    return tables, below, names, ({}, {})


def _grow(tables: dict, below: dict, support: Iterable[tuple]) -> dict:
    """Adds the schema triples (s, r, o) of support to the tables in place,
    keeping a transitive row closed: s and below[r][s], the nodes whose rows
    hold s, gain o and o's row. Returns what each (r, node) row gained."""
    grown = {}
    for s, r, o in support:
        if r in below:
            rows = dict.fromkeys((s, *below[r].get(s, ())), {o: None, **tables[r].get(o, {})})
        else:  # owl:inverseOf holds both ways
            rows = {s: (o,), o: (s,)} if r is OWL_INVERSE_OF else {s: (o,)}
        for x, gain in rows.items():
            row = tables[r].setdefault(x, {})
            for a in [a for a in gain if a not in row]:
                row[a] = None
                grown.setdefault((r, x), []).append(a)
                if r in below:
                    below[r].setdefault(a, {})[x] = None
    return grown


def _consequences(tables: dict, memo: tuple, p: Iri, iri: bool) -> tuple:
    """(forward, backward, subject classes, object classes): a triple (s, p,
    o), o an IRI or not, entails (s, q, o) for each forward q but p, (o, q,
    s) for each backward q, and types s and o by their classes (dicts),
    superclasses included. Kept in memo; p is a name the tables key."""
    super_props, inverses = tables[RDFS_SUBPROPERTY_OF], tables[OWL_INVERSE_OF]
    sides = ({p: None}, {})
    # (side, q, whole): q holds on side 0 (s, q, o) or 1 (o, q, s); a q
    # reached as a super-property has its own super-properties there already
    todo = [(0, p, True)]
    for side, q, whole in todo:  # grows as it runs
        for r in super_props.get(q, ()) if whole else ():
            if r not in sides[side]:
                sides[side][r] = None
                todo.append((side, r, False))
        for r in inverses.get(q, ()) if iri else ():
            if r not in sides[1 - side]:
                sides[1 - side][r] = None
                todo.append((1 - side, r, True))
    supers, domains, ranges = tables[RDFS_SUBCLASS_OF], tables[RDFS_DOMAIN], tables[RDFS_RANGE]
    classes = ({}, {})  # of s, of o
    for side, q, _ in todo:
        for node, table in ((side, domains), (1 - side, ranges))[: 1 + iri]:
            for c in table.get(q, ()):
                classes[node].update(dict.fromkeys((c, *supers.get(c, ()))))
    return memo[iri].setdefault(p, ({q: None for q in sides[0] if q is not p}, sides[1], *classes))


def entail(m: Model, budget: int = 1_000_000, closed: Optional[Model] = None, *, in_place=False) -> Model:
    """Closure of m under the fixed entailment profile: the stated triples
    in their order (`closed`'s first), then the derived ones.

    Monotone (result contains m) and idempotent. Raises
    ClosureBudgetExceeded as soon as more than `budget` new triples get
    derived. With `closed`, a model that is already a closure, the result
    is the closure of merge([closed, m]), from a copy of `closed` (which
    shares its index dicts when `closed` is frozen). In place (only for
    `vocab.read_closed`), from m itself: a copy of the frozen `closed` that
    documents were read into.

    Each triple closes on its own by looking up rule tables (`_rules`;
    Urbani et al., ISWC 2009), so the closure costs what it derives. A
    schema triple the tables lack waits for the end of its round; then the
    tables grow in place (`_grow`, on a copy of those `closed` keeps), and
    what read a grown row closes again. The cyclic collector is off
    meanwhile: it would traverse the growing triples again and again.
    """
    owned = closed is None  # the rule tables; closed keeps its own
    if in_place and (owned or m._base is not closed):
        raise ValueError("entail in place needs m to be a copy of the frozen closed model")
    out = m if in_place else m.copy() if owned else merge([closed, m])
    tables, below, names, memo = _rules(()) if owned else closed.derived(_rules)
    agenda = list(islice(out, 0 if owned else len(closed), None))
    known, new, support, room = out._triples, {}, [], budget  # room: what new may hold

    def derive(triples: Iterable[tuple], push: bool) -> None:  # onto the next agenda if push
        for t in triples:
            if t in known or t in new:
                continue
            t = _new(Triple, t)
            new[t] = None
            if len(new) > room:
                raise ClosureBudgetExceeded(budget + 1, budget)
            s, q, o = t
            if q in tables and o.__class__ is Iri and o not in tables[q].get(s, ()):
                support.append(t)
            elif push:
                pushed.append(t)

    collecting = gc.isenabled()
    gc.disable()
    try:
        pushed = agenda  # a derived triple is pushed only when what derived it did not close it too
        while pushed:
            # typed: node -> classes to type it by; pending: at most how many
            agenda, pushed, typed, pending = pushed, [], {}, 0
            for s, p, o in agenda:
                iri = o.__class__ is Iri
                if iri and p is RDF_TYPE:
                    row = tables[RDFS_SUBCLASS_OF].get(o)
                    if row:
                        typed.setdefault(s, {}).update(row)
                        pending += len(row)
                elif iri and p in tables and o not in tables[p].get(s, ()):
                    support.append((s, p, o))  # stated schema the tables lack
                    continue
                if p in names:
                    forward, backward, of_s, of_o = memo[iri].get(p) or _consequences(tables, memo, p, iri)
                    if forward:
                        derive(((s, q, o) for q in forward), iri and RDF_TYPE in forward)
                    if backward:
                        derive(((o, q, s) for q in backward), RDF_TYPE in backward)
                    if of_s:
                        typed.setdefault(s, {}).update(of_s)
                        pending += len(of_s)
                    if of_o:
                        typed.setdefault(o, {}).update(of_o)
                        pending += len(of_o)
                if pending > room:  # typed stays within the budget
                    derive(((x, RDF_TYPE, c) for x, cs in typed.items() for c in cs), RDF_TYPE in names)
                    typed, pending = {}, 0
            derive(((x, RDF_TYPE, c) for x, cs in typed.items() for c in cs), RDF_TYPE in names)
            if support:
                room -= out.add_all(new)  # the readers of a grown row are found in out
                new.clear()
                if not owned:
                    tables, below, names, owned = _copied(tables), _copied(below), set(names), True
                grown = _grow(tables, below, support)
                names.update(props := dict.fromkeys(x for r, x in grown if r is not RDFS_SUBCLASS_OF))
                memo, pushed = ({}, {}), pushed + support
                support.clear()
                for (r, x), gained in grown.items():
                    if r in below:
                        derive(((x, r, a) for a in gained), r in names)
                    if r is RDFS_SUBCLASS_OF:  # x's instances take what it gained
                        ys = out._pos.get(RDF_TYPE, {}).get(x, ())
                        derive(((y, RDF_TYPE, a) for y in ys for a in gained), RDF_TYPE in names)
                for x in props:  # what reads a grown row of x closes again
                    pushed += out.match(None, x)
        derived = list(new)
        new.clear()  # not held while the indexes grow
        out.add_all(derived)
        return out
    finally:
        if collecting:
            gc.enable()


# -- basic graph patterns ------------------------------------------------------

ROW_BUDGET = 200_000  # rows a rule or query join may match: no cross product runs


class EvaluationBudgetExceeded(Exception):
    """A pattern join matched more rows than its budget allows."""

    def __init__(self, rows: int, cap: int):
        super().__init__(f"rule join produced {rows} rows (cap {cap})")
        self.rows, self.cap = rows, cap


def query_bgp(
    m: Model, patterns: Sequence, filters: Sequence = (), budget: int = ROW_BUDGET
) -> list:
    """Every binding of the variables under which each (s, p, o) tuple of
    terms and Vars is a triple of m and each (left, right, negated) filter
    holds (left == right, or != when negated), as a dict from name to term,
    deduplicated and sorted by the terms in name order. Rules and
    `netslice query --bgp` both run on it.

    The pattern with the most bound positions goes next, ties in written
    order (selectivity-ordered BGP joins, Stocker et al., WWW 2008), and a
    filter applies as soon as its variables are bound. Raises ValueError on
    a malformed pattern list or a filter variable no pattern binds, and
    EvaluationBudgetExceeded past `budget` matched rows."""
    steps, names = _join_plan(tuple(patterns), tuple(filters))
    spo, pos, known = m._spo, m._pos, m._triples
    rows: list = [{}]
    produced = 0
    for ((sn, sc), (pn, pc), (on, oc)), walk, fresh, same, checks in steps:
        if not rows:
            break  # no row is left to extend
        next_rows = []
        for row in rows:
            s, p, o = row.get(sn, sc), row.get(pn, pc), row.get(on, oc)
            if isinstance(s, Literal) or isinstance(p, Literal):
                continue  # literals never occupy subject or predicate
            if not fresh:  # a ground pattern: the row passes on, uncopied, if m holds it
                matched = [row] if (s, p, o) in known else []
            elif walk:  # the free end's terms are one SPO or POS leaf
                name = fresh[0][1]
                leaf = spo.get(s, {}).get(p, ()) if walk == "o" else pos.get(p, {}).get(o, ())
                matched = [{**row, name: v} for v in leaf]
            else:  # a variable repeated within the pattern binds one term
                found = (t for t in m.match(s, p, o) if all(t[a] is t[b] for a, b in same))
                matched = [{**row, **{name: t[k] for k, name in fresh}} for t in found]
            produced += len(matched)
            if produced > budget:
                raise EvaluationBudgetExceeded(budget + 1, budget)
            if checks:  # interned terms are equal exactly when identical
                matched = [r for r in matched if all((r.get(*a) is r.get(*b)) != n for a, b, n in checks)]
            next_rows += matched
        rows = next_rows
    unique = {tuple(term_key(row[name]) for name in names): row for row in rows}
    return [unique[key] for key in sorted(unique)]


@lru_cache(maxsize=256)
def _join_plan(patterns: tuple, filters: tuple) -> tuple:
    """The join's steps and the sorted variable names. A step reads each of
    its pattern's positions, and its filters' sides, as row.get(name, term):
    a variable by its name, a constant (name None) as the term. With no
    `fresh` variable it tests that m holds its triple; else it binds one at
    `walk`, its only free position ("s" or "o"), to each term of an index
    leaf, or the `fresh` ones at their first positions in `Model.match`
    triples whose `same` pairs of positions hold one term; then it tests
    the filters whose variables it completes."""
    if not patterns or any(len(pattern) != 3 for pattern in patterns):
        raise ValueError(f"expected one or more (s, p, o) patterns, got {patterns!r}")
    left, pending, bound, steps = list(patterns), list(filters), set(), []

    def ground(x) -> bool:
        return not isinstance(x, Var) or x.name in bound

    def lookup(x) -> tuple:
        return (x.name, None) if isinstance(x, Var) else (None, x)

    while left:
        pattern = left.pop(max(range(len(left)), key=lambda k: sum(map(ground, left[k]))))
        fresh, same = {}, []
        for k, x in enumerate(pattern):
            if not ground(x) and x.name in fresh:
                same.append((fresh[x.name], k))
            elif not ground(x):
                fresh[x.name] = k
        walk = None if same or len(fresh) != 1 else {0: "s", 2: "o"}.get(*fresh.values())
        bound.update(fresh)
        ready = [f for f in pending if ground(f[0]) and ground(f[1])]
        pending = [f for f in pending if f not in ready]
        checks = tuple((lookup(a), lookup(b), negated) for a, b, negated in ready)
        fresh = tuple((k, name) for name, k in fresh.items())
        steps.append((tuple(map(lookup, pattern)), walk, fresh, same, checks))
    if pending:
        raise ValueError(f"filter variable bound by no pattern: {pending[0]!r}")
    return tuple(steps), sorted(bound)
