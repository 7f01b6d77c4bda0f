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

import re
import weakref
from collections import deque
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
    """Integer of an xsd:integer literal, else None."""
    if isinstance(t, Literal) and t.datatype == XSD_INTEGER:
        try:
            return int(t.lexical)
        except ValueError:
            return None
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
        if s is not None and p is not None and o is not None:
            t = _new(Triple, (s, p, o))
            if t in self._triples:
                yield t
            return
        if s is not None and p is not None:
            for obj in self._spo.get(s, {}).get(p, ()):
                yield _new(Triple, (s, p, obj))
        elif p is not None and o is not None:
            for subj in self._pos.get(p, {}).get(o, ()):
                yield _new(Triple, (subj, p, o))
        elif s is not None and o is not None:
            for pred, objs in self._spo.get(s, {}).items():
                if o in objs:
                    yield _new(Triple, (s, pred, o))
        elif s is not None:
            for pred, objs in self._spo.get(s, {}).items():
                for obj in objs:
                    yield _new(Triple, (s, pred, obj))
        elif p is not None:
            for obj, subjs in self._pos.get(p, {}).items():
                for subj in subjs:
                    yield _new(Triple, (subj, p, obj))
        elif o is not None:
            for pred, by_object in self._pos.items():
                for subj in by_object.get(o, ()):
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
            m._spo, m._pos = (
                {a: {b: dict(c) for b, c in bs.items()} for a, bs in index.items()}
                for index in (self._spo, self._pos)
            )
        return m


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

# One NDL-Lite line, blank or holding an @prefix declaration or an "S P O ."
# statement, and then at most a comment. Whitespace is space, tab or CR. A
# term is an <iri>, a prefix:local CURIE or, as an object only, a quoted
# literal with an optional ^^datatype. An IRI or a literal ends where it
# closes, so the next token may follow at once; a CURIE runs to the next
# whitespace; a dot ends a statement only before whitespace, '#' or the end.
_CURIE = rf"(?:{_PREFIX_NAME})?:[^ \t\r]*(?![^ \t\r])"
_TERM = rf"<[^>]*>|{_CURIE}"
_LINE_RE = re.compile(
    rf"""(?:[ \t\r]*
        (?:@prefix[ \t\r]+({_PREFIX_NAME}|):[ \t\r]+<([^>]*)>
          | ({_TERM})[ \t\r]*({_TERM})[ \t\r]*
            ({_TERM}|"((?:[^"\\]|\\[\\"ntr])*)"(?:\^\^({_TERM}))?)
        )[ \t\r]*\.
    )?[ \t\r]*(?:\#.*)?""",
    re.VERBOSE,
)
_ESCAPE_RE = re.compile(r"\\(.)")
_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}
# The writer's side of _ESCAPES: the characters it reads back, as escapes.
_ESCAPED = str.maketrans({raw: "\\" + code for code, raw in _ESCAPES.items()})
_TO_ESCAPE_RE = re.compile(f"[{re.escape(''.join(_ESCAPES.values()))}]")


def parse_document(text: str) -> Model:
    """Parse an NDL-Lite document into a Model.

    Each line is accepted by one pattern, and each distinct term token is
    resolved once per prefix map. Raises ParseError with line/column on
    malformed lines, undeclared prefixes, a literal in subject or predicate
    position, or a malformed IRI (empty, or holding a character an IRI may
    not hold) written as a term or a datatype, directly or as a CURIE.
    """
    m = Model()
    prefixes = m.prefixes
    terms: dict = {}  # token -> term under the current prefix map
    triples = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        match = _LINE_RE.fullmatch(line)
        if match is None:
            _explain(line, lineno, prefixes)
        name, namespace, s, p, o, lexical, datatype = match.groups()
        if s is None:
            if namespace is not None:
                prefixes[name] = namespace
                terms.clear()
            continue
        at = match.start  # a fault's column is its term's, the literal's for a datatype
        subject = terms.get(s) or terms.setdefault(s, _iri(s, prefixes, lineno, at(3) + 1))
        predicate = terms.get(p) or terms.setdefault(p, _iri(p, prefixes, lineno, at(4) + 1))
        obj = terms.get(o)
        if obj is None:
            if lexical is None:
                obj = _iri(o, prefixes, lineno, at(5) + 1)
            else:
                if "\\" in lexical:
                    lexical = _ESCAPE_RE.sub(lambda e: _ESCAPES[e[1]], lexical)
                dt = XSD_STRING if datatype is None else _iri(datatype, prefixes, lineno, at(5) + 1)
                obj = Literal(lexical, dt)
            terms[o] = obj
        triples.append(_new(Triple, (subject, predicate, obj)))
    m.add_all(triples)
    return m


def _explain(line: str, lineno: int, prefixes: dict):
    """Raise a ParseError naming the first fault in a line that the line
    pattern rejects, found by lexing it token by token."""
    tokens = lex(line, ".", lineno)
    kinds = [token.kind for token in tokens]
    if kinds[0] == "word" and tokens[0].value == "@prefix":
        if kinds != ["word", "word", "iri", "mark"] or not tokens[1].value.endswith(":"):
            raise ParseError(lineno, tokens[0].col, "malformed @prefix declaration")
        name = tokens[1].value[:-1]
        if not _PREFIX_NAME_RE.match(name):
            raise ParseError(lineno, tokens[1].col, f"bad prefix name {name!r}")
    elif len(tokens) != 4 or kinds[3] != "mark":
        reason = "expected 'S P O .' (terms and terminating dot separated by spaces)"
        raise ParseError(lineno, tokens[-1].col, reason)
    else:
        for pos, token in enumerate(tokens[:3]):
            if token.kind == "mark":
                raise ParseError(lineno, token.col, "unexpected 'dot' token")
            if token.kind == "literal" and pos < 2:
                where = "subject" if pos == 0 else "predicate"
                raise ParseError(lineno, token.col, f"literal not allowed in {where} position")
            text = (token.datatype or "") if token.kind == "literal" else token.text
            if text:
                _iri(text, prefixes, lineno, token.col)
    raise AssertionError(f"line {lineno}: the lexer accepts what the line pattern rejects")


def _iri(text: str, prefixes: dict, lineno: int, col: int) -> Iri:
    """The IRI of an <iri> or CURIE, or a ParseError naming its fault at a
    line and column."""
    name, colon, local = text.partition(":")
    if text.startswith("<"):
        value = text[1:-1]
    elif not colon:
        raise ParseError(lineno, col, f"expected IRI, CURIE or literal, got {text!r}")
    elif name not in prefixes:
        raise ParseError(lineno, col, f"undeclared prefix {name!r}")
    else:
        value = prefixes[name] + local
    try:
        return Iri(value)
    except ValueError as e:
        raise ParseError(lineno, col, str(e)) from None


# -- terms: one grammar for documents, rules, BGPs, paths and scenarios -------


class Token(NamedTuple):
    """A term or punctuation mark that `lex` read, at its 1-based line and
    column. `kind` is "iri", "literal", "var", "word" or "mark"; `value` is
    the IRI, the lexical form (escapes read), the variable's name or the
    text; `datatype` is the text of a literal's ^^ term, <iri> or word."""

    kind: str
    value: str
    line: int
    col: int
    text: str
    datatype: Optional[str] = None


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
            datatype = None
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
                    datatype = row[start:j]
            else:
                j = word_re.match(row, i).end()
                var = _VAR_RE.fullmatch(row, i, j)
                kind, value = ("var", var[1]) if var else ("word", row[i:j])
            tokens.append(Token(kind, value, lineno, i + 1, row[i:j], datatype))
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
    """The Var, Iri (words read by `resolve`) or Literal a token writes.
    Raises ValueError for a mark or a word that does not resolve."""
    if token.kind == "var":
        return Var(token.value)
    if token.kind == "iri":
        return Iri(token.value)
    if token.kind == "word":
        return resolve(token.value, prefixes)
    if token.kind == "literal":
        datatype = XSD_STRING if token.datatype is None else resolve(token.datatype, prefixes)
        return Literal(token.value, datatype)
    raise ValueError(f"expected a term, got {token.text!r}")


def resolve(text: str, prefixes: dict) -> Iri:
    """Resolve ``<iri>``, ``prefix:local`` or a bare absolute IRI against a
    prefix map. Raises ValueError; callers map it to their own error type."""
    if text.startswith("<") and text.endswith(">"):
        return Iri(text[1:-1])
    if ":" in text:
        name, local = text.split(":", 1)
        if name in prefixes:
            return Iri(prefixes[name] + local)
        if "://" in text or text.startswith("urn:"):
            return Iri(text)
    raise ValueError(f"cannot resolve {text!r}: unknown prefix")


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
# domain/range typing. Applied to fixpoint; only ever adds triples.

# The schema relations: their triples state the axioms the rules read.
_SCHEMA_RELATIONS = frozenset(
    (RDFS_SUBCLASS_OF, RDFS_SUBPROPERTY_OF, RDFS_DOMAIN, RDFS_RANGE, OWL_INVERSE_OF)
)
# The placeholders of a one-triple probe (`_one_pass`): subject, IRI object, literal object.
_S, _O, _L = Iri("urn:netslice:probe#s"), Iri("urn:netslice:probe#o"), Literal("probe#l")


def _iri_objects(m: Model, x: Term, relation: Iri) -> tuple:
    """The IRI objects of (x, relation, ·) in m, sorted; an empty index leaf
    is not sorted."""
    leaf = m._spo.get(x, {}).get(relation)
    return tuple(o for o in sorted(leaf, key=term_key) if isinstance(o, Iri)) if leaf else ()


def _schema_lookups(m: Model) -> tuple:
    """What `_one_pass` reads of a closed base, for `m.derived`: the names
    of m's subjects and predicates, the only keys `_compile`'s memo takes,
    and that memo."""
    return {*m._spo, *m._pos}, {}


def _compile(closed: Model, memo: dict, key) -> Optional[tuple]:
    """memo[key]: what the fixpoint derives in closed from the probe of `key`
    (see `_one_pass`) as _S's classes, _O's and the other triples, or None
    if one is schema or types a node by a placeholder. It is None while the
    fixpoint runs, so that the probe itself does not take the one pass; the
    probe's budget is fixed, so that no caller's budget can leave it None."""
    memo[key] = None
    probe = Model()
    probe.add(_new(Triple, (_S, RDF_TYPE, key) if isinstance(key, Iri) else (_S, key[0], key[1])))
    found = ({}, {}, [])
    for s, p, o in islice(entail(probe, 1_000_000, closed), len(closed) + 1, None):
        if p in _SCHEMA_RELATIONS or (p is RDF_TYPE and o in (_S, _O, _L)):
            return None
        if p is RDF_TYPE and s in (_S, _O):
            found[s is _O][o] = None
        else:
            found[2].append((s, p, o))
    memo[key] = found
    return found


def _one_pass(closed: Model, fresh: Iterable, known: dict) -> Optional[dict]:
    """What closing `fresh`, instance triples outside closed, adds to the
    `known` triples, or None if one needs the fixpoint. The probe of (s,
    rdf:type, c) for a class c that closed names is (_S, rdf:type, c), else
    (_S, p, _O) or (_S, p, _L). A triple is built only when it is new."""
    names, memo = closed.derived(_schema_lookups)
    classes, new = {}, {}  # node -> {class: None}; the new triples
    for s, p, o in fresh:
        if p in _SCHEMA_RELATIONS:
            return None
        if p is RDF_TYPE and o in names:  # a class closed names
            key = o
        elif p in names:
            key = (p, _O if isinstance(o, Iri) else _L)
        else:
            continue  # closed holds no rule for p
        found = memo[key] if key in memo else _compile(closed, memo, key)
        if found is None:
            return None
        of_s, of_o, triples = found
        if of_s:
            classes.setdefault(s, {}).update(of_s)
        if of_o:
            classes.setdefault(o, {}).update(of_o)
        if triples:
            get = {_S: s, _O: o, _L: o}.get
            for a, q, b in triples:
                if (t := (get(a, a), q, get(b, b))) not in known:
                    new[_new(Triple, t)] = None
    for node, of_node in classes.items():
        for c in of_node:
            if (node, RDF_TYPE, c) not in known:
                new[_new(Triple, (node, RDF_TYPE, c))] = None
    return new


def entail(m: Model, budget: int = 1_000_000, closed: Optional[Model] = None) -> Model:
    """Fixpoint closure of m under the fixed entailment profile.

    Monotone (result contains m) and idempotent. Raises
    ClosureBudgetExceeded when more than `budget` new triples get derived.
    With `closed`, a model that is already a fixpoint, the result is the
    closure of merge([closed, m]), from a copy of `closed` (which shares its
    index dicts when `closed` is frozen). Each rule joins one instance
    triple with schema, so each of m's triples outside `closed` closes on
    its own (Urbani et al., ISWC 2009), in one pass: it takes what the
    fixpoint derived from a one-triple probe, kept per state of `closed`.
    The fixpoint runs instead when there is no `closed`, when m states a
    schema triple (subclass, sub-property, domain, range, inverse) that
    `closed` lacks, or when a probe derives one or types a node by a
    placeholder. Each of its rules reads its schema targets from the index
    when it fires: a predicate's sub-properties first, then its domains,
    ranges and inverses as those emissions left them.
    """
    if closed is None:
        out = m.copy()
        agenda = deque(out)
    else:
        out = merge([closed, m])
        agenda = deque(t for t in m if t not in closed)
        if (new := _one_pass(closed, agenda, out._triples)) is not None:
            if len(new) > budget:
                raise ClosureBudgetExceeded(budget + 1, budget)
            out.add_all(new)
            return out
    known = out._triples
    derived = 0

    def emit(s: Iri, p: Iri, o: Term) -> None:
        nonlocal derived
        if (s, p, o) in known:
            return
        t = _new(Triple, (s, p, o))
        out.add(t)
        derived += 1
        if derived > budget:
            raise ClosureBudgetExceeded(derived, budget)
        agenda.append(t)

    while agenda:
        t = agenda.popleft()
        s, p, o = t
        if p == RDFS_SUBCLASS_OF and isinstance(o, Iri):
            for sup in _iri_objects(out, o, RDFS_SUBCLASS_OF):
                emit(s, RDFS_SUBCLASS_OF, sup)
            for sub in out.subjects(RDFS_SUBCLASS_OF, s):
                emit(sub, RDFS_SUBCLASS_OF, o)
            for inst in out.subjects(RDF_TYPE, s):
                emit(inst, RDF_TYPE, o)
        elif p == RDF_TYPE and isinstance(o, Iri):
            for sup in _iri_objects(out, o, RDFS_SUBCLASS_OF):
                emit(s, RDF_TYPE, sup)
        elif p == RDFS_SUBPROPERTY_OF and isinstance(o, Iri):
            for sup in _iri_objects(out, o, RDFS_SUBPROPERTY_OF):
                emit(s, RDFS_SUBPROPERTY_OF, sup)
            for sub in out.subjects(RDFS_SUBPROPERTY_OF, s):
                emit(sub, RDFS_SUBPROPERTY_OF, o)
            for inst in list(out.match(p=s)):
                emit(inst.subject, o, inst.object)
        elif p == RDFS_DOMAIN and isinstance(o, Iri):
            for inst in list(out.match(p=s)):
                emit(inst.subject, RDF_TYPE, o)
        elif p == RDFS_RANGE and isinstance(o, Iri):
            for inst in list(out.match(p=s)):
                if isinstance(inst.object, Iri):
                    emit(inst.object, RDF_TYPE, o)
        elif p == OWL_INVERSE_OF and isinstance(o, Iri):
            emit(o, OWL_INVERSE_OF, s)
            for inst in list(out.match(p=s)):
                if isinstance(inst.object, Iri):
                    emit(inst.object, o, inst.subject)
        # Property-driven rules for the triple itself (covers instance
        # triples arriving after their schema declarations).
        for sup in _iri_objects(out, p, RDFS_SUBPROPERTY_OF):
            emit(s, sup, o)
        for cls in _iri_objects(out, p, RDFS_DOMAIN):
            emit(s, RDF_TYPE, cls)
        if isinstance(o, Iri):
            for cls in _iri_objects(out, p, RDFS_RANGE):
                emit(o, RDF_TYPE, cls)
            for inv in _iri_objects(out, p, OWL_INVERSE_OF):
                emit(o, inv, s)
    return out


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
    spo, pos = m._spo, m._pos
    rows: list = [{}]
    produced = 0
    for ((sn, sc), (pn, pc), (on, oc)), walk, fresh, same, checks in steps:
        next_rows = []
        for row in rows:
            s, p, o = row.get(sn, sc), row.get(pn, pc), row.get(on, oc)
            if isinstance(s, Literal) or isinstance(p, Literal):
                continue  # literals never occupy subject or predicate
            if walk:  # the free end's terms are one SPO or POS leaf
                found = zip(spo.get(s, {}).get(p, ()) if walk == "o" else pos.get(p, {}).get(o, ()))
            else:
                found = m.match(s, p, o)
            for t in found:
                if same and any(t[a] is not t[b] for a, b in same):
                    continue  # a variable repeated within the pattern
                produced += 1
                if produced > budget:
                    raise EvaluationBudgetExceeded(produced, budget)
                new = dict(row)
                for k, name in fresh:
                    new[name] = t[k]
                # interned terms are equal exactly when identical
                if all((new.get(*a) is new.get(*b)) != negated for a, b, negated in checks):
                    next_rows.append(new)
        rows = next_rows
    unique = {tuple(term_key(row[name]) for name in names): row for row in rows}
    return [unique[key] for key in sorted(unique)]


@lru_cache(maxsize=256)
def _join_plan(patterns: tuple, filters: tuple) -> tuple:
    """The join's steps and the sorted variable names. A step reads each of
    its pattern's positions, and its filters' sides, as row.get(name, term):
    a variable by its name, a constant (name None) as the term. It matches
    1-tuples of the terms at `walk`, its only free position ("s" or "o"),
    or else `Model.match` triples; binds the `fresh` variables at their
    first positions in those, requires the `same` pairs of positions to
    hold one term, then tests the filters whose variables it completes."""
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
        fresh = tuple((0 if walk else k, name) for name, k in fresh.items())
        steps.append((tuple(map(lookup, pattern)), walk, fresh, same, checks))
    if pending:
        raise ValueError(f"filter variable bound by no pattern: {pending[0]!r}")
    return tuple(steps), sorted(bound)
