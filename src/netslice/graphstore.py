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

import logging
import re
import weakref
from collections import deque
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

log = logging.getLogger(__name__)

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
OWL_NS = "http://www.w3.org/2002/07/owl#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"

_WS_RE = re.compile(r"\s")
# Locals that survive a CURIE round trip without quoting.
_SAFE_LOCAL_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_/.-]*$")
_PREFIX_NAME = r"[A-Za-z][A-Za-z0-9_.-]*"
_PREFIX_NAME_RE = re.compile(rf"^{_PREFIX_NAME}$|^$")


def _immutable(term, name, *value):
    raise AttributeError(f"cannot change {name!r} of an interned term")


class Iri:
    """An absolute IRI, interned: one live instance per value, so equality
    and hashing are identity. Validated once, when the value is first seen."""

    __slots__ = ("value", "__weakref__")

    def __new__(cls, value: str) -> "Iri":
        self = _IRIS.get(value)
        if self is None:
            if not value:
                raise ValueError("empty IRI")
            if _WS_RE.search(value):
                raise ValueError(f"IRI contains whitespace: {value!r}")
            self = _IRIS[value] = object.__new__(cls)
            object.__setattr__(self, "value", value)
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


# Weak, so that a long-lived process keeps only the terms its models still hold.
_IRIS: "weakref.WeakValueDictionary[str, Iri]" = weakref.WeakValueDictionary()
_LITERALS: "weakref.WeakValueDictionary[tuple, Literal]" = weakref.WeakValueDictionary()

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
        self = _LITERALS.get(key)
        if self is None:
            self = _LITERALS[key] = object.__new__(cls)
            object.__setattr__(self, "lexical", lexical)
            object.__setattr__(self, "datatype", datatype)
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

    def declare(self, name: str, iri: str) -> None:
        self.prefixes[name] = iri

    def freeze(self) -> "Model":
        """Make every later add or remove raise TypeError; returns the model."""
        self._frozen = True
        return self

    def add(self, t: Triple) -> bool:
        """Insert a triple. Returns False if it was already present."""
        if self._frozen:
            raise TypeError("cannot add to a frozen model")
        if t in self._triples:
            return False
        self._derived.clear()
        self._triples[t] = None
        s, p, o = t
        if self._base is None:
            self._spo.setdefault(s, {}).setdefault(p, {})[o] = None
            self._pos.setdefault(p, {}).setdefault(o, {})[s] = None
        else:
            _own(self._spo, self._base._spo, s, p)[o] = None
            _own(self._pos, self._base._pos, p, o)[s] = None
        return True

    def add_all(self, triples: Iterable[Triple]) -> int:
        return sum(1 for t in triples if self.add(t))

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
            t = Triple(s, p, o)
            if t in self._triples:
                yield t
            return
        if s is not None and p is not None:
            for obj in self._spo.get(s, {}).get(p, ()):
                yield Triple(s, p, obj)
        elif p is not None and o is not None:
            for subj in self._pos.get(p, {}).get(o, ()):
                yield Triple(subj, p, o)
        elif s is not None and o is not None:
            for pred, objs in self._spo.get(s, {}).items():
                if o in objs:
                    yield Triple(s, pred, o)
        elif s is not None:
            for pred, objs in self._spo.get(s, {}).items():
                for obj in objs:
                    yield Triple(s, pred, obj)
        elif p is not None:
            for obj, subjs in self._pos.get(p, {}).items():
                for subj in subjs:
                    yield Triple(subj, p, obj)
        elif o is not None:
            for pred, by_object in self._pos.items():
                for subj in by_object.get(o, ()):
                    yield Triple(subj, pred, o)
        else:
            yield from self._triples

    def objects(self, s: Iri, p: Iri) -> list:
        """Objects of (s, p, ·), sorted for determinism."""
        return sorted(self._spo.get(s, {}).get(p, ()), key=term_key)

    def value(self, s: Iri, p: Iri) -> Optional[Term]:
        objs = self.objects(s, p)
        return objs[0] if objs else None

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


def _iri_term(token: str, prefixes: dict) -> Iri:
    """The IRI of an <iri> or CURIE token. KeyError on an undeclared prefix,
    ValueError on a malformed IRI."""
    if token[0] == "<":
        return Iri(token[1:-1])
    name, local = token.split(":", 1)
    return Iri(prefixes[name] + local)


def parse_document(text: str) -> Model:
    """Parse an NDL-Lite document into a Model.

    Each line is accepted by one pattern, and each distinct term token is
    resolved once per prefix map. Raises ParseError with line/column on
    malformed lines, undeclared prefixes, or a literal in subject or
    predicate position, and ValueError when a declared namespace or a
    datatype makes an IRI malformed (empty or holding whitespace).
    """
    m = Model()
    prefixes = m.prefixes
    terms: dict = {}  # token -> term under the current prefix map
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
        try:
            subject = terms.get(s) or terms.setdefault(s, _iri_term(s, prefixes))
            predicate = terms.get(p) or terms.setdefault(p, _iri_term(p, prefixes))
            obj = terms.get(o)
            if obj is None:
                if lexical is None:
                    obj = _iri_term(o, prefixes)
                else:
                    if "\\" in lexical:
                        lexical = _ESCAPE_RE.sub(lambda e: _ESCAPES[e[1]], lexical)
                    dt = XSD_STRING if datatype is None else _iri_term(datatype, prefixes)
                    obj = Literal(lexical, dt)
                terms[o] = obj
        except (KeyError, ValueError):
            _explain(line, lineno, prefixes)
        m.add(Triple(subject, predicate, obj))
    return m


def _explain(line: str, lineno: int, prefixes: dict):
    """Raise the first fault in a line that the line pattern rejects or
    whose terms do not resolve, found by lexing it token by token: a
    ParseError naming it, or the ValueError of a malformed IRI built from a
    CURIE or written as a datatype."""
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
            _check_term(token, pos, prefixes)
    raise AssertionError(f"line {lineno}: the lexer accepts what the line pattern rejects")


def _check_term(token: "Token", pos: int, prefixes: dict) -> None:
    """Raise the fault of a statement's term at position pos, if it has one."""
    line, col, datatype = token.line, token.col, token.datatype or ""
    if token.kind == "iri":
        try:
            Iri(token.value)
        except ValueError as e:
            raise ParseError(line, col, str(e)) from None
    elif token.kind in ("word", "var"):
        _resolve_word(token.text, prefixes, line, col)
    elif token.kind == "mark":
        raise ParseError(line, col, "unexpected 'dot' token")
    elif pos < 2:
        where = "subject" if pos == 0 else "predicate"
        raise ParseError(line, col, f"literal not allowed in {where} position")
    elif datatype.startswith("<"):
        Iri(datatype[1:-1])
    elif datatype:
        _resolve_word(datatype, prefixes, line, col)


def _resolve_word(word: str, prefixes: dict, lineno: int, col: int) -> Iri:
    if ":" not in word:
        raise ParseError(lineno, col, f"expected IRI, CURIE or literal, got {word!r}")
    name, local = word.split(":", 1)
    if name not in prefixes:
        raise ParseError(lineno, col, f"undeclared prefix {name!r}")
    return Iri(prefixes[name] + local)


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


def render_term(t: Term, prefixes: dict) -> str:
    """Render a term, compacting IRIs against the prefix map when safe."""
    return _render(t, _namespaces(prefixes))


def _namespaces(prefixes: dict) -> list:
    """(length, {namespace: its smallest prefix name}) groups, longest
    first: the longest namespace that leaves a safe local part compacts an
    IRI, and at most one namespace of each length prefixes it."""
    groups = {}
    for name, ns in sorted(prefixes.items()):
        groups.setdefault(len(ns), {}).setdefault(ns, name)
    return sorted(groups.items(), key=lambda g: -g[0])


def _render(t: Term, namespaces: list) -> str:
    if isinstance(t, Iri):
        v = t.value
        for length, names in namespaces:
            name = names.get(v[:length])
            if name is not None:
                local = v[length:]
                if not local or (_SAFE_LOCAL_RE.match(local) and not local.endswith(".")):
                    return f"{name}:{local}"
        return f"<{v}>"
    lex = (
        t.lexical.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\r", "\\r")
        .replace("\t", "\\t")
    )
    if t.datatype == XSD_STRING:
        return f'"{lex}"'
    return f'"{lex}"^^{_render(t.datatype, namespaces)}'


def serialize_document(m: Model) -> str:
    """Canonical NDL-Lite text: sorted prefixes, then sorted compacted triples.

    parse_document(serialize_document(m)) reproduces m exactly; serializing
    again yields identical bytes.
    """
    prefixes = m.prefixes
    lines = [f"@prefix {name}: <{iri}> ." for name, iri in sorted(prefixes.items())]
    # each distinct term is rendered once
    namespaces = _namespaces(prefixes)
    text = {term: _render(term, namespaces) for term in {x for t in m for x in t}}
    rendered = sorted((text[s], text[p], text[o]) for s, p, o in m)
    lines.extend(f"{s} {p} {o} ." for s, p, o in rendered)
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
                log.warning("prefix %r redefined: %s -> %s", name, old, iri)
            out.prefixes[name] = iri
        out.add_all(m)
    return out


# -- entailment ---------------------------------------------------------------

# Fixed profile: subclass transitivity, type propagation via subclass,
# subproperty transitivity and propagation, inverse-property symmetry,
# domain/range typing. Applied to fixpoint; only ever adds triples.

# The schema relations whose targets drive the rules for a predicate.
_PROPERTY_RELATIONS = (RDFS_SUBPROPERTY_OF, RDFS_DOMAIN, RDFS_RANGE, OWL_INVERSE_OF)


def _iri_objects(m: Model, x: Term, relation: Iri) -> tuple:
    return tuple(o for o in m.objects(x, relation) if isinstance(o, Iri))


def _schema_lookups(m: Model) -> tuple:
    """The schema lookups of a closed base, for `m.derived`: the IRI
    superclasses and the rule targets of each of m's subjects and predicates."""
    names = {*m._spo, *m._pos}
    return (
        {x: _iri_objects(m, x, RDFS_SUBCLASS_OF) for x in names},
        {x: tuple(_iri_objects(m, x, r) for r in _PROPERTY_RELATIONS) for x in names},
    )


def entail(m: Model, budget: int = 1_000_000, closed: Optional[Model] = None) -> Model:
    """Fixpoint closure of m under the fixed entailment profile.

    Monotone (result contains m) and idempotent. Raises
    ClosureBudgetExceeded when more than `budget` new triples get derived.
    With `closed`, a model that is already a fixpoint, the result is the
    closure of merge([closed, m]): it starts from a copy of `closed` (which
    shares its index dicts when `closed` is frozen) and only m's triples
    outside it are processed, since every consequence drawn from `closed`
    alone is in it already. m may or may not contain `closed`.

    Schema lookups (each class's IRI superclasses, each predicate's IRI
    sub-property, domain, range and inverse targets) start empty, or as
    `closed`'s, derived once per state of it, less the IRIs that m's own
    triples add schema about; adding (x, relation, ·) drops x's entry.
    """
    if closed is None:
        out, supers, rules = m.copy(), {}, {}
        agenda = deque(out)
    else:
        out = merge([closed, m])
        agenda = deque(t for t in m if t not in closed)
        supers, rules = map(dict, closed.derived(_schema_lookups))
        for s, p, _ in agenda:
            if p in _PROPERTY_RELATIONS:
                rules.pop(s, None)
            elif p == RDFS_SUBCLASS_OF:
                supers.pop(s, None)
    known = out._triples
    derived = 0

    def superclasses(c: Iri) -> tuple:
        found = supers[c] = _iri_objects(out, c, RDFS_SUBCLASS_OF)
        return found

    def rule_of(p: Iri) -> tuple:
        found = rules[p] = tuple(_iri_objects(out, p, r) for r in _PROPERTY_RELATIONS)
        return found

    def emit(s: Iri, p: Iri, o: Term) -> None:
        nonlocal derived
        if (s, p, o) in known:
            return
        t = Triple(s, p, o)
        out.add(t)
        if p in _PROPERTY_RELATIONS:
            rules.pop(s, None)
        elif p == RDFS_SUBCLASS_OF:
            supers.pop(s, None)
        derived += 1
        if derived > budget:
            raise ClosureBudgetExceeded(derived, budget)
        agenda.append(t)

    while agenda:
        t = agenda.popleft()
        s, p, o = t
        if p == RDFS_SUBCLASS_OF and isinstance(o, Iri):
            for sup in supers[o] if o in supers else superclasses(o):
                emit(s, RDFS_SUBCLASS_OF, sup)
            for sub in out.subjects(RDFS_SUBCLASS_OF, s):
                emit(sub, RDFS_SUBCLASS_OF, o)
            for inst in out.subjects(RDF_TYPE, s):
                emit(inst, RDF_TYPE, o)
        elif p == RDF_TYPE and isinstance(o, Iri):
            for sup in supers[o] if o in supers else superclasses(o):
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
        sub_properties, domains, ranges, inverses = rules[p] if p in rules else rule_of(p)
        for sup in sub_properties:
            emit(s, sup, o)
        if p not in rules:
            # those emissions gave p new schema; the domain and range loops
            # below emit only rdf:type triples, which change no rule
            _, domains, ranges, inverses = rule_of(p)
        for cls in domains:
            emit(s, RDF_TYPE, cls)
        if isinstance(o, Iri):
            for cls in ranges:
                emit(o, RDF_TYPE, cls)
            for inv in inverses:
                emit(o, inv, s)
    return out


# -- basic graph patterns ------------------------------------------------------

ROW_BUDGET = 200_000  # rows a rule or query join may match: no cross product runs


class EvaluationBudgetExceeded(Exception):
    """A pattern join matched more rows than its budget allows."""

    def __init__(self, rows: int, cap: int):
        super().__init__(f"rule join produced {rows} rows (cap {cap})")


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
    rows: list = [{}]
    produced = 0
    for ((sn, sc), (pn, pc), (on, oc)), fresh, same, checks in steps:
        next_rows = []
        for row in rows:
            s, p, o = row.get(sn, sc), row.get(pn, pc), row.get(on, oc)
            if isinstance(s, Literal) or isinstance(p, Literal):
                continue  # literals never occupy subject or predicate
            for t in m.match(s, p, o):
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
    a variable by its name, a constant (name None) as the term. It binds
    the `fresh` variables at their first positions, requires the `same`
    pairs of positions to hold one term, then tests the filters whose
    variables it completes."""
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
        bound.update(fresh)
        ready = [f for f in pending if ground(f[0]) and ground(f[1])]
        pending = [f for f in pending if f not in ready]
        checks = tuple((lookup(a), lookup(b), negated) for a, b, negated in ready)
        fresh = tuple((k, name) for name, k in fresh.items())
        steps.append((tuple(map(lookup, pattern)), fresh, same, checks))
    if pending:
        raise ValueError(f"filter variable bound by no pattern: {pending[0]!r}")
    return tuple(steps), sorted(bound)
