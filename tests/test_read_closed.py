"""A document read straight into its closure (`vocab.read_closed`, and the
one-shot commands' reading) against the closure of its raw model: the same
triples in the same order, the same prefix map, the same refusals and the
same warnings. The raw model a caller holds stays as it was."""

import random

import pytest

from netslice import cli, graphstore
from netslice.embed import prepare_domain
from netslice.graphstore import RDF_NS, ClosureBudgetExceeded, ParseError, entail, parse_document, serialize_document
from netslice.models import parse_substrate
from netslice.vocab import TOPO_NS, close, entailed_schema, read_closed

from conftest import FIXTURES
from generators import federation_request, federation_substrate, random_schema_model

DOCUMENTS = sorted(FIXTURES.glob("*.ndl")) + sorted((FIXTURES / "golden").glob("*.ndl"))


_rng = random.Random(36)
SUBSTRATES = [(FIXTURES / f"{name}.ndl").read_text() for name in ("renci", "ring-a", "ring-b", "ring-c")] + [
    federation_substrate(f"d{i}", _rng.randint(1, 4), _rng.randint(1, 8), [f"d{i + 1}", f"d{i + 2}"])
    for i in range(4)
]
TEXTS = [path.read_text() for path in DOCUMENTS] + SUBSTRATES[4:]
TEXTS += [federation_request(f"r{i}", [(n, _rng.choice([None, "d0"])) for n in range(3)]) for i in range(2)]
# documents stating schema: the closure's rule tables grow while it runs
TEXTS += [serialize_document(random_schema_model(_rng)) for _ in range(4)]


def _listing(m) -> tuple:
    return list(m), list(m.prefixes.items())


def _outcome(read, text) -> tuple:
    """What reading text gives: its closure's listing, or the refusal."""
    try:
        return ("closed", _listing(read(text)))
    except ParseError as e:
        return ("ParseError", e.line, e.col, e.reason)
    except ClosureBudgetExceeded as e:
        return ("ClosureBudgetExceeded", e.derived, e.cap)


def _raw(text):
    return close(parse_document(text))


@pytest.mark.parametrize("index", range(len(TEXTS)))
def test_a_document_read_into_its_closure_lists_like_closing_its_raw_model(index):
    outcome = _outcome(read_closed, TEXTS[index])
    assert outcome == _outcome(_raw, TEXTS[index])
    assert outcome[0] == "closed"


def test_a_substrate_read_into_its_closure_prepares_like_its_raw_model():
    for text in SUBSTRATES:
        state, closed = prepare_domain(text), entail(parse_document(text), closed=entailed_schema())
        assert _listing(state.model) == _listing(closed)
        assert state.free == parse_substrate(closed).residual


@pytest.mark.parametrize(
    "text",
    [
        "@prefix ex: <urn:ex/> .\nex:a rdf:type ex:B .\n",  # rdf: is the T-box's, not the document's
        "@prefix ex: <urn:ex/> .\nex:a ex:p ex:b .\nex:a topo:hasInterface ex:i .\n",
        '@prefix ex: <urn:ex/> .\n"a" ex:p ex:b .\n',
        "@prefix ex: <urn:ex/> .\nex:a ex:p <urn:unclosed .\n",
        "@prefix ex <urn:ex/> .\n",
        "@prefix ex: <urn:ex/> .\nex:a ex:p ex:b\n",
        '@prefix ex: <urn:ex/> .\nex:a ex:p "x"^^ .\n',
        "@prefix ex: <urn:ex/> .\nex:a ex:p ex:b .\n@prefix ex: <urn:other/> .\nex:a . ex:b .\n",
    ],
)
def test_a_malformed_document_is_refused_alike(text):
    outcome = _outcome(read_closed, text)
    assert outcome == _outcome(_raw, text)
    assert outcome[0] == "ParseError"


def test_mutated_documents_are_read_or_refused_alike():
    rng = random.Random(7)
    for _ in range(150):
        text = rng.choice(TEXTS[: len(DOCUMENTS)])
        at = rng.randrange(len(text))
        text = text[:at] + rng.choice(['"', "<", ">", ":", " ", ".", "\\", "#", ""]) + text[at + 1 :]
        assert _outcome(read_closed, text) == _outcome(_raw, text)


def test_a_document_redefining_a_tbox_prefix_warns_alike(caplog):
    text = (
        "@prefix topo: <urn:other#> .\n@prefix ex: <urn:ex/> .\n@prefix ex: <urn:ex2/> .\n"
        "ex:a topo:p ex:b .\n@prefix rdf: <urn:r#> .\n@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
    )
    warned = []
    for read in (read_closed, _raw):
        caplog.clear()
        with caplog.at_level("WARNING"):
            listing = _listing(read(text))
        warned.append((listing, [(r.name, r.levelname, r.getMessage()) for r in caplog.records]))
    assert warned[0] == warned[1]
    assert [message for *_, message in warned[0][1]] == [
        "prefix 'topo' redefined: http://geni-orca.renci.org/owl/topology.owl# -> urn:other#"
    ]


def test_a_closure_over_budget_is_refused_alike(monkeypatch):
    entailed_schema()  # the built-in T-box closes within the default budget
    outcomes = set()
    for cap in (0, 5, 60):
        monkeypatch.setattr(graphstore.entail, "__defaults__", (cap, None))
        for text in TEXTS:
            outcome = _outcome(read_closed, text)
            assert outcome == _outcome(_raw, text)
            outcomes.add((cap, outcome[0]))
    assert outcomes == {(cap, kind) for cap in (0, 5, 60) for kind in ("closed", "ClosureBudgetExceeded")}


def test_the_one_shots_read_several_documents_into_one_closure(tmp_path):
    rng = random.Random(3)
    paths = []
    for k, text in enumerate([serialize_document(random_schema_model(rng)), *TEXTS[:3]]):
        paths.append(tmp_path / f"doc{k}.ndl")
        paths[-1].write_text(text)
    for schemas, files in (([], paths[1:2]), (paths[:1], paths[1:]), ([], paths)):
        docs = [parse_document(path.read_text()) for path in [*schemas, *files]]
        assert _listing(cli._close(files, schemas)) == _listing(close(*docs))


@pytest.mark.parametrize(
    "maps, warned",
    [
        # the first redefines a T-box name, the second sets it back: one warning, against the first
        ([{"topo": "urn:other#"}, {"topo": TOPO_NS}], [f"'topo' redefined: urn:other# -> {TOPO_NS}"]),
        # two documents redefine a T-box name: the second against the first, then the T-box against both
        (
            [{"rdf": "urn:x#", "ex": "urn:ex/"}, {"rdf": "urn:y#"}],
            ["'rdf' redefined: urn:x# -> urn:y#", f"'rdf' redefined: {RDF_NS} -> urn:y#"],
        ),
        ([{"ex": "urn:ex/"}, {"ex": "urn:ex/"}, {"ex": "urn:ex2/"}], ["'ex' redefined: urn:ex/ -> urn:ex2/"]),
    ],
)
def test_several_documents_redefining_prefixes_warn_as_their_raw_models_close(tmp_path, caplog, maps, warned):
    paths = []
    for k, prefixes in enumerate(maps):
        paths.append(tmp_path / f"doc{k}.ndl")
        lines = [f"@prefix {name}: <{iri}> ." for name, iri in prefixes.items()]
        paths[-1].write_text("\n".join([*lines, f"<urn:s{k}> <urn:p> <urn:o> .", ""]))
    outcomes = []
    raw = [parse_document(path.read_text()) for path in paths]
    for read in (lambda: cli._close(paths[1:], paths[:1]), lambda: close(*raw)):
        caplog.clear()
        with caplog.at_level("WARNING"):
            listing = _listing(read())
        outcomes.append((listing, [(r.name, r.getMessage()) for r in caplog.records]))
    assert outcomes[0] == outcomes[1]
    assert [message for _, message in outcomes[0][1]] == [f"prefix {line}" for line in warned]


def _state(m) -> tuple:
    return (*_listing(m), graphstore._copied(m._spo), graphstore._copied(m._pos))


@pytest.mark.parametrize("name", ["renci.ndl", "ring-a.ndl", "request-pair.ndl"])
def test_closing_leaves_the_raw_model_a_caller_holds_as_it_was(name):
    raw = parse_document((FIXTURES / name).read_text())
    before = _state(raw)
    close(raw)
    entail(raw)
    entail(raw, closed=entailed_schema())
    assert _state(raw) == before


def test_entail_in_place_needs_a_copy_of_its_frozen_closure():
    text = (FIXTURES / "renci.ndl").read_text()
    with pytest.raises(ValueError):
        entail(parse_document(text), closed=entailed_schema(), in_place=True)
    copy = entailed_schema().copy()
    with pytest.raises(ValueError):
        entail(copy, closed=close(parse_document(text)).freeze(), in_place=True)
    assert list(entail(parse_document(text, copy), closed=entailed_schema(), in_place=True)) == list(
        close(parse_document(text))
    )
