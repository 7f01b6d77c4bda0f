"""Command-line surface.

Subcommands: validate, entail, query, path, delegate, embed, run. Documents
are NDL-Lite files; scenario scripts drive the full actor protocol. Exit
codes are a stable contract: 0 clean, 1 semantic or expectation failure,
2 input error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import embed as embed_mod
from . import rules as rules_mod
from .actors import SliceError, World, check_request
from .graphstore import (
    ClosureBudgetExceeded,
    EvaluationBudgetExceeded,
    ParseError,
    _namespaces,
    _render,
    lex,
    parse_document,
    query_bgp,
    resolve,
    serialize_document,
    token_term,
)
from .models import (
    SubstrateError,
    build_delegation,
    parse_datetime,
    parse_substrate,
    residual_of,
)
from .pathquery import eval_path, parse_path_expr
from .vocab import close

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_INPUT = 2


class CliInputError(Exception):
    pass


# An input is refused when it is unreadable (a UnicodeDecodeError is a
# ValueError), malformed, refused by a typed view, or too large to close or
# join within its budget.
INPUT_ERRORS = (
    CliInputError, OSError, ParseError, ValueError, SubstrateError, rules_mod.RuleSyntaxError,
    rules_mod.UnsafeRule, ClosureBudgetExceeded, EvaluationBudgetExceeded,
)


class _naming:
    """A block whose input errors are re-raised as one CliInputError
    prefixed `name: `; nested blocks prefix once each, the outermost first.
    Leaving the block normally allocates nothing (a generator-based context
    manager would), so it starts no collection while a closure just built
    with the collector held off is still young."""

    def __init__(self, name):
        self.name = name

    def __enter__(self):
        pass

    def __exit__(self, kind, error, trace):
        if isinstance(error, INPUT_ERRORS):
            raise CliInputError(f"{self.name}: {error}") from None


def _read_fixture(path, parse=None):
    """The text of the file at path, or what parse returns for it; an error in either names path."""
    with _naming(path):
        text = Path(path).read_text(encoding="utf-8")
        return text if parse is None else parse(text)


def _close(files, schemas) -> tuple:
    """The documents, extension schemas first, and their closure, naming them if over budget."""
    paths = [*(schemas or ()), *files]
    docs = [_read_fixture(path, parse_document) for path in paths]
    with _naming(", ".join(map(str, paths))):
        return docs, close(*docs)


def _load_rules(paths) -> list:
    return [rule for path in paths or () for rule in _read_fixture(path, rules_mod.parse_ruleset)]


def _report(failure: SliceError, path: str) -> int:
    """Print a refused slice's findings, one a line, or its failure, and
    return 1. A refusal at Validation that names no finding (a request
    unparseable, malformed or over a budget) is an input error naming path,
    worded by its cause where it has one, as `validate` words it."""
    if failure.issues or failure.violations:
        for issue in failure.issues:
            print(f"ISSUE {issue.kind} {issue.subject.value} {issue.detail}")
        for v in failure.violations:
            print(v)
    elif failure.step == "Validation":
        raise CliInputError(f"{path}: {failure.__cause__ or failure.detail}")
    else:
        print(f"EMBEDDING FAILED {failure}")
    return EXIT_SEMANTIC


def cmd_validate(args) -> int:
    docs, closed = _close(args.files, args.schema)
    try:
        check_request(docs, closed, _load_rules(args.rules))
    except SliceError as failure:
        return _report(failure, ", ".join(args.files))
    return EXIT_OK


def _write_out(text: str, out) -> int:
    if out:
        with _naming(out):
            Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_entail(args) -> int:
    return _write_out(serialize_document(_close(args.files, args.schema)[1]), args.out)


def _parse_bgp(text: str, prefixes: dict) -> list:
    """Triple patterns: terms three at a time, each pattern optionally
    followed by a '.'."""
    patterns, current = [], []
    with _naming("--bgp"):
        for token in lex(text, "."):
            if token.kind == "mark" and current:
                raise CliInputError(f"line {token.line}, col {token.col}: incomplete pattern")
            if token.kind != "mark":
                current.append(token_term(token, prefixes))
            if len(current) == 3:
                patterns.append(tuple(current))
                current = []
        if current:
            raise CliInputError(f"incomplete triple pattern: {current!r}")
        if not patterns:
            raise CliInputError("empty pattern")
    return patterns


def cmd_query(args) -> int:
    closed = _close(args.files, args.schema)[1]
    prefixes = closed.prefixes
    if args.bgp is not None:
        patterns = _parse_bgp(args.bgp, prefixes)
        try:
            bindings = query_bgp(closed, patterns)
        except EvaluationBudgetExceeded as e:
            raise CliInputError(f"--bgp: query join produced {e.rows} rows (cap {e.cap})")
        namespaces = _namespaces(prefixes)
        for binding in bindings:
            print(" ".join(f"?{n}={_render(binding[n], namespaces)}" for n in sorted(binding)))
        return EXIT_OK
    if args.path_expr is None or args.start is None:
        raise CliInputError("query needs --bgp, or --path-expr with --from")
    with _naming("--path-expr"):  # a PathExprError is a ValueError
        expr = parse_path_expr(args.path_expr, prefixes)
    with _naming("--from"):
        start = resolve(args.start, prefixes)
    for node in sorted(eval_path(closed, start, expr), key=lambda n: n.value):
        print(node.value)
    return EXIT_OK


def cmd_path(args) -> int:
    closed = _close(args.files, args.schema)[1]
    prefixes = closed.prefixes
    terms = []  # the source, destination and layer
    for option in ("--from", "--to", "--layer"):
        with _naming(option):
            terms.append(resolve(getattr(args, option[2:]), prefixes))
            if option != "--layer" and next(closed.match(s=terms[-1]), None) is None:
                raise CliInputError(f"unknown element {terms[-1].value}")
    preq = embed_mod.PathRequest(*terms, args.bandwidth, required_label=args.label)
    with _naming(", ".join(args.files)):  # the figures the search checks, label pools parsed
        free = residual_of(closed)
    result = embed_mod.shortest_valid_path(closed, preq, limit=args.limit, free=free)
    if result is None:
        print("NO PATH")
        return EXIT_SEMANTIC
    for hop in result.hops:
        print(f"HOP {hop.element.value}")
    for element in result.internal_elements:
        print(f"INTERNAL {element.value}")
    if result.allocated_label is not None:
        print(f"LABEL {result.allocated_label}")
    print(f"BANDWIDTH {result.consumed_bandwidth}")
    return EXIT_OK


def cmd_delegate(args) -> int:
    closed = _close([args.file], args.schema)[1]
    with _naming(args.file):
        graph = parse_substrate(closed)
    return _write_out(serialize_document(build_delegation(graph)), args.out)


def cmd_embed(args) -> int:
    """The provisioning protocol in-process: one AM per substrate, one broker,
    one controller, one request. The clock starts at the earliest instant,
    so the request's term is never in the past."""
    schemas = [_read_fixture(p, parse_document) for p in args.schema or ()]
    with _naming(", ".join(args.schema or ())):  # closes the extension T-boxes, if any
        world = World(start=datetime.min.replace(tzinfo=timezone.utc), schemas=schemas)
    world.controller.extra_rules.extend(_load_rules(args.rules))
    for path in args.substrates:
        _read_fixture(path, world.add_substrate)
    manifest = world.submit_request(args.slice_id, _read_fixture(args.request))
    if manifest is None:
        return _report(world.controller.slices[args.slice_id].failure, args.request)
    return _write_out(manifest, args.out)


# -- scenario runner -------------------------------------------------------------


_SCENARIO_SHAPES = {  # the words on a command's line, its verb included
    "load-substrate": 2,
    "load-rules": 2,
    "submit-request": 4,
    "delete-slice": 2,
    "advance-time": 2,
    "expect-violation": 2,
    "expect-state": 3,
    "dump-manifest": 3,
}


def _parse_scenario(text: str) -> list:
    """Commands as (lineno, verb, args), one a line, whose words and quoted
    strings `lex` reads. Raises CliInputError on bad syntax."""
    try:
        tokens = lex(text)
    except ParseError as e:
        raise CliInputError(str(e)) from None
    commands = []
    for lineno, line in itertools.groupby(tokens, key=lambda token: token.line):
        parts = [token.value if token.kind == "literal" else token.text for token in line]
        verb = parts[0]
        if verb not in _SCENARIO_SHAPES:
            raise CliInputError(f"line {lineno}: unknown command {verb!r}")
        if len(parts) != _SCENARIO_SHAPES[verb]:
            raise CliInputError(f"line {lineno}: {verb} takes {_SCENARIO_SHAPES[verb] - 1} arguments")
        if verb == "submit-request" and parts[2] != "as":
            raise CliInputError(f"line {lineno}: expected 'submit-request <file> as <sliceId>'")
        commands.append((lineno, verb, parts[1:]))
    return commands


def run_scenario(script_path: str, out=None) -> int:
    """Execute a scenario: one broker, one controller, one AM per substrate.

    The event log goes to `out`, by default `sys.stdout` as it is when the
    log is written; any failed expectation makes the exit code nonzero."""
    script = Path(script_path)
    commands = _parse_scenario(_read_fixture(script_path))
    world = World()
    failures = []
    manifests = {}  # slice id -> the manifest its submit-request returned
    last_slice = None
    for lineno, verb, args in commands:
        with _naming(f"line {lineno}"):
            if verb in ("load-substrate", "load-rules", "submit-request"):
                text = _read_fixture(script.parent / args[0])
            if verb == "load-substrate":
                with _naming(args[0]):
                    world.add_substrate(text)
            elif verb == "load-rules":
                with _naming(args[0]):
                    world.controller.extra_rules.extend(rules_mod.parse_ruleset(text))
            elif verb == "submit-request":
                last_slice = args[2]
                manifest = world.submit_request(args[2], text)  # ValueError: a slice id refused
                if manifest is not None:
                    manifests[args[2]] = manifest
            elif verb == "delete-slice":
                if args[0] not in world.controller.slices:
                    raise CliInputError(f"unknown slice {args[0]!r}")
                world.delete_slice(args[0])
            elif verb == "advance-time":
                world.advance_time(parse_datetime(args[0]))
            elif verb == "expect-violation":
                record = world.controller.slices.get(last_slice) if last_slice else None
                messages = (
                    [v.message for v in record.failure.violations]
                    if record is not None and record.failure is not None
                    else []
                )
                if args[0] not in messages:
                    failures.append(
                        f"line {lineno}: expected violation {args[0]!r}, saw {messages!r}"
                    )
            elif verb == "expect-state":
                record = world.controller.slices.get(args[0])
                state = record.state if record is not None else "missing"
                if state != args[1]:
                    failures.append(
                        f"line {lineno}: slice {args[0]} in state {state}, expected {args[1]}"
                    )
            elif verb == "dump-manifest":
                if args[0] not in manifests:
                    failures.append(f"line {lineno}: slice {args[0]} has no manifest to dump")
                else:
                    _write_out(manifests[args[0]], args[1])
    for line in world.events:
        print(line, file=out)
    for failure in failures:
        print(f"EXPECTATION FAILED {failure}", file=sys.stderr)
    return EXIT_SEMANTIC if failures else EXIT_OK


def cmd_run(args) -> int:
    return run_scenario(args.scenario)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later one: parsing reads it and changes none of it, so repeated `main`
    calls in one process pay for argparse once."""
    parser = argparse.ArgumentParser(
        prog="netslice",
        description="Multi-domain network slice orchestration over semantic resource graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="conformance, rules, then the request read (no clock)")
    p.add_argument("files", nargs="+")
    p.add_argument("--schema", action="append", help="extension schema file (repeatable)")
    p.add_argument("--rules", action="append", help="extra ruleset file (repeatable)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("entail", help="print the entailed closure, canonically serialized")
    p.add_argument("files", nargs="+")
    p.add_argument("--schema", action="append")
    p.add_argument("--out")
    p.set_defaults(func=cmd_entail)

    p = sub.add_parser("query", help="basic graph pattern or path expression query")
    p.add_argument("files", nargs="+")
    p.add_argument("--schema", action="append")
    p.add_argument("--bgp", help="triple patterns, e.g. '?s topo:hasInterface ?i'")
    p.add_argument("--path-expr", help="path expression, e.g. 'topo:hasInterface/topo:linkedTo'")
    p.add_argument("--from", dest="start", help="start node for --path-expr")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("path", help="constrained shortest path across substrates")
    p.add_argument("files", nargs="+")
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--layer", default="eth:EthernetNetworkElement")
    p.add_argument("--bandwidth", type=int, default=0)
    p.add_argument("--label", type=int)
    p.add_argument("--limit", type=int, default=10)
    p.add_argument("--schema", action="append")
    p.set_defaults(func=cmd_path)

    p = sub.add_parser("delegate", help="build the delegation for a substrate")
    p.add_argument("file")
    p.add_argument("--schema", action="append")
    p.add_argument("--out")
    p.set_defaults(func=cmd_delegate)

    p = sub.add_parser("embed", help="one-shot embedding of a request onto substrates")
    p.add_argument("substrates", nargs="+")
    p.add_argument("--request", required=True)
    p.add_argument("--slice-id", default="cli")
    p.add_argument("--schema", action="append")
    p.add_argument("--rules", action="append")
    p.add_argument("--out")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("run", help="execute a scenario script")
    p.add_argument("scenario")
    p.set_defaults(func=cmd_run)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code; never raises SystemExit."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # --help (0) or a usage error (2)
        return e.code
    try:
        return args.func(args)
    except INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
