"""Command-line surface.

Subcommands: validate, entail, query, path, delegate, embed, run. Documents
are NDL-Lite files; scenario scripts drive the full actor protocol. Exit
codes are a stable contract: 0 clean, 1 semantic or expectation failure,
2 input error.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import embed as embed_mod
from . import rules as rules_mod
from .actors import UnknownSlice, World
from .graphstore import (
    ClosureBudgetExceeded,
    EvaluationBudgetExceeded,
    Model,
    ParseError,
    lex,
    parse_document,
    query_bgp,
    render_term,
    resolve,
    serialize_document,
    token_term,
)
from .models import (
    RequestError,
    SubstrateError,
    build_delegation,
    parse_datetime,
    parse_substrate,
)
from .pathquery import eval_path, parse_path_expr
from .vocab import close, validate_conformance

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_INPUT = 2

# Inputs too large to close or join within their budgets are input errors.
BUDGET_ERRORS = (ClosureBudgetExceeded, EvaluationBudgetExceeded)


class CliInputError(Exception):
    pass


def _read_model(path: str) -> Model:
    try:
        return parse_document(_read_fixture(path))
    except ParseError as e:
        raise CliInputError(f"{path}: {e}")


def _documents(files, schemas) -> list:
    """Extension schemas, then the named documents, parsed."""
    return [_read_model(path) for path in [*(schemas or ()), *files]]


def _load_rules(paths) -> list:
    out = []
    for path in paths or ():
        try:
            out.extend(rules_mod.parse_ruleset(_read_fixture(path)))
        except (rules_mod.RuleSyntaxError, rules_mod.UnsafeRule) as e:
            raise CliInputError(f"{path}: {e}")
    return out


def _print_findings(issues, violations) -> None:
    for issue in issues:
        print(f"ISSUE {issue.kind} {issue.subject.value} {issue.detail}")
    for v in violations:
        print(v)


def cmd_validate(args) -> int:
    docs = _documents(args.files, args.schema)
    issues = validate_conformance(*docs)
    violations = rules_mod.validate(close(*docs), _load_rules(args.rules))
    _print_findings(issues, violations)
    return EXIT_SEMANTIC if issues or violations else EXIT_OK


def _write_out(text: str, out) -> int:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_entail(args) -> int:
    return _write_out(serialize_document(close(*_documents(args.files, args.schema))), args.out)


def _parse_bgp(text: str, prefixes: dict) -> list:
    """Triple patterns: terms three at a time, each pattern optionally
    followed by a '.'."""
    patterns, current = [], []
    try:
        for token in lex(text, "."):
            if token.kind == "mark" and current:
                raise CliInputError(f"--bgp: line {token.line}, col {token.col}: incomplete pattern")
            if token.kind != "mark":
                current.append(token_term(token, prefixes))
            if len(current) == 3:
                patterns.append(tuple(current))
                current = []
    except (ParseError, ValueError) as e:
        raise CliInputError(f"--bgp: {e}") from None
    if current:
        raise CliInputError(f"--bgp: incomplete triple pattern: {current!r}")
    if not patterns:
        raise CliInputError("--bgp: empty pattern")
    return patterns


def cmd_query(args) -> int:
    closed = close(*_documents(args.files, args.schema))
    prefixes = closed.prefixes
    if args.bgp:
        patterns = _parse_bgp(args.bgp, prefixes)
        for binding in query_bgp(closed, patterns):
            print(" ".join(f"?{n}={render_term(binding[n], prefixes)}" for n in sorted(binding)))
        return EXIT_OK
    if not args.path_expr or not args.start:
        raise CliInputError("query needs --bgp, or --path-expr with --from")
    expr = parse_path_expr(args.path_expr, prefixes)  # a PathExprError is a ValueError
    start = resolve(args.start, prefixes)
    for node in sorted(eval_path(closed, start, expr), key=lambda n: n.value):
        print(node.value)
    return EXIT_OK


def cmd_path(args) -> int:
    closed = close(*_documents(args.files, args.schema))
    prefixes = closed.prefixes
    source = resolve(getattr(args, "from"), prefixes)
    dest = resolve(args.to, prefixes)
    known = {t.subject for t in closed}
    if source not in known or dest not in known:
        missing = source if source not in known else dest
        raise CliInputError(f"unknown element {missing.value}")
    layer = resolve(args.layer, prefixes)
    preq = embed_mod.PathRequest(
        source, dest, layer, args.bandwidth, required_label=args.label
    )
    result = embed_mod.shortest_valid_path(closed, preq, limit=args.limit)
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
    closed = close(*_documents([args.file], args.schema))
    try:
        graph = parse_substrate(closed)
    except SubstrateError as e:
        raise CliInputError(str(e))
    return _write_out(serialize_document(build_delegation(graph)), args.out)


def cmd_embed(args) -> int:
    """The provisioning protocol in-process: one AM per substrate, one broker,
    one controller, one request. The clock starts at the earliest instant,
    so the request's term is never in the past."""
    schemas = [_read_model(p) for p in (args.schema or ())]
    world = World(start=datetime.min.replace(tzinfo=timezone.utc), schemas=schemas)
    world.controller.extra_rules.extend(_load_rules(args.rules))
    for path in args.substrates:
        try:
            world.add_substrate(_read_fixture(Path(path)))
        except (ParseError, SubstrateError, ValueError) as e:
            raise CliInputError(f"{path}: {e}")
    manifest = world.submit_request(args.slice_id, _read_fixture(Path(args.request)))
    if manifest is None:
        failure = world.controller.slices[args.slice_id].failure
        if isinstance(failure.__cause__, (ParseError, RequestError, ValueError, *BUDGET_ERRORS)):
            raise CliInputError(f"{args.request}: {failure.detail}")
        if failure.issues or failure.violations:
            _print_findings(failure.issues, failure.violations)
        else:
            print(f"EMBEDDING FAILED {failure}")
        return EXIT_SEMANTIC
    return _write_out(manifest, args.out)


# -- scenario runner -------------------------------------------------------------


class ScenarioError(Exception):
    pass


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
    strings `lex` reads. Raises ScenarioError on bad syntax."""
    try:
        tokens = lex(text)
    except ParseError as e:
        raise ScenarioError(str(e)) from None
    commands = []
    for lineno, line in itertools.groupby(tokens, key=lambda token: token.line):
        parts = [token.value if token.kind == "literal" else token.text for token in line]
        verb = parts[0]
        if verb not in _SCENARIO_SHAPES:
            raise ScenarioError(f"line {lineno}: unknown command {verb!r}")
        if len(parts) != _SCENARIO_SHAPES[verb]:
            raise ScenarioError(f"line {lineno}: {verb} takes {_SCENARIO_SHAPES[verb] - 1} arguments")
        if verb == "submit-request" and parts[2] != "as":
            raise ScenarioError(f"line {lineno}: expected 'submit-request <file> as <sliceId>'")
        commands.append((lineno, verb, parts[1:]))
    return commands


def run_scenario(script_path: str, out=sys.stdout) -> int:
    """Execute a scenario: one broker, one controller, one AM per substrate.

    The event log goes to `out`; any failed expectation makes the exit code
    nonzero."""
    script = Path(script_path)
    try:
        commands = _parse_scenario(script.read_text(encoding="utf-8"))
    except OSError as e:
        raise CliInputError(f"{script_path}: {e}")
    world = World()
    failures = []
    last_slice = None
    for lineno, verb, args in commands:
        if verb == "load-substrate":
            try:
                world.add_substrate(_read_fixture(script.parent / args[0]))
            except (ParseError, SubstrateError, ValueError) as e:
                raise ScenarioError(f"line {lineno}: {args[0]}: {e}")
        elif verb == "load-rules":
            text = _read_fixture(script.parent / args[0])
            try:
                world.controller.extra_rules.extend(rules_mod.parse_ruleset(text))
            except (rules_mod.RuleSyntaxError, rules_mod.UnsafeRule) as e:
                raise ScenarioError(f"line {lineno}: {e}")
        elif verb == "submit-request":
            last_slice = args[2]
            world.submit_request(args[2], _read_fixture(script.parent / args[0]))
        elif verb == "delete-slice":
            try:
                world.delete_slice(args[0])
            except UnknownSlice:
                raise ScenarioError(f"line {lineno}: unknown slice {args[0]!r}")
        elif verb == "advance-time":
            try:
                world.advance_time(parse_datetime(args[0]))
            except ValueError as e:
                raise ScenarioError(f"line {lineno}: {e}")
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
            record = world.controller.slices.get(args[0])
            if record is None or record.manifest_text is None:
                failures.append(f"line {lineno}: slice {args[0]} has no manifest to dump")
            else:
                Path(args[1]).write_text(record.manifest_text, encoding="utf-8")
    for line in world.events:
        print(line, file=out)
    for failure in failures:
        print(f"EXPECTATION FAILED {failure}", file=sys.stderr)
    return EXIT_SEMANTIC if failures else EXIT_OK


def _read_fixture(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise CliInputError(f"{path}: {e}")


def cmd_run(args) -> int:
    return run_scenario(args.scenario)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netslice",
        description="Multi-domain network slice orchestration over semantic resource graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="conformance and rule validation")
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # --help (0) or a usage error (2)
        return e.code
    try:
        return args.func(args)
    except (CliInputError, ScenarioError, ParseError, ValueError, *BUDGET_ERRORS) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
