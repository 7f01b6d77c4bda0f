"""Outside-in tracer: times calls into netslice's public functions without
editing the package.

`Tracer.install()` replaces each named function with a timing wrapper in
every `netslice.*` module that binds it (several modules import functions by
value, so patching only the defining module would miss those calls), and
each named method on its class. `Tracer.uninstall()` puts the originals
back. Spans are recorded only inside `Tracer.op(...)`, the harness's timed
operations, so checks that run between operations are not attributed to
any layer. The wrappers only observe: they pass arguments, results and
exceptions through unchanged.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional


def _len_result(args, kwargs, result) -> dict:
    return {"triples": len(result)}


def _entail_counts(args, kwargs, result) -> dict:
    return {"derived_triples": len(result) - len(args[0])}


def _found(args, kwargs, result) -> dict:
    return {"found": int(result is not None)}


def _violations(args, kwargs, result) -> dict:
    return {"violations": len(result)}


# (module, qualified name, counter). The counter maps (args, kwargs, result)
# to extra counts on the span; it runs after the span has ended.
TARGETS = [
    ("graphstore", "entail", _entail_counts),
    ("graphstore", "merge", _len_result),
    ("graphstore", "parse_document", None),
    ("graphstore", "serialize_document", None),
    ("pathquery", "adjacent", None),
    ("embed", "shortest_valid_path", _found),
    ("embed", "route_branch", None),
    ("embed", "expand_domain_hop", None),
    ("embed", "deduct_crossing_from_view", None),
    ("embed", "bind_domains", None),
    ("embed", "embed_request", None),
    ("embed", "prepare_domain", None),
    ("embed", "DomainState.apply_ops", None),
    ("embed", "DomainState.release_token", None),
    ("vocab", "parse_label_set", None),
    ("vocab", "render_label_set", None),
    ("vocab", "validate_conformance", None),
    ("vocab", "builtin_schema", None),
    ("models", "parse_substrate", None),
    ("models", "parse_delegation", None),
    ("models", "build_delegation", None),
    ("models", "parse_request", None),
    ("models", "build_manifest", None),
    ("models", "check_homeomorphic", None),
    ("rules", "validate", _violations),
    ("actors", "Broker.register_delegation", None),
    ("actors", "Broker.routing_view", None),
    ("actors", "Broker.delegation_views", None),
    ("actors", "Broker.issue_ticket", None),
    ("actors", "Broker.refund", None),
    ("actors", "AggregateManager.redeem", None),
    ("actors", "World.add_substrate", None),
    ("actors", "World.submit_request", None),
    ("actors", "World.delete_slice", None),
    ("actors", "World.advance_time", None),
    ("cli", "main", None),
]

MODULES = ("graphstore", "pathquery", "vocab", "models", "rules", "embed", "actors", "cli")


@dataclass
class Span:
    name: str
    parent: Optional[int]
    op: str
    start: int
    end: int = 0
    error: Optional[str] = None
    counts: Optional[dict] = None


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: Optional[str] = None
        self._patches: list = []

    # -- recording

    @contextmanager
    def op(self, kind: str, op_id: str):
        """Root span of one timed harness operation; wrapped calls inside it
        become its descendants."""
        if self._op is not None:
            raise RuntimeError("harness operations do not nest")
        index = len(self.spans)
        span = Span(f"op.{kind}", None, op_id, time.perf_counter_ns())
        self.spans.append(span)
        self._stack.append(index)
        self._op = op_id
        try:
            yield
        finally:
            span.end = time.perf_counter_ns()
            self._stack.pop()
            self._op = None

    def _wrap(self, name: str, fn: Callable, counter) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            index = len(tracer.spans)
            span = Span(name, stack[-1], tracer._op, time.perf_counter_ns())
            tracer.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span.end = time.perf_counter_ns()
                span.error = type(e).__name__
                stack.pop()
                raise
            span.end = time.perf_counter_ns()
            stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        loaded = {
            name: module
            for name, module in sys.modules.items()
            if module is not None and (name == "netslice" or name.startswith("netslice."))
        }
        try:
            for module_name, qualname, counter in TARGETS:
                home = loaded.get(f"netslice.{module_name}")
                if home is None:
                    raise RuntimeError(f"netslice.{module_name} is not imported")
                span_name = f"{module_name}.{qualname}"
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[attr]
                    self._set(cls, attr, original, self._wrap(span_name, original, counter))
                    continue
                original = getattr(home, qualname)
                wrapper = self._wrap(span_name, original, counter)
                for module in loaded.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, attr, original, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _set(self, owner, attr: str, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- output

    def write_jsonl(self, path) -> None:
        """One JSON array per span: index, parent, name, op id, start ns,
        end ns, exception name or null, counts or null."""
        with open(path, "w", encoding="utf-8") as out:
            for i, s in enumerate(self.spans):
                out.write(json.dumps([i, s.parent, s.name, s.op, s.start, s.end, s.error, s.counts]))
                out.write("\n")


@dataclass
class Stat:
    calls: int = 0
    self_ns: int = 0
    total_ns: int = 0  # outermost calls only, so recursion is not counted twice
    errors: int = 0
    counts: dict = field(default_factory=dict)


def aggregate(spans: list, roots=None) -> dict:
    """Per span name: calls, self time, total time, errors and summed counts,
    over the spans under a root span named in `roots` (all when None).

    A span's self time is its duration minus the durations of its direct
    children. Spans come from one thread, so children never overlap; a
    parent is always recorded before its children."""
    child_ns = [0] * len(spans)
    root = list(range(len(spans)))
    for i, s in enumerate(spans):
        if s.parent is not None:
            child_ns[s.parent] += s.end - s.start
            root[i] = root[s.parent]
    stats: dict[str, Stat] = {}
    for i, s in enumerate(spans):
        if roots is not None and spans[root[i]].name not in roots:
            continue
        st = stats.setdefault(s.name, Stat())
        duration = s.end - s.start
        st.calls += 1
        st.self_ns += duration - child_ns[i]
        if not _has_ancestor_named(spans, s, s.name):
            st.total_ns += duration
        if s.error is not None:
            st.errors += 1
        for key, value in (s.counts or {}).items():
            st.counts[key] = st.counts.get(key, 0) + value
    return stats


def _has_ancestor_named(spans: list, span: Span, name: str) -> bool:
    parent = span.parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


# Per-layer metrics of the traced run: (span name, [stat, ...]). Stats:
# calls, self_s, total_s, and the counts the wrappers record.
LAYER_STATS = [
    ("graphstore.entail", ["calls", "self_s", "derived_triples"]),
    ("graphstore.merge", ["self_s", "triples"]),
    ("graphstore.parse_document", ["self_s"]),
    ("graphstore.serialize_document", ["self_s"]),
    ("pathquery.adjacent", ["calls", "self_s"]),
    ("embed.shortest_valid_path", ["calls", "self_s", "found_ratio"]),
    ("embed.DomainState.apply_ops", ["calls", "self_s", "rejected"]),
    ("embed.DomainState.release_token", ["self_s"]),
    ("embed.deduct_crossing_from_view", ["self_s"]),
    ("embed.bind_domains", ["self_s"]),
    ("embed.embed_request", ["self_s"]),
    ("vocab.parse_label_set", ["calls", "self_s"]),
    ("vocab.render_label_set", ["calls", "self_s"]),
    ("vocab.validate_conformance", ["self_s"]),
    ("vocab.builtin_schema", ["self_s"]),
    ("models.parse_delegation", ["calls", "self_s"]),
    ("models.parse_request", ["self_s"]),
    ("models.build_manifest", ["self_s"]),
    ("models.check_homeomorphic", ["self_s"]),
    ("models.parse_substrate", ["self_s"]),
    ("rules.validate", ["calls", "self_s", "violations"]),
    ("actors.Broker.routing_view", ["self_s", "total_s"]),
    ("actors.Broker.delegation_views", ["total_s"]),
    ("actors.Broker.issue_ticket", ["self_s"]),
    ("actors.AggregateManager.redeem", ["calls", "self_s", "failures"]),
    ("actors.Broker.refund", ["self_s"]),
    ("actors.World.submit_request", ["self_s"]),
    ("actors.World.add_substrate", ["total_s"]),
    ("cli.main", ["calls", "self_s"]),
]

_UNITS = {"self_s": "s", "total_s": "s", "found_ratio": "ratio"}


def layer_metrics(spans: list, overhead: float) -> dict:
    """name -> (value, unit) for every per-layer metric. Wall time is the
    summed duration of the harness operations (the `op.*` root spans)."""
    stats = aggregate(spans)
    wall_ns = sum(st.total_ns for name, st in stats.items() if name.startswith("op."))
    out = {}
    for name, wanted in LAYER_STATS:
        st = stats.get(name, Stat())
        values = {
            "calls": st.calls,
            "self_s": st.self_ns / 1e9,
            "total_s": st.total_ns / 1e9,
            "rejected": st.errors,
            "failures": st.errors,
            "found_ratio": st.counts.get("found", 0) / st.calls if st.calls else 0.0,
        }
        for stat in wanted:
            value = values[stat] if stat in values else st.counts.get(stat, 0)
            out[f"{name}.{stat}"] = (value, _UNITS.get(stat, "count"))
    searches = stats.get("embed.shortest_valid_path", Stat()).calls
    adjacent = stats.get("pathquery.adjacent", Stat()).calls
    out["embed.adjacent_per_search"] = (adjacent / searches if searches else 0.0, "calls/search")
    wrapped_ns = 0
    for module in MODULES:
        self_ns = sum(st.self_ns for name, st in stats.items() if name.startswith(module + "."))
        wrapped_ns += self_ns
        out[f"{module}.self_share"] = (self_ns / wall_ns, "ratio")
    out["trace.coverage"] = (wrapped_ns / wall_ns, "ratio")
    out["trace.overhead"] = (overhead, "ratio")
    return out
