"""Source checks over the package modules, made with `ast` alone, over
the test modules' use of the golden files, and over the names the
benchmark's tracer patches."""

import ast
import importlib
import re
from pathlib import Path

import netslice

SRC = Path(netslice.__file__).parent
TESTS = Path(__file__).parent
GOLDEN = TESTS.parent / "fixtures" / "golden"
TRACER = TESTS.parent / "perfbench" / "tracer.py"
# an import kept on purpose names its reason: "# noqa: F401 -- re-exported for callers"
_EXEMPT_RE = re.compile(r"#\s*noqa:\s*F401\s+--\s*\S")


def _unused_imports(source: str) -> list:
    """(line, name) of each module-level import binding that the module
    never reads, less those on a line marked with `_EXEMPT_RE`. A name read
    only inside a quoted annotation counts as read."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if not _EXEMPT_RE.search(lines[alias.lineno - 1]):
                    bound.append((alias.lineno, name))
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a quoted annotation such as "dict[str, _Entry]"
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            read.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return [(line, name) for line, name in bound if name not in read]


def test_every_module_reads_each_name_it_imports():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 8
    unused = [
        f"{path.name}:{line}: {name}"
        for path in modules
        for line, name in _unused_imports(path.read_text())
    ]
    assert unused == []


def test_the_import_check_finds_an_unused_name_and_honours_a_reasoned_mark():
    source = "\n".join([
        "from __future__ import annotations",
        "import os",
        "import re  # noqa: F401 -- kept for callers",
        "import sys  # noqa: F401",
        "from typing import (",
        "    Optional,",
        "    Sequence,",
        ")",
        "from . import vocab as v",
        "def f(x: 'Optional[int]') -> None:",
        "    return v.LAYERS",
    ])
    assert _unused_imports(source) == [(2, "os"), (4, "sys"), (7, "Sequence")]


def test_every_golden_file_is_compared_by_a_test():
    """A golden no test compares pins nothing: each file under
    fixtures/golden is named, quoted, on a test-module line that also names
    `golden`."""
    lines = [
        line
        for path in sorted(TESTS.glob("test_*.py"))
        for line in path.read_text().splitlines()
        if "golden" in line
    ]
    names = sorted(path.name for path in GOLDEN.iterdir())
    assert names
    assert [name for name in names if not any(f'"{name}"' in line for line in lines)] == []


def _tracer_targets() -> list:
    """(module, qualified name) of each entry of the tracer's TARGETS
    list, read from its source without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError("no TARGETS list in perfbench/tracer.py")


def test_every_traced_name_resolves_in_the_package():
    """The tracer patches functions by name, so a renamed one would go
    untimed: each (module, Class.method or function) it names exists."""
    targets = _tracer_targets()
    assert len(targets) >= 30
    missing = []
    for module, qualname in targets:
        obj = importlib.import_module(f"netslice.{module}")
        for part in qualname.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{qualname}")
    assert missing == []
