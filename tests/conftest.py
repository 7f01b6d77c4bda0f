import sys
from pathlib import Path

import pytest

from netslice.models import build_manifest

FIXTURES = Path(__file__).parent.parent / "fixtures"

# Label-set literals Python's int() reads, so that each would name the pool
# of another literal: a sign, an underscore, spaces, non-ASCII digits ("3-5").
LOOSE_LABEL_SETS = ["+5", "1_000", " 7 ", "5- 7", "\u0663-\u0665"]

# xsd:integer lexical forms Python's int() reads: spaces, an underscore,
# Arabic-Indic digits ("100").
LOOSE_INTEGERS = [" 100", "100 ", "1_000", "\u0661\u0660\u0660"]

# An xsd:integer lexical form with more digits than Python's int() converts.
HUGE_INTEGER = "9" * 5000

# dateTime literals strptime read as instants: one-digit fields, lower-case
# separators, full-width digits ("2026-01-01T00:00:00Z"), a space-padded day.
LOOSE_DATETIMES = [
    "2026-1-5T1:2:3Z",
    "2026-01-01t00:00:00z",
    "\uff12\uff10\uff12\uff16-01-01T00:00:00Z",
    "2026-01- 1T00:00:00Z",
]


def count_calls(monkeypatch, fn) -> list:
    """Wrap the package function fn, in every netslice module that binds it
    by name, with a wrapper that appends each call's arguments to the
    returned list."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("netslice") and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counting)
    return calls


def provisioned(world, slice_id, request_text) -> tuple:
    """Submit a request that must provision; the `build_manifest` arguments
    its manifest was built from: (request, slice id, plan, the AMs' hosts
    per node, their detail paths per (strand, route hop index))."""
    with pytest.MonkeyPatch.context() as mp:
        built = count_calls(mp, build_manifest)
        assert world.submit_request(slice_id, request_text) is not None
    [args] = built
    return args
