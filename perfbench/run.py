"""Slice-lifecycle benchmark for netslice.

    python3 perfbench/run.py --workload churn-vlan --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout against `src/` (nothing is
installed). With `--trace 0` it measures the end-to-end metrics; with
`--trace 1` it replays the same round untraced and traced and reports the
per-layer metrics. Human-readable rows go first; the last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. The exit code is 1 when a correctness check failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 5  # set-ups timed before the first round; setup_s is their median
OUT_DIR = ROOT / ".perfbench-out"
WORK_DIR = ROOT / ".perfbench-work"


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_netslice() -> float:
    """Import the package from this checkout's `src/`; returns the import
    time. Raises ImportError when the checkout has no sources."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    start = time.perf_counter()
    import netslice.cli  # (timed: part of the one-shot set-up)

    elapsed = time.perf_counter() - start
    if src not in Path(netslice.cli.__file__).resolve().parents:
        raise ImportError(f"netslice was not imported from {src}")
    return elapsed


def _timed_setup(workload, rec):
    """One timed set-up, from a heap with no garbage left by the last one."""
    gc.collect()
    start = time.perf_counter()
    state = workload.setup()
    rec.record("setup", time.perf_counter() - start)
    return state


def measure(workload, seconds: float):
    """Rounds of the seeded script until the measured phase has used
    `seconds` of wall time (at least one round; a round is never cut)."""
    from perfbench.workloads import Recorder

    rec = Recorder()
    for _ in range(SETUPS):
        state = _timed_setup(workload, rec)
    digests = []
    phase_start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        digests.append(workload.round(state, rec, checks=True))
        round_wall = time.perf_counter() - round_start
        if time.perf_counter() - phase_start + round_wall > seconds:
            break
        state = _timed_setup(workload, rec)
    if len(set(digests)) != 1:
        rec.fail("digest", f"rounds of one seed disagree: {sorted(set(digests))}")
    return rec, digests


def trace(workload):
    """One untraced round without per-op checks, then the same round traced
    with every check. Both must leave the same event-log digest."""
    from perfbench.tracer import Tracer
    from perfbench.workloads import Recorder

    state = workload.setup()
    plain = Recorder()
    plain_digest = workload.round(state, plain, checks=False)

    tracer = Tracer()
    rec = Recorder(tracer)
    with tracer.installed():
        state = workload.setup(rec)
        traced_digest = workload.round(state, rec, checks=True)
    rec.failed.update(plain.failed)
    rec.hard += plain.hard
    if traced_digest != plain_digest:
        rec.fail("digest", "traced run changed the event log")
    overhead = rec.busy_s(scaled=True) / plain.busy_s(scaled=True) - 1
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"trace-{workload.name}.jsonl"  # one file per workload, overwritten
    tracer.write_jsonl(out)
    return rec, tracer, overhead, plain_digest, out


def _predictions(spans) -> list:
    """The traced split the workloads were chosen for, as report rows."""
    from perfbench.tracer import Stat, aggregate

    every = aggregate(spans)
    wall_ns = sum(st.total_ns for name, st in every.items() if name.startswith("op."))
    search_ns = sum(
        every.get(name, Stat()).self_ns
        for name in ("pathquery.adjacent", "embed.shortest_valid_path")
    )
    rows = [("path_search_self_share", search_ns / wall_ns)]
    create = aggregate(spans, {"op.create"})
    delete = aggregate(spans, {"op.delete"})
    create_ns = create.get("op.create", Stat()).total_ns
    if create_ns:
        routing = create.get("actors.Broker.routing_view", Stat()).total_ns
        rows.append(("create.routing_view_share", routing / create_ns))
    deletes = delete.get("op.delete", Stat()).calls
    if deletes:
        parse = delete.get("vocab.parse_label_set", Stat()).self_ns / 1e9
        rows.append(("delete.parse_label_set_self_s_per_delete", parse / deletes))
    return rows


def main(argv=None) -> int:
    args = _parse_args(argv)
    import_s = _import_netslice()
    from perfbench import tracer as tracer_mod
    from perfbench.workloads import WORKLOADS, end_to_end

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as workdir:
        workload = WORKLOADS[args.workload](args.seed, Path(workdir))
        if args.trace:
            rec, tracer, overhead, digest, out = trace(workload)
        else:
            rec, digests = measure(workload, args.seconds)
            digest = digests[0]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"# {args.workload} seed={args.seed} trace={args.trace} digest={digest}")
    if args.trace:
        metrics = tracer_mod.layer_metrics(tracer.spans, overhead)
        for name, value in _predictions(tracer.spans):
            print(f"prediction {name} {value!r}")
        print(f"spans {len(tracer.spans)} written to {out.relative_to(ROOT)}")
        rows = [(name, value, unit, "") for name, (value, unit) in metrics.items()]
    else:
        metrics, report = end_to_end(workload, rec, import_s, rss_mb)
        rows = [
            (name, value, unit, f"n={n}" + ("" if wall is None else f" wall={wall!r}"))
            for name, value, unit, n, wall in report
        ]
    for name, value, unit, note in rows:
        print(f"{name:48s} {value!r:>24} {unit:12s} {note}")
    for reason in list(rec.failed.values())[:20]:
        print(f"failed {reason}")
    correct = not rec.hard
    print(json.dumps({
        "correct": correct,
        "attempted": rec.attempted,
        "failed": len(rec.failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
