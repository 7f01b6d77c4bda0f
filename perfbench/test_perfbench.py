"""Tests of the benchmark itself: span arithmetic, tracer transparency and
seeded generators.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import netslice.actors as actors  # noqa: E402
import netslice.graphstore as graphstore  # noqa: E402
from perfbench import generators as gen  # noqa: E402
from perfbench.tracer import Span, Tracer, aggregate, layer_metrics  # noqa: E402
from perfbench.workloads import ChurnVlan, OneshotCli, Recorder, WideRing  # noqa: E402


def _synthetic_spans():
    # op.create [0,100]
    #   actors.World.submit_request [10,60]
    #     graphstore.entail [20,30]
    #     graphstore.entail [35,45]
    #   actors.World.submit_request [70,90]
    #     actors.World.submit_request [75,80]   (recursive call)
    return [
        Span("op.create", None, "create/0", 0, 100),
        Span("actors.World.submit_request", 0, "create/0", 10, 60),
        Span("graphstore.entail", 1, "create/0", 20, 30),
        Span("graphstore.entail", 1, "create/0", 35, 45),
        Span("actors.World.submit_request", 0, "create/0", 70, 90),
        Span("actors.World.submit_request", 4, "create/0", 75, 80),
        Span("op.delete", None, "delete/0", 200, 250),
        Span("graphstore.entail", 6, "delete/0", 210, 240, error="OverAllocation"),
    ]


def test_self_time_subtracts_direct_children():
    stats = aggregate(_synthetic_spans())
    assert stats["op.create"].self_ns == 100 - 50 - 20
    submit = stats["actors.World.submit_request"]
    assert submit.calls == 3
    assert submit.self_ns == (50 - 20) + (20 - 5) + 5
    assert submit.total_ns == 50 + 20  # the nested call is not counted twice
    entail = stats["graphstore.entail"]
    assert (entail.calls, entail.self_ns, entail.errors) == (3, 50, 1)
    assert stats["op.delete"].self_ns == 20


def test_aggregate_filters_by_root_operation():
    stats = aggregate(_synthetic_spans(), {"op.delete"})
    assert set(stats) == {"op.delete", "graphstore.entail"}
    assert stats["graphstore.entail"].self_ns == 30


def test_layer_shares_and_coverage():
    metrics = layer_metrics(_synthetic_spans(), overhead=0.5)
    wall = 100 + 50
    assert metrics["graphstore.self_share"][0] == (20 + 30) / wall
    assert metrics["actors.self_share"][0] == 50 / wall
    assert metrics["trace.coverage"][0] == (50 + 50) / wall
    assert metrics["trace.overhead"] == (0.5, "ratio")
    assert metrics["actors.World.submit_request.self_s"] == (50 / 1e9, "s")


class SmallChurn(ChurnVlan):
    n_domains = 4
    n_hosts = 2
    units = 2
    target_creates = 12


def test_traced_round_leaves_event_log_unchanged(tmp_path):
    workload = SmallChurn(7, tmp_path)
    plain = Recorder()
    plain_digest = workload.round(workload.setup(), plain, checks=True)

    original_entail = graphstore.entail
    tracer = Tracer()
    rec = Recorder(tracer)
    with tracer.installed():
        # actors imports entail by value; that binding is wrapped too
        assert actors.entail is graphstore.entail is not original_entail
        traced_digest = workload.round(workload.setup(rec), rec, checks=True)
    assert actors.entail is graphstore.entail is original_entail
    assert actors.World.submit_request.__name__ == "submit_request"
    assert not hasattr(actors.World.submit_request, "__wrapped__")

    assert traced_digest == plain_digest
    assert plain.hard == [] and rec.hard == []
    names = {s.name for s in tracer.spans}
    assert {"op.create", "actors.Broker.routing_view", "graphstore.entail"} <= names
    assert all(s.end >= s.start for s in tracer.spans)


def test_rounds_of_one_seed_agree(tmp_path):
    workload = SmallChurn(3, tmp_path)
    rec = Recorder()
    digests = [workload.round(workload.setup(), rec, checks=False) for _ in range(2)]
    assert digests[0] == digests[1]
    other = SmallChurn(4, tmp_path)
    assert other.round(other.setup(), Recorder(), checks=False) != digests[0]
    # a replayed round attempts the same operations; they are counted once
    assert rec.attempted == rec.ops() // 2


def test_generators_are_seeded():
    def sample(seed):
        rng = random.Random(seed)
        instance = gen.random_layered_instance(rng)
        members = [(1, rng.choice(gen.federation_sites(6))), (2, None)]
        return gen.instance_document(instance), gen.request_text("t", members, rng.choice([50, 100]))

    assert sample(5) == sample(5)
    assert sample(5) != sample(6)


def test_federation_substrate_carries_the_pools():
    docs = gen.federation_substrates(4, 2, 2, link_pool="2-4094", border_pool="100-150")
    assert docs == gen.federation_substrates(4, 2, 2, link_pool="2-4094", border_pool="100-150")
    assert len(docs) == 4
    assert '"2-4094"' in docs[0] and '"100-150"' in docs[0] and '"100-199"' not in docs[0]
    assert gen.federation_neighbors(4)["d00"] == ["d01", "d02", "d03"]


def test_workload_inputs_are_seeded(tmp_path):
    def inputs(seed, sub):
        workdir = tmp_path / sub
        workdir.mkdir()
        wl = OneshotCli(seed, workdir)
        files = {p.name: p.read_text() for p in sorted(workdir.iterdir())}
        order = [(kind, [a.replace(str(workdir), "") for a in argv]) for kind, argv, _ in wl.ops]
        return files, order

    assert inputs(9, "a") == inputs(9, "b")
    assert inputs(9, "a2") != inputs(10, "c")
    offsets = WideRing.offsets()
    assert offsets == WideRing.offsets() and len(offsets) == 100
    assert sorted(set(offsets)) == list(range(1, 33))
