"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The random-instance criteria use fixed seeds so runs are repeatable.
"""

import io
import random
import time

import pytest

from netslice import vocab
from netslice.actors import World
from netslice.cli import run_scenario
from netslice.embed import PathRequest, shortest_valid_path
from netslice.graphstore import (
    Iri,
    Literal,
    Model,
    Triple,
    Var,
    entail,
    integer,
    merge,
    parse_document,
    query_bgp,
    serialize_document,
    string,
)
from netslice.models import check_homeomorphic, parse_request
from netslice.rules import BROADCAST_DOMAIN_RULE, Rule, evaluate, parse_ruleset
from netslice.vocab import builtin_schema

from conftest import FIXTURES
from generators import (
    federation_request,
    federation_world,
    instance_device_iri,
    instance_model,
    random_layered_instance,
    random_schema_model,
)
from oracles import all_rule_matches, naive_entail, oracle_best_hop_count

RNC = "http://geni-orca.renci.org/sites/renci/"


def _ok(n, detail):
    print(f"ACCEPTANCE {n} PASS {detail}")


def test_criterion_1_fixture_reproduction():
    started = time.monotonic()
    world = World()
    world.add_substrate((FIXTURES / "renci.ndl").read_text())
    request_text = (FIXTURES / "request-pair.ndl").read_text()
    manifest_text = world.submit_request("demo1", request_text)
    assert manifest_text is not None
    assert world.controller.slices["demo1"].state == "Provisioned"

    manifest = parse_document(manifest_text)
    hops = manifest.typed(vocab.PATH_HOP)
    assert [manifest.value(h, vocab.HOP_DEVICE) for h in hops] == [Iri(RNC + "Renci/6509")]
    hosts = {manifest.value(vm, vocab.HOSTED_ON) for vm in manifest.typed(vocab.VM)}
    assert hosts == {Iri(RNC + "Server/A"), Iri(RNC + "Server/B")}

    raw = parse_document(request_text)
    for t in raw:
        assert t in manifest
    req = parse_request(vocab.close(raw), source=raw)
    assert check_homeomorphic(req, manifest)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _ok(1, f"two-server reproduction in {elapsed:.3f}s")


def test_criterion_2_broadcast_rule():
    msg = "Domains in broadcast link can't be repeated"
    bad = entail(
        merge([builtin_schema(), parse_document((FIXTURES / "broadcast-bad.ndl").read_text())])
    )
    violations = evaluate(bad, parse_ruleset(BROADCAST_DOMAIN_RULE))
    assert len(violations) == 1
    assert violations[0].message == msg
    good = entail(
        merge([builtin_schema(), parse_document((FIXTURES / "broadcast-good.ndl").read_text())])
    )
    assert evaluate(good, parse_ruleset(BROADCAST_DOMAIN_RULE)) == []
    _ok(2, "A,B,A fires exactly once; A,B,C stays clean")


def test_criterion_3_pathfinding_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(0xC0FFEE)
    rounds = 1000
    limit_misses = []
    for round_no in range(rounds):
        instance = random_layered_instance(rng, max_devices=12, max_links=20)
        m = instance_model(instance)
        names = sorted(instance["devices"])
        source, dest = rng.sample(names, 2)
        bandwidth = rng.choice([0, 100, 500, 1000])
        required = rng.choice([None, None, None, 5, 10])
        preq = PathRequest(
            instance_device_iri(source),
            instance_device_iri(dest),
            vocab.ETHERNET_ELEMENT,
            bandwidth,
            required_label=required,
        )
        got = shortest_valid_path(m, preq, limit=10)
        best = oracle_best_hop_count(
            instance, source, dest, bandwidth, required, vocab.ETHERNET_ELEMENT
        )
        if got is None:
            if best is not None:
                unlimited = shortest_valid_path(m, preq, limit=10**6)
                assert unlimited is not None and unlimited.hop_count() == best, (
                    f"round {round_no}: miss not caused by the attempt limit"
                )
                limit_misses.append(round_no)
        else:
            assert best is not None, f"round {round_no}: engine invented a path"
            assert got.hop_count() == best, f"round {round_no}: suboptimal hop count"
    elapsed = time.monotonic() - started
    for round_no in limit_misses:
        print(f"ACCEPTANCE 3 NOTE limit-induced miss in round {round_no}")
    assert len(limit_misses) <= rounds * 0.01
    assert elapsed < 60.0
    _ok(3, f"{rounds} instances, {len(limit_misses)} limit-induced misses, {elapsed:.1f}s")


def test_criterion_4_entailment_oracle_equivalence():
    rng = random.Random(0xE17A11)
    for round_no in range(200):
        m = random_schema_model(rng)
        closed = entail(m)
        assert set(closed) == naive_entail(m), f"round {round_no}"
        assert entail(closed) == closed, f"round {round_no}: not idempotent"
    _ok(4, "200 random schemas match the naive fixpoint; closure idempotent")


def test_criterion_5_datalog_oracle_equivalence():
    from test_rules import _random_model, _random_safe_rule

    rng = random.Random(0xDA7A)
    for round_no in range(200):
        m = _random_model(rng)
        assert len(m) <= 40
        rules = parse_ruleset(BROADCAST_DOMAIN_RULE) + [_random_safe_rule(rng) for _ in range(rng.randint(1, 3))]
        got = {(v.message, v.subject) for v in evaluate(m, rules)}
        expected = set()
        for rule in rules:
            for binding in all_rule_matches(m, rule):
                subject = binding[rule.subject.name]
                if isinstance(subject, Iri):
                    expected.add((rule.message, subject))
        assert got == expected, f"round {round_no}"
    _ok(5, "200 random models match the exhaustive substitution oracle")


# -- randomized federation scenario (criteria 6 and 8) -----------------------------


def test_criterion_6_conservation_and_atomicity():
    from datetime import timedelta

    rng = random.Random(0x5EED)
    world, sites = federation_world(4, 4, 2)
    active = []
    counter = 0
    events = 0
    clock_minutes = 0
    while events < 500:
        events += 1
        roll = rng.random()
        if active and roll < 0.3:
            slice_id = active.pop(rng.randrange(len(active)))
            world.delete_slice(slice_id)
        elif roll < 0.4:
            clock_minutes += rng.randint(1, 30)
            world.advance_time(
                world.clock.now + timedelta(minutes=rng.randint(1, 30))
            )
            active = [
                s for s in active if world.controller.slices[s].state == "Provisioned"
            ]
        else:
            counter += 1
            slice_id = f"s{counter}"
            adversarial = rng.random() < 0.25
            k = rng.randint(2, 3)
            if k == 3:
                chosen = rng.sample(sites, 3)
                members = [
                    (i + 1, chosen[i] if rng.random() < 0.7 else None) for i in range(k)
                ]
            else:
                members = [
                    (i + 1, rng.choice(sites) if rng.random() < 0.7 else None)
                    for i in range(k)
                ]
            bandwidth = 50000 if adversarial else rng.choice([50, 100, 200])
            text = federation_request(
                slice_id,
                members,
                bandwidth=bandwidth,
                broadcast=(k == 3),
                term_begin=world.clock.now.strftime("%Y-%m-%dT%H:%M:%SZ"),
            )
            before = world.serialized_states()
            manifest = world.submit_request(slice_id, text)
            if manifest is not None:
                active.append(slice_id)
            else:
                assert world.serialized_states() == before, (
                    f"event {events}: failed create mutated actor state"
                )
        problems = world.conservation_problems()
        assert problems == [], f"event {events}: {problems}"
    _ok(6, f"500 events, conservation held, {counter} creates issued")


def test_criterion_7_scenario_determinism(tmp_path, monkeypatch):
    for scenario in ("demo.scn", "ring.scn", "reject.scn"):
        runs = []
        for k in range(2):
            workdir = tmp_path / f"{scenario}-{k}"
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            buffer = io.StringIO()
            run_scenario(str(FIXTURES / scenario), out=buffer)
            manifests = {
                f.name: f.read_text() for f in sorted(workdir.glob("*.ndl"))
            }
            runs.append((buffer.getvalue(), manifests))
        assert runs[0] == runs[1], scenario
    _ok(7, "all shipped scenarios replay byte-identically")


def test_criterion_8_scale_smoke():
    started = time.monotonic()
    rng = random.Random(0x5CA1E)
    world, sites = federation_world(20, 8, 4)
    assert len(world.ams) == 20
    # counted in each AM's closed model: the substrate view keeps no devices or links
    models = [(am.domain, am.state.model) for am in world.ams.values()]
    devices = sum(
        m.value(d, vocab.IN_DOMAIN) == domain for domain, m in models for d in m.typed(vocab.DEVICE)
    )
    assert devices == 200
    links = sum(len(m.typed(vocab.NETWORK_CONNECTION)) for _, m in models)
    crossings = sum(len(am.state.substrate.borders) for am in world.ams.values())
    assert links + crossings >= 400

    provisioned = 0
    for n in range(50):
        k = 3 if n % 3 == 0 else 2
        if k == 3:
            # broadcast members must sit in distinct domains to be well formed
            members = [(i + 1, s) for i, s in enumerate(rng.sample(sites, 3))]
        else:
            members = [(i + 1, rng.choice(sites)) for i in range(k)]
        text = federation_request(f"scale{n}", members, bandwidth=50, broadcast=(k == 3))
        if world.submit_request(f"scale{n}", text) is not None:
            provisioned += 1
        problems = world.conservation_problems()
        assert problems == [], f"slice {n}: {problems}"
    elapsed = time.monotonic() - started
    assert provisioned == 50, f"only {provisioned}/50 slices provisioned"
    assert elapsed < 10.0, f"scale smoke took {elapsed:.1f}s"
    _ok(8, f"20 domains / {devices} devices / {links + crossings} links, 50 slices in {elapsed:.1f}s")


def _random_document(rng):
    m = Model({"e": "urn:doc/", "xsd": "http://www.w3.org/2001/XMLSchema#"})
    for _ in range(rng.randint(1, 40)):
        s = Iri(f"urn:doc/s{rng.randrange(10)}")
        p = Iri(f"urn:doc/p{rng.randrange(5)}")
        kind = rng.random()
        if kind < 0.5:
            o = Iri(f"urn:doc/o{rng.randrange(10)}")
        elif kind < 0.75:
            o = integer(rng.randrange(1000))
        else:
            o = string(rng.choice(["plain", 'quo"te', "tab\tsep", "line\nbreak", "väl"]))
        m.add(Triple(s, p, o))
    return m


def test_criterion_9_format_stability():
    for fixture in sorted(FIXTURES.glob("*.ndl")):
        text = fixture.read_text()
        once = serialize_document(parse_document(text))
        assert serialize_document(parse_document(once)) == once, fixture.name

    rng = random.Random(0xF0047)
    for round_no in range(1000):
        m = _random_document(rng)
        once = serialize_document(m)
        reparsed = parse_document(once)
        assert reparsed == m, f"round {round_no}: triples drift"
        assert serialize_document(reparsed) == once, f"round {round_no}: bytes drift"

    golden_schema = (FIXTURES / "golden" / "schema.ndl").read_text()
    assert serialize_document(builtin_schema()) == golden_schema

    world = World()
    world.add_substrate((FIXTURES / "renci.ndl").read_text())
    manifest = world.submit_request("demo1", (FIXTURES / "request-pair.ndl").read_text())
    golden_manifest = (FIXTURES / "golden" / "demo1-manifest.ndl").read_text()
    assert manifest == golden_manifest
    _ok(9, "fixtures + 1000 random documents are parse/serialize fixpoints; goldens stable")


# The event-log digests of one seed-1 round of the two World workloads of
# perfbench (`perfbench/run.py` prints them as `digest=`): a change that
# moves an embedding, an admission or an event line moves them.
_WORKLOAD_DIGESTS = {
    "churn-vlan": "8b1b920abe87be6f81f937def3f334ac8847b8469adecb8f43e41b11015326b8",
    "wide-ring": "3699bda0b72ca3e0ff77dc250ab496e8f9aa5b41c3b19751a2b8cdf3cfec3f9e",
}


@pytest.mark.parametrize("name", sorted(_WORKLOAD_DIGESTS))
def test_world_workload_rounds_keep_their_event_log_digests(monkeypatch, tmp_path, name):
    monkeypatch.syspath_prepend(str(FIXTURES.parent))
    from perfbench.workloads import WORKLOADS, Recorder

    workload = WORKLOADS[name](1, tmp_path)
    rec = Recorder()
    digest = workload.round(workload.setup(), rec, checks=False)
    assert rec.failed == {}
    assert digest == _WORKLOAD_DIGESTS[name]
