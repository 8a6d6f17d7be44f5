"""The one pipeline, in process: shards, sinks, resume, requeue.

A supervised fleet is ``run_units`` over shard *k* of *n* in *n*
processes with journal sinks, merged in global unit order; the CLI's
single-process run is shard 0 of 1 with a fold sink. These tests make
that identity a unit test — no subprocess, in-memory sinks — where CI
used to diff a fleet's stdout against a single process's.
"""

import dataclasses
import json

import pytest

from repro import obs
from repro.core.report import StudyAggregates
from repro.resolver.validating import ValidatingResolver
from repro.scanner.campaign import run_units
from repro.scanner.pipeline import (
    CampaignPlan,
    FoldSink,
    UnitUniverse,
    World,
    fold_record,
    unit_key,
)
from repro.server.authoritative import AuthoritativeServer
from repro.testbed.internet import BuildScope

PLAN = CampaignPlan(role="study", domains=16, tlds=8, resolvers=4, seed=5)


class MemorySink:
    """What a shard's checkpoint holds, without the file: journal records
    (through JSON, as the journal stores them) keyed by unit."""

    def __init__(self):
        self.records = {}
        self.notes = set()

    def done(self, key):
        return key in self.records

    def note(self, key, tag="requeued"):
        fresh = (tag, key) not in self.notes
        self.notes.add((tag, key))
        return fresh

    def record(self, key, record):
        self.records[key] = json.loads(json.dumps(record))


@pytest.fixture(scope="module")
def single_shard():
    world = World.build(PLAN)
    aggregates = StudyAggregates()
    resumed, executed = run_units(world, world.universe, FoldSink(aggregates))
    assert (resumed, executed) == (0, len(world.universe))
    return world, aggregates.render(len(world.universe.population))


@pytest.fixture(scope="module")
def single_shard_report(single_shard):
    return single_shard[1]


def test_study_stores_no_packets_and_no_answer_cache_evicts(single_shard):
    """The resolver packet cache fills only on repeat questions, which a
    study never asks: it stays empty off the service. And the answer
    caches' byte bound changes nothing where the entry bound did not."""
    world, __ = single_shard
    network = world.inet.network
    hosts = {id(host): host for host in map(network.host_at, network.addresses())}
    resolvers = [h for h in hosts.values() if isinstance(h, ValidatingResolver)]
    servers = [h for h in hosts.values() if isinstance(h, AuthoritativeServer)]
    assert any(r.name == "cli-upstream" for r in resolvers)
    assert sum(r.cache.hits for r in resolvers) > 0
    assert all(not r.packets.entries for r in resolvers)
    assert sum(s.answer_cache.hits for s in servers) > 0
    for cache in (s.answer_cache for s in servers):
        assert cache.evictions == 0
        assert cache.bytes == sum(
            len(key[0]) + len(entry.tail) for key, entry in cache.entries.items()
        )
        assert cache.bytes < cache.max_bytes // 8


@pytest.mark.parametrize("shards", [1, 2, 3])
def test_merged_shards_equal_the_single_shard_report(shards, single_shard_report):
    plan = dataclasses.replace(PLAN, workers=shards)
    records = {}
    for shard in range(shards):
        world = World.build(plan, scope=BuildScope(shard, shards))
        sink = MemorySink()
        run_units(world, world.universe.iter_shard(shard, shards), sink)
        assert len(sink.records) == world.universe.shard_size(shard, shards)
        records.update(sink.records)

    universe = UnitUniverse(plan)
    merged = StudyAggregates()
    for unit in universe:
        fold_record(merged, unit, records[unit_key(unit)])
    assert merged.render(len(universe.population)) == single_shard_report


def test_settled_units_are_not_measured_again():
    world = World.build(dataclasses.replace(PLAN, role="scan"))
    sink = MemorySink()
    units = list(world.universe)
    assert run_units(world, units[: len(units) // 2], sink) == (0, len(units) // 2)
    queries = world.engine.stats.queries
    # A resumed run walks the whole stream: the settled prefix costs no
    # query, the rest is measured.
    assert run_units(world, units, sink) == (len(units) // 2, len(units) - len(units) // 2)
    assert world.engine.stats.queries > queries
    queries, datagrams = world.engine.stats.queries, world.inet.network.stats.datagrams
    assert run_units(world, units, sink) == (len(units), 0)
    # ... and a fully settled stream costs none at all.
    assert (world.engine.stats.queries, world.inet.network.stats.datagrams) == (
        queries, datagrams
    )
    assert len(sink.records) == len(units)


def test_unhealthy_open_resolvers_are_quarantined_requeued_and_counted():
    plan = dataclasses.replace(
        PLAN, role="survey", resolvers=3, faults="burst:0.3:0.2:0.95"
    )
    obs.disable()
    obs.reset()
    obs.enable()
    try:
        world = World.build(plan)
        sink = MemorySink()
        run_units(world, world.universe, sink)

        def counted(event):
            family = obs.registry.get(f"repro_campaign_{event}_total")
            return family.labels(campaign="survey").value if family else 0

        opens = [
            record for record in sink.records.values()
            if record.get("access") == "open"
        ]
        requeued = [record for record in opens if record.get("requeued")]
        assert requeued, "the weather never made a resolver unhealthy"
        assert counted("quarantined") == counted("requeued") == len(requeued)
        assert {key for tag, key in sink.notes if tag == "requeued"} == {
            key for tag, key in sink.notes if tag == "quarantined"
        }
        # Every open resolver settles exactly once, requeued or not;
        # closed ones are Atlas's and never enter the requeue.
        assert counted("completed") == len(opens)
        assert all(
            not record.get("requeued")
            for record in sink.records.values()
            if record.get("access") == "closed"
        )
    finally:
        obs.disable()
        obs.reset()
