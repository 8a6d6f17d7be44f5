"""What the ledger declares: workloads, metrics, units, bound floors.

``BENCHMARK.json`` is written from these tables (``spread --write``) and
``test_ledger.py`` checks that a run emits exactly what they declare.
"""

from __future__ import annotations

from benchmarks.ledger.trace import LAYERS

#: One measurement is this many replicas of the same work (same seed,
#: one fresh interpreter each), run one after the other.
REPLICAS = 4

#: ``--seconds N`` asks for N seconds of measured work in total: each
#: replica does a quarter of it (per requested second 150 domains, 2.4 open
#: resolvers, 62 domains + 2.75 open resolvers of fleet, 560 queries), on
#: the 2-core host the ledger was sized on. ``--smoke`` is ``--seconds 1``.
RUN_SECONDS = 12

#: name -> why it exists (one line; copied into BENCHMARK.json).
WORKLOADS = {
    "scan-stream": (
        "paper 4.1 pipeline, closed loop, every name asked once: caches only "
        "miss and evict, lazy zone signing and the wire codec are in the window"
    ),
    "survey-probe": (
        "paper 4.2 pipeline, closed loop, cold resolvers against the same 49 "
        "probe zones: answer-cache and verification-memo hits, NSEC3 hashing "
        "at high iteration counts, denial proofs"
    ),
    "fleet-warm": (
        "supervised 2-worker study campaign, cold pass in set-up and warm pass "
        "measured: process spawn, heartbeats, journal fsyncs, build-cache "
        "load, merge"
    ),
    "serve-mixed": (
        "real-socket service, closed loop of 2 sockets with 1 outstanding "
        "query each, 5% attack and 30% unique names: asyncio frontends, "
        "engine queue, guard"
    ),
}

#: (name, unit, better, floor of the regression bound). The bound written
#: to BENCHMARK.json is max(floor, 3 x the worst spread ``spread``
#: measured), capped at the contract's 0.25; ``setup_s`` then takes the
#: largest bound of all.
END_TO_END = (
    ("setup_s", "s", "lower", 0.15),
    ("wall_s", "s", "lower", 0.10),
    ("cpu_s", "s", "lower", 0.10),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("throughput_ops_s", "1/s", "higher", 0.10),
    ("latency_p50_ms", "ms", "lower", 0.10),
    ("latency_tail_ms", "ms", "lower", 0.15),
)
BOUND_CAP = 0.25

#: Counters and gauges of the traced run that are not span layers.
COUNTERS = {
    "net.datagrams": "count",
    "net.bytes_sent": "count",
    "net.sim_events": "count",
    "dnssec.cost.sha1_compressions": "count",
    "dnssec.cost.nsec3_hashes": "count",
    "dnssec.cost.signature_verifications": "count",
    "dnssec.validate.memo_hit_ratio": "ratio",
    "server.answer_cache.hit_ratio": "ratio",
    "server.answer_cache.evictions": "count",
    "server.answer_cache.invalidations": "count",
    "resolver.cache.hit_ratio": "ratio",
    "resolver.cache.evictions": "count",
    "resolver.guard.budget_exceeded": "count",
    "testbed.lazy_zone.builds": "count",
    "testbed.lazy_zone.evictions": "count",
    "zone.build_cache.hit": "count",
    "zone.build_cache.load": "count",
    "zone.build_cache.store": "count",
    "zone.build_cache.wait": "count",
    "zone.build_cache.corrupt": "count",
    "scanner.fleet.shard_build_s_max": "s",
    "scanner.fleet.shard_measure_s_max": "s",
    "scanner.fleet.supervise_overhead_s": "s",
    "scanner.fleet.restarts": "count",
    "scanner.journal.bytes": "count",
    "service.engine_p50_ms": "ms",
    "service.engine_p99_ms": "ms",
    "service.peak_inflight": "count",
    "service.shed_refused": "count",
    "service.shed_stale": "count",
    "service.expired": "count",
    "service.server_cpu_s": "s",
    "service.client_cpu_s": "s",
    "service.hot_p50_ms": "ms",
    "service.unique_p50_ms": "ms",
    "service.attack_p50_ms": "ms",
    "service.paced_p50_ms": "ms",
    "service.paced_p99_ms": "ms",
    "service.paced_late_p99_ms": "ms",
    "service.paced_failed_share": "ratio",
    "failed_share": "ratio",
    "host.spin_ms": "ms",
    "host.stretch": "ratio",
    "trace.overhead_ratio": "ratio",
}


#: Per-layer metrics are shares and counts of work: most have no good
#: direction, so BENCHMARK.json declares them "lower" (less work, less
#: time) except these, where more means more work avoided.
HIGHER_IS_BETTER = frozenset({
    "dnssec.validate.memo_hit_ratio",
    "server.answer_cache.hit_ratio",
    "resolver.cache.hit_ratio",
    "zone.build_cache.hit",
})


def per_layer_units():
    """Every per-layer metric name -> unit, spans first."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(COUNTERS)
    return units


def end_to_end_units():
    return {name: unit for name, unit, __, __ in END_TO_END}
