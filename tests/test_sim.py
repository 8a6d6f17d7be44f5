"""The discrete-event simulation kernel and the concurrent campaign executor.

Three concerns, layered:

1. kernel mechanics — heap ordering, generator drivers, session frames;
2. serial equivalence — at ``concurrency=1`` the refactored fabric must
   reproduce the pre-kernel serial fabric's clock arithmetic bit for bit
   (pinned against a hand-computed reference trajectory);
3. campaign determinism — the same seed must yield byte-identical answers
   and classifications at any in-flight window, while the simulated
   elapsed time shrinks by roughly the window width.
"""

import gc
import random

import pytest

from repro import obs
from repro.net.network import Network
from repro.net.sim import CampaignExecutor, SimKernel
from repro.net.transport import QueryFailure, Transport
from repro.resolver.policy import VENDOR_POLICIES
from repro.scanner.engine import ScanEngine, shard_source_ip
from repro.testbed.internet import build_internet
from repro.testbed.population import Population, generate_tlds
from repro.testbed.resolvers import deploy_resolvers
from repro.testbed.rfc9276_wild import build_probe_zones

from tests.conftest import run_survey

from tests.conftest import SMALL_CONFIG


@pytest.fixture(autouse=True)
def _release_tracer_clock():
    """Tests here claim the obs clock; never leak a claim to other tests."""
    yield
    obs.unbind_clock()


class TestSimKernel:
    def test_events_run_in_time_order(self):
        kernel = SimKernel()
        seen = []
        kernel.schedule(30.0, lambda: seen.append("c"))
        kernel.schedule(10.0, lambda: seen.append("a"))
        kernel.schedule(20.0, lambda: seen.append("b"))
        assert kernel.run_until_idle() == 3
        assert seen == ["a", "b", "c"]
        assert kernel.now == 30.0

    def test_equal_times_run_fifo(self):
        kernel = SimKernel()
        seen = []
        for tag in ("first", "second", "third"):
            kernel.schedule(5.0, lambda t=tag: seen.append(t))
        kernel.run_until_idle()
        assert seen == ["first", "second", "third"]

    def test_run_next_never_rewinds_the_clock(self):
        kernel = SimKernel(start_ms=100.0)
        kernel.schedule_at(40.0, lambda: None)
        kernel.run_next()
        assert kernel.now == 100.0

    def test_execute_scheduled_advances_committed_clock(self):
        kernel = SimKernel()

        def steps():
            yield 10.0
            yield 5.0
            return "done"

        assert kernel.execute(steps()) == "done"
        assert kernel.now == 15.0
        assert kernel.events_run >= 2

    def test_execute_inline_inside_frame_matches_scheduled(self):
        def steps():
            yield 10.0
            yield 5.0
            return "done"

        scheduled = SimKernel()
        scheduled.execute(steps())

        framed = SimKernel()
        with framed.frame() as clock:
            assert framed.execute(steps()) == "done"
            assert clock.read() == 15.0
        assert framed.now == 0.0  # the frame charged nothing to the run

    def test_execute_propagates_exceptions(self):
        kernel = SimKernel()

        def bad():
            yield 1.0
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            kernel.execute(bad())

    def test_finished_top_level_query_leaves_no_cycle(self):
        # A top-level query's result (a whole response graph) must die by
        # reference counting the moment the caller drops it, not wait
        # for the cyclic collector.
        kernel = SimKernel()

        def steps(index):
            yield 1.0
            yield 2.0
            return {"answer": [object() for __ in range(index % 4)]}

        gc.collect()
        gc.disable()
        try:
            for index in range(50):
                kernel.execute(steps(index))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_frames_stack(self):
        clock = SimKernel().clock
        clock.advance(100.0)
        clock.push_frame()
        clock.advance(7.0)
        clock.push_frame(200.0)
        assert clock.read() == 200.0
        assert clock.pop_frame() == 200.0
        assert clock.pop_frame() == 107.0
        assert clock.read() == 100.0


class TestNetworkOnKernel:
    def test_clock_property_read_write(self):
        net = Network(seed=1)
        net.clock_ms += 60.0
        assert net.clock_ms == 60.0
        assert net.kernel.now == 60.0

    def test_serial_exchange_matches_legacy_clock_arithmetic(self):
        """Pin the pre-kernel fabric's trajectory: one unreachable send
        costs exactly one path latency drawn from Random(seed)."""
        net = Network(seed=42)
        reference = random.Random(42)
        expected = 10.0 + reference.random() * 10.0 * 0.2
        assert net.send("192.0.2.1", "192.0.2.200", b"ping") is None
        assert net.clock_ms == pytest.approx(expected)

    def test_transport_failure_timing_matches_legacy(self):
        """retries=1, no backoff: two unreachable sends, two latencies."""
        net = Network(seed=7)
        transport = Transport(net, "192.0.2.1", retries=1, backoff=None)
        from repro.dns.message import make_query

        reference = random.Random(7)
        expected = sum(10.0 + reference.random() * 2.0 for __ in range(2))
        with pytest.raises(QueryFailure):
            transport.query("192.0.2.200", make_query("x.example.", 1))
        assert net.clock_ms == pytest.approx(expected)

    def test_shared_kernel_one_clock(self):
        kernel = SimKernel()
        a = Network(seed=1, kernel=kernel)
        b = Network(seed=2, kernel=kernel)
        a.clock_ms += 25.0
        assert b.clock_ms == 25.0


class TestObsClockBinding:
    def test_second_network_steals_unclaimed_clock(self):
        """The historical behaviour, kept for unclaimed runs."""
        first = Network(seed=1)
        first.clock_ms = 111.0
        second = Network(seed=2)
        second.clock_ms = 222.0
        assert obs.tracer.clock() == 222.0

    def test_claimed_kernel_keeps_the_clock(self):
        """Regression: a second Network must not rebind a claimed run."""
        first = Network(seed=1)
        assert first.kernel.bind_obs() is True
        first.clock_ms = 111.0
        second = Network(seed=2)
        second.clock_ms = 222.0
        assert obs.tracer.clock() == 111.0

    def test_new_exclusive_claim_takes_over(self):
        first = Network(seed=1)
        first.kernel.bind_obs()
        second = Network(seed=2)
        assert second.kernel.bind_obs() is True
        second.clock_ms = 5.0
        assert obs.tracer.clock() == 5.0

    def test_unbind_releases_claim(self):
        net = Network(seed=1)
        net.kernel.bind_obs()
        obs.unbind_clock()
        late = Network(seed=3)
        late.clock_ms = 9.0
        assert obs.tracer.clock() == 9.0


class TestCampaignExecutor:
    def _session(self, kernel, cost_ms):
        def thunk():
            kernel.clock.advance(cost_ms)
            return cost_ms

        return thunk

    def test_serial_window_bypasses_frames(self):
        kernel = SimKernel()
        executor = CampaignExecutor(kernel, concurrency=1)
        executor.submit(self._session(kernel, 100.0))
        assert kernel.now == 100.0
        assert executor.sessions == 0  # bypassed, no frame bookkeeping

    def test_window_overlaps_sessions(self):
        kernel = SimKernel()
        executor = CampaignExecutor(kernel, concurrency=2)
        for __ in range(4):
            executor.submit(self._session(kernel, 100.0))
        executor.drain()
        # 4 × 100ms with a window of 2 → two lanes of 200ms.
        assert kernel.now == 200.0
        assert executor.sessions == 4
        assert executor.busy_ms == 400.0

    def test_wide_window_runs_all_at_once(self):
        kernel = SimKernel()
        executor = CampaignExecutor(kernel, concurrency=64)
        for cost in (10.0, 30.0, 20.0):
            executor.submit(self._session(kernel, cost))
        executor.drain()
        assert kernel.now == 30.0

    def test_nested_submit_runs_inline(self):
        kernel = SimKernel()
        outer = CampaignExecutor(kernel, concurrency=4)

        def session():
            # A session that itself submits (engine.query inside run()):
            # the nested submit must charge this session's frame.
            inner = CampaignExecutor(kernel, concurrency=4)
            inner.submit(self._session(kernel, 50.0))
            return kernel.clock.read()

        outer.submit(session)
        outer.drain()
        assert kernel.now == 50.0

    def test_results_returned_in_submission_order(self):
        kernel = SimKernel()
        executor = CampaignExecutor(kernel, concurrency=3)
        results = [executor.submit(self._session(kernel, c)) for c in (30, 10, 20)]
        executor.drain()
        assert results == [30, 10, 20]


def _small_internet(seed=11):
    tlds = generate_tlds(SMALL_CONFIG)
    domains = Population(SMALL_CONFIG, tlds=tlds, include_tail=False)
    return build_internet(domains, tlds, seed=seed), domains


def _survey_run(concurrency, resolvers=12, seed=11):
    inet, __ = _small_internet(seed)
    probes = build_probe_zones(inet)
    deployment = deploy_resolvers(
        inet, open_v4=resolvers, open_v6=2, closed_v4=2, closed_v6=1, seed=seed
    )
    entries = run_survey(
        inet, probes, deployment, (0, 1, 150), concurrency=concurrency
    )
    matrices = [
        {key: (r.rcode, r.ad, r.answered) for key, r in entry.matrix.items()}
        for entry in entries
    ]
    labels = [
        (
            entry.classification.is_validating,
            entry.classification.limits_iterations,
            entry.classification.insecure_threshold,
            entry.classification.servfail_threshold,
        )
        for entry in entries
    ]
    return matrices, labels, inet.network.clock_ms


class TestCampaignDeterminism:
    """Same seed ⇒ identical results at any in-flight window."""

    def test_survey_identical_across_concurrency(self):
        m1, l1, clock1 = _survey_run(1)
        m8, l8, clock8 = _survey_run(8)
        m64, l64, clock64 = _survey_run(64)
        assert m1 == m8 == m64
        assert l1 == l8 == l64
        # Overlap shrinks elapsed time, monotonically in the window.
        assert clock8 < clock1
        assert clock64 <= clock8

    def test_survey_speedup_at_window_32(self):
        """The acceptance bar: ≥10× shorter simulated elapsed time."""
        __, __, serial = _survey_run(1, resolvers=24)
        __, __, wide = _survey_run(32, resolvers=24)
        assert serial / wide >= 10.0

    def test_engine_answers_identical_across_concurrency(self):
        def scan(concurrency):
            inet, domains = _small_internet()
            upstream = inet.make_resolver(
                VENDOR_POLICIES["cloudflare"], name=f"det-{concurrency}"
            )
            engine = ScanEngine(
                inet.network,
                inet.allocator.next_v4(),
                upstream.ip,
                concurrency=concurrency,
                shards=min(concurrency, 4),
            )
            answers = [
                engine.query(d.name, 48, checking_disabled=True)
                for d in domains[:30]
            ]
            engine.drain()
            summary = [
                (a.rcode, a.ad, a.answered, len(a.answer)) for a in answers
            ]
            return summary, engine.stats

        serial_summary, serial_stats = scan(1)
        wide_summary, wide_stats = scan(16)
        assert serial_summary == wide_summary
        assert serial_stats.rcodes == wide_stats.rcodes
        def span_ms(stats):
            return stats.finished_ms - stats.started_ms

        assert span_ms(wide_stats) < span_ms(serial_stats)

    def test_serial_engine_clock_matches_legacy_trajectory(self):
        """concurrency=1 must leave the exact clock the serial engine did:
        run the same campaign twice on identically-seeded internets, once
        settled by ``drain()`` as a campaign phase is, and once through
        bare queries."""
        inet_a, domains = _small_internet()
        upstream_a = inet_a.make_resolver(VENDOR_POLICIES["bind9-2021"], name="legacy")
        engine_a = ScanEngine(
            inet_a.network, inet_a.allocator.next_v4(), upstream_a.ip, concurrency=1
        )
        for d in domains[:20]:
            engine_a.query(d.name, 48)
        engine_a.drain()

        inet_b, domains_b = _small_internet()
        upstream_b = inet_b.make_resolver(VENDOR_POLICIES["bind9-2021"], name="legacy")
        engine_b = ScanEngine(
            inet_b.network, inet_b.allocator.next_v4(), upstream_b.ip
        )
        for domain in domains_b[:20]:
            engine_b.query(domain.name, 48)

        assert inet_a.network.clock_ms == inet_b.network.clock_ms
        assert engine_a.stats.finished_ms == engine_b.stats.finished_ms


class TestNoCyclicGarbage:
    def test_top_level_queries_leave_nothing_for_the_collector(self):
        # Through the whole fabric: transport session, authoritative and
        # resolver answers, the decoded response graph.
        inet, domains = _small_internet()
        upstream = inet.make_resolver(VENDOR_POLICIES["cloudflare"], name="gc")
        engine = ScanEngine(inet.network, inet.allocator.next_v4(), upstream.ip)
        names = [spec.name for spec in domains[:20]]
        engine.query(names[0], 48)  # first-use state (tracer claims, memos)
        gc.collect()
        gc.disable()
        try:
            for name in names:
                for qname, qtype in ((name, 48), (name, 1), (f"nx-gc.{name}", 1)):
                    assert engine.query(qname, qtype) is not None
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestMicroPerf:
    def test_encode_memo_matches_to_wire(self):
        from repro.dns.message import Message, make_query

        msg = make_query("www.example.com", 1, want_dnssec=True)
        first = msg.encode()
        assert first == msg.to_wire()
        assert msg.encode() == first  # memo hit, same bytes

    def test_encode_patches_refreshed_id(self):
        from repro.dns.message import Message, make_query

        msg = make_query("www.example.com", 1, want_dnssec=True)
        before = msg.encode()
        msg.refresh_id()
        after = msg.encode()
        assert after[:2] == msg.id.to_bytes(2, "big")
        assert after[2:] == before[2:]
        assert Message.from_wire(after).id == msg.id

    def test_nsec3_memo_matches_uncached_and_still_charges(self):
        from repro.dnssec.costmodel import meter
        from repro.dnssec.nsec3hash import (
            _compute_iterated_digest,
            nsec3_hash_name,
        )

        salt, iterations = bytes.fromhex("abcd"), 25
        first = nsec3_hash_name("memo.example.com", salt, iterations)
        before = meter.snapshot()
        second = nsec3_hash_name("memo.example.com", salt, iterations)
        charged = meter.snapshot() - before
        assert second == first
        from repro.dns.name import Name

        assert first == _compute_iterated_digest(
            Name.from_text("memo.example.com").canonical_wire(), salt, iterations
        )
        # The memo saves host CPU but the cost model still bills the
        # resolver's per-query hashing work (CVE-2023-50868 realism).
        assert charged.nsec3_hashes == 1
        assert charged.sha1_compressions > 0


class TestConcurrentCampaignResume:
    def test_checkpoint_resume_issues_zero_queries(self, tmp_path):
        from repro.scanner.campaign import CampaignCheckpoint, run_units
        from repro.scanner.pipeline import CampaignPlan, World

        world = World.build(
            CampaignPlan(
                role="scan", domains=12, tlds=6, resolvers=0, seed=11, concurrency=8
            )
        )
        units = list(world.universe)
        path = tmp_path / "campaign.json"
        first = CampaignCheckpoint(path)
        assert run_units(world, units, first) == (0, len(units))
        first.flush()

        network = world.inet.network
        datagrams_before = network.stats.datagrams
        resumed = CampaignCheckpoint(path)
        assert run_units(world, units, resumed) == (len(units), 0)
        assert network.stats.datagrams == datagrams_before
        assert {key: resumed.get(key) for key in resumed.keys()} == {
            key: first.get(key) for key in first.keys()
        }


class TestSharding:
    def test_shard_sources_stay_out_of_allocator_space(self):
        for index in range(64):
            ip = shard_source_ip("10.0.0.77", index)
            first, second = (int(part) for part in ip.split(".")[:2])
            assert first == 100
            assert 64 <= second <= 127

    def test_shard_sources_distinct_per_engine(self):
        fleet_a = {shard_source_ip("10.0.0.1", i) for i in range(8)}
        fleet_b = {shard_source_ip("10.0.0.2", i) for i in range(8)}
        assert len(fleet_a) == 8
        assert fleet_a.isdisjoint(fleet_b)

    def test_sharded_engine_rotates_clients(self):
        inet, domains = _small_internet()
        upstream = inet.make_resolver(VENDOR_POLICIES["cloudflare"], name="shards")
        engine = ScanEngine(
            inet.network, inet.allocator.next_v4(), upstream.ip, shards=3
        )
        sources = {engine._client_for(i).source_ip for i in range(6)}
        assert len(sources) == 3
        answers = [engine.query(d.name, 48) for d in domains[:6]]
        engine.drain()
        assert all(a.answered for a in answers)
