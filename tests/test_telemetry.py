"""The streaming telemetry layer: journal, scraper, export, live console.

Four contracts under test:

1. **journal determinism** — the JSONL event stream is byte-identical
   across reruns at one concurrency width, and identical with
   timestamps stripped across widths (sessions execute in submission
   order; only frame-local time differs), including under chaos faults;
2. **scraper neutrality** — a run with the periodic scraper attached
   produces the same campaign results and final metric values as one
   without, at any kernel width;
3. **export validity** — the Chrome-trace/Perfetto document is
   schema-shaped (ph/ts/dur/pid/tid), with one lane per root span and
   the journal on the kernel lane;
4. **merge soundness** — the registries of two half-campaigns merged
   equal the registry of the single full run (the sharding primitive).
"""

import io
import json

import pytest

from repro import obs
from repro.dns.name import interned
from repro.dnssec.nsec3hash import digest_memo
from repro.dnssec.validator import verification_memo
from repro.net.faults import parse_fault_spec
from repro.net.sim import SimKernel
from repro.obs.events import EventJournal
from repro.obs.export import chrome_trace
from repro.obs.live import LiveTelemetry, ProgressConsole
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import RingSeries, TimeSeriesScraper, family_sum
from repro.obs.trace import Tracer
from repro.resolver.policy import VENDOR_POLICIES
from repro.scanner.engine import ScanEngine
from repro.testbed.internet import build_internet
from repro.testbed.population import Population, generate_tlds

from tests.conftest import SMALL_CONFIG


@pytest.fixture(autouse=True)
def clean_obs():
    """Telemetry off, journal detached, and clock released around each test."""
    obs.disable()
    obs.attach_journal(None)
    obs.reset()
    yield
    obs.disable()
    obs.attach_journal(None)
    obs.reset()
    obs.unbind_clock()


def _small_internet(seed=11):
    tlds = generate_tlds(SMALL_CONFIG)
    domains = Population(SMALL_CONFIG, tlds=tlds, include_tail=False)
    return build_internet(domains, tlds, seed=seed), domains


# -- the event journal ------------------------------------------------------


class TestEventJournal:
    def test_ring_is_bounded_but_seq_is_not(self):
        journal = EventJournal(ring_size=8)
        for index in range(20):
            journal.emit("query.issued", float(index), n=index)
        assert len(journal) == 8
        assert journal.seq == 20
        assert [e.fields["n"] for e in journal.tail()] == list(range(12, 20))

    def test_sampling_writes_one_in_n_to_the_sink(self):
        sink = io.StringIO()
        journal = EventJournal(sink=sink, seed=3, sample={"query.issued": 4})
        for index in range(16):
            journal.emit("query.issued", float(index), n=index)
        lines = sink.getvalue().splitlines()
        assert len(lines) == 4
        assert journal.written == 4
        assert journal.sampled_out == 12
        # The ring still holds everything the sink sampled away.
        assert len(journal) == 16

    def test_sampling_is_a_pure_function_of_seed(self):
        def kept(seed):
            sink = io.StringIO()
            journal = EventJournal(sink=sink, seed=seed, sample={"q": 4})
            for index in range(16):
                journal.emit("q", float(index), n=index)
            return [json.loads(line)["n"] for line in sink.getvalue().splitlines()]

        assert kept(7) == kept(7)
        # Different seeds rotate the phase; the keep *rate* is unchanged.
        assert len(kept(1)) == len(kept(2)) == 4

    def test_unsampled_kinds_always_reach_the_sink(self):
        sink = io.StringIO()
        journal = EventJournal(sink=sink, seed=0)
        for index in range(5):
            journal.emit("checkpoint.flush", float(index), records=index)
        assert journal.written == 5

    def test_guard_trip_dumps_the_ring(self):
        sink = io.StringIO()
        journal = EventJournal(sink=sink, ring_size=16, dump_min_gap=4)
        journal.emit("query.completed", 1.0, qname="a.test")
        journal.emit("guard.trip", 2.0, resolver="r1", ceiling="hash_cost")
        records = [json.loads(line) for line in sink.getvalue().splitlines()]
        dump = records[-1]
        assert dump["kind"] == "flight.dump"
        assert dump["reason"] == "guard.trip"
        # The dump carries the unsampled recent history, trip included.
        assert [e["kind"] for e in dump["events"]] == [
            "query.completed",
            "guard.trip",
        ]
        assert journal.dumps == 1

    def test_dump_storm_is_rate_limited(self):
        journal = EventJournal(ring_size=8, dump_min_gap=10)
        journal.emit("guard.trip", 1.0)
        for t in range(5):
            journal.emit("guard.trip", 2.0 + t)
        assert journal.dumps == 1
        assert journal.dumps_suppressed == 5

    def test_reserved_record_keys_win(self):
        journal = EventJournal()
        event = journal.emit("guard.shed", 7.0, seq="spoofed", action="refused")
        record = event.to_record()
        assert record["seq"] == 1
        assert record["action"] == "refused"

    def test_module_emit_guards_on_attachment(self):
        assert obs.emit("query.issued", 1.0) is None
        journal = obs.attach_journal(EventJournal())
        assert obs.events
        event = obs.emit("query.issued", 1.0, qname="x")
        assert event is journal.tail()[-1]
        obs.attach_journal(None)
        assert not obs.events


# -- periodic kernel tasks --------------------------------------------------


class TestPeriodicTasks:
    def test_fires_at_due_times_across_heap_jumps(self):
        kernel = SimKernel()
        ticks = []
        kernel.every(300.0, ticks.append)
        kernel.schedule_at(1000.0, lambda: None)
        kernel.run_until_idle()
        # The event commits the clock to 1000; every crossed due time
        # fires first, at its own due time, in order.
        assert ticks == [300.0, 600.0, 900.0]
        assert kernel.periodic_runs == 3

    def test_fires_across_direct_clock_writes(self):
        kernel = SimKernel()
        ticks = []
        kernel.every(100.0, ticks.append)
        kernel.clock.write(250.0)  # e.g. QPS pacing or a requeue delay
        assert ticks == [100.0, 200.0]

    def test_frame_local_time_does_not_fire(self):
        kernel = SimKernel()
        ticks = []
        kernel.every(100.0, ticks.append)
        with kernel.frame():
            kernel.clock.advance(1000.0)
        assert ticks == []
        assert kernel.now == 0.0

    def test_cancel_stops_firing_and_clears_the_hook(self):
        kernel = SimKernel()
        ticks = []
        task = kernel.every(100.0, ticks.append)
        kernel.clock.write(100.0)
        kernel.cancel(task)
        kernel.clock.write(500.0)
        assert ticks == [100.0]
        assert kernel.clock.on_commit is None

    def test_run_until_idle_terminates_with_tasks_registered(self):
        kernel = SimKernel()
        kernel.every(10.0, lambda t: None)
        kernel.schedule(35.0, lambda: None)
        assert kernel.run_until_idle() == 1
        assert kernel.periodic_runs == 3

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            SimKernel().every(0, lambda t: None)


# -- the time-series scraper ------------------------------------------------


class TestRingSeries:
    def test_overwrites_oldest_past_capacity(self):
        series = RingSeries("s", capacity=4)
        for index in range(7):
            series.append(float(index), float(index * 10))
        assert len(series) == 4
        assert series.dropped == 3
        assert series.items() == [(3.0, 30.0), (4.0, 40.0), (5.0, 50.0), (6.0, 60.0)]
        assert series.last() == (6.0, 60.0)


class TestScraper:
    def _kernel_with_counter(self):
        kernel = SimKernel()
        registry = MetricsRegistry()
        counter = registry.counter("repro_scan_queries_total", "t")
        for at in (100.0, 700.0, 1300.0, 1900.0):
            kernel.schedule_at(at, counter.inc)
        return kernel, registry

    def test_samples_on_an_even_time_base(self):
        kernel, registry = self._kernel_with_counter()
        scraper = TimeSeriesScraper(
            kernel,
            registry,
            interval_ms=500.0,
            selectors=[("q", lambda r: family_sum(r, "repro_scan_queries_total"))],
        ).start()
        kernel.run_until_idle()
        scraper.scrape(kernel.now)
        assert scraper.series["q"].items() == [
            (500.0, 1.0),
            (1000.0, 2.0),
            (1500.0, 3.0),
            (1900.0, 4.0),
        ]

    def test_export_shapes(self):
        kernel, registry = self._kernel_with_counter()
        scraper = TimeSeriesScraper(
            kernel,
            registry,
            interval_ms=1000.0,
            selectors=[("q", lambda r: family_sum(r, "repro_scan_queries_total"))],
        ).start()
        kernel.run_until_idle()
        doc = scraper.to_json()
        assert doc["interval_ms"] == 1000.0
        assert doc["series"]["q"]["t_ms"] == [1000.0]
        csv = scraper.to_csv()
        assert csv.splitlines()[0] == "t_ms,q"
        assert csv.splitlines()[1] == "1000,2"

    def test_rates_derive_per_second_deltas(self):
        kernel, registry = self._kernel_with_counter()
        scraper = TimeSeriesScraper(
            kernel,
            registry,
            interval_ms=1000.0,
            selectors=[("q", lambda r: family_sum(r, "repro_scan_queries_total"))],
        ).start()
        kernel.run_until_idle()
        scraper.scrape(2000.0)
        assert scraper.rates("q") == [(2000.0, 2.0)]  # 2 more queries in 1 s


# -- determinism across widths and reruns -----------------------------------


def _scan_with_telemetry(concurrency, chaos=False, seed=11):
    """One instrumented scan campaign; returns (journal text, summary,
    final scraped values)."""
    inet, domains = _small_internet(seed)
    if chaos:
        inet.network.set_faults(parse_fault_spec("chaos", seed=seed))
    obs.enable()
    inet.network.kernel.bind_obs()
    sink = io.StringIO()
    obs.attach_journal(EventJournal(sink=sink, seed=seed))
    scraper = TimeSeriesScraper(
        inet.network.kernel, obs.registry, interval_ms=500.0
    ).start()
    upstream = inet.make_resolver(VENDOR_POLICIES["cloudflare"], name="tel")
    engine = ScanEngine(
        inet.network,
        inet.allocator.next_v4(),
        upstream.ip,
        target_retries=2 if chaos else 0,
        concurrency=concurrency,
        shards=min(concurrency, 4),
    )
    answers = [
        engine.query(d.name, 48, checking_disabled=True) for d in domains[:30]
    ]
    engine.drain()
    scraper.scrape(inet.network.kernel.now)
    summary = [(a.rcode, a.ad, a.answered) for a in answers]
    finals = {
        name: series.last()[1] for name, series in scraper.series.items()
    }
    obs.attach_journal(None)
    obs.disable()
    obs.reset()
    obs.unbind_clock()
    return sink.getvalue(), summary, finals


def _strip_timestamps(journal_text):
    stripped = []
    for line in journal_text.splitlines():
        record = json.loads(line)
        record.pop("t", None)
        for nested in record.get("events", ()):
            nested.pop("t", None)
        stripped.append(json.dumps(record, sort_keys=True))
    return stripped


class TestStreamingDeterminism:
    def test_journal_identical_across_widths_under_chaos(self):
        """Concurrency 1 vs 32 under chaos: same events, same order, same
        sink sampling — only frame-local timestamps differ."""
        j1, s1, f1 = _scan_with_telemetry(1, chaos=True)
        j32, s32, f32 = _scan_with_telemetry(32, chaos=True)
        assert s1 == s32
        assert _strip_timestamps(j1) == _strip_timestamps(j32)
        # Final cumulative scraped values agree across kernel widths.
        assert f1["scan_queries_total"] == f32["scan_queries_total"]
        assert f1["net_datagrams_total"] == f32["net_datagrams_total"]
        assert f1["faults_injected_total"] == f32["faults_injected_total"]

    def test_journal_byte_identical_on_rerun(self):
        j_a, __, __ = _scan_with_telemetry(8, chaos=True)
        j_b, __, __ = _scan_with_telemetry(8, chaos=True)
        assert j_a == j_b

    def test_telemetry_does_not_change_results(self):
        """The same campaign with no telemetry at all yields the same
        answers: emission sites and the scraper are observers only."""
        __, with_telemetry, __ = _scan_with_telemetry(8)
        inet, domains = _small_internet(11)
        upstream = inet.make_resolver(VENDOR_POLICIES["cloudflare"], name="tel")
        engine = ScanEngine(
            inet.network,
            inet.allocator.next_v4(),
            upstream.ip,
            concurrency=8,
            shards=4,
        )
        answers = [
            engine.query(d.name, 48, checking_disabled=True) for d in domains[:30]
        ]
        engine.drain()
        assert [(a.rcode, a.ad, a.answered) for a in answers] == with_telemetry


# -- Perfetto export --------------------------------------------------------


class TestChromeTraceExport:
    def _span_tree(self):
        tracer = Tracer(clock=iter([0.0, 1.0, 5.0, 9.0, 12.0, 14.0]).__next__)
        with tracer.span("probe.query", qname="x.test"):
            with tracer.span("net.hop", dst="10.0.0.9"):
                pass
            with tracer.span("resolver.validate"):
                pass
        return tracer

    def test_document_schema_validates(self):
        tracer = self._span_tree()
        journal = EventJournal()
        journal.emit("guard.trip", 4.0, resolver="r1")
        doc = chrome_trace(tracer.roots, journal.tail())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert doc["displayTimeUnit"] == "ms"
        for entry in doc["traceEvents"]:
            assert entry["ph"] in ("X", "i", "M")
            assert isinstance(entry["pid"], int)
            if entry["ph"] == "X":
                assert isinstance(entry["ts"], int)
                assert isinstance(entry["dur"], int) and entry["dur"] >= 0
            if entry["ph"] == "i":
                assert entry["s"] == "g"
        json.dumps(doc)  # must be serialisable as-is

    def test_lane_assignment(self):
        tracer = self._span_tree()
        journal = EventJournal()
        journal.emit("fault.inject", 2.0, fault="jitter")
        doc = chrome_trace(tracer.roots, journal.tail())
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert len(spans) == 3  # root + two children, one lane
        assert {s["tid"] for s in spans} == {1}
        assert [i["tid"] for i in instants] == [0]  # kernel lane
        names = {
            m["args"]["name"]
            for m in doc["traceEvents"]
            if m["ph"] == "M" and m["name"] == "thread_name"
        }
        assert "kernel events" in names
        assert any(n.startswith("probe.query") for n in names)

    def test_span_args_carry_cost_and_attributes(self):
        tracer = self._span_tree()
        doc = chrome_trace(tracer.roots, ())
        root = next(e for e in doc["traceEvents"] if e.get("name") == "probe.query")
        assert root["args"]["qname"] == "x.test"
        assert root["ts"] == 0 and root["dur"] == 14_000  # µs


# -- the live console and the stall detector --------------------------------


class TestProgressConsole:
    def _console(self, stall_after_ms=3000.0):
        kernel = SimKernel()
        registry = MetricsRegistry()
        sink = io.StringIO()
        journal = EventJournal(sink=sink)
        stream = io.StringIO()
        console = ProgressConsole(
            kernel,
            registry,
            stream=stream,
            heartbeat_ms=1000.0,
            stall_after_ms=stall_after_ms,
            journal=journal,
            label="wedged",
        ).start()
        return kernel, registry, console, stream, sink

    def test_heartbeats_ride_the_periodic_rail(self):
        kernel, registry, console, stream, __ = self._console()
        registry.counter("repro_campaign_completed_total", "t").inc(3)
        console.expect(10)
        kernel.clock.write(2500.0)
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert "wedged: 0/10 done" in lines[0]

    def test_stall_fires_once_per_episode_and_dumps_the_ring(self):
        kernel, registry, console, stream, sink = self._console()
        # No progress counters ever move: the campaign is wedged.
        kernel.clock.write(6000.0)
        assert console.stalls == 1
        assert "STALL" in stream.getvalue()
        dump = json.loads(sink.getvalue().splitlines()[-1])
        assert dump["kind"] == "flight.dump"
        assert dump["reason"] == "campaign.stall"
        # Progress resumes, then stops again: the detector re-arms.
        registry.counter("repro_scan_queries_total", "t").inc()
        kernel.clock.write(7000.0)
        kernel.clock.write(13_000.0)
        assert console.stalls == 2

    def test_progress_resets_the_stall_clock(self):
        kernel, registry, console, __, __sink = self._console()
        counter = registry.counter("repro_scan_queries_total", "t")
        for at in (1000.0, 2000.0, 3000.0, 4000.0, 5000.0):
            kernel.schedule_at(at, counter.inc)
        kernel.run_until_idle()
        assert console.stalls == 0


class TestLiveTelemetry:
    def test_wires_and_finishes(self, tmp_path):
        kernel = SimKernel()
        obs.enable()
        events_path = tmp_path / "events.jsonl"
        series_path = tmp_path / "series.json"
        stream = io.StringIO()
        live = LiveTelemetry(
            kernel,
            events_out=str(events_path),
            series_out=str(series_path),
            progress=True,
            scrape_interval_ms=250.0,
            seed=5,
            label="smoke",
            stream=stream,
        )
        assert obs.journal is live.journal
        assert obs.console is live.console
        obs.emit("checkpoint.flush", 1.0, records=2)
        kernel.clock.write(1000.0)
        live.finish()
        assert obs.journal is None and obs.console is None
        assert json.loads(events_path.read_text().splitlines()[0])["kind"] == (
            "checkpoint.flush"
        )
        series = json.loads(series_path.read_text())
        assert series["samples"] >= 4
        assert "finished" in stream.getvalue()


# -- merge equals the single run (the sharding primitive) -------------------


class TestMergeEqualsSingleRun:
    def test_half_campaign_registries_merge_to_the_full_run(self):
        """Split one campaign's registry at the halfway point; merging the
        halves must reproduce the unsplit registry exactly."""

        def world():
            # A fresh process, as a fleet shard is: the process-wide
            # memos start empty, so their hit counts start equal.
            for memo in (interned, digest_memo, verification_memo):
                memo.clear()
            inet, domains = _small_internet(17)
            upstream = inet.make_resolver(
                VENDOR_POLICIES["cloudflare"], name="merge"
            )
            engine = ScanEngine(
                inet.network,
                inet.allocator.next_v4(),
                upstream.ip,
                concurrency=4,
                shards=2,
            )
            jobs = [(d.name, 48) for d in domains[:24]]
            return engine, jobs

        def scan(engine, jobs):
            for qname, qtype in jobs:
                engine.query(qname, qtype, checking_disabled=True)
            engine.drain()

        engine, jobs = world()
        obs.enable()
        scan(engine, jobs[:12])
        first_half = obs.registry.to_json()
        obs.reset()
        scan(engine, jobs[12:])
        second_half = obs.registry.to_json()
        obs.disable()
        obs.reset()

        engine, jobs = world()
        obs.enable()
        scan(engine, jobs)
        full = obs.registry.to_json()

        merged = MetricsRegistry.from_json(first_half).merge(
            MetricsRegistry.from_json(second_half)
        )
        # Canonicalise the full registry's ordering the same way merge does.
        reference = MetricsRegistry().merge(MetricsRegistry.from_json(full))
        assert merged.render_prometheus() == reference.render_prometheus()
