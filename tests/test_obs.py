"""The telemetry layer: metrics registry, span tracing, no-op guarantees.

Also covers the observability-adjacent fixes that rode along with it:
NetworkStats.reset(), loss-model byte accounting, and the ScanEngine
batch API threading its DNSSEC flags.
"""

import pytest

from repro import obs
from repro.dns.rcode import Rcode
from repro.dnssec.costmodel import meter
from repro.dnssec.nsec3hash import nsec3_hash
from repro.net.network import Host, Network, NetworkStats
from repro.obs.metrics import MetricError, MetricsRegistry
from repro.obs.trace import Tracer, render_span_tree
from repro.scanner.engine import ScanEngine


@pytest.fixture(autouse=True)
def clean_obs():
    """Every test here starts and ends with telemetry off and empty."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


# -- metrics registry -------------------------------------------------------


class TestExposition:
    def test_golden_render(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_demo_total", "Demo counter.", labelnames=("rcode",)
        ).labels(rcode="NXDOMAIN").inc(3)
        registry.gauge("repro_demo_clock_ms", "Demo gauge.").set(1234.5)
        hist = registry.histogram(
            "repro_demo_units", "Demo histogram.", buckets=(1, 10)
        )
        hist.observe(0.5)
        hist.observe(7)
        hist.observe(100)
        expected = (
            "# HELP repro_demo_total Demo counter.\n"
            "# TYPE repro_demo_total counter\n"
            'repro_demo_total{rcode="NXDOMAIN"} 3\n'
            "# HELP repro_demo_clock_ms Demo gauge.\n"
            "# TYPE repro_demo_clock_ms gauge\n"
            "repro_demo_clock_ms 1234.5\n"
            "# HELP repro_demo_units Demo histogram.\n"
            "# TYPE repro_demo_units histogram\n"
            'repro_demo_units_bucket{le="1"} 1\n'
            'repro_demo_units_bucket{le="10"} 2\n'
            'repro_demo_units_bucket{le="+Inf"} 3\n'
            "repro_demo_units_sum 107.5\n"
            "repro_demo_units_count 3\n"
        )
        assert registry.render_prometheus() == expected

    def test_label_value_escaping(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "t", labelnames=("q",)).labels(
            q='a"b\\c\nd'
        ).inc()
        line = registry.render_prometheus().splitlines()[2]
        assert line == 'x_total{q="a\\"b\\\\c\\nd"} 1'

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""

    def test_json_roundtrip_shape(self):
        registry = MetricsRegistry()
        registry.histogram("h", "help", buckets=(5,), labelnames=("z",)).labels(
            z="it-150"
        ).observe(3)
        doc = registry.to_json()
        assert doc["h"]["type"] == "histogram"
        (sample,) = doc["h"]["samples"]
        assert sample["labels"] == {"z": "it-150"}
        assert sample["buckets"] == {"5": 1, "+Inf": 1}
        assert sample["count"] == 1


class TestHistogramBuckets:
    def test_boundary_is_inclusive(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", "t", buckets=(10, 20))
        hist.observe(10)  # le="10" is inclusive, as in Prometheus
        hist.observe(10.0001)
        child = hist.labels()
        assert child.counts == [1, 1, 0]

    def test_below_first_and_above_last(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", "t", buckets=(10, 20))
        hist.observe(-5)
        hist.observe(20.5)  # lands in the implicit +Inf bucket
        child = hist.labels()
        assert child.counts == [1, 0, 1]
        assert child.cumulative() == [1, 1, 2]

    def test_cumulative_counts_monotone(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", "t", buckets=(1, 2, 3))
        for value in (0, 1, 1, 2, 3, 99):
            hist.observe(value)
        child = hist.labels()
        assert child.cumulative() == [3, 4, 5, 6]
        assert child.count == 6

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(MetricError):
            MetricsRegistry().histogram("h", "t", buckets=(5, 1))


class TestDeclaration:
    def test_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", "t")
        assert registry.counter("c_total", "t") is first

    def test_kind_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("x", "t")
        with pytest.raises(MetricError):
            registry.gauge("x", "t")

    def test_label_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("x", "t", labelnames=("a",))
        with pytest.raises(MetricError):
            registry.counter("x", "t", labelnames=("b",))

    def test_reserved_and_invalid_names(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError):
            registry.counter("x", "t", labelnames=("le",))
        with pytest.raises(MetricError):
            registry.counter("0bad", "t")

    def test_counters_cannot_decrease(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError):
            registry.counter("c_total", "t").inc(-1)


# -- span tracing -----------------------------------------------------------


class TestTracer:
    def test_nesting_and_simulated_durations(self):
        ticks = iter([0.0, 10.0, 30.0, 50.0, 100.0, 120.0])
        tracer = Tracer(clock=lambda: next(ticks))
        with tracer.span("root", qname="x.example"):
            with tracer.span("hop", dst="10.0.0.1"):
                pass
            with tracer.span("hop", dst="10.0.0.2"):
                pass
        root = tracer.last_root()
        assert root.name == "root"
        assert [c.attributes["dst"] for c in root.children] == [
            "10.0.0.1",
            "10.0.0.2",
        ]
        assert root.children[0].duration_ms == pytest.approx(20.0)
        assert root.children[1].duration_ms == pytest.approx(50.0)
        assert root.duration_ms == pytest.approx(120.0)
        assert tracer.active is None

    def test_cost_deltas_are_inclusive_of_children(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                meter.charge_nsec3(150, 30, 8)
        root = tracer.last_root()
        inner = root.children[0]
        assert inner.cost.nsec3_hashes == 1
        assert inner.cost.sha1_compressions == 151
        assert root.cost.nsec3_hashes == 1  # parent sees the child's cost

    def test_walk_order_and_find(self):
        tracer = Tracer(clock=lambda: 0.0)
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
            with tracer.span("d"):
                pass
        root = tracer.last_root()
        assert [s.name for s in root.walk()] == ["a", "b", "c", "d"]
        assert root.find("c").name == "c"
        assert root.find("zzz") is None

    def test_roots_are_bounded(self):
        tracer = Tracer(max_roots=2)
        for index in range(5):
            with tracer.span(f"r{index}"):
                pass
        assert [s.name for s in tracer.roots] == ["r3", "r4"]

    def test_render_tree_shows_layers_and_costs(self):
        ticks = iter([0.0, 1.0, 2.0, 9.0, 9.5, 10.0])
        tracer = Tracer(clock=lambda: next(ticks))
        with tracer.span("probe.query"):
            with tracer.span("net.hop", dst="10.0.0.8"):
                with tracer.span("nsec3.hash", iterations=150):
                    meter.charge_nsec3(150, 30, 0)
        text = render_span_tree(tracer.last_root())
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("probe.query 10.0 ms")
        assert "└─ net.hop dst=10.0.0.8" in lines[1]
        assert "nsec3.hash iterations=150" in lines[2]
        assert "nsec3=1" in lines[2]


# -- the no-op path ---------------------------------------------------------


class _Echo(Host):
    def handle_datagram(self, wire, src_ip, via_tcp=False):
        return b"pong"


class TestDisabledPath:
    def test_disabled_run_records_nothing(self):
        assert not obs.enabled
        net = Network(seed=1)
        net.attach("192.0.2.9", _Echo())
        net.send("192.0.2.1", "192.0.2.9", b"ping")
        nsec3_hash(b"\x07example\x03com\x00", b"", 150)
        with obs.span("anything") as span:
            span.set(ignored=True)
        assert obs.registry.sample_count() == 0
        assert len(obs.registry) == 0
        assert obs.tracer.last_root() is None

    def test_enable_disable_toggle(self):
        obs.enable()
        nsec3_hash(b"\x07example\x03com\x00", b"", 150)
        # The iteration histogram and the digest memo's hit or miss.
        assert obs.registry.sample_count() == 2
        obs.disable()
        nsec3_hash(b"\x07example\x03com\x00", b"", 150)
        family = obs.registry.get("repro_nsec3_iterations")
        assert family.labels().count == 1  # second hash left no trace
        memo = obs.registry.get("repro_cache_events_total")
        assert sum(child.value for __, child in memo.samples()) == 1

    def test_metrics_without_spans(self):
        obs.enable()  # tracing stays off
        net = Network(seed=1)
        net.attach("192.0.2.9", _Echo())
        net.send("192.0.2.1", "192.0.2.9", b"ping")
        assert obs.registry.get("repro_net_datagrams_total") is not None
        assert obs.tracer.last_root() is None


# -- satellite fixes --------------------------------------------------------


class TestNetworkStats:
    def test_reset_restores_every_field(self):
        stats = NetworkStats(
            datagrams=5, tcp_queries=2, dropped=1, refused_closed=3, bytes_sent=999
        )
        stats.reset()
        assert stats == NetworkStats()

    def test_loss_dropped_datagrams_move_no_bytes(self):
        net = Network(loss_rate=1.0, seed=3)
        net.attach("192.0.2.9", _Echo())
        assert net.send("192.0.2.1", "192.0.2.9", b"ping") is None
        assert net.stats.dropped == 1
        assert net.stats.bytes_sent == 0

    def test_unreachable_still_counts_query_bytes(self):
        net = Network(seed=3)
        assert net.send("192.0.2.1", "192.0.2.200", b"ping") is None
        assert net.stats.bytes_sent == len(b"ping")


class _FakeAnswer:
    def __init__(self, rcode, answered=True):
        self.rcode = rcode
        self.answered = answered


class _FakeClient:
    """Stands in for StubClient; records the flags each query carried."""

    def __init__(self, answers):
        self.answers = list(answers)
        self.calls = []

    def ask(self, resolver_ip, qname, qtype, want_dnssec=True, checking_disabled=False):
        self.calls.append((qname, want_dnssec, checking_disabled))
        return self.answers.pop(0)


class TestScanEngine:
    def _engine(self, answers):
        net = Network(seed=4)
        engine = ScanEngine(net, "192.0.2.1", "192.0.2.2")
        engine.client = _FakeClient(answers)
        return engine

    def test_run_threads_dnssec_flags(self):
        engine = self._engine([_FakeAnswer(Rcode.NOERROR)] * 2)
        for qname in ("a.example.", "b.example."):
            engine.query(qname, 1, want_dnssec=False, checking_disabled=True)
        engine.drain()
        assert engine.client.calls == [
            ("a.example.", False, True),
            ("b.example.", False, True),
        ]

    def test_per_rcode_outcomes(self):
        engine = self._engine(
            [
                _FakeAnswer(Rcode.NOERROR),
                _FakeAnswer(Rcode.NXDOMAIN),
                _FakeAnswer(Rcode.SERVFAIL),
                _FakeAnswer(Rcode.NXDOMAIN),
                _FakeAnswer(Rcode.NOERROR, answered=False),
            ]
        )
        for i in range(5):
            engine.query(f"q{i}.example.", 1)
        engine.drain()
        stats = engine.stats
        assert stats.rcodes == {Rcode.NOERROR: 1, Rcode.NXDOMAIN: 2, Rcode.SERVFAIL: 1}
        assert stats.unanswered == 1
        assert stats.queries == 5

    def test_scan_counter_when_enabled(self):
        obs.enable()
        engine = self._engine(
            [_FakeAnswer(Rcode.NXDOMAIN), _FakeAnswer(Rcode.NOERROR, answered=False)]
        )
        engine.query("a.example.", 1)
        engine.query("b.example.", 1)
        family = obs.registry.get("repro_scan_queries_total")
        assert family.labels(rcode="NXDOMAIN").value == 1
        assert family.labels(rcode="timeout").value == 1


class TestJsonRoundTrip:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("repro_a_total", "a", labelnames=("k",)).labels(k="x").inc(3)
        registry.counter("repro_a_total", "a", labelnames=("k",)).labels(k="y").inc(5)
        registry.gauge("repro_b", "b").set(2.5)
        hist = registry.histogram("repro_c_ms", "c", buckets=(1.0, 10.0))
        for value in (0.5, 4.0, 40.0):
            hist.observe(value)
        return registry

    def test_from_json_inverts_to_json(self):
        registry = self._populated()
        rebuilt = MetricsRegistry.from_json(registry.to_json())
        assert rebuilt.render_prometheus() == registry.render_prometheus()
        assert rebuilt.to_json() == registry.to_json()

    def test_survives_serialisation(self):
        import json

        registry = self._populated()
        doc = json.loads(json.dumps(registry.to_json()))
        rebuilt = MetricsRegistry.from_json(doc)
        assert rebuilt.render_prometheus() == registry.render_prometheus()

    def test_empty_histogram_family_keeps_buckets(self):
        registry = MetricsRegistry()
        registry.histogram("repro_c_ms", "c", buckets=(2.0, 20.0))
        rebuilt = MetricsRegistry.from_json(registry.to_json())
        assert rebuilt.get("repro_c_ms").buckets == (2.0, 20.0)
        rebuilt.get("repro_c_ms").observe(5.0)  # still usable after rebuild


class TestMerge:
    def test_counters_add(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("repro_x_total", "x").inc(3)
        b.counter("repro_x_total", "x").inc(4)
        b.counter("repro_y_total", "y").inc(1)  # only in b
        a.merge(b)
        assert a.get("repro_x_total").labels().value == 7
        assert a.get("repro_y_total").labels().value == 1

    def test_gauges_take_the_max(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("repro_hwm", "high water").set(5)
        b.gauge("repro_hwm", "high water").set(3)
        a.merge(b)
        assert a.get("repro_hwm").labels().value == 5

    def test_histograms_add_per_bucket(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        ha = a.histogram("repro_ms", "h", buckets=(1.0, 10.0))
        hb = b.histogram("repro_ms", "h", buckets=(1.0, 10.0))
        ha.observe(0.5)
        hb.observe(5.0)
        hb.observe(50.0)
        a.merge(b)
        child = a.get("repro_ms").labels()
        assert child.counts == [1, 1, 1]
        assert child.count == 3
        assert child.sum == 55.5

    def test_merge_order_does_not_leak_into_rendering(self):
        def build(first):
            registry = MetricsRegistry()
            names = ("repro_b_total", "repro_a_total")
            for name in names if first else reversed(names):
                registry.counter(name, "n", labelnames=("k",))
            registry.get("repro_a_total").labels(k="z").inc(1)
            registry.get("repro_a_total").labels(k="a").inc(2)
            registry.get("repro_b_total").labels(k="m").inc(3)
            return registry

        ab = build(True).merge(build(False))
        ba = build(False).merge(build(True))
        assert ab.render_prometheus() == ba.render_prometheus()

    def test_kind_conflict_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("repro_x", "x")
        b.gauge("repro_x", "x")
        with pytest.raises(MetricError):
            a.merge(b)

    def test_labelset_conflict_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("repro_x_total", "x", labelnames=("k",))
        b.counter("repro_x_total", "x")
        with pytest.raises(MetricError):
            a.merge(b)

    def test_bucket_bounds_conflict_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("repro_ms", "h", buckets=(1.0, 10.0))
        b.histogram("repro_ms", "h", buckets=(1.0, 100.0))
        with pytest.raises(MetricError):
            a.merge(b)


class TestTracerRootEviction:
    def test_overflow_is_counted_not_silent(self):
        obs.enable(max_roots=2)
        for index in range(3):
            with obs.tracer.span(f"root-{index}"):
                pass
        assert obs.tracer.dropped_roots == 1
        # The ring keeps the most recent roots.
        assert [root.name for root in obs.tracer.roots] == ["root-1", "root-2"]
        family = obs.registry.get("repro_trace_roots_dropped_total")
        assert family.labels().value == 1

    def test_set_max_roots_keeps_the_most_recent(self):
        tracer = Tracer(max_roots=8)
        for index in range(4):
            with tracer.span(f"root-{index}"):
                pass
        tracer.set_max_roots(2)
        assert [root.name for root in tracer.roots] == ["root-2", "root-3"]
        assert tracer.max_roots == 2
