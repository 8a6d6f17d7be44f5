"""Microbenchmarks for the protocol substrate.

Not paper artifacts — these size the building blocks every experiment
stands on (codec, hashing, signing, verification), so regressions in the
substrate show up before they distort experiment wall-times.
"""

import random

import pytest

from repro.crypto.keys import (
    ALG_ECDSAP256SHA256,
    ALG_RSASHA256,
    generate_keypair,
    verify_signature,
)
from repro.dns.message import Message, make_query
from repro.dns.name import Name
from repro.dns.rdata import NS, NSEC3, RRSIG, SOA, A
from repro.dns.rrset import RRset
from repro.dns.types import RdataType
from repro.net.network import Host, Network
from repro.server.authoritative import AuthoritativeServer
from repro.testbed.internet import KeyPool, build_domain_zone
from repro.testbed.population import DomainSpec
from repro.zone.builder import ZoneBuilder
from repro.zone.nsec3chain import Nsec3Params
from repro.zone.signing import SigningPolicy, sign_zone
from tests.test_wire_fuzz import _dnssec_response


@pytest.fixture(scope="module")
def sample_response():
    """What the campaigns actually exchange: a signed positive answer plus a
    signed NSEC3 denial (SOA + closest-encloser proof), DO bit set."""
    zone = "example.com"

    def sig(covered):
        return RRSIG(covered, 13, 2, 300, 1_760_000_000, 1_750_000_000, 4242, zone, bytes(64))

    msg = make_query("www.example.com", RdataType.A, want_dnssec=True)
    msg.answer.append(
        RRset("www.example.com", RdataType.A, 300, [A(f"192.0.2.{i + 1}") for i in range(4)])
    )
    msg.answer.append(RRset("www.example.com", RdataType.RRSIG, 300, [sig(RdataType.A)]))
    msg.authority.append(
        RRset(zone, RdataType.SOA, 300, [SOA("ns1." + zone, "h." + zone, 1, 7200, 900, 86400, 300)])
    )
    msg.authority.append(RRset(zone, RdataType.RRSIG, 300, [sig(RdataType.SOA)]))
    for index in range(3):
        owner = f"{index}k2pb1osrn0ll5bo33shl9ua41osiq6g.{zone}"
        types = [RdataType.A, RdataType.NS, RdataType.SOA, RdataType.RRSIG, RdataType.DNSKEY]
        msg.authority.append(
            RRset(owner, RdataType.NSEC3, 300, [NSEC3(1, 0, 10, b"\xab\xcd", bytes(20), types)])
        )
        msg.authority.append(RRset(owner, RdataType.RRSIG, 300, [sig(RdataType.NSEC3)]))
    return msg


def test_message_encode(benchmark, sample_response):
    """A relayed response: every rdata arrives with its bytes from decode."""
    relayed = Message.from_wire(sample_response.to_wire())
    benchmark(relayed.to_wire)


def test_message_encode_memoized(benchmark, sample_response):
    """The campaign hot path: encode() splices the id into cached bytes."""
    sample_response.encode()  # warm
    benchmark(sample_response.encode)


def test_message_decode(benchmark, sample_response):
    wire = sample_response.to_wire()
    benchmark(Message.from_wire, wire)


def _read_every_field(message):
    for rrset in message.all_rrsets():
        for rdata in rrset:
            for slot in getattr(rdata, "_FIELDS", ()):
                getattr(rdata, slot)


def test_dnssec_decode_nothing_read(benchmark):
    """The fuzz corpus's DNSSEC response, decoded with no field read: its
    RRSIG, NSEC3, DNSKEY and DS stay checked slices."""
    benchmark(Message.from_wire, _dnssec_response().to_wire())


def test_dnssec_decode_every_field_read(benchmark):
    """The same, then every lazily built field read: what a read adds,
    next to what an unread record saves above."""
    wire = _dnssec_response().to_wire()
    benchmark(lambda: _read_every_field(Message.from_wire(wire)))


def test_name_parse(benchmark):
    benchmark(Name.from_text, "deeply.nested.sub.domain.example.com")


def test_name_canonical_order(benchmark):
    names = [Name.from_text(f"host-{i}.example.com") for i in range(64)]
    benchmark(sorted, names)


def test_network_send_round_trip(benchmark):
    """The fabric's fixed cost per datagram: the host returns a fixed reply."""
    query = make_query("www.example.com", RdataType.A, want_dnssec=True).to_wire()

    class FixedReply(Host):
        def handle_datagram(self, wire, src_ip, via_tcp=False):
            return query

    net = Network()
    net.attach("192.0.2.1", FixedReply())
    benchmark(net.send, "198.51.100.1", "192.0.2.1", query)


def test_authoritative_cache_hit(benchmark):
    """A signed NXDOMAIN served from the packed-answer cache."""
    zone = (
        ZoneBuilder("example.com")
        .soa("ns1.example.com", "h.example.com")
        .ns("ns1.example.com.")
        .a("ns1", "192.0.2.1")
        .build()
    )
    sign_zone(
        zone,
        SigningPolicy(nsec3=Nsec3Params(iterations=10, salt=b"\xab")),
        rng=random.Random(17),
    )
    server = AuthoritativeServer("bench").add_zone(zone)
    query = make_query("nope.example.com", RdataType.A, want_dnssec=True).to_wire()
    server.handle_datagram(query, "198.51.100.9")  # the miss that fills the cache
    benchmark(server.handle_datagram, query, "198.51.100.9")
    assert server.answer_cache.misses == 1 and server.answer_cache.hits > 0


def test_build_domain_zone_unsigned(benchmark):
    """One lazily hosted SLD zone, minus signing: SOA, NS, apex and www A."""
    spec = DomainSpec("bench-site.com", "com", "generic-web", dnssec=False, denial="")
    ns_pair = (NS("ns1.generic-web-dns.net."), NS("ns2.generic-web-dns.net."))
    zone = benchmark(build_domain_zone, spec, 7, None, ns_pair)
    assert zone.record_count() == 5


@pytest.mark.parametrize("complete", [False, True], ids=["deferred", "completed"])
def test_lazy_zone_four_scan_questions(benchmark, complete):
    """One NSEC3-signed lazily hosted SLD zone built, hosted and asked
    paper §4.1's four questions (DNSKEY, NSEC3PARAM, NS, a random name)
    with DO set: as the lazy host builds it, signing each RRset on first
    read, and with every signature completed before it serves."""
    pool = KeyPool(size=2, seed=8)
    spec = DomainSpec(
        "bench-site.com", "com", "generic-web",
        dnssec=True, denial="nsec3", iterations=5, salt_length=8,
    )
    ns_pair = (NS("ns1.generic-web-dns.net."), NS("ns2.generic-web-dns.net."))
    queries = [
        make_query(name, rrtype, want_dnssec=True, msg_id=1).to_wire()
        for name, rrtype in (
            ("bench-site.com", RdataType.DNSKEY),
            ("bench-site.com", RdataType.NSEC3PARAM),
            ("bench-site.com", RdataType.NS),
            ("q7x2.bench-site.com", RdataType.A),
        )
    ]

    def build_and_ask():
        zone = build_domain_zone(spec, 7, pool, ns_pair, defer_signatures=True)
        if complete:
            zone.complete_rrsigs()
        server = AuthoritativeServer("bench").add_zone(zone)
        return [server.handle_datagram(query, "198.51.100.9") for query in queries]

    replies = benchmark(build_and_ask)
    assert replies == build_and_ask()
    assert Message.from_wire(replies[-1]).rcode == 3  # NXDOMAIN


@pytest.fixture(scope="module")
def rsa_pair():
    return generate_keypair(ALG_RSASHA256, rsa_bits=512, rng=random.Random(1))


@pytest.fixture(scope="module")
def ecdsa_pair():
    return generate_keypair(ALG_ECDSAP256SHA256, rng=random.Random(2))


def test_key_pool_16_plus_16(benchmark):
    """What every ``build_internet`` pays before it signs anything: 32
    RSA-512 keys, 64 primes. Seed 8 is the pool ``build_internet(seed=7)``
    draws (the ledger times ``setup_s``, not this kernel)."""
    pool = benchmark.pedantic(KeyPool, kwargs={"seed": 8}, rounds=5, iterations=1)
    assert len(pool.material()["ksks"]) == 16


def test_rsa512_sign(benchmark, rsa_pair):
    """CRT path: freshly generated keys carry (p, q, dp, dq, qinv)."""
    benchmark(rsa_pair.sign, b"benchmark message")


def test_rsa512_sign_plain_d(benchmark, rsa_pair):
    """The plain-d exponentiation the CRT path replaces: the same key
    rebuilt from ``(n, e, d)`` alone."""
    from repro.crypto.rsa import RsaPrivateKey

    key = rsa_pair.private
    benchmark(RsaPrivateKey(key.n, key.e, key.d).sign, b"benchmark message")


def test_rsa512_verify_uncached(benchmark, rsa_pair):
    signature = rsa_pair.sign(b"benchmark message")
    benchmark(verify_signature, rsa_pair.dnskey, b"benchmark message", signature)


def test_ecdsa_sign(benchmark, ecdsa_pair):
    benchmark(ecdsa_pair.sign, b"benchmark message")


def test_ecdsa_verify_uncached(benchmark, ecdsa_pair):
    signature = ecdsa_pair.sign(b"benchmark message")
    benchmark(verify_signature, ecdsa_pair.dnskey, b"benchmark message", signature)


def test_verify_memoized(benchmark, ecdsa_pair):
    """The validator-level RRSIG memo: a warm hit skips the curve math."""
    from repro.dns.rrset import RRset as _RRset
    from repro.dnssec.signer import make_rrsig_rrset, sign_rrset
    from repro.dnssec.validator import validate_rrset, verification_memo

    rrset = _RRset("www.example.com", RdataType.A, 300, [A("192.0.2.1")])
    rrsig = sign_rrset(rrset, ecdsa_pair, "example.com")
    rrsigs = make_rrsig_rrset(rrset, [rrsig])
    dnskeys = _RRset("example.com", RdataType.DNSKEY, 3600, [ecdsa_pair.dnskey])
    verification_memo.clear()
    assert validate_rrset(rrset, rrsigs, dnskeys).secure  # warm
    benchmark(validate_rrset, rrset, rrsigs, dnskeys)


def test_memo_get_hit(benchmark):
    """One counted hit on the bounded memo every hot-path table is."""
    from repro.memo import Memo

    memo = Memo("bench", 16)
    memo.put(("bench", 1), b"value")
    benchmark(memo.get, ("bench", 1))


_NSEC3_OWNER = Name.from_text("bench.example.com").canonical_wire()
_NSEC3_SALT = bytes.fromhex("aabbccdd")


def test_nsec3_hash_uncached(benchmark):
    """150 iterations (the paper's limit tipping point), no memo."""
    from repro.dnssec.nsec3hash import _compute_iterated_digest

    benchmark(_compute_iterated_digest, _NSEC3_OWNER, _NSEC3_SALT, 150)


def test_nsec3_hash_memoized(benchmark):
    """Same hash through the hot-path memo keyed on (owner, salt, iterations)."""
    from repro.dnssec.nsec3hash import nsec3_hash

    nsec3_hash(_NSEC3_OWNER, _NSEC3_SALT, 150)  # warm
    benchmark(nsec3_hash, _NSEC3_OWNER, _NSEC3_SALT, 150)


#: A chain build's batch: 200 owners under one 8-octet salt.
_NSEC3_BATCH_OWNERS = [
    Name.from_text(f"host{index}.bench.example.com").canonical_wire()
    for index in range(200)
]
_NSEC3_BATCH_SALT = bytes(range(8))


def test_nsec3_hash_batch(benchmark):
    """A chain build hashing 200 fresh owners at 10 iterations."""
    from repro.dnssec.nsec3hash import nsec3_hash_batch

    benchmark(nsec3_hash_batch, _NSEC3_BATCH_OWNERS, _NSEC3_BATCH_SALT, 10)


def test_nsec3_hash_per_owner(benchmark):
    """The same 200 owners through :func:`nsec3_hash` one by one, the
    memo emptied first (a chain build's owners are all new to it)."""
    from repro.dnssec.nsec3hash import digest_memo, nsec3_hash

    def per_owner():
        digest_memo.clear()
        return [
            nsec3_hash(owner, _NSEC3_BATCH_SALT, 10) for owner in _NSEC3_BATCH_OWNERS
        ]

    benchmark(per_owner)


def test_kernel_execute_top_level(benchmark):
    """One top-level query's driver: two delays through the event heap,
    then the result."""
    from repro.net.sim import SimKernel

    kernel = SimKernel()

    def exchange():
        yield 10.0
        yield 5.0
        return "reply"

    benchmark(lambda: kernel.execute(exchange()))


def test_heartbeat_beat(benchmark, tmp_path):
    """One heartbeat write: encode, write a tmp file, rename over the
    last beat. A fleet worker pays it per phase change and per beat."""
    from repro.net.procpool import Heartbeat, write_heartbeat

    path = tmp_path / "shard-0.hb"
    beat = Heartbeat(t=1.0, pid=1, attempt=0, phase="scan", units_done=7)
    benchmark(write_heartbeat, path, beat)


def test_event_emit_sampled(benchmark):
    """One journal emission on the hottest kind (sampled 1-in-8, no sink):
    the marginal cost every query pays when --events-out is active."""
    from repro.obs.events import EventJournal

    journal = EventJournal(seed=7)
    benchmark(journal.emit, "query.issued", 125.0, qname="a.example.", qtype=48)


def test_event_emit_disabled(benchmark):
    """The guard every hot path pays when no journal is attached."""
    from repro import obs

    obs.attach_journal(None)
    benchmark(obs.emit, "query.issued", 125.0, qname="a.example.", qtype=48)


def test_timeseries_scrape_tick(benchmark):
    """One scrape of the default selector set over a populated registry."""
    from repro.net.sim import SimKernel
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.timeseries import TimeSeriesScraper

    registry = MetricsRegistry()
    registry.counter("repro_scan_queries_total", "q").inc(1000)
    registry.counter(
        "repro_cache_events_total", "c", labelnames=("cache", "event")
    ).labels(cache="resolver", event="hit").inc(400)
    registry.gauge("repro_inflight_sessions", "g").set(32)
    scraper = TimeSeriesScraper(SimKernel(), registry, interval_ms=500.0)
    benchmark(scraper.scrape, 500.0)


def test_upstream_bytes_per_scanned_domain(benchmark):
    """Memory, not time: the bytes the shared upstream resolver keeps per
    scanned domain (paper §4.1 sends every name through one resolver).
    tracemalloc brackets 500 ``measure_domain`` calls over a lazily built
    population, as ``scan-stream`` scans it; the upstream's share is what
    dropping its verdict, delegation and packet caches and its zone
    security memo frees afterwards. Read from ``extra_info``: on CPython
    3.11, 7 592 B per domain in the window and 1 839 B upstream while
    cached verdicts held decoded RRsets; 6 029 B and 933 B since they
    hold their sections encoded."""
    import gc
    import tracemalloc

    from repro.resolver.policy import VENDOR_POLICIES
    from repro.scanner.engine import ScanEngine
    from repro.scanner.pipeline import measure_domain
    from repro.testbed.internet import build_internet
    from repro.testbed.population import Population, generate_tlds, scaled_config

    domains = 500
    config = scaled_config(domains, 120)
    tlds = generate_tlds(config)
    population = Population(config, tlds=tlds)
    inet = build_internet(population, tlds, seed=7)
    upstream = inet.make_resolver(VENDOR_POLICIES["cloudflare"], name="bench-upstream")
    engine = ScanEngine(
        inet.network, inet.allocator.next_v4(), upstream.ip, max_qps=14_700
    )
    names = [spec.name for spec in population][:domains]

    def traced_bytes():
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    def scan():
        tracemalloc.start()
        try:
            before = traced_bytes()
            for name in names:
                measure_domain(engine, name)
            engine.drain()
            after = traced_bytes()
            upstream.forget()
            return after - before, after - traced_bytes()
        finally:
            tracemalloc.stop()

    grown, upstream_bytes = benchmark.pedantic(scan, rounds=1, iterations=1)
    benchmark.extra_info["window_bytes_per_domain"] = round(grown / len(names))
    benchmark.extra_info["upstream_bytes_per_domain"] = round(
        upstream_bytes / len(names)
    )
    assert len(names) == domains
    assert 0 < upstream_bytes <= grown


def test_resolver_bytes_per_probed_resolver(benchmark):
    """Memory, not time: the bytes each surveyed resolver keeps (paper
    §4.2 probes every resolver against the same 49 zones, and almost
    every verdict it caches is an NSEC3 denial). tracemalloc brackets
    probing a ``deployment_counts(24)`` deployment (37 resolvers) against
    the probe zones, as ``survey-probe`` probes it; the resolvers' share
    is the bytes they still hold once the survey is over, which calling
    ``forget()`` on every validating resolver frees. Read from
    ``extra_info``: on CPython 3.11, 378 905 B per resolver in the window
    and 261 950 B in the resolvers while cached verdicts held decoded
    RRsets; 201 900 B and 101 503 B since they hold their sections
    encoded; 98 544 B and about 0 B (read as -2 B) since every probe
    session ends by emptying its resolver's caches."""
    import gc
    import tracemalloc

    from repro.resolver.validating import ValidatingResolver
    from repro.scanner import resolver_scan
    from repro.scanner.pipeline import deployment_counts
    from repro.testbed import resolvers, rfc9276_wild
    from repro.testbed.internet import build_internet
    from repro.testbed.population import Population, generate_tlds, scaled_config

    config = scaled_config(20, 120)
    tlds = generate_tlds(config)
    inet = build_internet(Population(config, tlds=tlds), tlds, seed=7)
    probes = rfc9276_wild.build_probe_zones(inet)
    deployment = resolvers.deploy_resolvers(inet, seed=7, **deployment_counts(24))
    scanner_source = inet.allocator.next_v4()
    iterations = rfc9276_wild.PROBE_ZONE_ITERATIONS

    def traced_bytes():
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    def survey():
        tracemalloc.start()
        try:
            before = traced_bytes()
            for index, deployed in enumerate(deployment):
                if deployed.access == "closed":
                    resolver_scan.probe_resolver(
                        inet.network, deployed.ip, probes, deployed.probe_source_ip,
                        unique=f"atlas{index}", iterations=iterations, keep_ede=False,
                    )
                else:
                    resolver_scan.probe_resolver(
                        inet.network, deployed.ip, probes, scanner_source,
                        f"r{index}", iterations=iterations,
                    )
            after = traced_bytes()
            network = inet.network
            for host in map(network.host_at, network.addresses()):
                if isinstance(host, ValidatingResolver):
                    host.forget()
            return after - before, after - traced_bytes()
        finally:
            tracemalloc.stop()

    grown, resolver_bytes = benchmark.pedantic(survey, rounds=1, iterations=1)
    benchmark.extra_info["window_bytes_per_resolver"] = round(grown / len(deployment))
    benchmark.extra_info["resolver_bytes_per_resolver"] = round(
        resolver_bytes / len(deployment)
    )
    assert len(deployment) == 37
    assert resolver_bytes < 5_000 * len(deployment)
