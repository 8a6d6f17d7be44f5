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


_NSEC3_OWNER = Name.from_text("bench.example.com").canonical_wire()
_NSEC3_SALT = bytes.fromhex("aabbccdd")


def test_nsec3_hash_uncached(benchmark):
    """150 iterations (the paper's limit tipping point), no memo."""
    from repro.dnssec.nsec3hash import _compute_iterated_digest

    benchmark(_compute_iterated_digest, _NSEC3_OWNER, _NSEC3_SALT, 150)


def test_nsec3_hash_memoized(benchmark):
    """Same hash through the hot-path memo keyed per (salt, iterations)."""
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
    from repro.dnssec.nsec3hash import _digest_memo, nsec3_hash

    def per_owner():
        _digest_memo.clear()
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
        "repro_cache_lookups_total", "c", labelnames=("result",)
    ).labels(result="hit").inc(400)
    registry.gauge("repro_inflight_sessions", "g").set(32)
    scraper = TimeSeriesScraper(SimKernel(), registry, interval_ms=500.0)
    benchmark(scraper.scrape, 500.0)
