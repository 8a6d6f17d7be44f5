"""Wire-compatibility pin: the bytes the campaigns put on the wire.

A seeded 60-domain scan and a 4-resolver survey run on a private world
while every datagram crossing the simulated network is captured. The
digest covers, per datagram, the bytes as sent and the bytes a decode →
re-encode of them produces (message ids are random, so bytes 0–1 are
masked). The datagram count dates from the commit *before* the codec
rewrite, so "the encoded form of every message is unchanged" is a tier-1
assertion. The digest was re-recorded once since, when the RSA prime
search moved to FIPS 186-4 §B.3.3's candidate range and every pool key
changed with the RNG draw order: 1 180 datagrams and every datagram's
length as before, every differing octet inside a DNSKEY public key, an
RRSIG key tag or signature, or a DS key tag or digest (CHANGES.md, PR 23).

The same capture pins a 60-domain scan alone, clean and under the
``chaos`` fault preset — whose RNG draws depend on response lengths, so
an equal digest there means equal bytes, not merely equal records. Both
pins were recorded from a build that signed every SLD zone up front;
zones built on first query must put the same bytes on the wire.

The campaign is run once more with every :class:`~repro.memo.Memo` at
one entry: no memo may change a byte, and a resolver cache of one entry
may change only how often it asks upstream, not what it reports.
"""

import hashlib

import pytest

from repro.core.resolver_compliance import classify_resolver
from repro.dns.message import Message, make_query
from repro.dns.name import interned
from repro.dns.types import RdataType
from repro.dns.wire import WireError
from repro.dnssec.nsec3hash import digest_memo
from repro.dnssec.validator import verification_memo
from repro.memo import Memo
from repro.net.faults import parse_fault_spec
from repro.resolver.cache import Cache
from repro.resolver.policy import VENDOR_POLICIES
from repro.scanner.engine import ScanEngine
from repro.scanner.pipeline import measure_domain
from repro.scanner.resolver_scan import ResolverSurvey, requeue_label
from repro.testbed.internet import build_internet
from repro.testbed.population import Population, generate_tlds
from repro.testbed.resolvers import deploy_resolvers
from repro.testbed.rfc9276_wild import build_probe_zones

from tests.conftest import SMALL_CONFIG

#: Probe-zone iteration counts the survey asks about (the e2e smoke set).
ITERATIONS = (1, 10, 25, 50, 51, 100, 101, 150, 151, 300, 500)

GOLDEN_DATAGRAMS = 1180
GOLDEN_SHA256 = "7d99dc044355e26d6c706ceb10e59b11a4f5f4b1a4fd2bb95bdfb316163b6983"

#: ``(datagrams, sha256)`` of the scan-only capture, per fault preset.
SCAN_GOLDEN = {
    None: (762, "67f19d1f3685151c04072e84f8deeeeecf0958ccfed31962bf3572e6ea1d43ed"),
    "chaos": (812, "361b72a3061298a58b37ad9c0c91a8cef422261143391d8e6fc4f0f5fc66e567"),
}


def _capture(network, digest, counter):
    """Wrap ``network.exchange`` so each query/response pair is folded in."""
    inner = network.exchange

    def fold(wire):
        digest.update(len(wire).to_bytes(4, "big") + b"\0\0" + wire[2:])
        try:
            again = Message.from_wire(wire).to_wire()
        except WireError:
            again = b"\0\0(undecodable)"  # a fault-mangled response
        digest.update(len(again).to_bytes(4, "big") + b"\0\0" + again[2:])
        counter[0] += 1

    def exchange(src_ip, dst_ip, wire, via_tcp=False):
        fold(wire)
        response = yield from inner(src_ip, dst_ip, wire, via_tcp)
        if response is not None:
            fold(response)
        return response

    network.exchange = exchange


def _campaign():
    """``(datagrams, digest, report)`` of the seeded scan and survey.

    The report is every scan observation and survey classification,
    then the replies to three questions each asked of the scan's
    resolver three times, the third time from its packet cache. Those
    nine questions are asked after the capture is read, so the pins
    cover the campaign alone.
    """
    tlds = generate_tlds(SMALL_CONFIG)
    domains = Population(SMALL_CONFIG, tlds=tlds, include_tail=False)
    inet = build_internet(domains, tlds, seed=5)
    probes = build_probe_zones(inet)
    digest = hashlib.sha256()
    counter = [0]
    _capture(inet.network, digest, counter)

    upstream = inet.make_resolver(VENDOR_POLICIES["cloudflare"], name="golden-upstream")
    engine = ScanEngine(inet.network, inet.allocator.next_v4(), upstream.ip)
    results = [measure_domain(engine, spec.name) for spec in domains]
    engine.drain()
    assert any(results)
    report = [repr(result) for result in results]

    deployment = deploy_resolvers(
        inet, open_v4=4, open_v6=0, closed_v4=0, closed_v6=0, seed=11
    )
    survey = ResolverSurvey(
        inet.network, probes, inet.allocator.next_v4(), iterations=ITERATIONS
    )
    for index, deployed in enumerate(deployment):
        matrix, healthy = survey.probe(deployed, requeue_label(index))
        report.append(repr((sorted(matrix.items(), key=str), healthy)))
        report.append(repr(classify_resolver(matrix)))
    datagrams, hexdigest = counter[0], digest.hexdigest()

    for spec in list(domains)[:3]:
        wire = make_query(spec.name, RdataType.A, want_dnssec=True, msg_id=7).to_wire()
        for __ in range(3):
            reply = upstream.packed_answer(wire) or upstream.handle_datagram(
                wire, "203.0.113.9"
            )
            report.append(reply.hex())
    return datagrams, hexdigest, report


def test_campaign_wire_bytes_are_pinned():
    datagrams, digest, __ = _campaign()
    assert datagrams == GOLDEN_DATAGRAMS
    assert digest == GOLDEN_SHA256


def test_memos_at_limit_one_change_no_output(monkeypatch):
    """Every memo bounded at one entry. The memos in front of pure
    functions and of encoded replies leave every datagram unchanged; a
    resolver cache of one entry asks upstream again, but reports the
    same. Each memo evicts, so neither half passes vacuously."""
    datagrams, digest, report = _campaign()
    made = []
    limit_cache = [False]
    memo_init = Memo.__init__

    def at_limit_one(self, name, limit, *args, **kwargs):
        if limit_cache[0] or not isinstance(self, Cache):
            limit = 1
        memo_init(self, name, limit, *args, **kwargs)
        made.append(self)

    def counts(memos, counter):
        totals = {}
        for memo in memos:
            totals[memo.name] = totals.get(memo.name, 0) + getattr(memo, counter)
        return totals

    monkeypatch.setattr(Memo, "__init__", at_limit_one)
    shared = [interned, digest_memo, verification_memo]
    for memo in shared:
        memo.clear()  # an earlier campaign's entries would only hit
        monkeypatch.setattr(memo, "limit", 1)
    before = counts(shared, "evictions")
    assert _campaign() == (datagrams, digest, report)
    evicted = counts(shared + made, "evictions")
    evicted = {name: n - before.get(name, 0) for name, n in evicted.items()}
    assert evicted.pop("resolver") == 0
    assert sorted(evicted) == ["addresses", "auth", "names", "nsec3", "packet", "verify"]
    assert all(evicted.values()), evicted
    assert counts(made, "hits")["packet"] == 3

    made.clear()
    limit_cache[0] = True
    cold_datagrams, __, cold_report = _campaign()
    assert cold_datagrams > datagrams
    assert cold_report == report
    assert counts(made, "evictions")["resolver"] > 0


def _scan_capture(faults):
    """(datagrams, digest) of the domain scan, tail exemplars included."""
    tlds = generate_tlds(SMALL_CONFIG)
    population = Population(SMALL_CONFIG, tlds=tlds)
    inet = build_internet(population, tlds, seed=5)
    digest = hashlib.sha256()
    counter = [0]
    _capture(inet.network, digest, counter)
    if faults:
        inet.network.set_faults(parse_fault_spec(faults, seed=5))
    upstream = inet.make_resolver(VENDOR_POLICIES["cloudflare"], name="golden-upstream")
    engine = ScanEngine(inet.network, inet.allocator.next_v4(), upstream.ip)
    for spec in population:
        measure_domain(engine, spec.name)
    engine.drain()
    return counter[0], digest.hexdigest()


@pytest.mark.parametrize("faults", [None, "chaos"])
def test_scan_wire_bytes_are_pinned(faults):
    assert _scan_capture(faults) == SCAN_GOLDEN[faults]
