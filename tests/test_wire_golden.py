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

The same capture proves the lazily materialised testbed (the one every
command runs on) wire-identical to the eager build, clean and under the
``chaos`` fault preset — whose RNG draws depend on response lengths, so
equal digests there mean equal bytes, not merely equal records.
"""

import hashlib

import pytest

from repro.dns.message import Message
from repro.dns.wire import WireError
from repro.net.faults import parse_fault_spec
from repro.resolver.policy import VENDOR_POLICIES
from repro.scanner.engine import ScanEngine
from repro.scanner.pipeline import measure_domain
from repro.scanner.resolver_scan import ResolverSurvey, requeue_label
from repro.testbed.internet import build_internet
from repro.testbed.population import (
    Population,
    generate_population,
    generate_tlds,
)
from repro.testbed.resolvers import deploy_resolvers
from repro.testbed.rfc9276_wild import build_probe_zones

from tests.conftest import SMALL_CONFIG

#: Probe-zone iteration counts the survey asks about (the e2e smoke set).
ITERATIONS = (1, 10, 25, 50, 51, 100, 101, 150, 151, 300, 500)

GOLDEN_DATAGRAMS = 1180
GOLDEN_SHA256 = "7d99dc044355e26d6c706ceb10e59b11a4f5f4b1a4fd2bb95bdfb316163b6983"


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


def test_campaign_wire_bytes_are_pinned():
    tlds = generate_tlds(SMALL_CONFIG)
    domains = generate_population(SMALL_CONFIG, tlds=tlds)
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

    deployment = deploy_resolvers(
        inet, open_v4=4, open_v6=0, closed_v4=0, closed_v6=0, seed=11
    )
    survey = ResolverSurvey(
        inet.network, probes, inet.allocator.next_v4(), iterations=ITERATIONS
    )
    for index, deployed in enumerate(deployment):
        survey.probe(deployed, requeue_label(index))

    assert counter[0] == GOLDEN_DATAGRAMS
    assert digest.hexdigest() == GOLDEN_SHA256


def _scan_capture(lazy, faults):
    """(datagrams, digest) of the domain scan over a lazy or eager build."""
    tlds = generate_tlds(SMALL_CONFIG)
    population = Population(SMALL_CONFIG, tlds=tlds)
    inet = build_internet(
        population if lazy else list(population), tlds, seed=5, lazy_domains=lazy
    )
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
def test_lazy_and_eager_builds_are_wire_identical(faults):
    datagrams, digest = _scan_capture(lazy=True, faults=faults)
    assert datagrams > 500
    assert (datagrams, digest) == _scan_capture(lazy=False, faults=faults)
