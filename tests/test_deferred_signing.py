"""Sign on first serve: a zone signed with ``defer_signatures`` computes
an RRSIG only when :meth:`Zone.get_rrsigs` first reads it.

Everything a signature covers is fixed at signing time, so the served
bytes are those of a zone signed in full, the signature over an RRset
edited afterwards is the signature over the data as signed, and the
build cache only ever stores finished signatures.
"""

import random

import pytest

from repro.crypto.keys import ALG_RSASHA256, KeyPair
from repro.dns.message import make_query
from repro.dns.rdata import NS, A
from repro.dns.types import RdataType
from repro.dnssec.signer import rrsig_signed_data
from repro.server.authoritative import AuthoritativeServer
from repro.testbed.internet import KeyPool, LazyZoneHost, build_domain_zone
from repro.testbed.population import DomainSpec
from repro.zone import build_cache
from repro.zone.nsec3chain import Nsec3Params
from repro.zone.builder import ZoneBuilder
from repro.zone.signing import SigningPolicy, _zone_fingerprint, sign_zone

SEED = 7

#: The questions paper §4.1 asks a DNSSEC domain, plus ``www`` A.
SCAN_QUESTIONS = (
    ("@", RdataType.DNSKEY),
    ("@", RdataType.NSEC3PARAM),
    ("@", RdataType.NS),
    ("zz-not-there", RdataType.A),
    ("www", RdataType.A),
)

KINDS = (
    dict(dnssec=False, denial=""),
    dict(dnssec=True, denial="nsec"),
    dict(dnssec=True, denial="nsec3", iterations=0, salt_length=0),
    dict(dnssec=True, denial="nsec3", iterations=5, salt_length=8),
    dict(dnssec=True, denial="nsec3", iterations=1, salt_length=4, opt_out=True),
)


@pytest.fixture(scope="module")
def pool():
    return KeyPool(size=2, seed=SEED + 1)


OPERATORS = ("squarespace", "generic-web", "Mixed-Case.Example")


def _spec(index):
    """The specs of ``tests/test_testbed.py::TestDomainZoneFromValues``."""
    tld = ("com", "org", "co-op")[index % 3]
    return DomainSpec(
        name=f"Site-{index}.{tld}" if index % 7 == 0 else f"site-{index}.{tld}",
        tld=tld,
        operator=OPERATORS[index % len(OPERATORS)],
        **KINDS[index % len(KINDS)],
    )


def _ns_pair(spec):
    ns_domain = f"{spec.operator.replace('.', '-')}-dns.net"
    return (NS(f"ns1.{ns_domain}."), NS(f"ns2.{ns_domain}."))


def _qname(zone, label):
    return zone.origin if label == "@" else zone.origin.prepend(label)


def _answers(zone, questions=SCAN_QUESTIONS):
    server = AuthoritativeServer("deferred-test")
    server.add_zone(zone)
    return [
        server.handle_query(
            make_query(_qname(zone, label), qtype, want_dnssec=True, msg_id=index)
        ).to_wire()
        for index, (label, qtype) in enumerate(questions)
    ]


def _signatures(zone):
    return {
        key: [rdata.to_wire() for rdata in rrset]
        for key, rrset in zone.rrsigs.items()
    }


@pytest.fixture
def counting_signer(monkeypatch):
    """Every message the bulk signers sign, in order."""
    signed = []
    original = KeyPair.bulk_signer

    def bulk_signer(keypair):
        sign = original(keypair)

        def counting(message):
            signed.append(message)
            return sign(message)

        return counting

    monkeypatch.setattr(KeyPair, "bulk_signer", bulk_signer)
    return signed


class TestEquivalence:
    def test_deferred_zone_serves_the_bytes_of_a_fully_signed_one(self, pool):
        for index in range(200):
            spec = _spec(index)
            ns_pair = _ns_pair(spec)
            eager = build_domain_zone(spec, SEED, pool, ns_pair)
            deferred = build_domain_zone(spec, SEED, pool, ns_pair, defer_signatures=True)
            assert not eager.pending_rrsigs
            assert bool(deferred.pending_rrsigs) == spec.dnssec
            generation = deferred.generation
            assert _answers(deferred) == _answers(eager), spec
            # Completing a signature is not a mutation.
            assert deferred.generation == generation
            deferred.complete_rrsigs()
            assert not deferred.pending_rrsigs
            assert _signatures(deferred) == _signatures(eager), spec


class TestUnreadRRsets:
    def test_only_read_rrsets_reach_the_signer(self, pool, counting_signer):
        spec = _spec(3)  # NSEC3, 5 iterations, 8 octets of salt
        zone = build_domain_zone(spec, SEED, pool, _ns_pair(spec), defer_signatures=True)
        assert counting_signer == []
        _answers(zone, SCAN_QUESTIONS[:4])
        assert len(counting_signer) == len(zone.rrsigs) > 0
        apex_a, www_a = (zone.origin, 1), (zone.origin.prepend("www"), 1)
        assert apex_a in zone.pending_rrsigs and www_a in zone.pending_rrsigs
        for key in zone.pending_rrsigs:
            assert key not in zone.rrsigs
        # A repeated read signs nothing more; a new one signs once.
        _answers(zone, SCAN_QUESTIONS[:4])
        signed = len(counting_signer)
        _answers(zone, SCAN_QUESTIONS[4:])
        assert len(counting_signer) == signed + 1
        assert counting_signer[-1] == rrsig_signed_data(
            zone.rrsigs[www_a][0], zone.get_rrset(*www_a)
        )

    def test_a_query_without_do_signs_nothing(self, pool, counting_signer):
        spec = _spec(1)
        zone = build_domain_zone(spec, SEED, pool, _ns_pair(spec), defer_signatures=True)
        server = AuthoritativeServer("deferred-test")
        server.add_zone(zone)
        for label, qtype in SCAN_QUESTIONS:
            server.handle_query(make_query(_qname(zone, label), qtype, want_dnssec=False))
        assert counting_signer == [] and zone.rrsigs == {}

    def test_the_lazy_zone_host_defers(self, pool, counting_signer):
        spec = _spec(3)

        class Population:
            @staticmethod
            def spec_for_name(name):
                return spec if name == spec.name.lower() else None

        class Server:
            def host_lazily(self, zone):
                self.zone = zone

        server = Server()
        host = LazyZoneHost(Population(), {spec.operator: _ns_pair(spec)}, SEED, pool)
        zone = host.factory_for(spec.operator, server)(f"x.{spec.name}")
        assert zone is server.zone and zone.signed
        assert counting_signer == [] and zone.rrsigs == {}
        assert len(zone.pending_rrsigs) > 5


def _small_zone():
    return (
        ZoneBuilder("snap.example")
        .soa("ns1.snap.example", "h.snap.example")
        .ns("ns1.snap.example.")
        .a("ns1", "192.0.2.53")
        .a("www", "192.0.2.80")
        .build()
    )


def _rsa_policy():
    return SigningPolicy(
        nsec3=Nsec3Params(iterations=1, salt=b"\x01"),
        algorithm=ALG_RSASHA256,
        rsa_bits=512,
    )


class TestSnapshot:
    @staticmethod
    def _signed(defer, edit):
        zone = _small_zone()
        sign_zone(zone, _rsa_policy(), rng=random.Random(5), defer_signatures=defer)
        if edit:
            www = zone.get_rrset("www.snap.example", RdataType.A)
            www.add(A("192.0.2.81"))
            www.ttl = 60
        zone.complete_rrsigs()
        return _signatures(zone)

    def test_an_rrset_edited_after_signing_keeps_the_signature_as_signed(self):
        as_signed = self._signed(defer=False, edit=False)
        assert self._signed(defer=False, edit=True) == as_signed
        assert self._signed(defer=True, edit=True) == as_signed


class TestBuildCache:
    def test_a_store_holds_complete_signatures(self, tmp_path):
        eager = _small_zone()
        sign_zone(eager, _rsa_policy(), rng=random.Random(5))
        cache = build_cache.activate(str(tmp_path / "build-cache"))
        try:
            zone = _small_zone()
            sign_zone(zone, _rsa_policy(), rng=random.Random(5), defer_signatures=True)
            assert cache.events["store"] == 1
            assert not zone.pending_rrsigs
            assert _signatures(zone) == _signatures(eager)
            ksk, zsk = zone.keys
            fingerprint = _zone_fingerprint(_small_zone(), _rsa_policy(), ksk, zsk)
            payload = cache.load("zone", fingerprint)
            stored = {
                (name_hex, covered): wires
                for name_hex, covered, __, wires in payload["rrsigs"]
            }
            assert len(stored) == len(eager.rrsigs)
            assert sorted(w for wires in stored.values() for w in wires) == sorted(
                wire.hex() for wires in _signatures(eager).values() for wire in wires
            )
            loaded = _small_zone()
            sign_zone(loaded, _rsa_policy(), ksk=ksk, zsk=zsk, defer_signatures=True)
            assert cache.events["hit"] == 1
            assert not loaded.pending_rrsigs
            assert _signatures(loaded) == _signatures(eager)
        finally:
            build_cache.deactivate()
