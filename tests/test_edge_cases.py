"""Edge cases and failure injection across the stack."""

import random

import pytest

from repro.dns.flags import Flag
from repro.dns.message import Message, make_query
from repro.dns.name import Name
from repro.dns.rcode import Rcode
from repro.dns.rdata import A, NSEC3
from repro.dns.rrset import RRset
from repro.dns.types import RdataType
from repro.dns.wire import WireError
from repro.net.network import Host, Network
from repro.resolver.policy import VENDOR_POLICIES, Nsec3Policy, RFC5155_MAX_ITERATIONS
from repro.resolver.stub import StubClient
from repro.resolver.validating import ValidatingResolver
from repro.server.authoritative import AuthoritativeServer
from repro.zone.builder import ZoneBuilder
from repro.zone.nsec3chain import Nsec3Params, build_nsec3_chain
from repro.zone.signing import SigningPolicy, sign_zone


class TestMalformedWire:
    """The resolver and server must survive hostile bytes."""

    @pytest.mark.parametrize(
        "wire",
        [
            b"",
            b"\x00",
            b"\x00" * 11,
            b"\xff" * 12,
            b"\x00" * 12 + b"\xc0\x00",  # pointer into the header
            bytes.fromhex("000001000001000000000000") + b"\x3fx",  # truncated label
        ],
    )
    def test_message_decode_robust(self, wire):
        try:
            Message.from_wire(wire)
        except WireError:
            pass  # rejection is the expected outcome

    def test_server_ignores_garbage(self, mini_internet):
        server = mini_internet["servers"]["192.0.2.1"]
        assert server.handle_datagram(b"\x01\x02\x03", "9.9.9.9") is None

    def test_resolver_ignores_garbage(self, mini_internet):
        net = mini_internet["network"]
        resolver = ValidatingResolver(
            net, "198.51.100.150", mini_internet["root_addresses"],
            mini_internet["trust_anchor"],
        )
        assert resolver.handle_datagram(b"\xde\xad", "9.9.9.9") is None


class TestSpoofingResistance:
    """Forged data without valid signatures must be rejected."""

    def test_forged_answer_is_bogus(self, mini_internet):
        net = mini_internet["network"]

        class Spoofer(Host):
            """Answers authoritatively with an unsigned forged address."""

            def handle_datagram(self, wire, src_ip, via_tcp=False):
                from repro.dns.message import make_response

                query = Message.from_wire(wire)
                response = make_response(query)
                response.set_flag(Flag.AA)
                response.answer.append(
                    RRset(query.question[0].name, RdataType.A, 60, [A("66.66.66.66")])
                )
                return response.to_wire()

        # A resolver whose root hint points at the spoofer: nothing it says
        # can validate against the real trust anchor.
        net.attach("192.0.2.66", Spoofer())
        resolver = ValidatingResolver(
            net, "198.51.100.151", ["192.0.2.66"], mini_internet["trust_anchor"]
        )
        net.attach("198.51.100.151", resolver)
        verdict = resolver.resolve_and_validate("www.example.com", RdataType.A)
        assert verdict.rcode == Rcode.SERVFAIL

    def test_stripped_rrsig_not_secure(self, mini_internet):
        """Without RRSIGs a signed zone's data must not get the AD bit."""
        net = mini_internet["network"]

        class SigStripper(Host):
            def __init__(self, upstream_ip):
                self.upstream_ip = upstream_ip

            def handle_datagram(self, wire, src_ip, via_tcp=False):
                raw = net.send("198.51.100.152", self.upstream_ip, wire, via_tcp)
                if raw is None:
                    return None
                response = Message.from_wire(raw)
                for section in (response.answer, response.authority):
                    section[:] = [
                        rrset
                        for rrset in section
                        if int(rrset.rrtype) != int(RdataType.RRSIG)
                    ]
                return response.to_wire()

        net.attach("192.0.2.67", SigStripper("192.0.2.1"))
        resolver = ValidatingResolver(
            net, "198.51.100.153", ["192.0.2.67"], mini_internet["trust_anchor"]
        )
        net.attach("198.51.100.153", resolver)
        verdict = resolver.resolve_and_validate("www.example.com", RdataType.A)
        assert verdict.rcode == Rcode.SERVFAIL or not verdict.ad


class TestIterationBoundaries:
    def test_rfc5155_ceiling_respected_by_legacy(self):
        policy = VENDOR_POLICIES["legacy"]
        assert not policy.exceeds_insecure(RFC5155_MAX_ITERATIONS)
        assert policy.exceeds_insecure(RFC5155_MAX_ITERATIONS + 1)

    def test_policy_thresholds_are_exclusive(self):
        policy = Nsec3Policy(insecure_above=150, servfail_above=None)
        assert not policy.exceeds_insecure(150)
        assert policy.exceeds_insecure(151)

    def test_max_iterations_encodable(self):
        record = NSEC3(1, 0, 0xFFFF, b"", b"\x00" * 20, [])
        assert record.iterations == 0xFFFF

    def test_zero_length_chain_rejected_gracefully(self):
        zone = (
            ZoneBuilder("tiny.test")
            .soa("ns.tiny.test", "h.tiny.test")
            .ns("ns.tiny.test.")
            .build()
        )
        chain = build_nsec3_chain(zone, Nsec3Params())
        # Apex always hashes: a one-record chain pointing at itself.
        assert len(chain) >= 1
        entry = chain.entries[0]
        assert entry.rdata.next_hash == chain.entries[0].owner_hash or len(chain) > 1


class TestLossyNetwork:
    def test_resolution_survives_moderate_loss(self, mini_internet):
        lossy = Network(loss_rate=0.25, seed=8)
        # Rebuild servers on the lossy network reusing the signed zones.
        for ip, server in mini_internet["servers"].items():
            clone = AuthoritativeServer(server.name)
            for zone in server.zones.values():
                clone.add_zone(zone)
            lossy.attach(ip, clone)
        resolver = ValidatingResolver(
            lossy, "198.51.100.160", mini_internet["root_addresses"],
            mini_internet["trust_anchor"],
        )
        lossy.attach("198.51.100.160", resolver)
        resolver.engine.transport.retries = 6
        verdict = resolver.resolve_and_validate("www.example.com", RdataType.A)
        assert verdict.rcode == Rcode.NOERROR
        assert verdict.ad

    def test_total_blackout_gives_servfail(self, mini_internet):
        dead = Network(loss_rate=1.0, seed=9)
        resolver = ValidatingResolver(
            dead, "198.51.100.161", ["192.0.2.1"], mini_internet["trust_anchor"]
        )
        dead.attach("198.51.100.161", resolver)
        verdict = resolver.resolve_and_validate("www.example.com", RdataType.A)
        assert verdict.rcode == Rcode.SERVFAIL


class TestSaltEdgeCases:
    def test_maximum_salt_length(self):
        rng = random.Random(12)
        zone = (
            ZoneBuilder("salty.test")
            .soa("ns.salty.test", "h.salty.test")
            .ns("ns.salty.test.")
            .a("www", "192.0.2.1")
            .build()
        )
        params = Nsec3Params(iterations=0, salt=bytes(range(255))[:255])
        sign_zone(zone, SigningPolicy(nsec3=params), rng=rng)
        param_rrset = zone.get_rrset("salty.test", RdataType.NSEC3PARAM)
        assert len(param_rrset[0].salt) == 255

    def test_160_byte_salt_like_the_paper_tail(self):
        # 9 domains in the paper used 160-byte salts.
        rng = random.Random(13)
        zone = (
            ZoneBuilder("tail.test")
            .soa("ns.tail.test", "h.tail.test")
            .ns("ns.tail.test.")
            .a("www", "192.0.2.1")
            .build()
        )
        sign_zone(
            zone,
            SigningPolicy(nsec3=Nsec3Params(iterations=2, salt=b"\xa5" * 160)),
            rng=rng,
        )
        assert len(zone.nsec3_chain.params.salt) == 160


class TestCnameAcrossZones:
    def test_cross_zone_cname_resolves(self, mini_internet):
        net = mini_internet["network"]
        example = mini_internet["example"]
        # Add a CNAME pointing into unsigned.com, then re-sign example.com.
        from repro.dns.rdata import CNAME

        example.add("goto.example.com", RdataType.CNAME, 300, CNAME("www.unsigned.com."))
        sign_zone(
            example,
            SigningPolicy(nsec3=Nsec3Params(iterations=5, salt=b"\xca\xfe")),
            ksk=example.keys[0],
            zsk=example.keys[1],
            rng=random.Random(14),
        )
        resolver = ValidatingResolver(
            net, "198.51.100.162", mini_internet["root_addresses"],
            mini_internet["trust_anchor"],
        )
        net.attach("198.51.100.162", resolver)
        stub = StubClient(net, "203.0.113.99")
        answer = stub.ask(resolver.ip, "goto.example.com", RdataType.A)
        assert answer.rcode == Rcode.NOERROR
        targets = [
            r.to_text()
            for rrset in answer.answer
            if int(rrset.rrtype) == int(RdataType.A)
            for r in rrset
        ]
        assert "192.0.2.70" in targets
