"""Tests for the authoritative server's response assembly."""

import random

import pytest

from repro.crypto.keys import make_ds
from repro.dns.flags import Flag
from repro.dns.message import Message, make_query
from repro.dns.name import Name
from repro.dns.rcode import Rcode
from repro.dns.rdata import A
from repro.dns.types import Opcode, RdataType
from repro.dnssec.denial import collect_proof_records, verify_nodata, verify_nxdomain
from repro.server.authoritative import AuthoritativeServer
from repro.zone.builder import ZoneBuilder
from repro.zone.nsec3chain import Nsec3Params
from repro.zone.signing import SigningPolicy, sign_zone

ZONE = "example.com"


@pytest.fixture(scope="module")
def server():
    rng = random.Random(10)
    zone = (
        ZoneBuilder(ZONE)
        .soa("ns1.example.com", "h.example.com")
        .ns("ns1.example.com.")
        .a("ns1", "192.0.2.1")
        .a("www", "192.0.2.2")
        .cname("alias", "www.example.com.")
        .wildcard_a("192.0.2.9", under="wild")
        .a("wild", "192.0.2.8")
        .delegate("kid", "ns1.kid.example.com.")
        .build()
    )
    zone.add("ns1.kid.example.com", RdataType.A, 60, A("192.0.2.50"))
    sign_zone(zone, SigningPolicy(nsec3=Nsec3Params(iterations=4, salt=b"\x01")),
              rng=rng)
    srv = AuthoritativeServer("test-auth")
    srv.add_zone(zone)
    return srv


def ask(server, qname, qtype, dnssec=True):
    return server.handle_query(make_query(qname, qtype, want_dnssec=dnssec))


class TestPositive:
    def test_answer_with_aa(self, server):
        response = ask(server, "www.example.com", RdataType.A)
        assert response.rcode == Rcode.NOERROR
        assert response.has_flag(Flag.AA)
        assert response.answer[0][0].to_text() == "192.0.2.2"

    def test_rrsig_included_when_do(self, server):
        response = ask(server, "www.example.com", RdataType.A)
        assert response.find_rrset(response.answer, "www.example.com", RdataType.RRSIG)

    def test_no_rrsig_without_do(self, server):
        response = ask(server, "www.example.com", RdataType.A, dnssec=False)
        assert not response.find_rrset(
            response.answer, "www.example.com", RdataType.RRSIG
        )

    def test_cname_chased_in_zone(self, server):
        response = ask(server, "alias.example.com", RdataType.A)
        assert response.find_rrset(response.answer, "alias.example.com", RdataType.CNAME)
        assert response.find_rrset(response.answer, "www.example.com", RdataType.A)

    def test_apex_ns_glue(self, server):
        response = ask(server, "example.com", RdataType.NS)
        assert response.find_rrset(response.additional, "ns1.example.com", RdataType.A)


class TestNegative:
    def test_nxdomain_has_soa_and_verifiable_proof(self, server):
        response = ask(server, "ghost.example.com", RdataType.A)
        assert response.rcode == Rcode.NXDOMAIN
        assert response.find_rrset(response.authority, ZONE, RdataType.SOA)
        records, params = collect_proof_records(response.authority, ZONE)
        proof = verify_nxdomain("ghost.example.com", ZONE, records, params)
        assert proof.valid, proof.reason

    def test_nodata_proof(self, server):
        response = ask(server, "www.example.com", RdataType.TXT)
        assert response.rcode == Rcode.NOERROR
        assert not response.answer
        records, params = collect_proof_records(response.authority, ZONE)
        proof = verify_nodata("www.example.com", RdataType.TXT, ZONE, records, params)
        assert proof.valid, proof.reason

    def test_no_nsec3_without_do(self, server):
        response = ask(server, "ghost.example.com", RdataType.A, dnssec=False)
        assert not any(
            int(rrset.rrtype) == int(RdataType.NSEC3) for rrset in response.authority
        )


class TestWildcard:
    def test_expansion_with_proof(self, server):
        response = ask(server, "anything.wild.example.com", RdataType.A)
        assert response.rcode == Rcode.NOERROR
        assert response.answer[0].name == Name.from_text("anything.wild.example.com")
        # The next-closer proof must be present for validators.
        assert any(
            int(rrset.rrtype) == int(RdataType.NSEC3) for rrset in response.authority
        )

    def test_wildcard_rrsig_retargeted(self, server):
        response = ask(server, "anything.wild.example.com", RdataType.A)
        sigs = response.find_rrset(
            response.answer, "anything.wild.example.com", RdataType.RRSIG
        )
        assert sigs is not None
        assert sigs[0].labels == 3  # *.wild.example.com minus the asterisk


class TestDelegation:
    def test_referral_shape(self, server):
        response = ask(server, "host.kid.example.com", RdataType.A)
        assert response.rcode == Rcode.NOERROR
        assert not response.has_flag(Flag.AA)
        assert not response.answer
        ns = response.find_rrset(response.authority, "kid.example.com", RdataType.NS)
        assert ns is not None

    def test_referral_includes_glue(self, server):
        response = ask(server, "host.kid.example.com", RdataType.A)
        assert response.find_rrset(
            response.additional, "ns1.kid.example.com", RdataType.A
        )

    def test_insecure_referral_carries_no_ds_proof(self, server):
        response = ask(server, "host.kid.example.com", RdataType.A)
        assert any(
            int(rrset.rrtype) == int(RdataType.NSEC3) for rrset in response.authority
        )


class TestErrors:
    def test_refused_outside_zones(self, server):
        response = ask(server, "www.other.net", RdataType.A)
        assert response.rcode == Rcode.REFUSED

    def test_formerr_on_response_message(self, server):
        query = make_query("www.example.com", RdataType.A)
        query.set_flag(Flag.QR)
        assert server.handle_query(query).rcode == Rcode.FORMERR

    def test_formerr_on_empty_question(self, server):
        query = make_query("www.example.com", RdataType.A)
        query.question = []
        assert server.handle_query(query).rcode == Rcode.FORMERR

    def test_notimpl_opcode(self, server):
        query = make_query("www.example.com", RdataType.A)
        query.opcode = Opcode.UPDATE
        assert server.handle_query(query).rcode == Rcode.FORMERR

    def test_garbage_datagram_ignored(self, server):
        assert server.handle_datagram(b"\x00\x01", "1.2.3.4") is None

    @staticmethod
    def _transfer_rcodes(server, zone):
        """Rcodes of an AXFR question over UDP and TCP; never a transfer."""
        query = make_query(zone, RdataType.AXFR, recursion_desired=False)
        responses = [
            Message.from_wire(
                server.handle_datagram(query.to_wire(), "198.51.100.9", via_tcp=via_tcp)
            )
            for via_tcp in (False, True)
        ]
        assert not any(r.answer or r.has_flag(Flag.AA) for r in responses)
        return [r.rcode for r in responses]

    def test_axfr_refused_for_hosted_zone(self, server):
        assert self._transfer_rcodes(server, ZONE) == [Rcode.REFUSED] * 2

    def test_axfr_notauth_for_unknown_zone(self, server):
        assert self._transfer_rcodes(server, "not-hosted-here") == [Rcode.NOTAUTH] * 2
        # A name inside a hosted zone is not a zone this server can transfer.
        assert self._transfer_rcodes(server, "www.example.com") == [Rcode.NOTAUTH] * 2
