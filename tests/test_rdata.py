"""Round-trip tests for every rdata type: wire, and the presentation text
of a record decoded from that wire."""

import pytest

from repro.dns.name import Name
from repro.dns.rdata import (
    A,
    AAAA,
    CNAME,
    DNSKEY,
    DS,
    MX,
    NS,
    NSEC,
    NSEC3,
    NSEC3PARAM,
    PTR,
    SOA,
    SRV,
    TXT,
    GenericRdata,
    class_for,
    parse_rdata,
)
from repro.dns.rdata.nsec3 import NSEC3_FLAG_OPTOUT
from repro.dns.types import RdataType
from repro.dns.wire import Reader


def wire_round_trip(rdata):
    wire = rdata.to_wire()
    parsed = parse_rdata(rdata.rrtype, Reader(wire), len(wire))
    assert parsed == rdata, (rdata.to_text(), parsed.to_text())
    return parsed


def text_round_trip(rdata, text):
    """The presentation form is *text*, before and after a wire round trip
    (a DNSSEC record decoded lazily renders from its slice)."""
    assert rdata.to_text() == text
    assert wire_round_trip(rdata).to_text() == text


SAMPLES = [
    A("192.0.2.1"),
    AAAA("2001:db8::1"),
    NS("ns1.example.com."),
    CNAME("target.example.org."),
    PTR("host.example.net."),
    MX(10, "mail.example.com."),
    SRV(0, 5, 443, "server.example.com."),
    SOA("ns1.example.com.", "admin.example.com.", 2024010101, 7200, 3600, 1209600, 300),
    TXT(["hello world", "second string"]),
    DNSKEY(257, 3, 13, b"\x01" * 64),
    DS(12345, 13, 2, b"\xab" * 32),
    NSEC("next.example.com.", [RdataType.A, RdataType.RRSIG, RdataType.NSEC]),
    NSEC3(1, NSEC3_FLAG_OPTOUT, 10, b"\xaa\xbb", b"\x11" * 20, [RdataType.A]),
    NSEC3PARAM(1, 0, 0, b""),
]

#: RFC 1035 / 4034 / 5155 presentation form of each sample, in order.
TEXTS = [
    "192.0.2.1",
    "2001:db8::1",
    "ns1.example.com.",
    "target.example.org.",
    "host.example.net.",
    "10 mail.example.com.",
    "0 5 443 server.example.com.",
    "ns1.example.com. admin.example.com. 2024010101 7200 3600 1209600 300",
    '"hello world" "second string"',
    "257 3 13 " + "AQEB" * 21 + "AQ==",
    "12345 13 2 " + "AB" * 32,
    "next.example.com. A RRSIG NSEC",
    "1 1 10 AABB " + "248H" * 8 + " A",
    "1 0 0 -",
]


@pytest.mark.parametrize("rdata", SAMPLES, ids=lambda r: type(r).__name__)
def test_wire_round_trip(rdata):
    wire_round_trip(rdata)


@pytest.mark.parametrize(
    "rdata, text", zip(SAMPLES, TEXTS), ids=[type(r).__name__ for r in SAMPLES]
)
def test_text_round_trip(rdata, text):
    text_round_trip(rdata, text)


class TestAddress:
    def test_a_rejects_bad_length(self):
        with pytest.raises(ValueError):
            parse_rdata(RdataType.A, Reader(b"\x01\x02"), 2)

    def test_aaaa_rejects_bad_length(self):
        with pytest.raises(ValueError):
            parse_rdata(RdataType.AAAA, Reader(b"\x01" * 4), 4)

    def test_a_text(self):
        assert A("10.1.2.3").to_text() == "10.1.2.3"


class TestTxt:
    def test_too_long_string_rejected(self):
        with pytest.raises(ValueError):
            TXT(["x" * 256])

    def test_single_string_shorthand(self):
        assert TXT("abc").strings == (b"abc",)

    def test_quoted_parse(self):
        """Character-strings with spaces parse from the wire one by one and
        render quoted."""
        parsed = wire_round_trip(TXT(["one two", "three"]))
        assert parsed.strings == (b"one two", b"three")
        assert parsed.to_text() == '"one two" "three"'


class TestDnskey:
    def test_key_tag_stable(self):
        key = DNSKEY(256, 3, 8, bytes(range(64)))
        assert key.key_tag() == DNSKEY(256, 3, 8, bytes(range(64))).key_tag()

    def test_flags_helpers(self):
        ksk = DNSKEY(257, 3, 8, b"k")
        zsk = DNSKEY(256, 3, 8, b"k")
        assert ksk.is_sep() and ksk.is_zone_key()
        assert not zsk.is_sep() and zsk.is_zone_key()
        assert not ksk.is_revoked()


class TestRrsig:
    def test_time_format(self):
        from repro.dns.rdata.dnssec import RRSIG, sigtime_to_text

        assert sigtime_to_text(1_700_000_000) == "20231114221320"
        sig = RRSIG(1, 13, 2, 300, 1_700_100_000, 1_700_000_000, 1, "example.com.", b"s")
        assert sig.is_valid_at(1_700_050_000)
        assert not sig.is_valid_at(1_700_200_000)
        assert not sig.is_valid_at(1_699_000_000)

    def test_rdata_prefix_excludes_signature(self):
        from repro.dns.rdata.dnssec import RRSIG

        sig_a = RRSIG(1, 13, 2, 300, 20, 10, 1, "example.com.", b"AAAA")
        sig_b = RRSIG(1, 13, 2, 300, 20, 10, 1, "example.com.", b"BBBB")
        assert sig_a.rdata_prefix() == sig_b.rdata_prefix()

    def test_wire_round_trip_with_signature(self):
        from repro.dns.rdata.dnssec import RRSIG

        sig = RRSIG(
            int(RdataType.NSEC3), 8, 3, 3600, 1_700_100_000, 1_700_000_000,
            54321, "zone.example.", b"\x99" * 64,
        )
        text_round_trip(
            sig,
            "NSEC3 8 3 3600 20231116020000 20231114221320 54321 zone.example. "
            + "mZmZ" * 21 + "mQ==",
        )


class TestNsec3:
    def test_opt_out_flag(self):
        assert NSEC3(1, 1, 0, b"", b"\x00" * 20, []).opt_out
        assert not NSEC3(1, 0, 0, b"", b"\x00" * 20, []).opt_out

    def test_parameters_tuple(self):
        record = NSEC3(1, 0, 7, b"\xde\xad", b"\x00" * 20, [])
        assert record.parameters() == (1, 7, b"\xde\xad")

    def test_iterations_bounds(self):
        with pytest.raises(ValueError):
            NSEC3(1, 0, 70000, b"", b"\x00" * 20, [])
        with pytest.raises(ValueError):
            NSEC3PARAM(1, 0, -1, b"")

    def test_salt_too_long(self):
        with pytest.raises(ValueError):
            NSEC3PARAM(1, 0, 0, b"\x00" * 256)

    def test_empty_salt_text(self):
        assert NSEC3PARAM(1, 0, 0, b"").to_text() == "1 0 0 -"

    def test_covers_type(self):
        record = NSEC3(1, 0, 0, b"", b"\x00" * 20, [RdataType.A, RdataType.TXT])
        assert record.covers_type(RdataType.A)
        assert not record.covers_type(RdataType.AAAA)


class TestGeneric:
    def test_unknown_type_round_trip(self):
        rdata = GenericRdata(65280, b"\x01\x02\x03")
        wire = rdata.to_wire()
        parsed = parse_rdata(65280, Reader(wire), len(wire))
        assert parsed.data == b"\x01\x02\x03"

    def test_rfc3597_text(self):
        rdata = GenericRdata(65280, b"\xab\xcd")
        assert rdata.to_text() == "\\# 2 abcd"

    def test_rfc3597_length_mismatch(self):
        """Opaque rdata shorter than its declared RDLENGTH is rejected."""
        with pytest.raises(ValueError):
            parse_rdata(65280, Reader(b"\xab\xcd"), 3)

    def test_class_for_unknown(self):
        assert class_for(64999) is GenericRdata

    def test_length_mismatch_detected(self):
        wire = A("1.2.3.4").to_wire()
        with pytest.raises(ValueError):
            parse_rdata(RdataType.A, Reader(wire + b"\x00"), 5)


class TestCanonicalForm:
    def test_ns_lowercased(self):
        assert NS("NS1.Example.COM.").canonical_wire() == NS(
            "ns1.example.com."
        ).canonical_wire()

    def test_mx_lowercased(self):
        assert MX(5, "Mail.EXAMPLE.com.").canonical_wire() == MX(
            5, "mail.example.com."
        ).canonical_wire()

    def test_soa_lowercased(self):
        upper = SOA("NS1.EXAMPLE.COM.", "ADMIN.EXAMPLE.COM.", 1, 2, 3, 4, 5)
        lower = SOA("ns1.example.com.", "admin.example.com.", 1, 2, 3, 4, 5)
        assert upper.canonical_wire() == lower.canonical_wire()

    def test_rdata_ordering_by_canonical_wire(self):
        a1 = A("1.1.1.1")
        a2 = A("2.2.2.2")
        assert a1 < a2
        assert sorted([a2, a1]) == [a1, a2]
