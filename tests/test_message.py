"""Tests for message encoding/decoding, flags, EDNS, truncation."""

import pytest

from repro.dns.edns import EDE_UNSUPPORTED_NSEC3_ITERATIONS, Edns, ExtendedError
from repro.dns.flags import Flag
from repro.dns.message import Message, Question, make_query, make_response
from repro.dns.name import Name
from repro.dns.rcode import Rcode
from repro.dns.rdata import A, DNSKEY, NS, NSEC3, RRSIG, SOA, TXT
from repro.dns.rrset import RRset
from repro.dns.types import Opcode, RdataType
from repro.dns.wire import RR_FIXED, U16, Writer, WireError


def round_trip(msg):
    return Message.from_wire(msg.to_wire())


class TestHeader:
    def test_id_round_trip(self):
        msg = Message(0x1234)
        assert round_trip(msg).id == 0x1234

    def test_flags_round_trip(self):
        msg = Message(1)
        for flag in (Flag.QR, Flag.AA, Flag.RD, Flag.RA, Flag.AD, Flag.CD):
            msg.set_flag(flag)
        decoded = round_trip(msg)
        for flag in (Flag.QR, Flag.AA, Flag.RD, Flag.RA, Flag.AD, Flag.CD):
            assert decoded.has_flag(flag)

    def test_clear_flag(self):
        msg = Message(1)
        msg.set_flag(Flag.RD)
        msg.set_flag(Flag.RD, False)
        assert not msg.has_flag(Flag.RD)

    def test_rcode_round_trip(self):
        msg = Message(1)
        msg.rcode = Rcode.NXDOMAIN
        assert round_trip(msg).rcode == Rcode.NXDOMAIN

    def test_opcode_round_trip(self):
        msg = Message(1)
        msg.opcode = Opcode.NOTIFY
        assert round_trip(msg).opcode == Opcode.NOTIFY

    def test_short_message_rejected(self):
        with pytest.raises(WireError):
            Message.from_wire(b"\x00\x01\x02")


class TestSections:
    def test_question_round_trip(self):
        msg = make_query("www.example.com", RdataType.AAAA)
        decoded = round_trip(msg)
        assert decoded.question[0] == Question("www.example.com", RdataType.AAAA)

    def test_rr_counts_are_per_record(self):
        # Regression: counts must be per-RR, not per-RRset.
        msg = Message(7)
        msg.answer.append(
            RRset("example.com", RdataType.A, 60, [A("1.1.1.1"), A("2.2.2.2")])
        )
        msg.answer.append(
            RRset("example.com", RdataType.TXT, 60, [TXT("x")])
        )
        wire = msg.to_wire()
        # ANCOUNT is at offset 6.
        assert wire[6] == 0 and wire[7] == 3
        decoded = Message.from_wire(wire)
        assert len(decoded.answer) == 2
        assert len(decoded.answer[0]) == 2

    def test_sections_preserved(self):
        msg = Message(9)
        msg.answer.append(RRset("a.example", RdataType.A, 30, [A("1.2.3.4")]))
        msg.authority.append(
            RRset("example", RdataType.SOA, 30, [SOA("n.example", "h.example", 1, 2, 3, 4, 5)])
        )
        msg.additional.append(RRset("ns.example", RdataType.A, 30, [A("9.9.9.9")]))
        decoded = round_trip(msg)
        assert len(decoded.answer) == 1
        assert len(decoded.authority) == 1
        assert len(decoded.additional) == 1

    def test_find_rrset(self):
        msg = Message(1)
        rrset = RRset("x.example", RdataType.A, 30, [A("1.2.3.4")])
        msg.answer.append(rrset)
        assert msg.find_rrset(msg.answer, "X.EXAMPLE", RdataType.A) is rrset
        assert msg.find_rrset(msg.answer, "x.example", RdataType.AAAA) is None

    def test_add_rrset_merges(self):
        msg = Message(1)
        msg.add_rrset(msg.answer, RRset("x.example", RdataType.A, 30, [A("1.1.1.1")]))
        msg.add_rrset(msg.answer, RRset("x.example", RdataType.A, 30, [A("2.2.2.2")]))
        assert len(msg.answer) == 1
        assert len(msg.answer[0]) == 2

    def test_decode_merges_same_rrset(self):
        msg = Message(2)
        msg.answer.append(
            RRset("m.example", RdataType.A, 30, [A("1.1.1.1"), A("2.2.2.2")])
        )
        decoded = round_trip(msg)
        assert len(decoded.answer) == 1
        assert {r.to_text() for r in decoded.answer[0]} == {"1.1.1.1", "2.2.2.2"}


class TestEdns:
    def test_do_bit(self):
        msg = make_query("example.com", RdataType.A, want_dnssec=True)
        decoded = round_trip(msg)
        assert decoded.dnssec_ok
        assert decoded.edns.payload_size == 1232

    def test_no_edns(self):
        msg = Message(1)
        msg.question.append(Question("example.com", RdataType.A))
        decoded = round_trip(msg)
        assert decoded.edns is None
        assert not decoded.dnssec_ok

    def test_extended_error_round_trip(self):
        msg = make_query("example.com", RdataType.A, want_dnssec=True)
        msg.set_flag(Flag.QR)
        msg.edns.add_extended_error(EDE_UNSUPPORTED_NSEC3_ITERATIONS, "too many")
        decoded = round_trip(msg)
        errors = decoded.extended_errors()
        assert len(errors) == 1
        assert errors[0].info_code == EDE_UNSUPPORTED_NSEC3_ITERATIONS
        assert errors[0].extra_text == "too many"

    def test_extended_rcode_high_bits(self):
        msg = Message(1)
        msg.use_edns()
        msg.rcode = Rcode.BADVERS  # 16: needs the OPT high bits
        decoded = round_trip(msg)
        assert int(decoded.rcode) == int(Rcode.BADVERS)

    def test_ede_option_parsing_errors(self):
        from repro.dns.rdata.opt import EdnsOption

        with pytest.raises(ValueError):
            ExtendedError.from_option(EdnsOption(99, b"\x00\x1b"))
        with pytest.raises(ValueError):
            ExtendedError.from_option(EdnsOption(15, b"\x00"))


class TestTruncation:
    def test_truncated_when_too_large(self):
        msg = Message(5)
        msg.set_flag(Flag.QR)
        msg.question.append(Question("example.com", RdataType.TXT))
        for index in range(50):
            msg.add_rrset(
                msg.answer,
                RRset("example.com", RdataType.TXT, 60, [TXT(f"record {index} " + "x" * 60)]),
            )
        wire = msg.to_wire(max_size=512)
        decoded = Message.from_wire(wire)
        assert decoded.has_flag(Flag.TC)
        assert not decoded.answer

    def test_not_truncated_when_fits(self):
        msg = make_query("example.com", RdataType.A)
        decoded = Message.from_wire(msg.to_wire(max_size=512))
        assert not decoded.has_flag(Flag.TC)


class TestEncodeRangeErrors:
    """A field outside its wire range is a ValueError naming the record."""

    def test_question_type_over_16_bits(self):
        query = make_query("big-type.example", RdataType.A)
        query.question[0].rrtype = 65536
        with pytest.raises(ValueError, match=r"big-type\.example\..*TYPE65536"):
            query.to_wire()

    def test_dnskey_flags_over_16_bits(self):
        response = make_response(make_query("keys.example", RdataType.DNSKEY))
        response.answer.append(
            RRset("keys.example", RdataType.DNSKEY, 300, [DNSKEY(70000, 3, 13, b"key")])
        )
        with pytest.raises(ValueError, match=r"keys\.example\. DNSKEY"):
            response.to_wire()


class TestFactories:
    def test_make_response_mirrors_query(self):
        query = make_query("x.example", RdataType.A, want_dnssec=True)
        response = make_response(query, recursion_available=True)
        assert response.id == query.id
        assert response.is_response
        assert response.has_flag(Flag.RD)
        assert response.has_flag(Flag.RA)
        assert response.question == query.question
        assert response.edns is not None and response.edns.dnssec_ok

    def test_make_query_rd_flag(self):
        assert make_query("e.com", 1).has_flag(Flag.RD)
        assert not make_query("e.com", 1, recursion_desired=False).has_flag(Flag.RD)


def _hand_built_response(rrtype, rdata):
    """A response with one answer RR ``example.com. 300 IN <rrtype>``."""
    qname = b"\x07example\x03com\x00"
    header = b"\x12\x34\x84\x00\x00\x01\x00\x01\x00\x00\x00\x00"
    question = qname + int(rrtype).to_bytes(2, "big") + b"\x00\x01"
    record = (
        b"\xc0\x0c" + int(rrtype).to_bytes(2, "big") + b"\x00\x01"
        + (300).to_bytes(4, "big") + len(rdata).to_bytes(2, "big") + rdata
    )
    return header + question + record


def _relayed(rrset):
    """Re-encode *rrset* behind an extra leading RRset, then decode again."""
    relay = Message(9)
    relay.set_flag(Flag.QR)
    relay.answer.append(RRset("padding.some-other-zone.net", RdataType.A, 60, [A("192.0.2.1")]))
    relay.answer.append(rrset)
    return round_trip(relay).answer[1]


class TestCarriedRdataBytes:
    """Rdata slices kept from decode must be position-independent."""

    def test_compressed_rrsig_signer_survives_a_different_layout(self):
        # Legal to receive, never to send: the signer is a pointer at the
        # question name (offset 12). Were those two octets kept as the
        # rdata's encoding, the relayed copy would point into "padding".
        fixed = RRSIG(RdataType.A, 13, 2, 300, 1_760_000_000, 1_750_000_000, 4242,
                      ".", b"").to_wire()[:-1]
        signature = bytes(range(64))
        wire = _hand_built_response(RdataType.RRSIG, fixed + b"\xc0\x0c" + signature)
        rrsig = Message.from_wire(wire).answer[0]
        assert type(rrsig[0]) is RRSIG  # built eagerly, no slice kept
        assert rrsig[0].signer == Name.from_text("example.com")
        relayed = _relayed(rrsig)
        assert relayed[0].signer == Name.from_text("example.com")
        assert relayed[0].signature == signature
        assert relayed[0].to_wire() == fixed + b"\x07example\x03com\x00" + signature

    def test_uncompressed_rrsig_signer_keeps_its_case(self):
        rdata = RRSIG(RdataType.A, 13, 2, 300, 1_760_000_000, 1_750_000_000, 4242,
                      "Example.COM", bytes(range(64)))
        wire = _hand_built_response(RdataType.RRSIG, rdata.to_wire())
        relayed = _relayed(Message.from_wire(wire).answer[0])
        assert type(relayed[0]) is RRSIG.Lazy
        assert relayed[0].to_wire() == rdata.to_wire()
        assert relayed[0].rdata_prefix() == rdata.rdata_prefix()
        assert relayed[0].signer.labels == (b"Example", b"COM")

    def test_non_canonical_nsec3_bitmap_is_re_encoded_canonically(self):
        # Window 0 padded with trailing zero octets and an all-zero window
        # 1: accepted on decode, but not what encode_bitmap would emit.
        canonical = NSEC3(1, 0, 5, b"\xaa", bytes(range(20)), [RdataType.A, RdataType.NS])
        head = canonical.to_wire()[: -len(b"\x00\x01\x60")]
        assert canonical.to_wire() == head + b"\x00\x01\x60"
        sloppy = head + b"\x00\x03\x60\x00\x00" + b"\x01\x01\x00"
        wire = _hand_built_response(RdataType.NSEC3, sloppy)
        nsec3 = Message.from_wire(wire).answer[0]
        assert type(nsec3[0]) is NSEC3  # built eagerly, no slice kept
        assert nsec3[0] == canonical
        assert nsec3[0].to_wire() == canonical.to_wire()
        assert _relayed(nsec3)[0].to_wire() == canonical.to_wire()
        # Unsorted windows are not merely non-canonical, they are rejected.
        with pytest.raises(WireError):
            Message.from_wire(
                _hand_built_response(RdataType.NSEC3, head + b"\x01\x01\x80" + b"\x00\x01\x60")
            )


class TestLargeRRsetDecode:
    def test_decoding_2000_rdatas_encodes_each_at_most_once(self, monkeypatch):
        # RRset.add's membership test compares canonical forms; without a
        # memo each comparison re-encoded both sides through a fresh
        # Writer — O(n²) write_wire calls for one AXFR-sized RRset.
        for build in (
            lambda i: TXT([f"record-{i}"]),
            lambda i: NS(f"ns{i}.big.example"),
            lambda i: DNSKEY(256, 3, 13, i.to_bytes(4, "big") * 8),
        ):
            msg = Message(1)
            msg.answer.append(RRset("big.example", build(0).rrtype, 60, [build(i) for i in range(2000)]))
            wire = msg.to_wire()
            calls = [0]
            cls = type(build(0))
            inner = cls.write_wire

            def counting(self, writer, inner=inner):
                calls[0] += 1
                return inner(self, writer)

            monkeypatch.setattr(cls, "write_wire", counting)
            decoded = Message.from_wire(wire)
            assert len(decoded.answer[0]) == 2000
            assert calls[0] <= 2000, (cls.__name__, calls[0])


def _record_by_record(writer, rrset):
    """Reference RRset encoder: the owner goes through write_name for
    every record, so every record resolves its own compression."""
    buf = writer.buf
    for rdata in rrset.rdatas:
        writer.write_name(rrset.name)
        packed = rdata.packed()
        if packed is not None:
            buf += RR_FIXED.pack(rrset.rrtype, rrset.rdclass, rrset.ttl, len(packed))
            buf += packed
        else:
            buf += RR_FIXED.pack(rrset.rrtype, rrset.rdclass, rrset.ttl, 0)
            start = len(buf)
            rdata.write_wire(writer)
            U16.pack_into(buf, start - 2, len(buf) - start)


class TestOwnerWrittenOnce:
    """A multi-record RRset re-emits its owner's pointer; the bytes are
    those of writing the owner record by record, fallbacks included."""

    LATE = b"\x04late\x07example\x03net\x00"

    @staticmethod
    def _message():
        msg = Message(3)
        msg.set_flag(Flag.QR)
        msg.question.append(Question("big.example.org", RdataType.TXT))
        msg.answer.append(RRset("big.example.org", RdataType.TXT, 60, [
            TXT([f"{index:03d}" + "x" * 240]) for index in range(70)
        ]))
        # First written past 0x4000: no compression target, the owner is
        # written in full for every record.
        msg.authority.append(RRset("late.example.net", RdataType.NS, 60, [
            NS(f"ns{index}.late.example.net") for index in range(3)
        ]))
        msg.additional.append(RRset(".", RdataType.TXT, 60, [TXT("a"), TXT("b")]))
        return msg

    def test_matches_record_by_record(self, monkeypatch):
        wire = self._message().to_wire()
        monkeypatch.setattr(Message, "_write_rrset", staticmethod(_record_by_record))
        assert wire == self._message().to_wire()
        assert wire.count(self.LATE + b"\x00\x02\x00\x01") == 3  # owner, NS, IN
        assert len(wire) > 0x4000
        # Below 0x4000 the TXT owner is one name and 70 pointers.
        assert wire.count(b"\x03big\x07example\x03org\x00") == 1

    def test_compression_off_writes_every_owner(self):
        rrset = RRset("late.example.net", RdataType.A, 60, [A("192.0.2.1"), A("192.0.2.2")])
        fast, reference = Writer(enable_compression=False), Writer(enable_compression=False)
        Message._write_rrset(fast, rrset)
        _record_by_record(reference, rrset)
        assert fast.getvalue() == reference.getvalue()
        assert fast.getvalue().count(self.LATE) == 2
