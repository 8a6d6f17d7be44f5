"""Property-based tests (hypothesis) on core data structures and invariants."""

import bisect
import math
import string

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.cdf import StreamingCdf
from repro.dns.base32 import b32hex_decode, b32hex_encode
from repro.dns.bitmap import decode_bitmap, encode_bitmap
from repro.dns.message import Message, Question, make_query
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
    RRSIG,
    SOA,
    SRV,
    TXT,
    GenericRdata,
)
from repro.dns.rdata import _REGISTRY as RDATA_REGISTRY
from repro.dns.rrset import RRset
from repro.dns.types import RdataType
from repro.dns.wire import Reader, Writer
from repro.dnssec.denial import hash_covers
from repro.dnssec.nsec3hash import nsec3_hash

# -- strategies ---------------------------------------------------------------

label_st = st.text(
    alphabet=string.ascii_letters + string.digits + "-", min_size=1, max_size=12
).filter(lambda s: not s.startswith("-"))

name_st = st.lists(label_st, min_size=0, max_size=5).map(
    lambda labels: Name.from_labels(*labels)
)


class TestBase32Properties:
    @given(st.binary(max_size=64))
    def test_encode_decode_round_trip(self, data):
        assert b32hex_decode(b32hex_encode(data)) == data

    @given(st.binary(min_size=1, max_size=24), st.binary(min_size=1, max_size=24))
    def test_order_preserved(self, a, b):
        # Only guaranteed for equal-length inputs (like NSEC3's 20-byte
        # hashes): base32hex is then a monotone encoding.
        size = min(len(a), len(b))
        a, b = a[:size], b[:size]
        assert (a < b) == (b32hex_encode(a) < b32hex_encode(b))


class TestBitmapProperties:
    @given(st.lists(st.integers(min_value=0, max_value=0xFFFF), max_size=40))
    def test_round_trip(self, types):
        assert decode_bitmap(encode_bitmap(types)) == sorted(set(types))


class TestNameProperties:
    @given(name_st)
    def test_text_round_trip(self, name):
        assert Name.from_text(name.to_text()) == name

    @given(name_st)
    def test_wire_round_trip(self, name):
        reader = Reader(name.to_wire())
        assert reader.read_name() == name

    @given(name_st, name_st)
    def test_order_total_and_consistent(self, a, b):
        assert (a < b) + (b < a) + (a == b) == 1

    @given(name_st, label_st)
    def test_child_is_subdomain(self, name, label):
        try:
            child = name.prepend(label.encode())
        except Exception:
            return
        assert child.is_subdomain_of(name)
        assert child.parent() == name

    @given(name_st)
    def test_canonical_wire_idempotent_under_case(self, name):
        upper = Name.from_text(name.to_text().upper())
        assert upper.canonical_wire() == name.canonical_wire()


class TestCompressionProperties:
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    @given(st.lists(name_st, min_size=1, max_size=6))
    def test_compressed_names_decode_identically(self, names):
        writer = Writer()
        for name in names:
            writer.write_name(name)
        reader = Reader(writer.getvalue())
        decoded = [reader.read_name() for __ in names]
        assert decoded == list(names)

    @given(st.lists(name_st, min_size=1, max_size=6))
    def test_compression_never_grows(self, names):
        compressed = Writer()
        plain = Writer(enable_compression=False)
        for name in names:
            compressed.write_name(name)
            plain.write_name(name)
        assert len(compressed) <= len(plain)


class TestMessageProperties:
    @settings(deadline=None)
    @given(
        st.integers(min_value=0, max_value=0xFFFF),
        name_st,
        st.sampled_from([RdataType.A, RdataType.NS, RdataType.DNSKEY, RdataType.NSEC3]),
        st.booleans(),
    )
    def test_query_round_trip(self, msg_id, name, rrtype, dnssec):
        query = make_query(name, rrtype, want_dnssec=dnssec, msg_id=msg_id)
        decoded = Message.from_wire(query.to_wire())
        assert decoded.id == msg_id
        assert decoded.question[0] == Question(name, rrtype)
        assert decoded.dnssec_ok == dnssec

    @settings(deadline=None)
    @given(
        st.lists(
            st.tuples(name_st, st.integers(min_value=0, max_value=3)),
            min_size=0,
            max_size=5,
        )
    )
    def test_answer_sections_round_trip(self, entries):
        msg = Message(7)
        for name, n_rdata in entries:
            rrset = RRset(name, RdataType.A, 60)
            for index in range(n_rdata):
                rrset.add(A(f"10.0.{index}.1"))
            if rrset:
                msg.add_rrset(msg.answer, rrset)
        decoded = Message.from_wire(msg.to_wire())
        original_records = {
            (rrset.name, rdata.to_text())
            for rrset in msg.answer
            for rdata in rrset
        }
        decoded_records = {
            (rrset.name, rdata.to_text())
            for rrset in decoded.answer
            for rdata in rrset
        }
        assert decoded_records == original_records


# -- one strategy per registered rdata type -----------------------------------

u8_st = st.integers(min_value=0, max_value=0xFF)
u16_st = st.integers(min_value=0, max_value=0xFFFF)
u32_st = st.integers(min_value=0, max_value=0xFFFFFFFF)
types_st = st.lists(u16_st, max_size=6)

RDATA_STRATEGIES = {
    RdataType.A: st.builds(A, st.binary(min_size=4, max_size=4)),
    RdataType.AAAA: st.builds(AAAA, st.binary(min_size=16, max_size=16)),
    RdataType.NS: st.builds(NS, name_st),
    RdataType.CNAME: st.builds(CNAME, name_st),
    RdataType.PTR: st.builds(PTR, name_st),
    RdataType.MX: st.builds(MX, u16_st, name_st),
    RdataType.SRV: st.builds(SRV, u16_st, u16_st, u16_st, name_st),
    RdataType.SOA: st.builds(SOA, name_st, name_st, u32_st, u32_st, u32_st, u32_st, u32_st),
    RdataType.TXT: st.builds(TXT, st.lists(st.binary(max_size=40), min_size=1, max_size=3)),
    RdataType.DNSKEY: st.builds(DNSKEY, u16_st, u8_st, u8_st, st.binary(max_size=48)),
    RdataType.DS: st.builds(DS, u16_st, u8_st, u8_st, st.binary(max_size=48)),
    RdataType.RRSIG: st.builds(
        RRSIG, u16_st, u8_st, u8_st, u32_st, u32_st, u32_st, u16_st, name_st,
        st.binary(max_size=64),
    ),
    RdataType.NSEC: st.builds(NSEC, name_st, types_st),
    RdataType.NSEC3: st.builds(
        NSEC3, u8_st, u8_st, u16_st, st.binary(max_size=8), st.binary(max_size=20), types_st
    ),
    RdataType.NSEC3PARAM: st.builds(NSEC3PARAM, u8_st, u8_st, u16_st, st.binary(max_size=8)),
    # An unregistered type exercises the RFC 3597 opaque path.
    65280: st.builds(GenericRdata, st.just(65280), st.binary(max_size=24)),
}


@st.composite
def rrset_st(draw):
    rrtype = draw(st.sampled_from(sorted(RDATA_STRATEGIES, key=int)))
    rrset = RRset(draw(name_st), rrtype, draw(u32_st))
    for rdata in draw(st.lists(RDATA_STRATEGIES[rrtype], min_size=1, max_size=3)):
        rrset.add(rdata)
    return rrset


@st.composite
def message_st(draw):
    msg = Message(draw(u16_st))
    msg.flags = draw(st.sampled_from([0, 0x8000, 0x8480, 0x81B0, 0x0110]))
    msg.rcode = draw(st.sampled_from([0, 2, 3, 5, 16]))
    msg.question.append(Question(draw(name_st), draw(st.sampled_from(sorted(RDATA_STRATEGIES, key=int)))))
    for section in (msg.answer, msg.authority, msg.additional):
        # One RRset per (owner, type): decode coalesces equal keys, which
        # would legitimately reorder records.
        seen = set()
        for rrset in draw(st.lists(rrset_st(), max_size=3)):
            if rrset.key() not in seen:
                seen.add(rrset.key())
                section.append(rrset)
    if draw(st.booleans()):
        edns = msg.use_edns(payload_size=draw(st.sampled_from([512, 1232, 4096])),
                            dnssec_ok=draw(st.booleans()))
        if draw(st.booleans()):
            edns.add_extended_error(draw(st.sampled_from([6, 27])), draw(st.sampled_from(["", "why"])))
    return msg


class TestCodecProperties:
    def test_every_registered_type_has_a_strategy(self):
        assert set(RDATA_REGISTRY) - {int(RdataType.OPT)} <= {int(t) for t in RDATA_STRATEGIES}

    @settings(deadline=None, max_examples=200, suppress_health_check=[HealthCheck.too_slow])
    @given(message_st())
    def test_decode_encode_is_a_fixed_point(self, msg):
        wire = msg.to_wire()
        decoded = Message.from_wire(wire)
        assert decoded.to_wire() == wire
        # ... and the rdata bytes the decoded message carries mean the same
        # inside a different layout (sections rotated; only the case of
        # compressed names may follow their new first occurrence).
        decoded.answer, decoded.authority, decoded.additional = (
            decoded.additional, decoded.answer, decoded.authority,
        )
        relayed = Message.from_wire(decoded.to_wire())
        assert relayed.all_rrsets() == msg.additional + msg.answer + msg.authority


class TestNsec3HashProperties:
    @given(name_st, st.binary(max_size=8), st.integers(min_value=0, max_value=50))
    def test_deterministic(self, name, salt, iterations):
        a = nsec3_hash(name.canonical_wire(), salt, iterations)
        b = nsec3_hash(name.canonical_wire(), salt, iterations)
        assert a == b and len(a) == 20

    @given(st.binary(min_size=20, max_size=20), st.binary(min_size=20, max_size=20),
           st.binary(min_size=20, max_size=20))
    def test_cover_excludes_endpoints(self, owner, nxt, target):
        if hash_covers(owner, nxt, target):
            assert target != owner and target != nxt

    @given(st.binary(min_size=4, max_size=4), st.binary(min_size=4, max_size=4))
    def test_circular_chain_covers_everything_once(self, a, b):
        # For two distinct hashes the two arcs partition the space minus
        # the endpoints themselves.
        if a == b:
            return
        lo, hi = sorted([a, b])
        probe = bytes([(lo[0] + 1) % 256]) + lo[1:]
        if probe in (lo, hi):
            return
        covered_first = hash_covers(lo, hi, probe)
        covered_second = hash_covers(hi, lo, probe)
        assert covered_first != covered_second


class TestTxtProperties:
    @given(st.lists(st.binary(max_size=80), min_size=1, max_size=4))
    def test_txt_wire_round_trip(self, strings):
        from repro.dns.rdata import parse_rdata

        rdata = TXT(strings)
        wire = rdata.to_wire()
        parsed = parse_rdata(RdataType.TXT, Reader(wire), len(wire))
        assert parsed.strings == rdata.strings


class TestCdfProperties:
    @given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1))
    def test_monotone_and_bounded(self, samples):
        cdf = StreamingCdf(samples)
        ordered = sorted(samples)
        xs = range(-1001, 1002, 97)
        values = [cdf.fraction_at_or_below(x) for x in xs]
        # Oracle: the textbook empirical CDF over the sorted samples.
        assert values == [bisect.bisect_right(ordered, x) / len(samples) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert values == sorted(values)
        assert cdf.fraction_at_or_below(1000) == 1.0

    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=1))
    def test_percentile_consistent(self, samples):
        cdf = StreamingCdf(samples)
        ordered = sorted(samples)
        median = cdf.percentile(0.5)
        assert cdf.fraction_at_or_below(median) >= 0.5
        # Oracle: the smallest sample whose rank reaches half the samples.
        assert median == ordered[math.ceil(0.5 * len(ordered)) - 1]
