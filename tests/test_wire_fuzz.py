"""Fuzz-style decode robustness: garbage bytes must fail as WireError only.

The resilient transport treats "does not parse" as one condition
(:class:`repro.dns.wire.WireError`); any other exception escaping
``Message.from_wire`` would crash a resolver or scanner mid-campaign.
These tests drive seeded random and corrupted inputs through the decoder
and check both that contract and the decode-work caps (record counts,
EDNS option counts) added against parse-amplification attacks.
"""

import hashlib
import random

import pytest

from repro.dns.flags import Flag
from repro.dns.message import Message, make_query, make_response
from repro.dns.rdata import (
    A,
    AAAA,
    DNSKEY,
    DS,
    MX,
    NS,
    NSEC3,
    NSEC3PARAM,
    RRSIG,
    SOA,
    TXT,
)
from repro.dns.rdata.opt import EdnsOption
from repro.dns.rrset import RRset
from repro.dns.types import RdataType
from repro.dns.wire import MAX_DECODE_RECORDS, MAX_EDNS_OPTIONS, WireError


def _sample_response():
    """A realistic response message with every section populated."""
    query = make_query("www.fuzz-target.example", RdataType.A, want_dnssec=True)
    response = make_response(query, recursion_available=True)
    response.set_flag(Flag.AA)
    response.answer.append(
        RRset("www.fuzz-target.example", RdataType.A, 300, [A("192.0.2.80")])
    )
    response.authority.append(
        RRset("fuzz-target.example", RdataType.NS, 3600, [NS("ns1.fuzz-target.example.")])
    )
    response.additional.append(
        RRset("ns1.fuzz-target.example", RdataType.A, 3600, [A("192.0.2.53")])
    )
    return response


def test_random_bytes_decode_only_raises_wire_error():
    rng = random.Random(0xD05)
    for __ in range(400):
        blob = bytes(rng.randrange(256) for __ in range(rng.randrange(0, 96)))
        try:
            Message.from_wire(blob)
        except WireError:
            pass  # the only acceptable failure mode


def test_bit_flip_corruption_only_raises_wire_error():
    wire = _sample_response().to_wire()
    rng = random.Random(0xF11)
    for __ in range(300):
        corrupted = bytearray(wire)
        for __ in range(rng.randrange(1, 6)):
            corrupted[rng.randrange(len(corrupted))] ^= 1 << rng.randrange(8)
        try:
            Message.from_wire(bytes(corrupted))
        except WireError:
            pass


def test_every_truncation_point_only_raises_wire_error():
    wire = _sample_response().to_wire()
    for cut in range(len(wire)):
        try:
            Message.from_wire(wire[:cut])
        except WireError:
            pass


def test_valid_message_roundtrips():
    response = _sample_response()
    decoded = Message.from_wire(response.to_wire())
    assert decoded.question == response.question
    assert decoded.find_rrset(decoded.answer, "www.fuzz-target.example", RdataType.A)


def test_record_count_cap_rejects_huge_claims():
    # A bare header claiming 4 x 65,535 records: the decoder must reject
    # it up front instead of iterating a quarter-million record headers.
    header = (0x1234).to_bytes(2, "big") + b"\x80\x00" + b"\xff\xff" * 4
    with pytest.raises(WireError, match="decode cap"):
        Message.from_wire(header)
    assert 4 * 0xFFFF > MAX_DECODE_RECORDS


def test_edns_option_count_cap():
    query = make_query("cap.example", RdataType.A)
    query.edns.options = [
        EdnsOption(65001 + (i % 3), b"pad") for i in range(MAX_EDNS_OPTIONS + 1)
    ]
    with pytest.raises(WireError, match="decode cap"):
        Message.from_wire(query.to_wire())


def test_edns_options_at_the_cap_decode():
    query = make_query("cap.example", RdataType.A)
    query.edns.options = [EdnsOption(65001, b"pad") for __ in range(MAX_EDNS_OPTIONS)]
    decoded = Message.from_wire(query.to_wire())
    assert len(decoded.edns.options) == MAX_EDNS_OPTIONS


# -- DNSSEC-rich corpus, pinned against the pre-rewrite decoder -------------
#
# The mutants below aim at the single-pass codec's three mechanisms: the
# struct-read fixed fields (RDLENGTH off by one), the name-offset table
# (pointers into rdata, forward pointers, a known suffix that overflows
# 255 octets) and the carried rdata slices (accepted mutants are
# re-encoded). The digest over accept/reject plus re-encoded bytes was
# generated on the pre-rewrite decoder (4 614 accepted / 2 531 rejected)
# and re-recorded once, when ``Reader.read`` stopped taking a negative
# count: 40 mutants whose RRSIG/NSEC3/DNSKEY/DS fixed part or embedded
# name overran its RDLENGTH moved from accepted to rejected, none the
# other way, and no accepted mutant re-encodes differently. Re-recorded
# a second time when the decoder began to count the root's length octet
# against the 255-octet cap, as ``Name`` does: one mutant moved, from
# accepted to rejected — the 25th of ``_overlong_suffix_mutants``, a
# 4-octet label before a pointer to the 250-octet question name (255
# octets of labels, 256 with the root). No other mutant's outcome or
# re-encoded bytes moved. A decoder that accepts, rejects or re-encodes
# any mutant differently fails it.

FUZZ_GOLDEN = "cb5b81ed453f8b7e9a42e39487806f0a89a46321f2f48a3de34db34ca74ef128"
FUZZ_ACCEPTED, FUZZ_REJECTED = 4573, 2572

_FIXED_LAYOUT_TYPES = (
    RdataType.A,
    RdataType.AAAA,
    RdataType.SOA,
    RdataType.DS,
    RdataType.DNSKEY,
    RdataType.RRSIG,
    RdataType.NSEC3,
    RdataType.NSEC3PARAM,
    RdataType.OPT,
)


def _dnssec_response():
    zone = "fuzz-target.example"
    owner = "www." + zone
    hashed = "4k2pb1osrn0ll5bo33shl9ua41osiq6g." + zone

    def sig(covered, labels, signer=zone):
        return RRSIG(covered, 13, labels, 300, 1_760_000_000, 1_750_000_000, 4242,
                     signer, bytes(range(64)))

    query = make_query(owner, RdataType.A, want_dnssec=True, msg_id=0x4E53)
    response = make_response(query, recursion_available=True)
    response.set_flag(Flag.AA)
    response.edns.add_extended_error(27, "too many iterations")
    response.answer += [
        RRset(owner, RdataType.A, 300, [A("192.0.2.80"), A("192.0.2.81")]),
        RRset(owner, RdataType.RRSIG, 300, [sig(RdataType.A, 3)]),
        RRset(owner, RdataType.AAAA, 300, [AAAA("2001:db8::80")]),
    ]
    response.authority += [
        RRset(zone, RdataType.SOA, 3600,
              [SOA("ns1." + zone, "hostmaster." + zone, 2024, 7200, 900, 1209600, 300)]),
        RRset(zone, RdataType.RRSIG, 3600, [sig(RdataType.SOA, 2, "FUZZ-target.Example")]),
        RRset(zone, RdataType.NS, 3600, [NS("ns1." + zone)]),
        RRset(zone, RdataType.MX, 3600, [MX(10, "mail." + zone)]),
        RRset(hashed, RdataType.NSEC3, 300,
              [NSEC3(1, 1, 12, b"\xab\xcd", bytes(range(20)),
                     [RdataType.A, RdataType.RRSIG, RdataType.CAA])]),
        RRset(hashed, RdataType.RRSIG, 300, [sig(RdataType.NSEC3, 3)]),
        RRset("child." + zone, RdataType.DS, 3600, [DS(4242, 13, 2, bytes(range(32)))]),
    ]
    response.additional += [
        RRset(zone, RdataType.DNSKEY, 3600, [DNSKEY(257, 3, 13, bytes(range(64)))]),
        RRset(zone, RdataType.NSEC3PARAM, 0, [NSEC3PARAM(1, 0, 12, b"\xab\xcd")]),
        RRset(zone, RdataType.TXT, 60, [TXT(["v=fuzz", "x"])]),
    ]
    return response


def _walk_records(wire):
    """``(owner_at, rrtype, rdlength_at, rdata_at, rdlength)`` per RR.

    A deliberately independent walker (no codec imports) over a message
    known to be well-formed.
    """

    def skip_name(pos):
        while True:
            length = wire[pos]
            if length & 0xC0:
                return pos + 2
            pos += 1 + length
            if length == 0:
                return pos

    qdcount = int.from_bytes(wire[4:6], "big")
    total = sum(int.from_bytes(wire[i : i + 2], "big") for i in (6, 8, 10))
    pos = 12
    for __ in range(qdcount):
        pos = skip_name(pos) + 4
    records = []
    for __ in range(total):
        owner_at = pos
        pos = skip_name(pos)
        rrtype = int.from_bytes(wire[pos : pos + 2], "big")
        rdlength = int.from_bytes(wire[pos + 8 : pos + 10], "big")
        records.append((owner_at, rrtype, pos + 8, pos + 10, rdlength))
        pos += 10 + rdlength
    assert pos == len(wire)
    return records


def _structured_mutants(wire):
    records = _walk_records(wire)
    pointer_owners = [r for r in records if wire[r[0]] & 0xC0 == 0xC0]

    def repoint(owner_at, target):
        mutant = bytearray(wire)
        mutant[owner_at] = 0xC0 | (target >> 8)
        mutant[owner_at + 1] = target & 0xFF
        return bytes(mutant)

    # Owner pointers retargeted into the middle of every earlier rdata
    # (including inside names embedded there) ...
    for owner_at, __, __, __, __ in pointer_owners:
        for __, __, __, rdata_at, rdlength in records:
            if rdata_at >= owner_at:
                break
            for target in range(rdata_at, rdata_at + rdlength, 3):
                yield repoint(owner_at, target)
    # ... and forward: at themselves, at later owners and rdata, at the
    # last octet and one past the end.
    for owner_at, __, __, __, __ in pointer_owners:
        for target in (owner_at, owner_at + 1, owner_at + 2, len(wire) - 1, len(wire)):
            yield repoint(owner_at, target)
        for later_at, __, __, rdata_at, __ in records:
            if later_at > owner_at:
                yield repoint(owner_at, later_at)
                yield repoint(owner_at, rdata_at)
    # RDLENGTH one short / one long: the field alone (the rest of the
    # message shifts), and with one octet spliced in or out at the end
    # of the rdata so every later record still lines up.
    for __, rrtype, rdlength_at, rdata_at, rdlength in records:
        if rrtype not in _FIXED_LAYOUT_TYPES:
            continue
        for delta in (-1, 1):
            field = (rdlength + delta).to_bytes(2, "big")
            yield wire[:rdlength_at] + field + wire[rdlength_at + 2 :]
            end = rdata_at + rdlength
            body = wire[rdata_at : end - 1] if delta < 0 else wire[rdata_at:end] + b"\x00"
            yield wire[:rdlength_at] + field + body + wire[end:]


def _overlong_suffix_mutants():
    """Names that cross 255 octets only through an already-parsed suffix."""
    # Question name: 4 labels, 63+63+63+57 octets → 250 octets of labels,
    # 251 with the root; every label start is a pointer target.
    labels = [b"a" * 63, b"b" * 63, b"c" * 63, b"d" * 57]
    qname = b"".join(bytes([len(l)]) + l for l in labels) + b"\x00"
    header = (0x4E53).to_bytes(2, "big") + b"\x84\x00" + b"\x00\x01\x00\x01\x00\x00\x00\x00"
    question = qname + b"\x00\x01\x00\x01"
    tail = b"\x00\x01\x00\x01\x00\x00\x00\x3c\x00\x04\xc0\x00\x02\x01"
    for prefix_len in (1, 2, 3, 4, 5, 62, 63):
        for target in (12, 12 + 64, 12 + 128, 12 + 192):
            owner = bytes([prefix_len]) + b"p" * prefix_len
            owner += bytes([0xC0 | (target >> 8), target & 0xFF])
            yield header + question + owner + tail
            # Twice through the same suffix: prefix → pointer → (at the
            # end of the message) label + pointer back to the suffix.
            hop_at = len(header + question + owner + tail)
            hop = bytes([prefix_len]) + b"q" * prefix_len
            hop += bytes([0xC0 | (target >> 8), target & 0xFF])
            via = bytes([prefix_len]) + b"p" * prefix_len
            via += bytes([0xC0 | (hop_at >> 8), hop_at & 0xFF])
            yield header + question + via + tail + hop


def _fuzz_corpus():
    wire = _dnssec_response().to_wire()
    for cut in range(len(wire)):
        yield wire[:cut]
    rng = random.Random(0x5EC3)
    for __ in range(5000):
        mutant = bytearray(wire)
        for __ in range(rng.randrange(1, 4)):
            mutant[rng.randrange(len(mutant))] ^= 1 << rng.randrange(8)
        yield bytes(mutant)
    yield from _structured_mutants(wire)
    yield from _overlong_suffix_mutants()


def test_dnssec_corpus_accepts_rejects_and_reencodes_like_the_parent():
    digest = hashlib.sha256()
    accepted = rejected = 0
    for mutant in _fuzz_corpus():
        try:
            message = Message.from_wire(mutant)
        except WireError:
            digest.update(b"\x00")
            rejected += 1
            continue
        again = message.to_wire()
        digest.update(b"\x01" + len(again).to_bytes(4, "big") + again)
        accepted += 1
    # Both outcomes must be well represented or the corpus proves little.
    assert (accepted, rejected) == (FUZZ_ACCEPTED, FUZZ_REJECTED)
    assert digest.hexdigest() == FUZZ_GOLDEN


def test_dnssec_sample_round_trips():
    response = _dnssec_response()
    wire = response.to_wire()
    decoded = Message.from_wire(wire)
    assert decoded.to_wire() == wire
    assert decoded.extended_errors()[0].info_code == 27
    assert [len(s) for s in (decoded.answer, decoded.authority, decoded.additional)] == [3, 7, 3]
