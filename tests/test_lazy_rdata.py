"""Lazily built DNSSEC rdata against an eager parse of the same bytes.

``Message.from_wire`` builds RRSIG, NSEC3, DNSKEY and DS as ``cls.Lazy``
instances holding only their checked rdata slice, filled on first read
(see :func:`repro.dns.rdata.lazy`). Everything observable must be what an
eager parse of those bytes gives. The reference parse here is written out
by hand, independent of the codec's field parsers, and builds through the
classes' value constructors.
"""

import string
import struct
import sys
import threading

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dns.message import Message, make_query, make_response
from repro.dns.name import Name
from repro.dns.rdata import DNSKEY, DS, NSEC3, RRSIG
from repro.dns.rrset import RRset
from repro.dns.types import RdataType
from repro.dns.wire import WireError
from tests.test_wire_fuzz import _dnssec_response, _fuzz_corpus

LAZY_TYPES = {
    int(RdataType.RRSIG): RRSIG,
    int(RdataType.NSEC3): NSEC3,
    int(RdataType.DNSKEY): DNSKEY,
    int(RdataType.DS): DS,
}


def _reference(cls, data):
    """An eager parse of one rdata slice, by hand."""
    if cls in (DNSKEY, DS):
        return cls(*struct.unpack_from("!HBB", data), data[4:])
    if cls is RRSIG:
        fixed = struct.unpack_from("!HBBIIIH", data)
        labels, pos = [], 18
        while data[pos]:
            labels.append(data[pos + 1 : pos + 1 + data[pos]])
            pos += 1 + data[pos]
        return RRSIG(*fixed, Name(labels), data[pos + 1 :])
    algorithm, flags, iterations, salt_length = struct.unpack_from("!BBHB", data)
    pos = 5 + salt_length
    next_hash = data[pos + 1 : pos + 1 + data[pos]]
    pos += 1 + data[pos]
    types = []
    while pos < len(data):
        window, length = data[pos], data[pos + 1]
        for index, octet in enumerate(data[pos + 2 : pos + 2 + length]):
            types += [window * 256 + index * 8 + bit for bit in range(8) if octet & 0x80 >> bit]
        pos += 2 + length
    return NSEC3(algorithm, flags, iterations, data[5 : 5 + salt_length], next_hash, types)


def _values(rdata, cls):
    values = []
    for slot in cls.__slots__:
        if slot.startswith("_"):
            continue  # memos
        value = getattr(rdata, slot)
        # Names compare case-insensitively; the signer's case must survive.
        values.append(value.labels if isinstance(value, Name) else value)
    return values


def _assert_lazy_matches(rdata, eager):
    cls = type(eager)
    assert type(rdata) is cls.Lazy
    before = hash(rdata)
    assert rdata == eager and before == hash(eager)
    # The kept slice is what write_wire emits from the values.
    assert rdata.packed() == eager.to_wire()
    if cls is DNSKEY:
        # A memo miss reads no value slot.
        assert rdata.key_tag() == eager.key_tag()
        assert type(rdata) is DNSKEY.Lazy
    assert _values(rdata, cls) == _values(eager, cls)
    assert type(rdata) is cls
    assert rdata == eager and hash(rdata) == before
    assert rdata.to_text() == eager.to_text()
    if cls is RRSIG:
        assert rdata.rdata_prefix() == eager.rdata_prefix()
    elif cls is DNSKEY:
        assert rdata.key_tag() == eager.key_tag()


def _lazy_rdatas(message):
    for rrset in message.all_rrsets():
        cls = LAZY_TYPES.get(int(rrset.rrtype))
        if cls is not None:
            for rdata in rrset:
                yield cls, rdata


def test_every_accepted_fuzz_mutant_matches_an_eager_parse():
    lazy = eager = 0
    for mutant in _fuzz_corpus():
        try:
            message = Message.from_wire(mutant)
        except WireError:
            continue
        for cls, rdata in _lazy_rdatas(message):
            if type(rdata) is cls:
                eager += 1  # a compressed signer or a padded bitmap
                continue
            lazy += 1
            _assert_lazy_matches(rdata, _reference(cls, rdata.packed()))
    # Both paths are exercised: one bit flip pads an NSEC3 bitmap block.
    assert lazy > 25_000 and eager >= 1


def test_values_built_instances_take_no_hook():
    # Signing and from_text build the classes themselves, never a Lazy.
    for cls in LAZY_TYPES.values():
        assert "__getattr__" not in vars(cls) and not hasattr(cls, "__getattr__")
    assert type(DS(1, 2, 3, b"d")) is DS


def test_threads_racing_to_the_first_read_see_the_same_values():
    wire = _dnssec_response().to_wire()
    expected = [rdata.to_text() for __, rdata in _lazy_rdatas(Message.from_wire(wire))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for __ in range(20):
            records = [rdata for __, rdata in _lazy_rdatas(Message.from_wire(wire))]
            seen = [[] for __ in range(4)]
            threads = [
                threading.Thread(target=lambda out=out: out.extend(r.to_text() for r in records))
                for out in seen
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert seen == [expected] * 4
            assert all(type(rdata) in LAZY_TYPES.values() for rdata in records)
    finally:
        sys.setswitchinterval(interval)


# -- round trip ----------------------------------------------------------------

u8 = st.integers(min_value=0, max_value=0xFF)
u16 = st.integers(min_value=0, max_value=0xFFFF)
u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
mixed_case_label = st.text(alphabet=string.ascii_letters + string.digits + "-_", min_size=1, max_size=20)
signer_st = st.lists(mixed_case_label, max_size=5).map(lambda labels: Name.from_labels(*labels))
# Types spread over several windows, not just window 0.
types_st = st.lists(
    st.builds(lambda window, offset: window * 256 + offset, st.sampled_from([0, 1, 2, 127, 255]), u8),
    max_size=12,
)

RDATA = {
    RRSIG: st.builds(RRSIG, u16, u8, u8, u32, u32, u32, u16, signer_st, st.binary(max_size=80)),
    NSEC3: st.builds(
        NSEC3, u8, u8, u16, st.binary(max_size=255), st.binary(max_size=32), types_st
    ),
    DNSKEY: st.builds(DNSKEY, u16, u8, u8, st.binary(max_size=80)),
    DS: st.builds(DS, u16, u8, u8, st.binary(max_size=48)),
}


@st.composite
def dnssec_records(draw):
    return [
        (cls, rdata)
        for cls in RDATA
        for rdata in draw(st.lists(RDATA[cls], min_size=1, max_size=3, unique_by=lambda r: r.to_wire()))
    ]


@settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(dnssec_records())
def test_round_trip_decodes_lazily_to_the_same_records(records):
    response = make_response(make_query("q.example", RdataType.ANY))
    for index, (cls, rdata) in enumerate(records):
        response.answer.append(RRset(f"o{index}.example", cls.rrtype, 60, [rdata]))
    wire = response.to_wire()
    decoded = Message.from_wire(wire)
    assert decoded.to_wire() == wire
    for (cls, original), rrset in zip(records, decoded.answer):
        _assert_lazy_matches(rrset[0], original)
    assert decoded.to_wire() == wire
