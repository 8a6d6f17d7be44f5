"""Tests for the wire reader/writer, including name compression."""

import pytest

from repro.dns.message import Message
from repro.dns.name import Name, NameError_
from repro.dns.rdata import RRSIG, parse_rdata
from repro.dns.types import RdataType
from repro.dns.wire import RR_FIXED, Reader, WireError, Writer


class TestWriter:
    def test_scalars(self):
        writer = Writer()
        writer.write_u8(0xAB)
        writer.write_u16(0x1234)
        writer.write_u32(0xDEADBEEF)
        assert writer.getvalue() == bytes.fromhex("ab1234deadbeef")

    def test_pack_appends_a_compiled_block(self):
        writer = Writer()
        writer.write_u8(7)
        writer.pack(RR_FIXED, 46, 1, 300, 0x0102)
        assert writer.getvalue() == bytes.fromhex("07002e00010000012c0102")

    def test_compression_pointer_emitted(self):
        writer = Writer()
        writer.write_name(Name.from_text("www.example.com"))
        first_len = len(writer)
        writer.write_name(Name.from_text("example.com"))
        # Second write should be a single 2-byte pointer.
        assert len(writer) == first_len + 2
        assert writer.getvalue()[first_len] & 0xC0 == 0xC0

    def test_compression_case_insensitive(self):
        writer = Writer()
        writer.write_name(Name.from_text("WWW.EXAMPLE.COM"))
        before = len(writer)
        writer.write_name(Name.from_text("www.example.com"))
        assert len(writer) == before + 2

    def test_compression_disabled(self):
        writer = Writer(enable_compression=False)
        name = Name.from_text("www.example.com")
        writer.write_name(name)
        writer.write_name(name)
        assert writer.getvalue() == name.to_wire() * 2

    def test_partial_suffix_compression(self):
        writer = Writer()
        writer.write_name(Name.from_text("a.example.com"))
        size_one = len(writer)
        writer.write_name(Name.from_text("b.example.com"))
        # "b" label (2 bytes) + pointer (2 bytes).
        assert len(writer) == size_one + 4


class TestReader:
    def test_round_trip_name(self):
        name = Name.from_text("www.example.com")
        reader = Reader(name.to_wire())
        assert reader.read_name() == name
        assert reader.remaining() == 0

    def test_pointer_chase(self):
        writer = Writer()
        writer.write_name(Name.from_text("example.com"))
        writer.write_name(Name.from_text("www.example.com"))
        reader = Reader(writer.getvalue())
        assert reader.read_name() == Name.from_text("example.com")
        assert reader.read_name() == Name.from_text("www.example.com")

    def test_pointer_loop_detected(self):
        # A pointer pointing at itself.
        data = b"\xc0\x00"
        with pytest.raises(WireError):
            Reader(data).read_name()

    def test_truncated_label(self):
        with pytest.raises(WireError):
            Reader(b"\x05ab").read_name()

    def test_truncated_scalar(self):
        reader = Reader(b"\x01")
        with pytest.raises(WireError):
            reader.read_u16()

    def test_negative_count_rejected(self):
        reader = Reader(b"abcd")
        reader.read(3)
        with pytest.raises(WireError):
            reader.read(-1)
        assert reader.pos == 3  # the cursor never moves back

    def test_fixed_part_overrunning_rdlength_rejected(self):
        # A DNSKEY whose RDLENGTH (3) is shorter than its 4-octet fixed
        # part, followed by an A record so the octets exist: reading the
        # key's "remaining" -1 octets used to step back and line up.
        header = b"\x12\x34\x84\x00" + b"\x00\x00\x00\x02\x00\x00\x00\x00"
        short_key = b"\x00\x00\x30\x00\x01\x00\x00\x00\x3c\x00\x03" + b"\x01\x00\x03"
        a_record = b"\x00\x00\x01\x00\x01\x00\x00\x00\x3c\x00\x04" + b"\xc0\x00\x02\x01"
        with pytest.raises(WireError):
            Message.from_wire(header + short_key + a_record)

    def test_reserved_label_type(self):
        with pytest.raises(WireError):
            Reader(b"\x80abc\x00").read_name()

    def test_mutual_pointer_loop(self):
        # Two pointers referencing each other.
        data = b"\xc0\x02\xc0\x00"
        with pytest.raises(WireError):
            Reader(data).read_name()

    def test_unpack_reads_a_compiled_block(self):
        reader = Reader(bytes.fromhex("002e00010000012c0102ff"))
        assert reader.unpack(RR_FIXED) == (46, 1, 300, 0x0102)
        assert reader.remaining() == 1
        with pytest.raises(WireError):
            reader.unpack(RR_FIXED)

    def test_pointer_to_parsed_name_resolves_from_the_table(self):
        writer = Writer()
        writer.write_name(Name.from_text("www.example.com"))
        writer.write_name(Name.from_text("mail.example.com"))
        writer.write_name(Name.from_text("www.example.com"))
        reader = Reader(writer.getvalue())
        first = reader.read_name()
        assert sorted(reader.names) == [0, 4, 12]
        assert reader.read_name() == Name.from_text("mail.example.com")
        assert reader.read_name() is first
        assert reader.remaining() == 0

    def test_table_hit_still_enforces_255_octets(self):
        # 250 octets of labels at offset 0, then 5 more in front of a
        # pointer to them: only the sum, with the root, crosses the cap.
        long_name = b"".join(b"\x3d" + b"x" * 61 for __ in range(4)) + b"\x01y\x00"
        reader = Reader(long_name + b"\x04zzzz\xc0\x00" + b"\x03zzz\xc0\x00")
        reader.read_name()
        with pytest.raises(WireError, match="255"):
            reader.read_name()
        reader.pos = len(long_name) + 7
        assert len(reader.read_name().labels) == 6

    def test_255_octets_with_the_root_is_the_cap_everywhere(self):
        # The same rule in Name(), in read_name and in the walk over an
        # RRSIG signer that decode keeps as a slice.
        fixed = RRSIG(RdataType.A, 13, 2, 300, 20, 10, 4242, ".", b"").to_wire()[:-1]
        for last, fits in ((61, True), (62, False)):
            labels = [b"a" * 63, b"b" * 63, b"c" * 63, b"d" * last]
            wire = b"".join(bytes([len(label)]) + label for label in labels) + b"\x00"
            assert len(wire) == (255 if fits else 256)
            rdata = fixed + wire + b"sig"
            if fits:
                name = Name(labels)
                assert Reader(wire).read_name() == name
                assert parse_rdata(RdataType.RRSIG, Reader(rdata), len(rdata)).signer == name
                continue
            with pytest.raises(NameError_):
                Name(labels)
            with pytest.raises(WireError, match="255"):
                Reader(wire).read_name()
            with pytest.raises(WireError, match="255"):
                parse_rdata(RdataType.RRSIG, Reader(rdata), len(rdata))

    def test_read_exact(self):
        reader = Reader(b"abcdef")
        assert reader.read(3) == b"abc"
        assert reader.read(3) == b"def"
        with pytest.raises(WireError):
            reader.read(1)
