"""DNS message encoding and decoding (RFC 1035 §4, RFC 6891 for EDNS)."""

from __future__ import annotations

import os
import struct

from repro.dns.edns import Edns
from repro.dns.flags import Flag
from repro.dns.name import Name
from repro.dns.rcode import RCODE_BY_VALUE, Rcode
from repro.dns.rdata import parse_rdata
from repro.dns.rrset import RRset
from repro.dns.types import (
    CLASS_BY_VALUE,
    OPCODE_BY_VALUE,
    TYPE_BY_VALUE,
    Opcode,
    RdataClass,
    RdataType,
)
from repro.dns.wire import (
    HEADER,
    MAX_DECODE_RECORDS,
    MAX_EDNS_OPTIONS,
    QUESTION_TAIL,
    RR_FIXED,
    U16,
    Reader,
    WireError,
    Writer,
)

HEADER_LENGTH = HEADER.size

#: The header bits that are flags (everything but opcode, Z and rcode).
_FLAG_MASK = 0x87B0

#: The OPT pseudo-record up to RDLENGTH: root owner, TYPE 41, CLASS as
#: payload size, TTL as extended rcode / version / DO.
_OPT_FIXED = struct.Struct("!BHHIH")
_OPT = int(RdataType.OPT)


class Question:
    """A question section entry."""

    __slots__ = ("name", "rrtype", "rdclass")

    def __init__(self, name, rrtype, rdclass=RdataClass.IN):
        self.name = name if type(name) is Name else Name.from_text(name)
        self.rrtype = int(rrtype)
        if type(rdclass) is RdataClass:
            self.rdclass = rdclass
        else:
            self.rdclass = RdataClass(int(rdclass))

    def __eq__(self, other):
        if not isinstance(other, Question):
            return NotImplemented
        return (
            self.name == other.name
            and self.rrtype == other.rrtype
            and self.rdclass == other.rdclass
        )

    def __hash__(self):
        return hash((self.name, self.rrtype, self.rdclass))

    def __repr__(self):
        return (
            f"Question({self.name.to_text()!r}, "
            f"{RdataType.to_text(self.rrtype)}, {self.rdclass.name})"
        )


class Message:
    """A complete DNS message.

    Sections hold :class:`~repro.dns.rrset.RRset` objects. EDNS state, if
    any, lives in :attr:`edns`; the OPT pseudo-record is synthesised into
    the additional section at encode time and lifted out at decode time.
    """

    def __init__(self, msg_id=None):
        self.id = int.from_bytes(os.urandom(2), "big") if msg_id is None else int(msg_id)
        #: Header flag bits as a plain int (``Flag`` members are its masks).
        self.flags = 0
        self.opcode = Opcode.QUERY
        self.rcode = Rcode.NOERROR
        self.question = []
        self.answer = []
        self.authority = []
        self.additional = []
        self.edns = None
        self._wire_memo = None

    # -- flag helpers -----------------------------------------------------

    def set_flag(self, flag, value=True):
        if value:
            self.flags = int(self.flags) | int(flag)
        else:
            self.flags = int(self.flags) & ~int(flag)
        return self

    def has_flag(self, flag):
        return int(self.flags) & int(flag) != 0

    @property
    def is_response(self):
        return self.has_flag(Flag.QR)

    @property
    def authenticated(self):
        """The AD bit: data was validated by the responding resolver."""
        return self.has_flag(Flag.AD)

    # -- EDNS helpers -----------------------------------------------------

    def use_edns(self, payload_size=1232, dnssec_ok=False):
        self.edns = Edns(payload_size=payload_size, dnssec_ok=dnssec_ok)
        return self.edns

    @property
    def dnssec_ok(self):
        return bool(self.edns and self.edns.dnssec_ok)

    def extended_errors(self):
        """Extended DNS Errors attached to this message (RFC 8914)."""
        return self.edns.extended_errors() if self.edns else []

    # -- section access ---------------------------------------------------

    def find_rrset(self, section, name, rrtype):
        """First RRset in *section* matching owner name and type, or None."""
        name = Name.from_text(name)
        for rrset in section:
            if rrset.name == name and int(rrset.rrtype) == int(rrtype):
                return rrset
        return None

    def get_rrsets(self, section, rrtype):
        """All RRsets of the given type in *section*."""
        return [rrset for rrset in section if int(rrset.rrtype) == int(rrtype)]

    def all_rrsets(self):
        return self.answer + self.authority + self.additional

    def add_rrset(self, section, rrset):
        """Merge *rrset* into *section*, coalescing with an existing RRset."""
        existing = self.find_rrset(section, rrset.name, rrset.rrtype)
        if existing is None:
            section.append(rrset.copy())
        else:
            for rdata in rrset:
                existing.add(rdata)
        return self

    # -- wire format --------------------------------------------------------

    def encode(self):
        """Wire bytes, memoized for the send-side hot path.

        A query is sent again on a transport retry or TCP fallback: the
        first call pays the full :meth:`to_wire`, later calls splice the
        current ``id`` into the cached bytes, so :meth:`refresh_id`
        between sends stays cheap. The memo is **not** invalidated on
        section edits — callers that mutate a message after sending must
        use :meth:`to_wire` (servers building responses already do).
        """
        memo = self._wire_memo
        if memo is None:
            memo = self.to_wire()
            self._wire_memo = memo
            return memo
        return self.id.to_bytes(2, "big") + memo[2:]

    def refresh_id(self):
        """Redraw the message id (a resend that must not match stale replies)."""
        self.id = int.from_bytes(os.urandom(2), "big")
        return self

    def to_wire(self, max_size=None):
        """Encode to wire bytes; sets TC and truncates if *max_size* exceeded."""
        writer = Writer()
        buf = writer.buf
        edns = self.edns
        sections = (self.answer, self.authority, self.additional)
        # Section counts are per-RR, not per-RRset.
        counts = [sum([len(r.rdatas) for r in section]) for section in sections]
        buf += HEADER.pack(
            self.id & 0xFFFF,
            int(self.flags) | ((self.opcode & 0xF) << 11) | (self.rcode & 0xF),
            len(self.question),
            counts[0],
            counts[1],
            counts[2] + (edns is not None),
        )
        # A field out of its wire range surfaces as ValueError, naming the
        # record, rather than as a bare struct.error.
        try:
            for question in self.question:
                writer.write_name(question.name)
                buf += QUESTION_TAIL.pack(question.rrtype, question.rdclass)
        except struct.error as exc:
            raise ValueError(f"cannot encode {question!r}: {exc}") from exc
        try:
            for section in sections:
                for rrset in section:
                    self._write_rrset(writer, rrset)
        except struct.error as exc:
            raise ValueError(f"cannot encode {rrset!r}: {exc}") from exc
        if edns is not None:
            # The OPT pseudo-record is synthesised last, straight from the
            # EDNS state; only a record that carries options builds one.
            body = edns.to_opt_rdata().packed() if edns.options else b""
            buf += _OPT_FIXED.pack(
                0, _OPT, edns.payload_size & 0xFFFF, edns.ttl_field(self.rcode), len(body)
            )
            buf += body
        if max_size is not None and len(buf) > max_size:
            return self._truncated_wire(max_size)
        return bytes(buf)

    def _truncated_wire(self, max_size):
        """Re-encode with answers dropped and TC set (good enough for UDP sim)."""
        clone = Message(self.id)
        clone.flags = int(self.flags) | int(Flag.TC)
        clone.opcode = self.opcode
        clone.rcode = self.rcode
        clone.question = list(self.question)
        clone.edns = self.edns
        return clone.to_wire()

    @staticmethod
    def _write_rrset(writer, rrset):
        buf = writer.buf
        name = rrset.name
        rrtype = rrset.rrtype
        rdclass = rrset.rdclass
        ttl = rrset.ttl & 0xFFFFFFFF
        # Once the owner is written it is a compression target: every
        # later record re-emits that pointer, as write_name would, without
        # walking the name again. No target (compression off, the root,
        # an owner first written past 0x4000) writes the name in full. A
        # one-record RRset, the common case, skips the lookup altogether.
        targets = writer._targets
        rdatas = rrset.rdatas
        key = name._key() if writer._compress and len(rdatas) > 1 else None
        for rdata in rdatas:
            pointer = targets.get(key) if key else None
            if pointer is None:
                writer.write_name(name)
            else:
                buf += U16.pack(0xC000 | pointer)
            packed = rdata.packed()
            if packed is not None:
                buf += RR_FIXED.pack(rrtype, rdclass, ttl, len(packed))
                buf += packed
            else:
                # Names inside may compress against what is already
                # written, so the length is only known afterwards.
                buf += RR_FIXED.pack(rrtype, rdclass, ttl, 0)
                start = len(buf)
                rdata.write_wire(writer)
                U16.pack_into(buf, start - 2, len(buf) - start)

    @classmethod
    def from_wire(cls, wire):
        """Decode a message; raises :class:`WireError` on malformed input.

        The contract holds for arbitrary garbage bytes: decode errors
        surfacing from enum conversions or rdata parsers (ValueError,
        IndexError, ...) are normalised to :class:`WireError` so callers
        can treat "does not parse" as one condition.
        """
        try:
            return cls._parse_wire(wire)
        except WireError:
            raise
        except (ValueError, IndexError, KeyError) as exc:
            raise WireError(f"malformed message: {exc}") from exc

    @classmethod
    def _parse_wire(cls, wire):
        reader = Reader(wire)
        data = reader.data
        if len(data) < HEADER_LENGTH:
            raise WireError("message shorter than header")
        msg_id, flags_word, qdcount, ancount, nscount, arcount = HEADER.unpack_from(data)
        reader.pos = HEADER_LENGTH
        msg = cls(msg_id)
        msg.flags = flags_word & _FLAG_MASK
        opcode_value = (flags_word >> 11) & 0xF
        msg.opcode = OPCODE_BY_VALUE.get(opcode_value)
        if msg.opcode is None:
            raise WireError(f"unknown opcode {opcode_value}")
        total_records = qdcount + ancount + nscount + arcount
        if total_records > MAX_DECODE_RECORDS:
            raise WireError(
                f"message claims {total_records} records "
                f"(decode cap {MAX_DECODE_RECORDS})"
            )
        for __ in range(qdcount):
            name = reader.read_name()
            rrtype, rdclass = reader.unpack(QUESTION_TAIL)
            msg.question.append(Question(name, rrtype, CLASS_BY_VALUE[rdclass]))
        cls._read_section(reader, ancount, msg, msg.answer)
        cls._read_section(reader, nscount, msg, msg.authority)
        cls._read_section(reader, arcount, msg, msg.additional)
        rcode = (flags_word & 0xF) | (msg.edns.ext_rcode_high << 4 if msg.edns else 0)
        msg.rcode = RCODE_BY_VALUE.get(rcode, rcode)
        return msg

    @staticmethod
    def _read_section(reader, count, msg, section):
        # RRset merge index: without it a section of n records that never
        # coalesce costs O(n²) scans — the parse-work amplification the
        # decode caps exist to prevent; with it the caps are belt and braces.
        index = {}
        for __ in range(count):
            name = reader.read_name()
            rrtype, rdclass, ttl, rdlength = reader.unpack(RR_FIXED)
            if rrtype == _OPT:
                # Option-less (every query, most responses): nothing to parse.
                options = parse_rdata(rrtype, reader, rdlength).options if rdlength else ()
                if len(options) > MAX_EDNS_OPTIONS:
                    raise WireError(
                        f"OPT record carries {len(options)} options "
                        f"(decode cap {MAX_EDNS_OPTIONS})"
                    )
                msg.edns = Edns.from_opt(options, rdclass, ttl)
                continue
            rdata = parse_rdata(rrtype, reader, rdlength)
            key = (name, rrtype, rdclass)
            existing = index.get(key)
            if existing is not None:
                existing.add(rdata)
                continue
            rrset = index[key] = RRset._trusted(
                name,
                TYPE_BY_VALUE.get(rrtype, rrtype),
                ttl,
                [rdata],
                CLASS_BY_VALUE.get(rdclass, RdataClass.IN),
            )
            section.append(rrset)

    def __repr__(self):
        q = self.question[0] if self.question else None
        return (
            f"<Message id={self.id} {Rcode.to_text(self.rcode)} "
            f"[{Flag.to_text(self.flags)}] q={q!r} "
            f"an={len(self.answer)} ns={len(self.authority)} ar={len(self.additional)}>"
        )


def make_query(name, rrtype, rdclass=RdataClass.IN, want_dnssec=False, payload_size=1232, recursion_desired=True, msg_id=None):
    """Build a standard query message.

    ``want_dnssec=True`` attaches EDNS with the DO bit so that signed
    responses include RRSIG/NSEC3 material — exactly what the paper's
    scanners send.
    """
    msg = Message(msg_id)
    msg.set_flag(Flag.RD, recursion_desired)
    msg.question.append(Question(name, rrtype, rdclass))
    if want_dnssec or payload_size:
        msg.use_edns(payload_size=payload_size, dnssec_ok=want_dnssec)
    return msg


def make_response(query, recursion_available=False):
    """Build an empty response mirroring *query*'s id, question, and RD."""
    msg = Message(query.id)
    msg.set_flag(Flag.QR)
    msg.set_flag(Flag.RD, query.has_flag(Flag.RD))
    msg.set_flag(Flag.RA, recursion_available)
    msg.opcode = query.opcode
    msg.question = list(query.question)
    if query.edns is not None:
        msg.use_edns(dnssec_ok=query.edns.dnssec_ok)
    return msg
