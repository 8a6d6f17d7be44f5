"""NSEC rdata (RFC 4034 §4)."""

from __future__ import annotations

from repro.dns.bitmap import bitmap_to_text, decode_bitmap, encode_bitmap
from repro.dns.name import Name
from repro.dns.rdata import NameBearingRdata, register
from repro.dns.types import RdataType


@register(RdataType.NSEC)
class NSEC(NameBearingRdata):
    """The plain-text authenticated denial record.

    ``next_name`` is the next owner name in the zone's canonical order;
    ``types`` is the set of RR types present at this owner. Exposing the
    next *plain* name is what makes NSEC zone-walkable — the problem NSEC3
    was designed to mitigate (paper §2.2).
    """

    __slots__ = ("next_name", "types")

    def __init__(self, next_name, types):
        object.__setattr__(self, "next_name", Name.from_text(next_name))
        object.__setattr__(self, "types", tuple(sorted(set(int(t) for t in types))))

    def __setattr__(self, name, value):
        raise AttributeError("rdata objects are immutable")

    def covers_type(self, rrtype):
        return int(rrtype) in self.types

    def write_wire(self, writer):
        # next_name is never compressed (RFC 3597/4034) nor offered as a
        # compression target, so the rdata is position-independent.
        writer.write(self.next_name.to_wire() + encode_bitmap(self.types))

    @classmethod
    def from_wire(cls, reader, rdlength):
        end = reader.pos + rdlength
        next_name = reader.read_name()
        bitmap = reader.read(end - reader.pos)
        return cls(next_name, decode_bitmap(bitmap))

    def to_text(self):
        return f"{self.next_name.to_text()} {bitmap_to_text(self.types)}".rstrip()

    @classmethod
    def from_text(cls, text):
        fields = text.split()
        return cls(fields[0], [RdataType.from_text(t) for t in fields[1:]])

    def _canonical_form(self):
        return self.next_name.canonical_wire() + encode_bitmap(self.types)
