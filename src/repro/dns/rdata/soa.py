"""SOA rdata (RFC 1035 §3.3.13)."""

from __future__ import annotations

import struct

from repro.dns.name import Name
from repro.dns.rdata import CompressibleRdata, register
from repro.dns.types import RdataType

#: Serial, refresh, retry, expire, minimum.
_SOA_TAIL = struct.Struct("!IIIII")


@register(RdataType.SOA)
class SOA(CompressibleRdata):
    """A start-of-authority record.

    The ``minimum`` field doubles as the negative-caching TTL (RFC 2308),
    which the resolver cache honours for NXDOMAIN/NODATA entries.
    """

    __slots__ = ("mname", "rname", "serial", "refresh", "retry", "expire", "minimum")

    def __init__(self, mname, rname, serial, refresh, retry, expire, minimum):
        object.__setattr__(self, "mname", Name.from_text(mname))
        object.__setattr__(self, "rname", Name.from_text(rname))
        object.__setattr__(self, "serial", int(serial))
        object.__setattr__(self, "refresh", int(refresh))
        object.__setattr__(self, "retry", int(retry))
        object.__setattr__(self, "expire", int(expire))
        object.__setattr__(self, "minimum", int(minimum))

    def __setattr__(self, name, value):
        raise AttributeError("rdata objects are immutable")

    def _tail(self):
        return _SOA_TAIL.pack(
            self.serial, self.refresh, self.retry, self.expire, self.minimum
        )

    def write_wire(self, writer):
        writer.write_name(self.mname)
        writer.write_name(self.rname)
        writer.write(self._tail())

    @classmethod
    def from_wire(cls, reader, rdlength):
        mname = reader.read_name()
        rname = reader.read_name()
        return cls._trusted(None, mname, rname, *reader.unpack(_SOA_TAIL))

    def to_text(self):
        return (
            f"{self.mname.to_text()} {self.rname.to_text()} {self.serial} "
            f"{self.refresh} {self.retry} {self.expire} {self.minimum}"
        )

    @classmethod
    def from_text(cls, text):
        fields = text.split()
        if len(fields) != 7:
            raise ValueError(f"SOA needs 7 fields, got {len(fields)}")
        return cls(*fields)

    def _canonical_form(self):
        return self.mname.canonical_wire() + self.rname.canonical_wire() + self._tail()
