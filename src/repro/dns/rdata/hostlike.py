"""Rdata types whose body is (mostly) a single domain name: NS, CNAME, PTR, MX, SRV."""

from __future__ import annotations

import struct

from repro.dns.name import Name
from repro.dns.rdata import CompressibleRdata, register
from repro.dns.types import RdataType
from repro.dns.wire import U16

_SRV_FIXED = struct.Struct("!HHH")


class _SingleName(CompressibleRdata):
    """Shared implementation for NS/CNAME/PTR."""

    __slots__ = ("target",)

    def __init__(self, target):
        object.__setattr__(self, "target", Name.from_text(target))

    def __setattr__(self, name, value):
        raise AttributeError("rdata objects are immutable")

    def write_wire(self, writer):
        writer.write_name(self.target)

    @classmethod
    def from_wire(cls, reader, rdlength):
        return cls._trusted(None, reader.read_name())

    def to_text(self):
        return self.target.to_text()

    def _canonical_form(self):
        # RFC 4034 §6.2: embedded names are lowercased and never compressed.
        return self.target.canonical_wire()


@register(RdataType.NS)
class NS(_SingleName):
    """A delegation name server record."""


@register(RdataType.CNAME)
class CNAME(_SingleName):
    """A canonical-name alias record."""


@register(RdataType.PTR)
class PTR(_SingleName):
    """A pointer record (reverse DNS)."""


@register(RdataType.MX)
class MX(CompressibleRdata):
    """A mail exchanger record."""

    __slots__ = ("preference", "exchange")

    def __init__(self, preference, exchange):
        object.__setattr__(self, "preference", int(preference))
        object.__setattr__(self, "exchange", Name.from_text(exchange))

    def __setattr__(self, name, value):
        raise AttributeError("rdata objects are immutable")

    def write_wire(self, writer):
        writer.write_u16(self.preference)
        writer.write_name(self.exchange)

    @classmethod
    def from_wire(cls, reader, rdlength):
        return cls._trusted(None, reader.read_u16(), reader.read_name())

    def to_text(self):
        return f"{self.preference} {self.exchange.to_text()}"

    def _canonical_form(self):
        return U16.pack(self.preference) + self.exchange.canonical_wire()


@register(RdataType.SRV)
class SRV(CompressibleRdata):
    """A service locator record (RFC 2782)."""

    __slots__ = ("priority", "weight", "port", "target")

    def __init__(self, priority, weight, port, target):
        object.__setattr__(self, "priority", int(priority))
        object.__setattr__(self, "weight", int(weight))
        object.__setattr__(self, "port", int(port))
        object.__setattr__(self, "target", Name.from_text(target))

    def __setattr__(self, name, value):
        raise AttributeError("rdata objects are immutable")

    def write_wire(self, writer):
        writer.pack(_SRV_FIXED, self.priority, self.weight, self.port)
        # Never compressed itself, but write_name still offers the target's
        # suffixes to later names — which appending packed bytes would not.
        writer.write_name(self.target, compress=False)

    @classmethod
    def from_wire(cls, reader, rdlength):
        return cls._trusted(None, *reader.unpack(_SRV_FIXED), reader.read_name())

    def to_text(self):
        return f"{self.priority} {self.weight} {self.port} {self.target.to_text()}"

    def _canonical_form(self):
        fixed = _SRV_FIXED.pack(self.priority, self.weight, self.port)
        return fixed + self.target.canonical_wire()
