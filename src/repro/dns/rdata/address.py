"""A and AAAA rdata (RFC 1035 §3.4.1, RFC 3596)."""

from __future__ import annotations

import ipaddress

from repro.dns.rdata import Rdata, _set, register
from repro.dns.types import RdataType


class _Address(Rdata):
    """Shared implementation: the packed address *is* the rdata.

    Only the 4 or 16 octets are kept and :attr:`address` builds the
    :mod:`ipaddress` object when asked: a record a server merely serves
    or a resolver merely forwards never needs one, and the one reader on
    a hot path (glue extraction) takes :meth:`to_text`, which for A
    renders the octets directly.
    """

    __slots__ = ()
    _factory = None
    _size = None

    def __init__(self, address):
        _set(self, "_packed", self._factory(address).packed)

    def __setattr__(self, name, value):
        raise AttributeError("rdata objects are immutable")

    @property
    def address(self):
        return self._factory(self._packed)

    def write_wire(self, writer):
        writer.write(self._packed)

    @classmethod
    def from_wire(cls, reader, rdlength):
        if rdlength != cls._size:
            raise ValueError(
                f"{cls.__name__} rdata must be {cls._size} bytes, got {rdlength}"
            )
        return cls._trusted(reader.read(rdlength))

    def to_text(self):
        return str(self.address)


@register(RdataType.A)
class A(_Address):
    """An IPv4 address record."""

    __slots__ = ()
    _factory = ipaddress.IPv4Address
    _size = 4

    def to_text(self):
        return "%d.%d.%d.%d" % tuple(self._packed)


@register(RdataType.AAAA)
class AAAA(_Address):
    """An IPv6 address record."""

    __slots__ = ()
    _factory = ipaddress.IPv6Address
    _size = 16
