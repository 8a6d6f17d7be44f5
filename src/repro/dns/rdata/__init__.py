"""Rdata classes, one per supported RR type.

Every concrete rdata class registers itself against its
:class:`~repro.dns.types.RdataType` code and implements:

- ``write_wire(writer)`` — append wire-format rdata (names may be compressed
  only for types RFC 3597 permits; DNSSEC-era types never compress),
- ``from_wire(reader, rdlength)`` — classmethod parser,
- ``to_text()`` — presentation format (output only: nothing in the
  program reads zone-file text),
- ``canonical_wire()`` — RFC 4034 §6.2 canonical form used for signing,
  ordering within an RRset, and RRSIG computation,
- ``packed()`` — the memoised position-independent encoding the message
  codec appends verbatim (and decode seeds with the rdata's own slice).

The DNSSEC types (RRSIG, NSEC3, DNSKEY, DS) are also decoded lazily: see
:func:`lazy`. Unknown types round-trip through :class:`GenericRdata`
(RFC 3597 style).
"""

from __future__ import annotations

from repro.dns.types import RdataType
from repro.dns.wire import Writer

_REGISTRY = {}


def register(rrtype):
    """Class decorator tying an rdata class to a TYPE code."""

    def wrap(cls):
        cls.rrtype = RdataType(rrtype)
        _REGISTRY[int(rrtype)] = cls
        return cls

    return wrap


def class_for(rrtype):
    """The rdata class for *rrtype*, or :class:`GenericRdata` if unknown."""
    return _REGISTRY.get(int(rrtype), GenericRdata)


_set = object.__setattr__


def lazy(cls):
    """Class decorator: attach ``cls.Lazy``, the form decode builds from a
    checked slice.

    ``from_wire`` checks every field of the rdata's slice; when the slice
    is also exactly what :meth:`Rdata.write_wire` would emit, it returns
    ``cls.Lazy._trusted(slice)``, which holds only ``_packed``. Equality,
    hashing, ordering and re-encoding read nothing else. The first read of
    a slot in ``cls._FIELDS`` misses, reaches ``__getattr__``, which sets
    those slots from the slice with ``cls._fields`` (the one field parser)
    and makes the instance a plain *cls*: later reads, and memo misses,
    go through no Python-level hook. ``cls`` itself has none, so records
    built from values (signing, the testbed) pay nothing.
    """
    fields = cls._FIELDS
    # The slots' own descriptors set faster than object.__setattr__.
    setters = tuple(getattr(cls, slot).__set__ for slot in fields)
    parse = cls._fields

    def __getattr__(self, name):
        if name not in fields:
            raise AttributeError(name)  # a memo not computed yet
        for set_slot, value in zip(setters, parse(self._packed)):
            set_slot(self, value)
        _set(self, "__class__", cls)
        return getattr(self, name)

    cls.Lazy = type(
        cls.__name__,
        (cls,),
        {
            "__slots__": (),
            "__getattr__": __getattr__,
            "__module__": cls.__module__,
            "__qualname__": f"{cls.__qualname__}.Lazy",
        },
    )
    return cls


class Rdata:
    """Base class for all rdata. Instances are treated as immutable.

    ``_packed`` is a write-once memo, left unset until first use (an
    unset slot raises ``AttributeError``, which :meth:`packed` treats as
    "not computed yet"; the other memo slots follow the same idiom).
    """

    rrtype = None
    __slots__ = ("_packed",)

    def write_wire(self, writer):
        raise NotImplementedError

    @classmethod
    def from_wire(cls, reader, rdlength):
        raise NotImplementedError

    def to_text(self):
        raise NotImplementedError

    @classmethod
    def _trusted(cls, packed, *values):
        """Build from field values the wire parser just produced.

        Skips ``__init__``'s coercions; *values* fill ``__slots__`` in
        order. *packed* is the rdata's own slice of the message when that
        slice is provably what :meth:`write_wire` would emit, else None.
        """
        self = object.__new__(cls)
        for slot, value in zip(cls.__slots__, values):
            _set(self, slot, value)
        if packed is not None:
            _set(self, "_packed", packed)
        return self

    def packed(self):
        """Position-independent wire-format rdata bytes (memoised).

        None for :class:`CompressibleRdata` types, whose encoding depends
        on (or feeds) the message's compression state.
        """
        try:
            return self._packed
        except AttributeError:
            writer = Writer(enable_compression=False)
            self.write_wire(writer)
            _set(self, "_packed", writer.getvalue())
            return self._packed

    def to_wire(self):
        """Standalone (uncompressed) wire-format rdata bytes."""
        packed = self.packed()
        if packed is None:
            writer = Writer(enable_compression=False)
            self.write_wire(writer)
            packed = writer.getvalue()
        return packed

    def canonical_wire(self):
        """Canonical form per RFC 4034 §6.2: the packed bytes, except for
        :class:`NameBearingRdata` types, which lowercase their names."""
        return self.packed()

    def __eq__(self, other):
        if not isinstance(other, Rdata):
            return NotImplemented
        return (
            int(self.rrtype) == int(other.rrtype)
            and self.canonical_wire() == other.canonical_wire()
        )

    def __lt__(self, other):
        """RFC 4034 §6.3 canonical rdata ordering (within an RRset)."""
        if not isinstance(other, Rdata):
            return NotImplemented
        return self.canonical_wire() < other.canonical_wire()

    def __hash__(self):
        return hash((int(self.rrtype), self.canonical_wire()))

    def __repr__(self):
        return f"<{type(self).__name__} {self.to_text()}>"


class NameBearingRdata(Rdata):
    """Rdata embedding domain names, which the canonical form lowercases.

    Subclasses provide ``_canonical_form()``; it is computed once.
    """

    __slots__ = ("_canonical",)

    def canonical_wire(self):
        try:
            return self._canonical
        except AttributeError:
            _set(self, "_canonical", self._canonical_form())
            return self._canonical


class CompressibleRdata(NameBearingRdata):
    """Rdata whose names go through ``Writer.write_name`` — compressed
    (NS, CNAME, PTR, MX, SOA) or at least offered as targets to later
    names (SRV) — so no position-independent encoding exists."""

    __slots__ = ()

    def packed(self):
        return None


class GenericRdata(Rdata):
    """Opaque rdata for types without a dedicated class (RFC 3597)."""

    __slots__ = ("data", "_rrtype")

    def __init__(self, rrtype, data):
        object.__setattr__(self, "_rrtype", int(rrtype))
        object.__setattr__(self, "data", bytes(data))

    def __setattr__(self, name, value):
        raise AttributeError("rdata objects are immutable")

    @property
    def rrtype(self):
        return self._rrtype

    def packed(self):
        return self.data

    def write_wire(self, writer):
        writer.write(self.data)

    def to_text(self):
        return f"\\# {len(self.data)} {self.data.hex()}"


def parse_rdata(rrtype, reader, rdlength):
    """Parse rdata of *rrtype* from *reader*, consuming exactly *rdlength*."""
    start = reader.pos
    cls = _REGISTRY.get(rrtype)
    if cls is None:
        rdata = GenericRdata(rrtype, reader.read(rdlength))
    else:
        rdata = cls.from_wire(reader, rdlength)
    consumed = reader.pos - start
    if consumed != rdlength:
        raise ValueError(
            f"rdata length mismatch for {RdataType.to_text(rrtype)}: "
            f"declared {rdlength}, consumed {consumed}"
        )
    return rdata


# Import concrete types for registration side effects (keep at end).
from repro.dns.rdata import address as _address  # noqa: E402,F401
from repro.dns.rdata import hostlike as _hostlike  # noqa: E402,F401
from repro.dns.rdata import soa as _soa  # noqa: E402,F401
from repro.dns.rdata import txt as _txt  # noqa: E402,F401
from repro.dns.rdata import dnssec as _dnssec  # noqa: E402,F401
from repro.dns.rdata import nsec as _nsec  # noqa: E402,F401
from repro.dns.rdata import nsec3 as _nsec3  # noqa: E402,F401
from repro.dns.rdata import opt as _opt  # noqa: E402,F401

from repro.dns.rdata.address import A, AAAA  # noqa: E402
from repro.dns.rdata.hostlike import NS, CNAME, PTR, MX, SRV  # noqa: E402
from repro.dns.rdata.soa import SOA  # noqa: E402
from repro.dns.rdata.txt import TXT  # noqa: E402
from repro.dns.rdata.dnssec import DNSKEY, RRSIG, DS  # noqa: E402
from repro.dns.rdata.nsec import NSEC  # noqa: E402
from repro.dns.rdata.nsec3 import NSEC3, NSEC3PARAM  # noqa: E402
from repro.dns.rdata.opt import OPT  # noqa: E402

__all__ = [
    "Rdata",
    "NameBearingRdata",
    "CompressibleRdata",
    "GenericRdata",
    "register",
    "lazy",
    "class_for",
    "parse_rdata",
    "A",
    "AAAA",
    "NS",
    "CNAME",
    "PTR",
    "MX",
    "SRV",
    "SOA",
    "TXT",
    "DNSKEY",
    "RRSIG",
    "DS",
    "NSEC",
    "NSEC3",
    "NSEC3PARAM",
    "OPT",
]
