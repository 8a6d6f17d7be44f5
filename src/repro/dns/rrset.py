"""RRsets: all records sharing an owner name, type, and class (RFC 2181 §5)."""

from __future__ import annotations

from repro.dns.name import Name
from repro.dns.types import TYPE_BY_VALUE, RdataClass, RdataType


class RRset:
    """A mutable set of rdata under one ``(name, type, class, ttl)``.

    DNSSEC signs whole RRsets, so this is the unit that
    :mod:`repro.dnssec.signer` and the validator operate on.
    """

    __slots__ = ("name", "rrtype", "rdclass", "ttl", "rdatas")

    def __init__(self, name, rrtype, ttl, rdatas=(), rdclass=RdataClass.IN):
        self.name = Name.from_text(name)
        if type(rrtype) is RdataType:
            self.rrtype = rrtype
        else:
            value = int(rrtype)
            self.rrtype = TYPE_BY_VALUE.get(value, value)
        self.rdclass = rdclass if type(rdclass) is RdataClass else RdataClass(int(rdclass))
        self.ttl = int(ttl)
        self.rdatas = list(rdatas)

    @classmethod
    def _trusted(cls, name, rrtype, ttl, rdatas, rdclass):
        """Wrap values the wire parser just produced, skipping coercion."""
        self = cls.__new__(cls)
        self.name = name
        self.rrtype = rrtype
        self.rdclass = rdclass
        self.ttl = ttl
        self.rdatas = rdatas
        return self

    def add(self, rdata):
        """Add *rdata* if not already present (RRsets are sets)."""
        if rdata not in self.rdatas:
            self.rdatas.append(rdata)
        return self

    def __iter__(self):
        return iter(self.rdatas)

    def __len__(self):
        return len(self.rdatas)

    def __bool__(self):
        return bool(self.rdatas)

    def __getitem__(self, index):
        return self.rdatas[index]

    def key(self):
        """Dictionary key identifying this RRset within a message or zone."""
        return (self.name, int(self.rrtype), int(self.rdclass))

    def sorted_rdatas(self):
        """Rdatas in RFC 4034 §6.3 canonical order (sorted by canonical wire form)."""
        return sorted(self.rdatas, key=lambda r: r.canonical_wire())

    def copy(self, ttl=None):
        # This RRset's fields are coerced already; only a new TTL is not.
        return RRset._trusted(
            self.name,
            self.rrtype,
            self.ttl if ttl is None else int(ttl),
            list(self.rdatas),
            self.rdclass,
        )

    def to_text(self):
        lines = []
        type_text = RdataType.to_text(self.rrtype)
        for rdata in self.rdatas:
            lines.append(
                f"{self.name.to_text()} {self.ttl} {self.rdclass.name} "
                f"{type_text} {rdata.to_text()}"
            )
        return "\n".join(lines)

    def __eq__(self, other):
        if not isinstance(other, RRset):
            return NotImplemented
        return (
            self.key() == other.key()
            and self.ttl == other.ttl
            and sorted(self.rdatas, key=lambda r: r.canonical_wire())
            == sorted(other.rdatas, key=lambda r: r.canonical_wire())
        )

    def __repr__(self):
        return (
            f"<RRset {self.name} {RdataType.to_text(self.rrtype)} "
            f"ttl={self.ttl} n={len(self.rdatas)}>"
        )
