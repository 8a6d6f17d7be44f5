"""DNSSEC rdata types: DNSKEY, RRSIG, DS (RFC 4034)."""

from __future__ import annotations

import base64
import struct
import time

from repro.dns.name import Name
from repro.dns.rdata import Rdata, _set, lazy, register
from repro.dns.types import RdataType
from repro.dns.wire import WireError, spelled_out_name

#: Fixed parts: DNSKEY flags/protocol/algorithm and DS key-tag/algorithm/
#: digest-type share a layout; RRSIG's is everything before the signer.
_KEY_FIXED = struct.Struct("!HBB")
_RRSIG_FIXED = struct.Struct("!HBBIIIH")

#: DNSKEY flag bit: Zone Key (bit 7).
FLAG_ZONE = 0x0100
#: DNSKEY flag bit: Secure Entry Point, i.e. a KSK (bit 15).
FLAG_SEP = 0x0001
#: DNSKEY flag bit: Revoked (RFC 5011).
FLAG_REVOKE = 0x0080

#: DNSSEC protocol field; always 3 (RFC 4034 §2.1.2).
PROTOCOL_DNSSEC = 3


def sigtime_to_text(value):
    """Render an RRSIG time as ``YYYYMMDDHHmmSS`` (RFC 4034 §3.2)."""
    return time.strftime("%Y%m%d%H%M%S", time.gmtime(value))


def _key_from_wire(cls, reader, rdlength):
    """DNSKEY / DS: three fixed fields, then opaque bytes to the end."""
    packed = reader.read(rdlength)
    if rdlength < _KEY_FIXED.size:
        raise WireError(f"{cls.__name__} rdata shorter than its fixed part")
    return cls.Lazy._trusted(packed)


def _key_fields(packed):
    """DNSKEY / DS value slots of a checked rdata slice."""
    return (*_KEY_FIXED.unpack_from(packed), packed[_KEY_FIXED.size :])


@lazy
@register(RdataType.DNSKEY)
class DNSKEY(Rdata):
    """A public key record.

    ``flags`` distinguishes zone-signing keys (256) from key-signing keys
    (257 = zone + SEP). ``algorithm`` selects the signature scheme; this
    library implements RSASHA1 (5), RSASHA256 (8), and ECDSAP256SHA256 (13)
    in :mod:`repro.crypto`.
    """

    __slots__ = ("flags", "protocol", "algorithm", "key", "_key_tag")
    _FIELDS = __slots__[:4]
    _fields = staticmethod(_key_fields)

    def __init__(self, flags, protocol, algorithm, key):
        object.__setattr__(self, "flags", int(flags))
        object.__setattr__(self, "protocol", int(protocol))
        object.__setattr__(self, "algorithm", int(algorithm))
        object.__setattr__(self, "key", bytes(key))

    def __setattr__(self, name, value):
        raise AttributeError("rdata objects are immutable")

    def is_zone_key(self):
        return bool(self.flags & FLAG_ZONE)

    def is_sep(self):
        return bool(self.flags & FLAG_SEP)

    def is_revoked(self):
        return bool(self.flags & FLAG_REVOKE)

    def key_tag(self):
        """RFC 4034 Appendix B key tag over the wire-format rdata (memoized)."""
        try:
            return self._key_tag
        except AttributeError:
            wire = self.packed()
            acc = (sum(wire[0::2]) << 8) + sum(wire[1::2])
            acc += (acc >> 16) & 0xFFFF
            _set(self, "_key_tag", acc & 0xFFFF)
            return self._key_tag

    def write_wire(self, writer):
        writer.pack(_KEY_FIXED, self.flags, self.protocol, self.algorithm)
        writer.write(self.key)

    @classmethod
    def from_wire(cls, reader, rdlength):
        return _key_from_wire(cls, reader, rdlength)

    def to_text(self):
        key64 = base64.b64encode(self.key).decode("ascii")
        return f"{self.flags} {self.protocol} {self.algorithm} {key64}"


@lazy
@register(RdataType.RRSIG)
class RRSIG(Rdata):
    """A signature over an RRset (RFC 4034 §3)."""

    __slots__ = (
        "type_covered",
        "algorithm",
        "labels",
        "original_ttl",
        "expiration",
        "inception",
        "key_tag",
        "signer",
        "signature",
        "_prefix",
    )
    _FIELDS = __slots__

    def __init__(
        self,
        type_covered,
        algorithm,
        labels,
        original_ttl,
        expiration,
        inception,
        key_tag,
        signer,
        signature,
    ):
        object.__setattr__(self, "type_covered", int(type_covered))
        object.__setattr__(self, "algorithm", int(algorithm))
        object.__setattr__(self, "labels", int(labels))
        object.__setattr__(self, "original_ttl", int(original_ttl))
        object.__setattr__(self, "expiration", int(expiration))
        object.__setattr__(self, "inception", int(inception))
        object.__setattr__(self, "key_tag", int(key_tag))
        object.__setattr__(self, "signer", Name.from_text(signer))
        object.__setattr__(self, "signature", bytes(signature))

    def __setattr__(self, name, value):
        raise AttributeError("rdata objects are immutable")

    def rdata_prefix(self):
        """Wire-format rdata with the signature field empty.

        This is the ``RRSIG_RDATA`` prefix over which signatures are
        computed (RFC 4034 §3.1.8.1); the signer name is in canonical
        form. Memoized: the validator rebuilds it per verification. A
        decoded RRSIG takes it from its slice when it is filled.
        """
        try:
            return self._prefix
        except AttributeError:
            _set(self, "_prefix", self._fixed() + self.signer.canonical_wire())
            return self._prefix

    def _fixed(self):
        return _RRSIG_FIXED.pack(
            self.type_covered,
            self.algorithm,
            self.labels,
            self.original_ttl,
            self.expiration,
            self.inception,
            self.key_tag,
        )

    def is_valid_at(self, now):
        """True when *now* falls inside the inception/expiration window."""
        return self.inception <= now <= self.expiration

    def write_wire(self, writer):
        # The signer name is never compressed (RFC 4034 §3.1.7), which is
        # what makes the rdata position-independent. Unlike
        # :meth:`rdata_prefix` this preserves the signer's original case.
        writer.write(self._fixed() + self.signer.to_wire() + self.signature)

    @classmethod
    def from_wire(cls, reader, rdlength):
        start = reader.pos
        packed = reader.read(rdlength)
        if spelled_out_name(packed, _RRSIG_FIXED.size):
            return cls.Lazy._trusted(packed)
        # A compressed signer is legal to receive, but then these bytes
        # mean something else at any other offset: read it through the
        # message and keep no slice.
        reader.pos = start
        fixed = reader.unpack(_RRSIG_FIXED)
        signer = reader.read_name()
        signature = reader.read(start + rdlength - reader.pos)
        return cls._trusted(None, *fixed, signer, signature)

    @staticmethod
    def _fields(packed):
        """The value slots of a checked rdata slice, with the signer spelled
        out; the ``_prefix`` memo comes free as its first octets, lowercased
        (length octets are below ``A``)."""
        labels = []
        pos = _RRSIG_FIXED.size
        length = packed[pos]
        while length:
            labels.append(packed[pos + 1 : pos + 1 + length])
            pos += 1 + length
            length = packed[pos]
        pos += 1
        return (
            *_RRSIG_FIXED.unpack_from(packed),
            Name._trusted(tuple(labels)),
            packed[pos:],
            packed[: _RRSIG_FIXED.size] + packed[_RRSIG_FIXED.size : pos].lower(),
        )

    def to_text(self):
        sig64 = base64.b64encode(self.signature).decode("ascii")
        return (
            f"{RdataType.to_text(self.type_covered)} {self.algorithm} "
            f"{self.labels} {self.original_ttl} "
            f"{sigtime_to_text(self.expiration)} {sigtime_to_text(self.inception)} "
            f"{self.key_tag} {self.signer.to_text()} {sig64}"
        )


#: DS digest type codes (RFC 4034 / RFC 4509).
DS_DIGEST_SHA1 = 1
DS_DIGEST_SHA256 = 2


@lazy
@register(RdataType.DS)
class DS(Rdata):
    """A delegation signer record: a digest of a child DNSKEY."""

    __slots__ = ("key_tag", "algorithm", "digest_type", "digest")
    _FIELDS = __slots__
    _fields = staticmethod(_key_fields)

    def __init__(self, key_tag, algorithm, digest_type, digest):
        object.__setattr__(self, "key_tag", int(key_tag))
        object.__setattr__(self, "algorithm", int(algorithm))
        object.__setattr__(self, "digest_type", int(digest_type))
        object.__setattr__(self, "digest", bytes(digest))

    def __setattr__(self, name, value):
        raise AttributeError("rdata objects are immutable")

    def write_wire(self, writer):
        writer.pack(_KEY_FIXED, self.key_tag, self.algorithm, self.digest_type)
        writer.write(self.digest)

    @classmethod
    def from_wire(cls, reader, rdlength):
        return _key_from_wire(cls, reader, rdlength)

    def to_text(self):
        return (
            f"{self.key_tag} {self.algorithm} {self.digest_type} "
            f"{self.digest.hex().upper()}"
        )
