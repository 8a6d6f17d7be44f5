"""NSEC3 and NSEC3PARAM rdata (RFC 5155).

These are the records at the heart of the paper. An NSEC3 record's rdata
carries the hash parameters (algorithm, flags with the opt-out bit,
*additional iterations*, salt), the hashed next owner, and a type bitmap.
NSEC3PARAM mirrors the parameters so that authoritative servers know which
chain to serve.

RFC 9276 mandates ``iterations == 0`` (Item 2) and recommends an empty salt
(Item 3); this module only *represents* the records — the compliance logic
lives in :mod:`repro.core`.
"""

from __future__ import annotations

import struct

from repro.dns.base32 import b32hex_decode, b32hex_encode
from repro.dns.bitmap import bitmap_to_text, bitmap_types, check_bitmap, encode_bitmap
from repro.dns.rdata import Rdata, lazy, register
from repro.dns.types import RdataType
from repro.dns.wire import WireError

#: The only hash algorithm defined for NSEC3 (SHA-1, RFC 5155 §11).
NSEC3_HASH_SHA1 = 1

#: NSEC3 flags field: opt-out bit (RFC 5155 §3.1.2.1).
NSEC3_FLAG_OPTOUT = 0x01


#: Hash algorithm, flags, iterations, salt length — common to both types.
_PARAMS_FIXED = struct.Struct("!BBHB")


def _read_params(reader):
    hash_algorithm, flags, iterations, salt_length = reader.unpack(_PARAMS_FIXED)
    return hash_algorithm, flags, iterations, reader.read(salt_length)


def _write_params(writer, rdata):
    writer.pack(
        _PARAMS_FIXED, rdata.hash_algorithm, rdata.flags, rdata.iterations, len(rdata.salt)
    )
    writer.write(rdata.salt)


def _salt_to_text(salt):
    return salt.hex().upper() if salt else "-"


def _salt_from_text(text):
    return b"" if text == "-" else bytes.fromhex(text)


@lazy
@register(RdataType.NSEC3)
class NSEC3(Rdata):
    """A hashed authenticated denial record."""

    __slots__ = (
        "hash_algorithm", "flags", "iterations", "salt", "next_hash", "types",
    )
    _FIELDS = __slots__

    def __init__(self, hash_algorithm, flags, iterations, salt, next_hash, types):
        iterations = int(iterations)
        if not 0 <= iterations <= 0xFFFF:
            raise ValueError(f"iterations out of range: {iterations}")
        salt = bytes(salt)
        if len(salt) > 255:
            raise ValueError("salt exceeds 255 bytes")
        object.__setattr__(self, "hash_algorithm", int(hash_algorithm))
        object.__setattr__(self, "flags", int(flags))
        object.__setattr__(self, "iterations", iterations)
        object.__setattr__(self, "salt", salt)
        object.__setattr__(self, "next_hash", bytes(next_hash))
        object.__setattr__(self, "types", tuple(sorted(set(int(t) for t in types))))

    def __setattr__(self, name, value):
        raise AttributeError("rdata objects are immutable")

    @property
    def opt_out(self):
        """True when the opt-out flag (Item 4/5 of RFC 9276) is set."""
        return bool(self.flags & NSEC3_FLAG_OPTOUT)

    def covers_type(self, rrtype):
        return int(rrtype) in self.types

    def parameters(self):
        """The ``(hash_algorithm, iterations, salt)`` triple for comparisons."""
        return (self.hash_algorithm, self.iterations, self.salt)

    def write_wire(self, writer):
        # Rdata contains no domain name, so the wire form is position-
        # independent: zone chain entries are re-emitted into every
        # denial response from the packed() memo.
        _write_params(writer, self)
        writer.write_u8(len(self.next_hash))
        writer.write(self.next_hash + encode_bitmap(self.types))

    @classmethod
    def from_wire(cls, reader, rdlength):
        packed = reader.read(rdlength)
        if rdlength < _PARAMS_FIXED.size:
            raise WireError("NSEC3 rdata shorter than its fixed part")
        hash_at = _PARAMS_FIXED.size + packed[4]
        if hash_at >= rdlength:
            raise WireError("NSEC3 salt overruns its record")
        bitmap_at = hash_at + 1 + packed[hash_at]
        if bitmap_at > rdlength:
            raise WireError("NSEC3 next hash overruns its record")
        if check_bitmap(packed, bitmap_at):
            return cls.Lazy._trusted(packed)
        # An accepted bitmap may still pad blocks with zero octets; then the
        # slice is not what write_wire would emit, so it is not kept.
        return cls._trusted(None, *cls._fields(packed))

    @staticmethod
    def _fields(packed):
        """The value slots of a checked rdata slice."""
        hash_algorithm, flags, iterations, salt_length = _PARAMS_FIXED.unpack_from(packed)
        hash_at = _PARAMS_FIXED.size + salt_length
        bitmap_at = hash_at + 1 + packed[hash_at]
        return (
            hash_algorithm,
            flags,
            iterations,
            packed[_PARAMS_FIXED.size : hash_at],
            packed[hash_at + 1 : bitmap_at],
            tuple(bitmap_types(packed, bitmap_at)),
        )

    def to_text(self):
        types_text = bitmap_to_text(self.types)
        base = (
            f"{self.hash_algorithm} {self.flags} {self.iterations} "
            f"{_salt_to_text(self.salt)} {b32hex_encode(self.next_hash)}"
        )
        return f"{base} {types_text}".rstrip()

    @classmethod
    def from_text(cls, text):
        fields = text.split()
        if len(fields) < 5:
            raise ValueError(f"NSEC3 needs ≥5 fields, got {len(fields)}")
        return cls(
            int(fields[0]),
            int(fields[1]),
            int(fields[2]),
            _salt_from_text(fields[3]),
            b32hex_decode(fields[4]),
            [RdataType.from_text(t) for t in fields[5:]],
        )


@register(RdataType.NSEC3PARAM)
class NSEC3PARAM(Rdata):
    """The zone-apex record advertising the NSEC3 chain parameters.

    Per RFC 5155 §4.1.2 the flags field of NSEC3PARAM must be zero (the
    opt-out bit is meaningful only on NSEC3 records themselves).
    """

    __slots__ = ("hash_algorithm", "flags", "iterations", "salt")

    def __init__(self, hash_algorithm, flags, iterations, salt):
        iterations = int(iterations)
        if not 0 <= iterations <= 0xFFFF:
            raise ValueError(f"iterations out of range: {iterations}")
        salt = bytes(salt)
        if len(salt) > 255:
            raise ValueError("salt exceeds 255 bytes")
        object.__setattr__(self, "hash_algorithm", int(hash_algorithm))
        object.__setattr__(self, "flags", int(flags))
        object.__setattr__(self, "iterations", iterations)
        object.__setattr__(self, "salt", salt)

    def __setattr__(self, name, value):
        raise AttributeError("rdata objects are immutable")

    def parameters(self):
        """The ``(hash_algorithm, iterations, salt)`` triple for comparisons."""
        return (self.hash_algorithm, self.iterations, self.salt)

    def write_wire(self, writer):
        _write_params(writer, self)

    @classmethod
    def from_wire(cls, reader, rdlength):
        start = reader.pos
        params = _read_params(reader)
        return cls._trusted(reader.data[start : reader.pos], *params)

    def to_text(self):
        return (
            f"{self.hash_algorithm} {self.flags} {self.iterations} "
            f"{_salt_to_text(self.salt)}"
        )

    @classmethod
    def from_text(cls, text):
        fields = text.split()
        if len(fields) != 4:
            raise ValueError(f"NSEC3PARAM needs 4 fields, got {len(fields)}")
        return cls(int(fields[0]), int(fields[1]), int(fields[2]), _salt_from_text(fields[3]))
