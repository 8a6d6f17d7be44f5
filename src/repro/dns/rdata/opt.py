"""OPT pseudo-RR rdata (RFC 6891): a sequence of EDNS options.

The OPT record is special: its CLASS field carries the sender's UDP payload
size and its TTL packs the extended RCODE, EDNS version, and the DO bit.
That header-level handling lives in :mod:`repro.dns.edns` /
:mod:`repro.dns.message`; this class only models the option list rdata.
"""

from __future__ import annotations

import struct

from repro.dns.rdata import Rdata, register
from repro.dns.types import RdataType

#: OPTION-CODE, OPTION-LENGTH.
_OPTION_HEAD = struct.Struct("!HH")


class EdnsOption:
    """A single EDNS option: ``(code, data)``."""

    __slots__ = ("code", "data")

    def __init__(self, code, data=b""):
        object.__setattr__(self, "code", int(code))
        object.__setattr__(self, "data", bytes(data))

    def __setattr__(self, name, value):
        raise AttributeError("EdnsOption is immutable")

    def __eq__(self, other):
        if not isinstance(other, EdnsOption):
            return NotImplemented
        return self.code == other.code and self.data == other.data

    def __hash__(self):
        return hash((self.code, self.data))

    def __repr__(self):
        return f"EdnsOption(code={self.code}, data={self.data.hex()!r})"


@register(RdataType.OPT)
class OPT(Rdata):
    """OPT rdata: zero or more EDNS options."""

    __slots__ = ("options",)

    def __init__(self, options=()):
        object.__setattr__(self, "options", tuple(options))

    def __setattr__(self, name, value):
        raise AttributeError("rdata objects are immutable")

    def get_options(self, code):
        """All options with the given option code."""
        return [opt for opt in self.options if opt.code == int(code)]

    def write_wire(self, writer):
        for option in self.options:
            writer.pack(_OPTION_HEAD, option.code, len(option.data))
            writer.write(option.data)

    @classmethod
    def from_wire(cls, reader, rdlength):
        end = reader.pos + rdlength
        options = []
        while reader.pos < end:
            code, length = reader.unpack(_OPTION_HEAD)
            options.append(EdnsOption(code, reader.read(length)))
        return cls(options)

    def to_text(self):
        return " ".join(f"{o.code}:{o.data.hex()}" for o in self.options) or "(empty)"

    @classmethod
    def from_text(cls, text):
        text = text.strip()
        if text in ("", "(empty)"):
            return cls()
        options = []
        for item in text.split():
            code, __, data = item.partition(":")
            options.append(EdnsOption(int(code), bytes.fromhex(data)))
        return cls(options)
