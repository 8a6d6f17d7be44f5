"""TXT rdata (RFC 1035 §3.3.14)."""

from __future__ import annotations

from repro.dns.rdata import Rdata, register
from repro.dns.types import RdataType


@register(RdataType.TXT)
class TXT(Rdata):
    """A text record holding one or more character-strings (≤255 bytes each)."""

    __slots__ = ("strings",)

    def __init__(self, strings):
        if isinstance(strings, (str, bytes)):
            strings = [strings]
        encoded = tuple(
            s.encode("utf-8") if isinstance(s, str) else bytes(s) for s in strings
        )
        for chunk in encoded:
            if len(chunk) > 255:
                raise ValueError("TXT character-string exceeds 255 bytes")
        if not encoded:
            encoded = (b"",)
        object.__setattr__(self, "strings", encoded)

    def __setattr__(self, name, value):
        raise AttributeError("rdata objects are immutable")

    def write_wire(self, writer):
        for chunk in self.strings:
            writer.write_u8(len(chunk))
            writer.write(chunk)

    @classmethod
    def from_wire(cls, reader, rdlength):
        end = reader.pos + rdlength
        strings = []
        while reader.pos < end:
            length = reader.read_u8()
            strings.append(reader.read(length))
        return cls(strings)

    def to_text(self):
        rendered = []
        for chunk in self.strings:
            escaped = chunk.decode("utf-8", "backslashreplace").replace('"', '\\"')
            rendered.append(f'"{escaped}"')
        return " ".join(rendered)
