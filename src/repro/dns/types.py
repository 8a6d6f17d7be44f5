"""DNS type, class, and opcode registries (RFC 1035, RFC 4034, RFC 5155)."""

import enum


class RdataType(enum.IntEnum):
    """Resource record TYPE values used by this implementation."""

    A = 1
    NS = 2
    CNAME = 5
    SOA = 6
    PTR = 12
    MX = 15
    TXT = 16
    AAAA = 28
    SRV = 33
    DS = 43
    RRSIG = 46
    NSEC = 47
    DNSKEY = 48
    NSEC3 = 50
    NSEC3PARAM = 51
    OPT = 41
    AXFR = 252
    CAA = 257
    ANY = 255

    @classmethod
    def from_text(cls, text):
        """Parse a mnemonic like ``"NSEC3PARAM"`` or ``"TYPE65534"``."""
        text = text.strip().upper()
        if text.startswith("TYPE") and text[4:].isdigit():
            return int(text[4:])
        try:
            return cls[text]
        except KeyError:
            raise ValueError(f"unknown RR type mnemonic: {text!r}") from None

    @classmethod
    def to_text(cls, value):
        """Render a TYPE value as its mnemonic, or ``TYPEnnn`` if unknown.

        Memoised — type rendering sits on per-record telemetry paths and
        the value space is bounded (16 bits).
        """
        try:
            return _TYPE_TEXT[value]
        except KeyError:
            pass
        try:
            text = cls(value).name
        except ValueError:
            text = f"TYPE{int(value)}"
        _TYPE_TEXT[value] = text
        return text


_TYPE_TEXT = {}


class RdataClass(enum.IntEnum):
    """Resource record CLASS values."""

    IN = 1
    CH = 3
    HS = 4
    NONE = 254
    ANY = 255


class Opcode(enum.IntEnum):
    """DNS message opcodes."""

    QUERY = 0
    IQUERY = 1
    STATUS = 2
    NOTIFY = 4
    UPDATE = 5


#: Value → member tables for the decode path: a dict hit where calling
#: the enum class would go through ``EnumMeta.__call__``.
TYPE_BY_VALUE = RdataType._value2member_map_
CLASS_BY_VALUE = RdataClass._value2member_map_
OPCODE_BY_VALUE = Opcode._value2member_map_
