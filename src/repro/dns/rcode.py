"""DNS response codes (RFC 1035, RFC 6895)."""

import enum


class Rcode(enum.IntEnum):
    """Response codes, including the EDNS-extended range."""

    NOERROR = 0
    FORMERR = 1
    SERVFAIL = 2
    NXDOMAIN = 3
    NOTIMP = 4
    REFUSED = 5
    YXDOMAIN = 6
    YXRRSET = 7
    NXRRSET = 8
    NOTAUTH = 9
    NOTZONE = 10
    BADVERS = 16

    @classmethod
    def to_text(cls, value):
        # Memoised: rendering rcodes sits on the per-response metrics
        # path, and the value space is bounded (12 bits).
        try:
            return _RCODE_TEXT[value]
        except KeyError:
            pass
        try:
            text = cls(value).name
        except ValueError:
            text = f"RCODE{int(value)}"
        _RCODE_TEXT[value] = text
        return text


_RCODE_TEXT = {}

#: Value → member table for the decode path (see ``types.TYPE_BY_VALUE``).
RCODE_BY_VALUE = Rcode._value2member_map_
