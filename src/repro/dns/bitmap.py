"""NSEC/NSEC3 type bitmaps (RFC 4034 §4.1.2, RFC 5155 §3.2.1).

A type bitmap encodes the set of RR types present at a name as a sequence of
``(window, length, bitmap)`` blocks. Window *w* covers types
``w*256 .. w*256+255``; bit 0 of the first octet is type ``w*256``.
"""

from repro.dns.types import RdataType

#: Bit offsets set in each possible octet, most significant bit first.
_SET_BITS = [tuple(bit for bit in range(8) if octet & (0x80 >> bit)) for octet in range(256)]


def encode_bitmap(types):
    """Encode an iterable of RR type codes into wire-format bitmap blocks."""
    windows = {}
    for rrtype in sorted(set(int(t) for t in types)):
        if not 0 <= rrtype <= 0xFFFF:
            raise ValueError(f"RR type out of range: {rrtype}")
        window, offset = divmod(rrtype, 256)
        octets = windows.setdefault(window, bytearray(32))
        octets[offset // 8] |= 0x80 >> (offset % 8)
    out = bytearray()
    for window in sorted(windows):
        octets = windows[window]
        length = 32
        while length > 0 and octets[length - 1] == 0:
            length -= 1
        if length == 0:
            continue
        out.append(window)
        out.append(length)
        out.extend(octets[:length])
    return bytes(out)


def decode_bitmap(wire):
    """Decode wire-format bitmap blocks into a sorted list of type codes."""
    types = []
    pos = 0
    previous_window = -1
    while pos < len(wire):
        if pos + 2 > len(wire):
            raise ValueError("truncated type bitmap block header")
        window = wire[pos]
        length = wire[pos + 1]
        if window <= previous_window:
            raise ValueError("type bitmap windows out of order")
        if not 1 <= length <= 32:
            raise ValueError(f"invalid bitmap block length {length}")
        if pos + 2 + length > len(wire):
            raise ValueError("truncated type bitmap block body")
        for index, octet in enumerate(wire[pos + 2 : pos + 2 + length]):
            if octet:
                base = window * 256 + index * 8
                types.extend([base + bit for bit in _SET_BITS[octet]])
        previous_window = window
        pos += 2 + length
    return types


def is_canonical_bitmap(wire):
    """True when *wire*, which :func:`decode_bitmap` accepted, is also what
    :func:`encode_bitmap` would emit: no block ends in a zero octet."""
    pos = 0
    while pos < len(wire):
        pos += 2 + wire[pos + 1]
        if not wire[pos - 1]:
            return False
    return True


def bitmap_to_text(types):
    """Render type codes as space-separated mnemonics, NSEC presentation style."""
    return " ".join(RdataType.to_text(t) for t in types)
