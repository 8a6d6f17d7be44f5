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


def check_bitmap(wire, pos=0):
    """Validate the bitmap blocks in ``wire[pos:]``; raise ``ValueError``
    if they are malformed.

    Returns True when they are also what :func:`encode_bitmap` would emit:
    no block ends in a zero octet.
    """
    size = len(wire)
    previous_window = -1
    canonical = True
    while pos < size:
        if pos + 2 > size:
            raise ValueError("truncated type bitmap block header")
        window = wire[pos]
        length = wire[pos + 1]
        if window <= previous_window:
            raise ValueError("type bitmap windows out of order")
        if not 1 <= length <= 32:
            raise ValueError(f"invalid bitmap block length {length}")
        pos += 2 + length
        if pos > size:
            raise ValueError("truncated type bitmap block body")
        if not wire[pos - 1]:
            canonical = False
        previous_window = window
    return canonical


def bitmap_types(wire, pos=0):
    """Sorted type codes of the blocks in ``wire[pos:]``, which
    :func:`check_bitmap` has accepted."""
    types = []
    append = types.append
    size = len(wire)
    while pos < size:
        base = wire[pos] * 256
        end = pos + 2 + wire[pos + 1]
        for octet in wire[pos + 2 : end]:
            if octet:
                for bit in _SET_BITS[octet]:
                    append(base + bit)
            base += 8
        pos = end
    return types


def decode_bitmap(wire):
    """Decode wire-format bitmap blocks into a sorted list of type codes."""
    check_bitmap(wire)
    return bitmap_types(wire)


def bitmap_to_text(types):
    """Render type codes as space-separated mnemonics, NSEC presentation style."""
    return " ".join(RdataType.to_text(t) for t in types)
