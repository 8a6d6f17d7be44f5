"""Low-level wire reading and writing, including RFC 1035 name compression."""

from __future__ import annotations

import struct

from repro.dns.name import Name, MAX_NAME_WIRE_LENGTH


class WireError(ValueError):
    """Raised when a DNS message cannot be parsed from wire bytes."""


#: Decode-time ceiling on the summed header section counts. Each count
#: field can claim up to 65,535 records; garbage from the Corruption
#: fault model (or a hostile server) could otherwise drive the parser
#: through ~256 K record headers per datagram. Generous on purpose: a
#: single-message AXFR of any zone this testbed builds stays far below it.
MAX_DECODE_RECORDS = 16_384

#: Decode-time ceiling on EDNS options carried in one OPT record. Real
#: messages carry a handful (EDE, cookies); hundreds is an attack shape.
MAX_EDNS_OPTIONS = 64


#: The octets a name's labels may take, length octets included: 255 in
#: all (RFC 1035 §3.1), less the root's length octet, as :class:`Name`
#: counts it.
MAX_LABEL_OCTETS = MAX_NAME_WIRE_LENGTH - 1

#: Fixed-layout blocks shared by the message codec, compiled once.
HEADER = struct.Struct("!HHHHHH")
QUESTION_TAIL = struct.Struct("!HH")
RR_FIXED = struct.Struct("!HHIH")
U16 = struct.Struct("!H")
U32 = struct.Struct("!I")


def spelled_out_name(data, pos):
    """True when the name at *pos* is spelled out to its root, False when
    a compression pointer comes first.

    The name must end inside *data* (a record's rdata slice); its labels
    are checked as :meth:`Reader.read_name` checks them, under the same
    octet cap.
    """
    size = len(data)
    total = 0
    while True:
        if pos >= size:
            raise WireError("name runs past end of its record")
        length = data[pos]
        if not length:
            return True
        if length & 0xC0:
            if length & 0xC0 == 0xC0:
                return False
            raise WireError(f"reserved label type 0x{length:02x}")
        total += length + 1
        if total > MAX_LABEL_OCTETS:
            raise WireError("name exceeds 255 octets")
        pos += 1 + length


class Writer:
    """Accumulates wire bytes and performs name compression.

    Compression targets are remembered per canonical (lowercased) suffix;
    pointers may only reference offsets below 0x4000 per RFC 1035.
    ``buf`` is the message so far: the codec appends its struct-packed
    blocks and memoised rdata to it directly.
    """

    def __init__(self, enable_compression=True):
        self.buf = bytearray()
        self._targets = {}
        self._compress = enable_compression

    def __len__(self):
        return len(self.buf)

    def getvalue(self):
        return bytes(self.buf)

    def write(self, data):
        self.buf += data

    def write_u8(self, value):
        self.buf.append(value & 0xFF)

    def write_u16(self, value):
        self.buf += U16.pack(value & 0xFFFF)

    def write_u32(self, value):
        self.buf += U32.pack(value & 0xFFFFFFFF)

    def pack(self, layout, *values):
        """Append one fixed-layout block (a compiled :class:`struct.Struct`)."""
        self.buf += layout.pack(*values)

    def write_name(self, name, compress=None):
        """Write *name*, emitting a compression pointer when a suffix matches.

        Suffixes are keyed by slices of the name's memoized canonical key
        (reversed lowercased labels) rather than re-lowercasing per write;
        reversal is a bijection so the target map is equivalent.
        """
        if compress is None:
            compress = self._compress
        labels = name.labels
        key = name._key()
        count = len(labels)
        buf = self.buf
        targets = self._targets
        for index in range(count + 1):
            suffix_key = key[: count - index]
            if compress and suffix_key in targets:
                pointer = targets[suffix_key]
                buf.append(0xC0 | (pointer >> 8))
                buf.append(pointer & 0xFF)
                return
            if index == count:
                buf.append(0)
                return
            if len(buf) < 0x4000 and suffix_key:
                targets[suffix_key] = len(buf)
            label = labels[index]
            buf.append(len(label))
            buf.extend(label)


class Reader:
    """Sequential reader over a full DNS message with pointer chasing.

    ``names`` is the per-message name-offset table: every label start
    parsed so far maps to ``(Name or None, labels, octets)`` for the name
    that begins there, so a compression pointer at a known offset — every
    RR owner in a response points at the question name — is one dict hit
    instead of a label walk.
    """

    def __init__(self, data):
        self.data = bytes(data)
        self.pos = 0
        self.names = {}

    def remaining(self):
        return len(self.data) - self.pos

    def read(self, count):
        pos = self.pos
        if count < 0:
            # A fixed part or embedded name that overran its RDLENGTH.
            raise WireError(f"field overruns its record by {-count} bytes at {pos}")
        if pos + count > len(self.data):
            raise WireError(f"truncated message: need {count} bytes at offset {pos}")
        self.pos = pos + count
        return self.data[pos : pos + count]

    def unpack(self, layout):
        """Read one fixed-layout block (a compiled :class:`struct.Struct`)."""
        pos = self.pos
        end = pos + layout.size
        if end > len(self.data):
            raise WireError(
                f"truncated message: need {layout.size} bytes at offset {pos}"
            )
        self.pos = end
        return layout.unpack_from(self.data, pos)

    def read_u8(self):
        pos = self.pos
        if pos >= len(self.data):
            raise WireError(f"truncated message: need 1 byte at offset {pos}")
        self.pos = pos + 1
        return self.data[pos]

    def read_u16(self):
        return self.unpack(U16)[0]

    def read_name(self):
        """Read a (possibly compressed) name starting at the current offset.

        A pointer to an offset in :attr:`names` resolves from the table;
        a pointer anywhere else takes the loop-checked walk. Either way
        the 255-octet cap counts every label of the result and the root.
        """
        data = self.data
        size = len(data)
        names = self.names
        pos = self.pos
        labels = []
        offsets = []
        tail = ()
        end = None
        seen = None  # allocated lazily: most names chase no unknown pointer
        total = 0
        while True:
            if pos >= size:
                raise WireError("name runs past end of message")
            length = data[pos]
            if length & 0xC0 == 0xC0:
                if pos + 1 >= size:
                    raise WireError("truncated compression pointer")
                target = ((length & 0x3F) << 8) | data[pos + 1]
                if end is None:
                    end = pos + 2
                known = names.get(target)
                if known is not None:
                    name, tail, octets = known
                    total += octets
                    if total > MAX_LABEL_OCTETS:
                        raise WireError("name exceeds 255 octets")
                    if labels:
                        break
                    if name is None:
                        name = Name._trusted(tail)
                        names[target] = (name, tail, octets)
                    self.pos = end
                    return name
                if seen is None:
                    seen = {target}
                elif target in seen:
                    raise WireError("compression pointer loop")
                else:
                    seen.add(target)
                pos = target
            elif length & 0xC0:
                raise WireError(f"reserved label type 0x{length:02x}")
            elif length == 0:
                break
            else:
                after = pos + 1 + length
                if after > size:
                    raise WireError("label runs past end of message")
                labels.append(data[pos + 1 : after])
                offsets.append(pos)
                total += length + 1
                if total > MAX_LABEL_OCTETS:
                    raise WireError("name exceeds 255 octets")
                pos = after
        self.pos = pos + 1 if end is None else end
        # The loop established every Name invariant (labels non-empty,
        # ≤ 63 octets by the 0xC0 tag check, ≤ 255 octets with the root),
        # so skip the revalidating constructor on this hot path.
        labels = tuple(labels) + tail
        name = Name._trusted(labels)
        for index, offset in enumerate(offsets):
            names[offset] = (name if index == 0 else None, labels[index:], total)
            total -= len(labels[index]) + 1
        return name
