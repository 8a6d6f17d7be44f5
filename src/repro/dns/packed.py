"""Packed answers: fully encoded replies keyed by the query's own bytes.

Two users, each a :class:`~repro.memo.Memo` from :func:`packed_memo`:
the authoritative server's answer cache (:mod:`repro.server.authoritative`)
and the validating resolver's packet cache
(:mod:`repro.resolver.validating`). Both key on ``(wire[2:], via_tcp)``
— everything after the query id, plus the transport that drives UDP
truncation — and store an entry whose ``tail`` is the encoded reply
after its id, so a hit is the asking query's id spliced onto stored
bytes (the ``Message.encode()`` memo technique) with no decode.
"""

from __future__ import annotations

from repro.memo import Memo

#: Longest query either cache will key on. The key is the client's own
#: bytes: a header, a 255-octet name, the question tail and a bare OPT
#: record come to 282 octets; a query carrying that much again in EDNS
#: options is answered like any other, just never looked up or stored.
MAX_CACHEABLE_QUERY = 512


def _packed_size(key, entry):
    return len(key[0]) + len(entry.tail)


def packed_memo(name):
    """A packed-answer memo: 8 192 entries and 16 MiB of key plus tail
    bytes. The entry bound alone would let 8 192 TCP tails of up to
    64 KiB pin half a gigabyte."""
    return Memo(name, 8192, max_bytes=16 << 20, sizeof=_packed_size)
