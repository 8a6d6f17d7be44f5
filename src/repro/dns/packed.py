"""Packed answers: fully encoded replies keyed by the query's own bytes.

One primitive with two users: the authoritative server's answer cache
(:mod:`repro.server.authoritative`) and the validating resolver's packet
cache (:mod:`repro.resolver.validating`). Both key on ``(wire[2:],
via_tcp)`` — everything after the query id, plus the transport that
drives UDP truncation — and store an entry whose ``tail`` is the encoded
reply after its id, so a hit is the asking query's id spliced onto
stored bytes (the ``Message.encode()`` memo technique) with no decode.
"""

from __future__ import annotations

from repro import obs

#: Longest query either cache will key on. The key is the client's own
#: bytes: a header, a 255-octet name, the question tail and a bare OPT
#: record come to 282 octets; a query carrying that much again in EDNS
#: options is answered like any other, just never looked up or stored.
MAX_CACHEABLE_QUERY = 512

#: Most key plus tail bytes one cache holds. The entry bound alone would
#: let 8 192 TCP tails of up to 64 KiB pin half a gigabyte.
MAX_PACKED_BYTES = 16 << 20

#: Resolved metric children for the per-query serving hot paths.
_CHILDREN = obs.ChildCache()


class PackedAnswerCache:
    """Encoded replies keyed by ``(query bytes after the id, via_tcp)``.

    Insertion-ordered with deterministic FIFO eviction, bounded twice: at
    most *limit* entries and at most :data:`MAX_PACKED_BYTES` of key plus
    tail bytes. The byte bound evicts the oldest entries until the new
    one fits (an entry larger than the whole budget is not stored). Both
    kinds of eviction count in :attr:`evictions`.

    *name* labels this cache in ``repro_answer_cache_events_total`` and
    in ``cache.evict`` / ``cache.invalidate`` events (``auth`` for the
    server's, ``packet`` for the resolver's; the resolver's verdict
    cache already emits ``cache.evict`` as ``resolver``).
    """

    __slots__ = (
        "name",
        "limit",
        "max_bytes",
        "bytes",
        "entries",
        "hits",
        "misses",
        "evictions",
        "invalidations",
    )

    def __init__(self, name, limit=8192):
        self.name = name
        self.limit = limit
        self.max_bytes = MAX_PACKED_BYTES
        self.bytes = 0
        self.entries = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def count(self, outcome, amount=1):
        """Count one cache event in the metrics registry (obs on only)."""
        key = (self.name, outcome)
        child = _CHILDREN.get(obs.registry, key)
        if child is None:
            child = _CHILDREN.put(
                key,
                obs.registry.counter(
                    "repro_answer_cache_events_total",
                    "Packed-answer cache events, by cache and outcome.",
                    labelnames=("cache", "outcome"),
                ).labels(cache=self.name, outcome=outcome),
            )
        child.inc(amount)

    def get(self, key):
        return self.entries.get(key)

    def put(self, key, entry):
        entries = self.entries
        old = entries.pop(key, None)
        if old is not None:
            self.bytes -= len(key[0]) + len(old.tail)
        size = len(key[0]) + len(entry.tail)
        if size > self.max_bytes:
            return
        evicted = 0
        while entries and (
            len(entries) >= self.limit or self.bytes + size > self.max_bytes
        ):
            oldest = next(iter(entries))
            self.bytes -= len(oldest[0]) + len(entries.pop(oldest).tail)
            evicted += 1
        entries[key] = entry
        self.bytes += size
        if evicted:
            self.evictions += evicted
            if obs.enabled:
                self.count("eviction", evicted)
            if obs.events:
                obs.emit("cache.evict", cache=self.name, reason="capacity", n=evicted)

    def clear(self):
        """Drop every entry; the event counters keep their counts."""
        self.entries.clear()
        self.bytes = 0

    def invalidate(self):
        """Drop every entry (what the entries were built from changed)."""
        self.clear()
        self.invalidations += 1
        if obs.enabled:
            self.count("invalidation")
        if obs.events:
            obs.emit("cache.invalidate", cache=self.name)
