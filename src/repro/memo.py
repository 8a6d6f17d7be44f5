"""Bounded memos: the one place that bounds, evicts and counts a table.

Every per-domain and per-resolver table a long campaign fills is one
:class:`Memo`: the NSEC3 digests, RRSIG verification outcomes, interned
names, canonical address spellings, the authoritative answer caches,
the resolver packet caches and the resolver verdict cache (the one
exception is ``LazyZoneHost``'s residency set, whose eviction must
unload each zone it drops). Each has an entry ``limit`` and, when its
values can be large, a ``max_bytes`` budget. The one eviction policy is
clear-on-full: a put that would cross either bound first empties the
table. That is O(1) amortised on a plain dict and deterministic, so no
output can depend on which entries an eviction kept.

Each memo counts ``hits``, ``misses``, ``evictions`` (entries dropped
by clear-on-full), ``invalidations`` and ``bytes``, even with telemetry
off. With it on, every event is also counted in
``repro_cache_events_total{cache, event}`` and each eviction and
invalidation is emitted as a ``cache.evict`` / ``cache.invalidate``
event.
"""

from __future__ import annotations

from repro import obs

#: Resolved ``(cache, event)`` counter children.
_CHILDREN = obs.ChildCache()


def _count(cache, event, amount=1):
    key = (cache, event)
    child = _CHILDREN.get(obs.registry, key)
    if child is None:
        child = _CHILDREN.put(
            key,
            obs.registry.counter(
                "repro_cache_events_total",
                "Memo and cache events, by cache and event.",
                labelnames=("cache", "event"),
            ).labels(cache=cache, event=event),
        )
    child.inc(amount)


class Memo:
    """A bounded dict with counters; ``None`` is never a stored value.

    *name* labels the memo's metrics and events; use a role (``auth``,
    ``resolver``), not a per-instance identity. A byte-bounded memo
    passes *max_bytes* and *sizeof*, a ``(key, value) -> int`` that
    :attr:`bytes` sums over the entries; an entry larger than the whole
    budget is never stored.
    """

    __slots__ = (
        "name",
        "limit",
        "max_bytes",
        "sizeof",
        "entries",
        "bytes",
        "hits",
        "misses",
        "evictions",
        "invalidations",
    )

    def __init__(self, name, limit, max_bytes=None, sizeof=None):
        self.name = name
        self.limit = limit
        self.max_bytes = max_bytes
        self.sizeof = sizeof
        self.entries = {}
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self):
        return len(self.entries)

    def get(self, key):
        """The value under *key*, or None; counted as a hit or a miss."""
        # count() written out: name interning alone takes ~70 000 of
        # these per scan-stream replica.
        value = self.entries.get(key)
        if value is None:
            self.misses += 1
            if obs.enabled:
                _count(self.name, "miss")
        else:
            self.hits += 1
            if obs.enabled:
                _count(self.name, "hit")
        return value

    def peek(self, key):
        """The value under *key*, or None; not counted."""
        return self.entries.get(key)

    def count(self, hit):
        """Count one lookup whose outcome the caller decided: a
        :meth:`peek` that must also pass a check of its own (a live
        TTL, a decodable query) before it is a hit or a miss."""
        if hit:
            self.hits += 1
            if obs.enabled:
                _count(self.name, "hit")
        else:
            self.misses += 1
            if obs.enabled:
                _count(self.name, "miss")

    def put(self, key, value):
        """Store *value* under *key*, first clearing a full table."""
        entries = self.entries
        sizeof = self.sizeof
        if sizeof is None:
            if len(entries) >= self.limit and key not in entries:
                self._evict()
            entries[key] = value
            return
        old = entries.pop(key, None)
        if old is not None:
            self.bytes -= sizeof(key, old)
        size = sizeof(key, value)
        if size > self.max_bytes:
            return
        if len(entries) >= self.limit or self.bytes + size > self.max_bytes:
            self._evict()
        entries[key] = value
        self.bytes += size

    def _evict(self):
        dropped = len(self.entries)
        self.entries.clear()
        self.bytes = 0
        self.evictions += dropped
        if obs.enabled:
            _count(self.name, "eviction", dropped)
        if obs.events:
            obs.emit("cache.evict", cache=self.name, reason="capacity", n=dropped)

    def clear(self):
        """Drop every entry; the counters keep their counts."""
        self.entries.clear()
        self.bytes = 0

    def invalidate(self):
        """Drop every entry because what they were built from changed."""
        self.clear()
        self.invalidations += 1
        if obs.enabled:
            _count(self.name, "invalidation")
        if obs.events:
            obs.emit("cache.invalidate", cache=self.name)
