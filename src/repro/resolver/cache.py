"""Resolver cache: client-facing verdicts and delegations.

TTL expiry runs on the simulated network clock so long scans age entries
realistically. The validating resolver keeps its verdicts here (keyed by
:func:`negative_key`) and the iterative engine its zone cuts (keyed by
:func:`delegation_key`). Per-zone DNSKEY validation is memoised apart, in
``ValidatingResolver._zone_security``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.dns.name import Name

#: Resolved (cache role, result) lookup counters for the get() hot path.
_LOOKUP_CHILDREN = obs.ChildCache()


@dataclass(slots=True)
class CacheEntry:
    value: object
    expires_ms: float


class Cache:
    """A TTL cache keyed by arbitrary tuples.

    *name* labels this cache's lookups in the metrics registry — use a
    role ("resolver", "infra"), not a per-instance identity, to keep
    label cardinality bounded.
    """

    def __init__(self, clock=lambda: 0.0, max_entries=500_000, name="cache"):
        self._store = {}
        self._clock = clock
        self.max_entries = max_entries
        self.name = name
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _now(self):
        return self._clock()

    def _count_lookup(self, result):
        key = (self.name, result)
        child = _LOOKUP_CHILDREN.get(obs.registry, key)
        if child is None:
            child = _LOOKUP_CHILDREN.put(
                key,
                obs.registry.counter(
                    "repro_cache_lookups_total",
                    "Cache lookups, by cache role and result.",
                    labelnames=("cache", "result"),
                ).labels(cache=self.name, result=result),
            )
        child.inc()

    def _count_evictions(self, reason, amount):
        self.evictions += amount
        if amount and obs.enabled:
            obs.registry.counter(
                "repro_cache_evictions_total",
                "Capacity evictions, by cache role and reason.",
                labelnames=("cache", "reason"),
            ).labels(cache=self.name, reason=reason).inc(amount)
        if amount and obs.events:
            obs.emit("cache.evict", cache=self.name, reason=reason, n=amount)

    def get(self, key):
        """The live entry for *key*, or None (expired entries are dropped)."""
        entry = self._store.get(key)
        if entry is None:
            self.misses += 1
            if obs.enabled:
                self._count_lookup("miss")
            return None
        if entry.expires_ms <= self._now():
            del self._store[key]
            self.misses += 1
            if obs.enabled:
                self._count_lookup("expired")
            return None
        self.hits += 1
        if obs.enabled:
            self._count_lookup("hit")
        return entry

    def peek(self, key):
        """The entry for *key* even when expired (RFC 8767 serve-stale reads).

        Does not drop expired entries and does not count toward the
        hit/miss statistics — the caller decides whether stale is usable.
        """
        return self._store.get(key)

    def put(self, key, value, ttl_seconds):
        """Store *value* for *ttl_seconds* of simulated time."""
        if len(self._store) >= self.max_entries:
            self._evict_expired()
            if len(self._store) >= self.max_entries:
                self._evict_oldest_batch()
        self._store[key] = CacheEntry(value, self._now() + ttl_seconds * 1000.0)

    def _evict_expired(self):
        now = self._now()
        dead = [key for key, entry in self._store.items() if entry.expires_ms <= now]
        for key in dead:
            del self._store[key]
        self._count_evictions("expired", len(dead))

    def _evict_oldest_batch(self):
        """Evict the ~5% of entries expiring soonest, restoring headroom.

        A full cache used to pay an O(n) single-``min`` scan on *every*
        subsequent put; batching drops that to one sort amortised over
        the next 5% of inserts. Deterministic: ties resolve to the
        earliest-inserted entry (``sorted`` is stable over insertion
        order).
        """
        target = self.max_entries - max(1, self.max_entries // 20)
        excess = len(self._store) - target
        oldest = sorted(self._store, key=lambda key: self._store[key].expires_ms)
        for key in oldest[:excess]:
            del self._store[key]
        self._count_evictions("overflow", excess)

    def drop(self, key):
        """Remove *key* if present; returns True when something was dropped."""
        return self._store.pop(key, None) is not None

    def __len__(self):
        return len(self._store)

    def clear(self):
        self._store.clear()

    @property
    def hit_rate(self):
        """Fraction of lookups served from cache since creation."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def negative_key(name, rrtype, checking_disabled=False):
    """The verdict-cache key for one client question.

    A verdict obtained with CD=1 was never validated, so it is kept
    apart and never answers a CD=0 question (RFC 4035 §4.7).
    """
    role = "neg-cd" if checking_disabled else "neg"
    return (role, Name.from_text(name), int(rrtype))


def delegation_key(zone):
    return ("delegation", Name.from_text(zone))
