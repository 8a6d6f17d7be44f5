"""Resolver cache: client-facing verdicts and delegations.

TTL expiry runs on the simulated network clock so long scans age entries
realistically. The validating resolver keeps its verdicts here (keyed by
:func:`negative_key`) and the iterative engine its zone cuts (keyed by
:func:`delegation_key`). Per-zone DNSKEY validation is memoised apart, in
``ValidatingResolver._zone_security``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dns.name import Name
from repro.memo import Memo


@dataclass(slots=True)
class CacheEntry:
    value: object
    expires_ms: float


class Cache(Memo):
    """A TTL cache keyed by arbitrary tuples: a :class:`Memo` of
    :class:`CacheEntry` whose lookups also check expiry. :meth:`peek`
    returns an entry even when it has expired (RFC 8767 serve-stale
    reads), uncounted: the caller decides whether stale is usable.
    """

    __slots__ = ("_clock",)

    def __init__(self, clock=lambda: 0.0, max_entries=500_000, name="cache"):
        super().__init__(name, max_entries)
        self._clock = clock

    def get(self, key):
        """The live entry for *key*, or None (an expired entry is dropped
        and counts as a miss)."""
        entry = self.entries.get(key)
        if entry is not None and entry.expires_ms <= self._clock():
            del self.entries[key]
            entry = None
        self.count(entry is not None)
        return entry

    def put(self, key, value, ttl_seconds):
        """Store *value* for *ttl_seconds* of simulated time."""
        super().put(key, CacheEntry(value, self._clock() + ttl_seconds * 1000.0))

    def drop(self, key):
        """Remove *key* if present; returns True when something was dropped."""
        return self.entries.pop(key, None) is not None

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
