"""The bounded-memo primitive: clear-on-full by entries and by bytes,
and counters that survive ``clear`` and ``invalidate``."""

import pytest

from repro import obs
from repro.memo import Memo
from repro.obs.events import EventJournal
from repro.obs.timeseries import family_sum


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.attach_journal(None)
    obs.reset()
    yield
    obs.disable()
    obs.attach_journal(None)
    obs.reset()


def _sized(limit, max_bytes):
    return Memo("packet", limit, max_bytes=max_bytes, sizeof=lambda k, v: len(k) + len(v))


def test_full_table_is_cleared_before_the_next_put():
    memo = Memo("auth", 2)
    memo.put("a", 1)
    memo.put("b", 2)
    memo.put("b", 3)  # an overwrite of a full table evicts nothing
    assert (dict(memo.entries), memo.evictions) == ({"a": 1, "b": 3}, 0)
    memo.put("c", 4)
    assert (dict(memo.entries), memo.evictions) == ({"c": 4}, 2)


def test_lookups_count_hits_and_misses_but_peek_does_not():
    memo = Memo("names", 4)
    memo.put("a", False)  # a falsy value is still a stored value
    assert memo.get("a") is False
    assert memo.get("b") is None
    assert memo.peek("a") is False and memo.peek("b") is None
    memo.count(True)
    memo.count(False)
    assert (memo.hits, memo.misses) == (2, 2)


def test_byte_bound_clears_and_keeps_bytes_exact():
    memo = _sized(limit=100, max_bytes=10_000)
    keys = [bytes([index]) * 100 for index in range(6)]
    for key in keys[:4]:
        memo.put(key, bytes(2_400))  # 2 500 bytes each
    assert (memo.bytes, memo.evictions) == (10_000, 0)
    memo.put(keys[0], bytes(1_400))  # an overwrite refunds the old size
    assert (memo.bytes, memo.evictions) == (9_000, 0)
    memo.put(keys[4], bytes(4_900))  # 5 000 more would cross the budget
    assert (list(memo.entries), memo.bytes, memo.evictions) == ([keys[4]], 5_000, 4)


def test_an_entry_larger_than_the_budget_is_never_stored():
    memo = _sized(limit=100, max_bytes=10_000)
    memo.put(b"k", b"small")
    memo.put(b"big", bytes(20_000))
    assert b"big" not in memo.entries
    memo.put(b"k", bytes(20_000))  # nor does it leave the old value behind
    assert (dict(memo.entries), memo.bytes, memo.evictions) == ({}, 0, 0)


def test_counters_survive_clear_and_invalidate():
    memo = _sized(limit=1, max_bytes=1_000)
    memo.put(b"a", b"1")
    memo.put(b"b", b"2")
    memo.get(b"b")
    memo.get(b"a")
    memo.clear()
    assert (len(memo), memo.bytes) == (0, 0)
    memo.put(b"c", b"3")
    memo.invalidate()
    assert (len(memo), memo.bytes) == (0, 0)
    assert (memo.hits, memo.misses, memo.evictions, memo.invalidations) == (1, 1, 1, 1)


def test_events_reach_one_metric_family_and_the_journal():
    obs.enable()
    journal = obs.attach_journal(EventJournal())
    memo = Memo("verify", 1)
    memo.put("a", 1)
    memo.get("a")
    memo.get("b")
    memo.put("b", 2)
    memo.invalidate()
    counted = {
        event: family_sum(
            obs.registry, "repro_cache_events_total", cache="verify", event=event
        )
        for event in ("hit", "miss", "eviction", "invalidation")
    }
    assert counted == {"hit": 1, "miss": 1, "eviction": 1, "invalidation": 1}
    assert [(e.kind, e.fields) for e in journal.tail()] == [
        ("cache.evict", {"cache": "verify", "reason": "capacity", "n": 1}),
        ("cache.invalidate", {"cache": "verify"}),
    ]
