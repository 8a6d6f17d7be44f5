"""Tests for the cross-process signed-zone build cache.

The cache must be observably transparent: a load mutates the zone and
charges the cost model exactly like the cold sign it replaces, and any
change to the inputs (zone content, signing policy, key material, cache
schema) must change the fingerprint so stale artifacts are unreachable.
A cache that cannot be written counts ``error`` and signs uncached.
Damaged entries are fuzzed at every byte offset, beside the journal, in
``tests/test_campaign.py::TestJournalFuzz``.
"""

import multiprocessing
import random

import pytest

from repro.crypto.keys import ALG_ECDSAP256SHA256, generate_keypair
from repro.dnssec.costmodel import meter
from repro.dnssec.signer import canonical_rrset_wire
from repro.testbed.internet import KeyPool, _pooled_keys
from repro.zone import build_cache, signing
from repro.zone.builder import ZoneBuilder
from repro.zone.nsec3chain import Nsec3Params
from repro.zone.signing import SigningPolicy, _zone_fingerprint, sign_zone


def _build_zone(n_hosts=6, extra=None):
    builder = (
        ZoneBuilder("cache-test.example")
        .soa("ns1.cache-test.example", "h.cache-test.example")
        .ns("ns1.cache-test.example.")
        .a("ns1", "192.0.2.53")
    )
    for index in range(n_hosts):
        builder.a(f"host-{index}", f"192.0.2.{10 + index}")
    if extra is not None:
        builder.a(extra, "192.0.2.200")
    return builder.build()


def _keys(seed=11):
    rng = random.Random(seed)
    ksk = generate_keypair(ALG_ECDSAP256SHA256, ksk=True, rng=rng)
    zsk = generate_keypair(ALG_ECDSAP256SHA256, ksk=False, rng=rng)
    return ksk, zsk


def _policy(**overrides):
    overrides.setdefault("nsec3", Nsec3Params(iterations=5, salt=b"\xca\xfe"))
    return SigningPolicy(**overrides)


def _dnssec_dump(zone):
    """Every RRset and RRSIG of *zone* as one canonical byte string."""
    parts = [canonical_rrset_wire(rrset) for rrset in zone.all_rrsets()]
    for (name, covered), rrset in sorted(
        zone.rrsigs.items(), key=lambda item: (str(item[0][0]), item[0][1])
    ):
        parts.append(canonical_rrset_wire(rrset))
    return b"".join(parts)


@pytest.fixture
def cache(tmp_path):
    handle = build_cache.activate(str(tmp_path / "build-cache"))
    yield handle
    build_cache.deactivate()


class TestRoundTrip:
    def test_load_is_byte_and_cost_identical_to_cold_sign(self, cache, monkeypatch):
        ksk, zsk = _keys()
        fired = []
        signing.zone_signed_listener = fired.append
        try:
            # The reference: no cache at all, a run without --state-dir.
            with monkeypatch.context() as patch:
                patch.setattr(build_cache, "_active", None)
                plain = _build_zone()
                before = meter.snapshot()
                sign_zone(plain, _policy(), ksk=ksk, zsk=zsk)
                plain_delta = meter.snapshot() - before
            assert cache.events == {}  # never consulted

            cold = _build_zone()
            before = meter.snapshot()
            sign_zone(cold, _policy(), ksk=ksk, zsk=zsk)
            cold_delta = meter.snapshot() - before

            warm = _build_zone()
            before = meter.snapshot()
            sign_zone(warm, _policy(), ksk=ksk, zsk=zsk)
            warm_delta = meter.snapshot() - before
        finally:
            signing.zone_signed_listener = None

        assert cache.events == {"miss": 1, "store": 1, "hit": 1, "load": 1}
        assert _dnssec_dump(warm) == _dnssec_dump(cold) == _dnssec_dump(plain)
        # Generation-keyed caches (packed answers) must see the same
        # mutation count either way.
        assert warm.generation == cold.generation == plain.generation
        # A load charges the meter like the rebuild it replaces.
        assert warm_delta == cold_delta == plain_delta
        assert len(fired) == 3  # listener fires on every sign and on load

    def test_nsec_zone_round_trips(self, cache):
        ksk, zsk = _keys()
        cold = _build_zone()
        sign_zone(cold, _policy(nsec3=None), ksk=ksk, zsk=zsk)
        warm = _build_zone()
        sign_zone(warm, _policy(nsec3=None), ksk=ksk, zsk=zsk)
        assert cache.events["hit"] == 1
        assert _dnssec_dump(warm) == _dnssec_dump(cold)
        assert warm.nsec_chain is not None and warm.nsec3_chain is None


class TestInvalidation:
    def test_every_input_change_invalidates_the_key(self, cache):
        ksk, zsk = _keys()
        base = _build_zone()
        fingerprints = {_zone_fingerprint(base, _policy(), ksk, zsk)}

        variants = [
            (_build_zone(extra="added"), _policy(), ksk, zsk),  # zone content
            (_build_zone(), _policy(nsec3=Nsec3Params(iterations=6, salt=b"\xca\xfe")), ksk, zsk),
            (_build_zone(), _policy(nsec3=Nsec3Params(iterations=5, salt=b"\xca\xff")), ksk, zsk),
            (_build_zone(), _policy(nsec3=Nsec3Params(iterations=5, salt=b"\xca\xfe", opt_out=True)), ksk, zsk),
            (_build_zone(), _policy(expired=True), ksk, zsk),
            (_build_zone(), _policy(expired_nsec3_only=True), ksk, zsk),
            (_build_zone(), _policy(), *_keys(seed=12)),  # key material
        ]
        for zone, policy, k, z in variants:
            fingerprints.add(_zone_fingerprint(zone, policy, k, z))
        assert len(fingerprints) == 1 + len(variants)

        # And end to end: every variant is a miss that signs and stores.
        sign_zone(base, _policy(), ksk=ksk, zsk=zsk)
        for zone, policy, k, z in variants:
            sign_zone(zone, policy, ksk=k, zsk=z)
        assert cache.events["miss"] == 1 + len(variants)
        assert "hit" not in cache.events

    def test_seed_reaches_the_key_through_zone_content(self, cache):
        # The testbed's zones draw their records from a seeded rng; two
        # seeds produce different content and therefore different keys.
        ksk, zsk = _keys()
        zones = []
        for seed in (3, 4):
            rng = random.Random(seed)
            builder = ZoneBuilder("seeded.example").soa(
                "ns1.seeded.example", "h.seeded.example"
            ).ns("ns1.seeded.example.")
            for index in range(4):
                builder.a(f"h{index}", f"192.0.2.{rng.randrange(1, 250)}")
            zones.append(builder.build())
        fp_a = _zone_fingerprint(zones[0], _policy(), ksk, zsk)
        fp_b = _zone_fingerprint(zones[1], _policy(), ksk, zsk)
        assert fp_a != fp_b

    def test_schema_version_bump_invalidates(self, cache, monkeypatch):
        ksk, zsk = _keys()
        sign_zone(_build_zone(), _policy(), ksk=ksk, zsk=zsk)
        assert cache.events == {"miss": 1, "store": 1}
        monkeypatch.setattr(build_cache, "SCHEMA_VERSION", build_cache.SCHEMA_VERSION + 1)
        sign_zone(_build_zone(), _policy(), ksk=ksk, zsk=zsk)
        assert cache.events["miss"] == 2
        assert "hit" not in cache.events


class TestUnwritableCache:
    def test_failed_activation_and_stores_count_errors_and_sign_uncached(
        self, tmp_path
    ):
        # The state dir is a file: no directory, no lock, no entry can be
        # made. Every failure is counted; the signed zone is the same.
        (tmp_path / "state").write_text("not a directory")
        cache = build_cache.activate(str(tmp_path / "state" / "build-cache"))
        try:
            ksk, zsk = _keys()
            zone = _build_zone()
            sign_zone(zone, _policy(), ksk=ksk, zsk=zsk)
        finally:
            build_cache.deactivate()
        plain = _build_zone()
        sign_zone(plain, _policy(), ksk=ksk, zsk=zsk)
        # activation, the load before and after the lock, the lock file,
        # the store
        assert cache.events == {"error": 5, "miss": 1}
        assert cache.summary() == "miss:1,error:5"
        assert _dnssec_dump(zone) == _dnssec_dump(plain)


class TestKeyPool:
    def test_pool_material_round_trips_to_identical_keys(self, cache):
        first = _pooled_keys(seed=5, size=2)
        second = _pooled_keys(seed=5, size=2)
        assert cache.events == {"miss": 1, "store": 1, "hit": 1, "load": 1}
        for name in ("alpha.example", "beta.example"):
            for a, b in zip(first.pair_for(name), second.pair_for(name)):
                assert a.dnskey.to_wire() == b.dnskey.to_wire()
                # CRT factors survive, so the rebuilt pool signs fast
                # *and* identically.
                assert a.sign(b"probe") == b.sign(b"probe")
        # Same seed ⇒ same keys, with or without a state directory.
        cache_free = KeyPool(size=2, seed=5).material()
        assert first.material() == second.material() == cache_free

    def test_schema_1_entry_is_never_loaded(self, cache, monkeypatch):
        """A state directory written before the prime search changed holds
        old-recipe keys under the same ``size|algorithm|rsa_bits|seed``."""
        assert build_cache.SCHEMA_VERSION >= 2
        with monkeypatch.context() as patch:
            patch.setattr(build_cache, "SCHEMA_VERSION", 1)
            _pooled_keys(seed=5, size=2)
            _pooled_keys(seed=5, size=2)
        assert cache.events == {"miss": 1, "store": 1, "hit": 1, "load": 1}  # reachable under 1
        pool = _pooled_keys(seed=5, size=2)
        assert cache.events["miss"] == 2 and cache.events["hit"] == 1
        assert pool.material() == KeyPool(size=2, seed=5).material()

    def test_seed_change_misses(self, cache):
        _pooled_keys(seed=5, size=2)
        _pooled_keys(seed=6, size=2)
        assert cache.events["miss"] == 2
        assert "hit" not in cache.events


def _race_worker(cache_dir, out_path):
    """Spawn target: sign the shared test zone against the shared cache."""
    from repro.zone import build_cache as child_cache

    child_cache.activate(cache_dir)
    zone = _build_zone(n_hosts=12)
    ksk, zsk = _keys()
    sign_zone(zone, _policy(), ksk=ksk, zsk=zsk)
    with open(out_path, "wb") as handle:
        handle.write(_dnssec_dump(zone).hex().encode("ascii"))


class TestRace:
    def test_racing_processes_converge_to_identical_bytes(self, tmp_path):
        cache_dir = str(tmp_path / "build-cache")
        outs = [str(tmp_path / f"worker-{index}.out") for index in range(2)]
        ctx = multiprocessing.get_context("spawn")
        procs = [
            ctx.Process(target=_race_worker, args=(cache_dir, out))
            for out in outs
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        dumps = [open(out, "rb").read() for out in outs]
        assert dumps[0] and dumps[0] == dumps[1]
        # Exactly one signed-zone entry: the loser loaded, not re-stored.
        import os

        entries = [
            name
            for name in os.listdir(cache_dir)
            if name.startswith("zone-") and name.endswith(".entry")
        ]
        assert len(entries) == 1
