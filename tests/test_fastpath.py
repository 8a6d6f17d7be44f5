"""Tests for the cost-model-preserving fast paths.

The memos, the packed-answer cache, CRT signing and the batched zone
signing are the only paths — nothing turns them off — so each is held
against the plain computation it stands in for, which stays in the tree
and is reachable without them. Three claims are load-bearing:

1. the fast paths change *nothing observable* — signatures, response
   bytes, and cost-meter charges equal the reference's: a factor-less
   RSA key (and ``cryptography``), ``verify_signature`` called directly,
   ``_compute_iterated_digest``, a server that has not seen the query,
   ``nsec3_hash`` per name, ``sign_rrset`` without a pre-bound signer;
2. the memo keys are sound — key rollovers, RRset edits, and zone
   mutations force real recomputation, and temporal RRSIG validity is
   re-checked on every validation (a memo hit must never resurrect an
   expired signature);
3. the caches are bounded, in entries and in bytes, with deterministic
   eviction.
"""

import random

import pytest

from repro import obs
from repro.crypto import rsa
from repro.crypto.keys import (
    ALG_ECDSAP256SHA256,
    ALG_RSASHA256,
    KeyPair,
    generate_keypair,
    verify_signature,
)
from repro.dns.edns import EdnsOption
from repro.dns.flags import Flag
from repro.dns.message import Message, Question, make_query
from repro.dns.name import Name
from repro.dns.rdata import A
from repro.dns.rdata.dnssec import RRSIG
from repro.dns.rdata.soa import SOA
from repro.dns.rrset import RRset
from repro.dns.types import RdataType
from repro.dnssec import nsec3hash
from repro.dnssec.costmodel import meter
from repro.dnssec.signer import (
    canonical_rrset_wire,
    make_rrsig_rrset,
    rrsig_signed_data,
    rrsig_signed_owner,
    sign_rrset,
)
from repro.dnssec.validator import (
    SecurityStatus,
    validate_rrset,
    verification_memo,
)
from repro.dns.packed import MAX_CACHEABLE_QUERY
from repro.server.authoritative import AuthoritativeServer
from repro.zone.builder import ZoneBuilder
from repro.zone.nsec3chain import Nsec3Params, build_nsec3_chain
from repro.zone.signing import SigningPolicy, sign_zone
from repro.zone.zone import Zone


@pytest.fixture(autouse=True)
def _clean_state():
    """Each test starts with an empty verification memo."""
    verification_memo.clear()
    verification_memo.hits = 0
    verification_memo.misses = 0
    yield
    verification_memo.clear()


# -- RSA CRT signing ---------------------------------------------------------


def _without_factors(key):
    """The same private key as ``(n, e, d)`` alone: the plain-``d`` path."""
    plain = rsa.RsaPrivateKey(key.n, key.e, key.d)
    assert plain.dp is None
    return plain


class TestRsaCrt:
    def test_crt_signature_byte_identical_to_plain_d(self):
        key = rsa.generate_rsa_key(512, rng=random.Random(7))
        assert key.dp is not None  # generated keys carry the factors
        message = b"the quick brown fox"
        via_crt = key.sign(message)
        assert via_crt == _without_factors(key).sign(message)
        assert via_crt == key.signer()(message)
        assert key.public().verify(message, via_crt)

    def test_crt_identical_across_hashes_and_keys(self):
        rng = random.Random(13)
        for bits in (512, 768):
            key = rsa.generate_rsa_key(bits, rng=rng)
            plain = _without_factors(key)
            for hash_name in ("sha1", "sha256"):
                message = f"msg-{bits}-{hash_name}".encode()
                expected = plain.sign(message, hash_name)
                assert key.sign(message, hash_name) == expected
                assert plain.signer(hash_name)(message) == expected

    def test_crt_signature_equals_cryptography_pkcs1v15(self):
        """The outside oracle: PKCS#1 v1.5 is deterministic, so OpenSSL
        must produce the very same bytes from the same private numbers."""
        pytest.importorskip("cryptography")
        from cryptography.hazmat.primitives import hashes
        from cryptography.hazmat.primitives.asymmetric import padding
        from cryptography.hazmat.primitives.asymmetric import rsa as oracle_rsa

        rng = random.Random(13)
        for bits in (512, 768):
            key = rsa.generate_rsa_key(bits, rng=rng)
            oracle = oracle_rsa.RSAPrivateNumbers(
                p=key.p, q=key.q, d=key.d, dmp1=key.dp, dmq1=key.dq, iqmp=key.qinv,
                public_numbers=oracle_rsa.RSAPublicNumbers(key.e, key.n),
            ).private_key()
            for hash_name, algorithm in (
                ("sha1", hashes.SHA1()), ("sha256", hashes.SHA256())
            ):
                message = f"msg-{bits}-{hash_name}".encode()
                assert key.sign(message, hash_name) == oracle.sign(
                    message, padding.PKCS1v15(), algorithm
                )

    def test_key_without_factors_falls_back(self):
        key = rsa.generate_rsa_key(512, rng=random.Random(21))
        assert _without_factors(key).sign(b"hello") == key.sign(b"hello")

    def test_dnssec_rsa_signatures_unchanged(self):
        """sign_rrset through a KeyPair produces identical RRSIGs."""
        pair = generate_keypair(ALG_RSASHA256, rsa_bits=512, rng=random.Random(3))
        plain = KeyPair(pair.algorithm, pair.flags, _without_factors(pair.private))
        rrset = RRset("www.example.com", RdataType.A, 300, [A("192.0.2.1")])
        fast = sign_rrset(rrset, pair, "example.com").signature
        assert fast == sign_rrset(rrset, plain, "example.com").signature


# -- the NSEC3 digest memo ---------------------------------------------------


class TestNsec3Memo:
    def test_memo_equals_the_plain_iteration_across_table_rolls(self, monkeypatch):
        monkeypatch.setattr(nsec3hash.digest_memo, "limit", 64)
        rng = random.Random(31)
        cases = [
            (
                rng.randbytes(rng.randrange(1, 64)),
                rng.randbytes(rng.randrange(0, 9)),
                rng.randrange(0, 40),
            )
            for __ in range(72)
        ]
        cases += [
            (b"\x04" + index.to_bytes(4, "big") + b"\x00", b"\x5a", 0)
            for index in range(72)
        ]
        # Each first call misses, and now and then rolls the full table;
        # each second call hits.
        evictions = nsec3hash.digest_memo.evictions
        for owner, salt, iterations in cases:
            expected = nsec3hash._compute_iterated_digest(owner, salt, iterations)
            assert nsec3hash.nsec3_hash(owner, salt, iterations) == expected
            assert nsec3hash.nsec3_hash(owner, salt, iterations) == expected
        assert len(nsec3hash.digest_memo) <= 64
        assert nsec3hash.digest_memo.evictions > evictions


# -- the RRSIG verification memo ---------------------------------------------


def _signed_rrset(pair, owner="www.example.com"):
    rrset = RRset(owner, RdataType.A, 300, [A("192.0.2.1")])
    rrsig = sign_rrset(rrset, pair, "example.com")
    return rrset, make_rrsig_rrset(rrset, [rrsig])


def _with_signature(rrsig, signature):
    return RRSIG(
        rrsig.type_covered, rrsig.algorithm, rrsig.labels, rrsig.original_ttl,
        rrsig.expiration, rrsig.inception, rrsig.key_tag, rrsig.signer,
        signature,
    )


class TestVerificationMemo:
    @pytest.fixture()
    def pair(self):
        return generate_keypair(ALG_ECDSAP256SHA256, rng=random.Random(5))

    def test_second_validation_hits(self, pair):
        rrset, rrsigs = _signed_rrset(pair)
        dnskeys = RRset("example.com", RdataType.DNSKEY, 3600, [pair.dnskey])
        assert validate_rrset(rrset, rrsigs, dnskeys).secure
        misses = verification_memo.misses
        assert validate_rrset(rrset, rrsigs, dnskeys).secure
        assert verification_memo.hits == 1
        assert verification_memo.misses == misses

    def test_key_rollover_misses(self, pair):
        """A new DNSKEY changes the memo key: no stale hit across rollover."""
        rrset, rrsigs = _signed_rrset(pair)
        dnskeys = RRset("example.com", RdataType.DNSKEY, 3600, [pair.dnskey])
        assert validate_rrset(rrset, rrsigs, dnskeys).secure
        rolled = generate_keypair(ALG_ECDSAP256SHA256, rng=random.Random(6))
        rrsig2 = sign_rrset(rrset, rolled, "example.com")
        rrsigs2 = make_rrsig_rrset(rrset, [rrsig2])
        dnskeys2 = RRset("example.com", RdataType.DNSKEY, 3600, [rolled.dnskey])
        before = verification_memo.hits
        assert validate_rrset(rrset, rrsigs2, dnskeys2).secure
        assert verification_memo.hits == before  # fresh key → real verification

    def test_memo_does_not_bypass_temporal_validity(self, pair):
        """An RRSIG cached as good must go BOGUS once its window passes."""
        rrset, rrsigs = _signed_rrset(pair)
        dnskeys = RRset("example.com", RdataType.DNSKEY, 3600, [pair.dnskey])
        assert validate_rrset(rrset, rrsigs, dnskeys).secure
        expired_now = rrsigs[0].expiration + 1
        result = validate_rrset(rrset, rrsigs, dnskeys, now=expired_now)
        assert result.status is SecurityStatus.BOGUS
        assert "validity window" in result.reason

    def test_negative_outcomes_are_cached_too(self, pair):
        rrset, rrsigs = _signed_rrset(pair)
        good = rrsigs[0]
        corrupt = _with_signature(good, bytes(len(good.signature)))
        rrsigs = make_rrsig_rrset(rrset, [corrupt])
        dnskeys = RRset("example.com", RdataType.DNSKEY, 3600, [pair.dnskey])
        assert validate_rrset(rrset, rrsigs, dnskeys).status is SecurityStatus.BOGUS
        before = verification_memo.hits
        assert validate_rrset(rrset, rrsigs, dnskeys).status is SecurityStatus.BOGUS
        assert verification_memo.hits == before + 1  # False is a valid memo value

    def test_hit_charges_meter_like_a_miss(self, pair):
        rrset, rrsigs = _signed_rrset(pair)
        dnskeys = RRset("example.com", RdataType.DNSKEY, 3600, [pair.dnskey])
        start = meter.snapshot()
        validate_rrset(rrset, rrsigs, dnskeys)
        miss_cost = meter.snapshot() - start
        start = meter.snapshot()
        validate_rrset(rrset, rrsigs, dnskeys)
        hit_cost = meter.snapshot() - start
        assert hit_cost == miss_cost
        assert hit_cost.signature_verifications == 1

    def test_rrset_mutation_invalidates(self, pair):
        """Growing the RRset changes the digest component of the key."""
        rrset, rrsigs = _signed_rrset(pair)
        dnskeys = RRset("example.com", RdataType.DNSKEY, 3600, [pair.dnskey])
        assert validate_rrset(rrset, rrsigs, dnskeys).secure
        rrset.add(A("192.0.2.99"))
        before = verification_memo.hits
        result = validate_rrset(rrset, rrsigs, dnskeys)
        assert result.status is SecurityStatus.BOGUS  # signature no longer covers it
        assert verification_memo.hits == before

    def test_bounded_eviction_clears(self, pair):
        rrset, rrsigs = _signed_rrset(pair)
        dnskeys = RRset("example.com", RdataType.DNSKEY, 3600, [pair.dnskey])
        old_limit = verification_memo.limit
        verification_memo.limit = 1
        try:
            validate_rrset(rrset, rrsigs, dnskeys)
            other, other_sigs = _signed_rrset(pair, owner="other.example.com")
            validate_rrset(other, other_sigs, dnskeys)
            assert verification_memo.evictions >= 1
            assert len(verification_memo.entries) <= 1
        finally:
            verification_memo.limit = old_limit

    def test_memo_outcomes_equal_direct_verification(self, pair):
        """Miss and hit alike report what ``verify_signature`` says."""
        rrset, rrsigs = _signed_rrset(pair)
        good = rrsigs[0]
        flipped = bytearray(good.signature)
        flipped[-1] ^= 0x01
        stranger = generate_keypair(ALG_ECDSAP256SHA256, rng=random.Random(6))
        cases = {
            "good": good,
            "tampered": _with_signature(good, bytes(flipped)),
            # Signed by another key under this key's tag.
            "wrong-key": _with_signature(
                good, stranger.sign(rrsig_signed_data(good, rrset))
            ),
        }
        dnskeys = RRset("example.com", RdataType.DNSKEY, 3600, [pair.dnskey])
        direct = {}
        for label, rrsig in cases.items():
            payload = canonical_rrset_wire(
                rrset, rrsig.original_ttl, owner=rrsig_signed_owner(rrsig, rrset)
            )
            direct[label] = verify_signature(
                pair.dnskey, rrsig.rdata_prefix() + payload, rrsig.signature
            )
            for __ in ("miss", "hit"):
                result = validate_rrset(
                    rrset, make_rrsig_rrset(rrset, [rrsig]), dnskeys
                )
                assert result.secure == direct[label], label
        assert direct == {"good": True, "tampered": False, "wrong-key": False}
        assert (verification_memo.misses, verification_memo.hits) == (3, 3)


# -- the packed answer cache -------------------------------------------------


def _build_server():
    rng = random.Random(17)
    zone = (
        ZoneBuilder("example.com")
        .soa("ns1.example.com", "h.example.com")
        .ns("ns1.example.com.")
        .a("ns1", "192.0.2.1")
        .a("www", "192.0.2.2")
        .build()
    )
    sign_zone(
        zone,
        SigningPolicy(nsec3=Nsec3Params(iterations=10, salt=b"\xab")),
        rng=rng,
    )
    server = AuthoritativeServer("cache-test")
    server.add_zone(zone)
    return server, zone


def _ask_wire(server, qname, qtype, msg_id, dnssec=True):
    query = make_query(qname, qtype, want_dnssec=dnssec, msg_id=msg_id)
    return server.handle_datagram(query.to_wire(), "198.51.100.9")


class TestAnswerCache:
    def test_hit_is_byte_identical_modulo_id(self):
        server, _ = _build_server()
        first = _ask_wire(server, "www.example.com", RdataType.A, msg_id=0x1111)
        assert server.answer_cache.misses == 1
        second = _ask_wire(server, "www.example.com", RdataType.A, msg_id=0x2222)
        assert server.answer_cache.hits == 1
        assert second[:2] == b"\x22\x22"
        assert second[2:] == first[2:]
        assert Message.from_wire(second).id == 0x2222

    def test_hit_replays_exact_charges(self):
        server, _ = _build_server()
        meter_start = meter.snapshot()
        _ask_wire(server, "nope.example.com", RdataType.A, msg_id=1)
        miss_cost = meter.snapshot() - meter_start
        assert miss_cost.nsec3_hashes > 0  # closest-encloser proof hashed
        meter_start = meter.snapshot()
        _ask_wire(server, "nope.example.com", RdataType.A, msg_id=2)
        hit_cost = meter.snapshot() - meter_start
        assert server.answer_cache.hits == 1
        assert hit_cost == miss_cost

    def test_distinct_questions_do_not_collide(self):
        server, _ = _build_server()
        a_wire = _ask_wire(server, "www.example.com", RdataType.A, msg_id=1)
        txt_wire = _ask_wire(server, "www.example.com", RdataType.TXT, msg_id=1)
        plain = _ask_wire(server, "www.example.com", RdataType.A, msg_id=1, dnssec=False)
        assert server.answer_cache.hits == 0
        assert len({a_wire, txt_wire, plain}) == 3

    def test_zone_serial_bump_invalidates(self):
        server, zone = _build_server()
        _ask_wire(server, "www.example.com", RdataType.A, msg_id=1)
        assert server.answer_cache.entries
        old_soa = zone.soa[0]
        bumped = SOA(
            old_soa.mname,
            old_soa.rname,
            old_soa.serial + 1,
            old_soa.refresh,
            old_soa.retry,
            old_soa.expire,
            old_soa.minimum,
        )
        zone.replace_rrset(RRset(zone.origin, RdataType.SOA, zone.soa.ttl, [bumped]))
        assert not server.answer_cache.entries
        response = Message.from_wire(
            _ask_wire(server, "example.com", RdataType.SOA, msg_id=2)
        )
        assert server.answer_cache.hits == 0  # recomputed, not served stale
        assert response.answer[0][0].serial == old_soa.serial + 1

    def test_any_zone_mutation_invalidates(self):
        server, zone = _build_server()
        _ask_wire(server, "www.example.com", RdataType.A, msg_id=1)
        assert server.answer_cache.entries
        zone.add("new.example.com", RdataType.A, 60, A("192.0.2.77"))
        assert not server.answer_cache.entries

    def test_cached_and_uncached_bytes_identical(self):
        """The core equivalence claim, at the datagram level: a server
        that has never seen the query takes the miss path, which is the
        server without a cache."""
        cached_server, _ = _build_server()
        qnames = [
            ("www.example.com", RdataType.A),
            ("www.example.com", RdataType.A),
            ("missing.example.com", RdataType.A),
            ("missing.example.com", RdataType.A),
            ("example.com", RdataType.SOA),
            ("www.example.com", RdataType.TXT),
        ]
        for index, (qname, qtype) in enumerate(qnames):
            fast = _ask_wire(cached_server, qname, qtype, msg_id=index)
            fresh_server, _ = _build_server()
            slow = _ask_wire(fresh_server, qname, qtype, msg_id=index)
            assert fresh_server.answer_cache.hits == 0
            assert fast == slow, (qname, qtype)
        assert cached_server.answer_cache.hits == 2

    def test_hit_does_not_decode_the_query(self, monkeypatch):
        server, _ = _build_server()
        plain_server, _ = _build_server()
        _ask_wire(server, "www.example.com", RdataType.A, msg_id=0x1111)
        again = make_query(
            "www.example.com", RdataType.A, want_dnssec=True, msg_id=0x2222
        ).to_wire()
        expected = plain_server.handle_datagram(again, "198.51.100.9")
        assert plain_server.answer_cache.hits == 0
        decodes = []
        real = Message.from_wire.__func__

        def counting(cls, wire):
            decodes.append(wire)
            return real(cls, wire)

        monkeypatch.setattr(Message, "from_wire", classmethod(counting))
        served = server.handle_datagram(again, "198.51.100.9")
        assert decodes == []
        assert server.answer_cache.hits == 1
        assert served == expected and type(served) is bytes
        # A bytearray datagram (what a socket frontend may hand over) hits too.
        assert server.handle_datagram(bytearray(again), "198.51.100.9") == expected
        assert decodes == [] and server.answer_cache.hits == 2

    @pytest.mark.parametrize("variant", ["cd-bit", "edns-option"])
    def test_bytes_the_old_key_ignored_get_their_own_entry(self, variant):
        server, _ = _build_server()
        base = make_query("www.example.com", RdataType.A, want_dnssec=True, msg_id=7)
        other = make_query("www.example.com", RdataType.A, want_dnssec=True, msg_id=7)
        if variant == "cd-bit":
            other.set_flag(Flag.CD)
        else:
            other.edns.options.append(EdnsOption(10, b"\x01" * 8))
        for query in (base, other, base, other):
            wire = query.to_wire()
            fresh_server, _ = _build_server()
            expected = fresh_server.handle_datagram(wire, "198.51.100.9")
            assert server.handle_datagram(wire, "198.51.100.9") == expected
        assert len(server.answer_cache.entries) == 2
        assert (server.answer_cache.misses, server.answer_cache.hits) == (2, 2)

    def test_uncacheable_datagrams_store_nothing(self):
        server, _ = _build_server()
        axfr = make_query("example.com", RdataType.AXFR, msg_id=1)  # refused, not cached
        two_questions = make_query("www.example.com", RdataType.A, msg_id=2)
        two_questions.question.append(Question("example.com", RdataType.SOA))
        is_response = make_query("www.example.com", RdataType.A, msg_id=3)
        is_response.set_flag(Flag.QR)
        for query in (axfr, two_questions, is_response):
            for via_tcp in (False, True):
                for __ in range(2):
                    assert server.handle_datagram(
                        query.to_wire(), "198.51.100.9", via_tcp=via_tcp
                    )
        for garbage in (b"", b"\x00", b"\xff" * 40, axfr.to_wire()[:-3]):
            for __ in range(2):
                assert server.handle_datagram(garbage, "198.51.100.9") is None
        assert not server.answer_cache.entries
        assert (server.answer_cache.misses, server.answer_cache.hits) == (0, 0)

    def test_tcp_and_udp_cached_separately(self):
        server, _ = _build_server()
        query = make_query("www.example.com", RdataType.A, want_dnssec=True, msg_id=9)
        udp = server.handle_datagram(query.to_wire(), "203.0.113.5")
        tcp = server.handle_datagram(query.to_wire(), "203.0.113.5", via_tcp=True)
        assert server.answer_cache.hits == 0
        assert len(server.answer_cache.entries) == 2
        assert udp is not None and tcp is not None

    def test_padded_queries_cannot_grow_the_cache_past_its_bytes(self):
        """The key is the client's own bytes: one query with a 60 000-octet
        EDNS option would be stored under a 60 046-byte key, and 8 192 of
        them would hold half a gigabyte. Queries over the constant are
        answered, never keyed."""
        server, _ = _build_server()
        # Sees every (distinct) query once, so it always answers from the
        # miss path: for each query it is a server that never cached it.
        reference, _ = _build_server()
        reference.answer_cache.limit = 1
        cache = server.answer_cache

        def padded(index, size):
            query = make_query(
                "www.example.com", RdataType.A, want_dnssec=True, msg_id=index & 0xFFFF
            )
            query.edns.options.append(
                EdnsOption(12, index.to_bytes(4, "big") + bytes(size - 4))
            )
            return query.to_wire()

        bare = len(padded(0, 4)) - 4
        small = MAX_CACHEABLE_QUERY - bare  # the longest padding still keyed
        cacheable = oversize = 0
        for index in range(10_000):
            if index % 10:
                size = small - index % 7
            else:
                size = (small + 1, small + 200, 60_000)[index // 10 % 3]
            wire = padded(index, size)
            via_tcp = bool(index & 1)
            if len(wire) <= MAX_CACHEABLE_QUERY:
                cacheable += 1
            else:
                oversize += 1
            served = server.handle_datagram(wire, "198.51.100.9", via_tcp=via_tcp)
            assert served == reference.handle_datagram(
                wire, "198.51.100.9", via_tcp=via_tcp
            )
            if not index % 10:
                # Asked again, an oversize query is recomputed, not served.
                assert served == server.handle_datagram(
                    wire, "198.51.100.9", via_tcp=via_tcp
                )
        assert (cacheable, oversize) == (9_000, 1_000)
        assert (cache.misses, cache.hits) == (cacheable, 0)
        assert max(len(key) + 2 for key, __ in cache.entries) == MAX_CACHEABLE_QUERY


# -- batched zone signing ----------------------------------------------------


class TestZoneSigningBatches:
    def _unsigned_zone(self):
        builder = (
            ZoneBuilder("example.com")
            .soa("ns1.example.com", "h.example.com")
            .ns("ns1.example.com.")
            .a("ns1", "192.0.2.1")
        )
        for index in range(6):
            builder.a(f"host-{index}.deep", f"192.0.2.{10 + index}")
        return builder.build()

    def test_traced_chain_build_hashes_per_name_to_the_same_chain(self):
        """``build_nsec3_chain`` hashes a zone in one batch, or name by
        name (a span each) while a tracer records: same chain, same bill."""
        zone = self._unsigned_zone()
        params = Nsec3Params(iterations=7, salt=b"\xab\xcd")

        def build():
            before = meter.snapshot()
            chain = build_nsec3_chain(zone, params)
            links = [
                (e.owner_hash, e.owner_name, e.source_name, e.rdata.to_wire())
                for e in chain.entries
            ]
            return links, meter.snapshot() - before

        batched, batched_cost = build()
        obs.enable(tracing_spans=True)
        try:
            with obs.span("build") as root:
                traced, traced_cost = build()
        finally:
            obs.disable()
            obs.reset()
        hash_spans = [span for span in root.walk() if span.name == "nsec3.hash"]
        assert len(hash_spans) == len(traced) > 6
        assert traced == batched
        assert traced_cost == batched_cost
        assert batched_cost.nsec3_hashes == len(batched)

    def test_zone_signatures_equal_sign_rrset_without_a_bound_signer(self):
        """``sign_zone`` signs through ``KeyPair.bulk_signer`` closures;
        ``sign_rrset`` on its own dispatches through ``KeyPair.sign``."""
        zone = self._unsigned_zone()
        policy = SigningPolicy(
            nsec3=Nsec3Params(iterations=2, salt=b"\x01"),
            algorithm=ALG_RSASHA256,
            rsa_bits=512,
        )
        sign_zone(zone, policy, rng=random.Random(23))
        ksk, zsk = zone.keys
        assert len(zone.rrsigs) > 10
        for (name, covered), rrsigs in zone.rrsigs.items():
            key = ksk if covered == int(RdataType.DNSKEY) else zsk
            inception, expiration = policy.signature_window(covered)
            (rrsig,) = rrsigs
            assert rrsig == sign_rrset(
                zone.get_rrset(name, covered), key, zone.origin,
                inception=inception, expiration=expiration, now=policy.now,
            ), (name, covered)


# -- zone-side index structures ----------------------------------------------


class TestZoneIndexes:
    def test_name_exists_matches_linear_reference(self):
        zone = Zone("example.com")
        zone.add("example.com", RdataType.NS, 300, A("192.0.2.1"))
        for host in ("a.b.c", "a.b", "z", "deep.empty.nonterminal.sub"):
            zone.add(f"{host}.example.com", RdataType.A, 300, A("192.0.2.2"))

        def linear_exists(qname):
            if qname in zone.nodes:
                return True
            return any(name.is_subdomain_of(qname) for name in zone.nodes)

        probes = [
            "example.com", "b.c.example.com", "c.example.com",
            "a.b.c.example.com", "x.a.b.c.example.com", "ghost.example.com",
            "empty.nonterminal.sub.example.com", "nonterminal.sub.example.com",
            "sub.example.com", "aa.example.com", "zz.example.com",
        ]
        for probe in probes:
            qname = Name.from_text(probe)
            assert zone._name_exists(qname) == linear_exists(qname), probe

    def test_existence_index_refreshes_after_mutation(self):
        zone = Zone("example.com")
        zone.add("www.example.com", RdataType.A, 300, A("192.0.2.2"))
        ghost = Name.from_text("late.example.com")
        assert not zone._name_exists(ghost)
        zone.add("deep.late.example.com", RdataType.A, 300, A("192.0.2.3"))
        assert zone._name_exists(ghost)  # now an empty non-terminal

    def test_zone_for_longest_suffix(self):
        parent = Zone("com")
        parent.add("com", RdataType.NS, 300, A("192.0.2.1"))
        child = Zone("example.com")
        child.add("example.com", RdataType.NS, 300, A("192.0.2.2"))
        server = AuthoritativeServer("multi")
        server.add_zone(parent).add_zone(child)
        assert server.zone_for("www.example.com") is child
        assert server.zone_for("example.com") is child
        assert server.zone_for("other.com") is parent
        assert server.zone_for("com") is parent
        assert server.zone_for("org") is None
