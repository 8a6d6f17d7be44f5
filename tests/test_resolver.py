"""Tests for iterative resolution and the validating resolver core.

Uses the session-scoped ``mini_internet`` fixture: root → com →
example.com (NSEC3, 5 iterations) plus an unsigned.com insecure
delegation.
"""

import pytest

from repro.dns.flags import Flag
from repro.dns.message import Message, make_query
from repro.dns.rcode import Rcode
from repro.dns.types import RdataType
from repro.dnssec.validator import SecurityStatus
from repro.resolver.cache import Cache
from repro.resolver.iterative import IterativeResolver
from repro.resolver.policy import RFC5155_MAX_ITERATIONS, VENDOR_POLICIES, Nsec3Policy
from repro.resolver.stub import StubClient
from repro.resolver.validating import ValidatingResolver


def fresh_resolver(mini, policy=None, validate=True, ip=None):
    net = mini["network"]
    ip = ip or f"198.51.100.{fresh_resolver.counter}"
    fresh_resolver.counter += 1
    resolver = ValidatingResolver(
        net,
        ip,
        mini["root_addresses"],
        mini["trust_anchor"],
        policy=policy or Nsec3Policy(),
        validate=validate,
    )
    net.attach(ip, resolver)
    return resolver


fresh_resolver.counter = 100


class TestIterative:
    def test_walks_delegations(self, mini_internet):
        engine = IterativeResolver(
            mini_internet["network"], "203.0.113.50", mini_internet["root_addresses"]
        )
        outcome = engine.resolve("www.example.com", RdataType.A)
        assert outcome.ok
        assert outcome.auth_zone.to_text() == "example.com."
        assert [cut.zone.to_text() for cut in outcome.cuts] == ["com.", "example.com."]

    def test_referral_carries_ds(self, mini_internet):
        engine = IterativeResolver(
            mini_internet["network"], "203.0.113.51", mini_internet["root_addresses"]
        )
        outcome = engine.resolve("www.example.com", RdataType.A)
        assert outcome.cuts[0].ds_rrset is not None
        assert outcome.cuts[1].ds_rrset is not None

    def test_delegation_cache_reused(self, mini_internet):
        engine = IterativeResolver(
            mini_internet["network"], "203.0.113.52", mini_internet["root_addresses"]
        )
        engine.resolve("www.example.com", RdataType.A)
        first = engine.queries_sent
        engine.resolve("info.example.com", RdataType.TXT)
        assert engine.queries_sent - first == 1  # straight to example.com

    def test_ds_query_goes_to_parent(self, mini_internet):
        engine = IterativeResolver(
            mini_internet["network"], "203.0.113.53", mini_internet["root_addresses"]
        )
        engine.resolve("www.example.com", RdataType.A)  # warm delegation cache
        outcome = engine.resolve("example.com", RdataType.DS)
        assert outcome.ok
        ds = outcome.response.find_rrset(
            outcome.response.answer, "example.com", RdataType.DS
        )
        assert ds is not None

    def test_unresolvable_name_fails(self, mini_internet):
        engine = IterativeResolver(
            mini_internet["network"], "203.0.113.54", ["203.0.113.250"]
        )
        outcome = engine.resolve("www.example.com", RdataType.A)
        assert not outcome.ok
        assert "answered" in outcome.failure


class TestValidation:
    def test_secure_answer_sets_ad(self, mini_internet):
        resolver = fresh_resolver(mini_internet)
        verdict = resolver.resolve_and_validate("www.example.com", RdataType.A)
        assert verdict.rcode == Rcode.NOERROR
        assert verdict.ad

    def test_zone_security_chain(self, mini_internet):
        resolver = fresh_resolver(mini_internet)
        assert resolver.zone_security(".")[0] is SecurityStatus.SECURE
        assert resolver.zone_security("com")[0] is SecurityStatus.SECURE
        assert resolver.zone_security("example.com")[0] is SecurityStatus.SECURE

    def test_insecure_delegation(self, mini_internet):
        resolver = fresh_resolver(mini_internet)
        status, __ = resolver.zone_security("unsigned.com")
        assert status is SecurityStatus.INSECURE
        verdict = resolver.resolve_and_validate("www.unsigned.com", RdataType.A)
        assert verdict.rcode == Rcode.NOERROR
        assert not verdict.ad

    def test_secure_nxdomain(self, mini_internet):
        resolver = fresh_resolver(mini_internet)
        verdict = resolver.resolve_and_validate("ghost.example.com", RdataType.A)
        assert verdict.rcode == Rcode.NXDOMAIN
        assert verdict.ad

    def test_secure_nodata(self, mini_internet):
        resolver = fresh_resolver(mini_internet)
        verdict = resolver.resolve_and_validate("www.example.com", RdataType.AAAA)
        assert verdict.rcode == Rcode.NOERROR and not verdict.answer
        assert verdict.ad

    def test_wildcard_answer_validates(self, mini_internet):
        resolver = fresh_resolver(mini_internet)
        verdict = resolver.resolve_and_validate(
            "unique123.wild.example.com", RdataType.A
        )
        assert verdict.rcode == Rcode.NOERROR
        assert verdict.ad

    def test_non_validating_never_sets_ad(self, mini_internet):
        resolver = fresh_resolver(mini_internet, validate=False)
        verdict = resolver.resolve_and_validate("www.example.com", RdataType.A)
        assert verdict.rcode == Rcode.NOERROR
        assert not verdict.ad

    def test_checking_disabled_skips_validation(self, mini_internet):
        resolver = fresh_resolver(mini_internet)
        verdict = resolver.resolve_and_validate(
            "www.example.com", RdataType.A, checking_disabled=True
        )
        assert verdict.rcode == Rcode.NOERROR
        assert not verdict.ad

    def test_verdict_cached(self, mini_internet):
        resolver = fresh_resolver(mini_internet)
        resolver.resolve_and_validate("cacheme.example.com", RdataType.A)
        sent = resolver.engine.queries_sent
        resolver.resolve_and_validate("cacheme.example.com", RdataType.A)
        assert resolver.engine.queries_sent == sent


class TestDatagramInterface:
    def test_rd_required(self, mini_internet):
        resolver = fresh_resolver(mini_internet)
        query = make_query("www.example.com", RdataType.A, recursion_desired=False)
        response = Message.from_wire(
            resolver.handle_datagram(query.to_wire(), "203.0.113.60")
        )
        assert response.rcode == Rcode.REFUSED

    def test_ra_set(self, mini_internet):
        resolver = fresh_resolver(mini_internet)
        stub = StubClient(mini_internet["network"], "203.0.113.61")
        answer = stub.ask(resolver.ip, "www.example.com", RdataType.A)
        assert answer.ra

    def test_dnssec_records_stripped_without_do(self, mini_internet):
        resolver = fresh_resolver(mini_internet)
        stub = StubClient(mini_internet["network"], "203.0.113.62")
        answer = stub.ask(
            resolver.ip, "stripped.example.com", RdataType.A, want_dnssec=False
        )
        assert answer.rcode == Rcode.NXDOMAIN
        assert not any(
            int(rrset.rrtype) in (int(RdataType.NSEC3), int(RdataType.RRSIG))
            for rrset in answer.authority
        )

    def test_garbage_ignored(self, mini_internet):
        resolver = fresh_resolver(mini_internet)
        assert resolver.handle_datagram(b"nonsense", "1.2.3.4") is None


class TestPolicyGate:
    """The example.com zone uses 5 iterations: above a strict threshold."""

    def test_strict_policy_servfails(self, mini_internet):
        resolver = fresh_resolver(mini_internet, VENDOR_POLICIES["strict-rfc9276"])
        verdict = resolver.resolve_and_validate("nope.example.com", RdataType.A)
        assert verdict.rcode == Rcode.SERVFAIL
        assert any(code == 27 for code, __ in verdict.ede)

    def test_low_insecure_policy_clears_ad(self, mini_internet):
        policy = Nsec3Policy(name="tiny", insecure_above=2)
        resolver = fresh_resolver(mini_internet, policy)
        verdict = resolver.resolve_and_validate("nada.example.com", RdataType.A)
        assert verdict.rcode == Rcode.NXDOMAIN
        assert not verdict.ad

    def test_permissive_policy_keeps_ad(self, mini_internet):
        resolver = fresh_resolver(mini_internet, VENDOR_POLICIES["bind9-2021"])
        verdict = resolver.resolve_and_validate("zilch.example.com", RdataType.A)
        assert verdict.rcode == Rcode.NXDOMAIN
        assert verdict.ad

    def test_rfc5155_ceiling_applies_without_a_limit(self):
        """RFC 5155 §10.3 caps iterations at 2 500: past that, even a
        resolver with no RFC 9276 limit treats the answer as insecure."""
        legacy = VENDOR_POLICIES["legacy"]
        assert legacy.insecure_above is None
        assert RFC5155_MAX_ITERATIONS == 2500
        assert not legacy.exceeds_insecure(RFC5155_MAX_ITERATIONS)
        assert legacy.exceeds_insecure(RFC5155_MAX_ITERATIONS + 1)

    def test_positive_answers_not_gated(self, mini_internet):
        # Iteration limits apply to denial proofs, not positive answers.
        resolver = fresh_resolver(mini_internet, VENDOR_POLICIES["strict-rfc9276"])
        verdict = resolver.resolve_and_validate("www.example.com", RdataType.A)
        assert verdict.rcode == Rcode.NOERROR
        assert verdict.ad


class TestCache:
    def test_ttl_expiry_on_clock(self):
        clock = {"now": 0.0}
        cache = Cache(clock=lambda: clock["now"])
        cache.put(("k",), "value", ttl_seconds=10)
        assert cache.get(("k",)).value == "value"
        clock["now"] = 11_000.0
        assert cache.get(("k",)) is None

    def test_hit_rate(self):
        cache = Cache()
        cache.put(("a",), 1, 60)
        cache.get(("a",))
        cache.get(("b",))
        assert cache.hit_rate == 0.5

    def test_eviction_at_capacity(self):
        cache = Cache(max_entries=4)
        for index in range(8):
            cache.put(("k", index), index, 60)
        assert len(cache) <= 4
