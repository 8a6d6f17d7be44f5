"""Tests for iterative resolution and the validating resolver core.

Uses the session-scoped ``mini_internet`` fixture: root → com →
example.com (NSEC3, 5 iterations) plus an unsigned.com insecure
delegation.
"""

import gc

import pytest

from repro.dns.flags import Flag
from repro.dns.message import Message, make_query
from repro.dns.rcode import Rcode
from repro.dns.rdata import Rdata
from repro.dns.rrset import RRset
from repro.dns.types import RdataType
from repro.dnssec.validator import SecurityStatus
from repro.resolver.cache import Cache
from repro.resolver.iterative import IterativeResolver
from repro.resolver.policy import RFC5155_MAX_ITERATIONS, VENDOR_POLICIES, Nsec3Policy
from repro.resolver.stub import StubClient
from repro.resolver.validating import ValidatingResolver


def fresh_resolver(mini, policy=None, validate=True, ip=None, guard=None):
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
        guard=guard,
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

    def test_signed_delegations_validate_through_their_ds(self, mini_internet):
        """A cut keeps no DS evidence; chain validation asks its own DS
        question, and example.com's chain is secure through it."""
        resolver = fresh_resolver(mini_internet)
        resolver.engine.resolve("www.example.com", RdataType.A)
        assert resolver.zone_security("example.com")[0] is SecurityStatus.SECURE
        outcome = resolver.engine.resolve("example.com", RdataType.DS)
        assert outcome.ok
        assert outcome.response.find_rrset(
            outcome.response.answer, "example.com", RdataType.DS
        )

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


class TestCachedReplies:
    """The verdict cache keeps each verdict's sections encoded: a reply
    served from it has the bytes, after the id, of the miss that stored
    it."""

    CLIENT = "203.0.113.64"

    @staticmethod
    def wire(qname, rrtype, msg_id, dnssec_ok=True, cd=False, payload=1232):
        query = make_query(
            qname, rrtype, want_dnssec=dnssec_ok, payload_size=payload, msg_id=msg_id
        )
        query.set_flag(Flag.CD, cd)
        return query.to_wire()

    @pytest.mark.parametrize(
        "qname, rrtype, dnssec_ok, cd, payload, shape",
        [
            ("gone1.example.com", RdataType.A, True, False, 1232, "nsec3"),
            ("gone2.example.com", RdataType.A, False, False, 1232, "stripped"),
            ("example.com", RdataType.DNSKEY, True, True, 1232, "dnskey"),
            ("gone3.example.com", RdataType.A, True, False, 512, "truncated"),
        ],
    )
    def test_hit_reply_is_the_miss_reply(
        self, mini_internet, qname, rrtype, dnssec_ok, cd, payload, shape
    ):
        resolver = fresh_resolver(mini_internet)
        ask = resolver.handle_datagram
        miss = ask(self.wire(qname, rrtype, 0x1111, dnssec_ok, cd, payload), self.CLIENT)
        sent = resolver.engine.queries_sent
        hit = ask(self.wire(qname, rrtype, 0x2222, dnssec_ok, cd, payload), self.CLIENT)
        assert resolver.engine.queries_sent == sent  # served from the cache
        assert hit[:2] == b"\x22\x22" and hit[2:] == miss[2:]
        reply = Message.from_wire(hit)
        types = {int(rrset.rrtype) for rrset in reply.answer + reply.authority}
        if shape == "nsec3":
            assert reply.rcode == Rcode.NXDOMAIN and reply.authenticated
            assert int(RdataType.NSEC3) in types and int(RdataType.RRSIG) in types
        elif shape == "stripped":
            assert reply.rcode == Rcode.NXDOMAIN and types == {int(RdataType.SOA)}
        elif shape == "dnskey":
            assert reply.rcode == Rcode.NOERROR and not reply.authenticated
            assert int(RdataType.DNSKEY) in types
        else:
            assert reply.has_flag(Flag.TC) and not reply.answer + reply.authority
            assert len(miss) <= 512

    def test_stale_reply_is_the_miss_reply_with_ede_3(self, mini_internet):
        from repro.dns.edns import EDE_STALE_ANSWER
        from repro.resolver.guard import GuardConfig

        resolver = fresh_resolver(
            mini_internet, guard=GuardConfig(name="stale", max_inflight=None)
        )
        wire = self.wire("gone4.example.com", RdataType.A, 0x3333)
        miss = resolver.handle_datagram(wire, self.CLIENT)
        expected = Message.from_wire(miss)
        assert expected.to_wire() == miss
        expected.edns.add_extended_error(EDE_STALE_ANSWER, "served stale under load")
        assert resolver.shed_datagram(wire) == expected.to_wire()

    def test_every_hit_decodes_its_own_rrsets(self, mini_internet):
        resolver = fresh_resolver(mini_internet)
        first = resolver.resolve_and_validate("gone5.example.com", RdataType.A)
        sent = resolver.engine.queries_sent
        second, third = (
            resolver.resolve_and_validate("gone5.example.com", RdataType.A)
            for __ in range(2)
        )
        assert resolver.engine.queries_sent == sent  # both served from the cache
        assert first.authority == second.authority == third.authority
        assert not {id(r) for r in second.authority} & {id(r) for r in third.authority}


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


class TestCheckingDisabled:
    """RFC 4035 §4.7: a verdict obtained with CD=1 was never validated,
    so it must not answer a later CD=0 question."""

    QNAME = "x1.expired.rfc9276-in-the-wild.com"

    def ask(self, testbed, resolver, checking_disabled):
        stub = StubClient(testbed["inet"].network, "203.0.113.70")
        return stub.ask(
            resolver.ip, self.QNAME, RdataType.A, checking_disabled=checking_disabled
        )

    def test_cd_verdict_answers_only_cd_repeats(self, testbed):
        inet = testbed["inet"]
        fresh = inet.make_resolver(VENDOR_POLICIES["cloudflare"], name="cd-fresh")
        assert self.ask(testbed, fresh, False).rcode == Rcode.SERVFAIL
        resolver = inet.make_resolver(VENDOR_POLICIES["cloudflare"], name="cd-mixed")
        assert self.ask(testbed, resolver, True).rcode == Rcode.NOERROR
        assert self.ask(testbed, resolver, False).rcode == Rcode.SERVFAIL
        sent = resolver.engine.queries_sent
        assert self.ask(testbed, resolver, True).rcode == Rcode.NOERROR
        assert resolver.engine.queries_sent == sent  # the CD=1 verdict cached

    def test_stale_cd_verdict_not_served_to_cd0(self, testbed):
        resolver = testbed["inet"].make_resolver(
            VENDOR_POLICIES["cloudflare"], name="cd-stale"
        )
        self.ask(testbed, resolver, True)
        assert resolver.stale_verdict(self.QNAME, RdataType.A) is None
        stale = resolver.stale_verdict(self.QNAME, RdataType.A, checking_disabled=True)
        assert stale.rcode == Rcode.NOERROR


@pytest.fixture(scope="module")
def unsigned_scan():
    """One resolver that has resolved ~200 unsigned population domains."""
    from repro.testbed.internet import build_internet
    from repro.testbed.population import Population, generate_tlds, scaled_config

    config = scaled_config(240, 30)
    tlds = generate_tlds(config)
    population = Population(config, tlds=tlds)
    inet = build_internet(population, tlds, seed=7)
    resolver = inet.make_resolver(VENDOR_POLICIES["cloudflare"], name="retention")
    names = [spec.name for spec in population if not spec.dnssec][:200]
    for name in names:
        resolver.resolve_and_validate(name, RdataType.A)
    return resolver, names


class TestDelegationRetention:
    """A cached zone cut keeps where to ask next and nothing else: no
    decoded record of the referral it came from stays reachable."""

    @staticmethod
    def reachable(roots):
        seen = {}
        stack = list(roots)
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, type):
                continue
            seen[id(obj)] = obj
            stack.extend(gc.get_referents(obj))
        return list(seen.values())

    def test_delegations_hold_no_records(self, unsigned_scan):
        resolver, names = unsigned_scan
        assert len(names) == 200
        entries = [
            entry
            for key, entry in resolver.cache.entries.items()
            if key[0] == "delegation"
        ]
        assert len(entries) > 200  # every SLD's cut, plus the TLDs'
        leaked = [
            type(obj).__name__
            for obj in self.reachable(entries)
            if isinstance(obj, (RRset, Rdata))
        ]
        assert leaked == []
