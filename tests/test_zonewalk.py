"""Tests for zone-walking and NSEC3 dictionary-attack tooling."""

import random

import pytest

from repro.dns.base32 import b32hex_encode
from repro.dns.rcode import Rcode
from repro.dns.rdata.nsec3 import NSEC3
from repro.dns.rrset import RRset
from repro.dns.types import RdataType
from repro.dnssec.costmodel import meter
from repro.resolver.policy import VENDOR_POLICIES
from repro.resolver.stub import StubAnswer, StubClient
from repro.resolver.validating import ValidatingResolver
from repro.scanner import zonewalk
from repro.scanner.zonewalk import (
    DEFAULT_DICTIONARY,
    Nsec3Walker,
    walk_nsec_zone,
)
from repro.server.authoritative import AuthoritativeServer
from repro.zone.builder import ZoneBuilder
from repro.zone.nsec3chain import Nsec3Params
from repro.zone.signing import SigningPolicy, sign_zone

SECRETS = ("www", "mail", "api", "hidden-gem")
SALT = b"\x77"
#: The title claim's sweep: RFC 9276's zero, a common setting, a vendor limit.
ITERATIONS = (0, 10, 150)
PROBES = [f"probe-{i}" for i in range(40)]


@pytest.fixture(scope="module")
def walk_setup(mini_internet):
    """An NSEC zone and an NSEC3 zone hosted beside the mini internet."""
    net = mini_internet["network"]
    rng = random.Random(21)

    def make_zone(origin, iterations=None):
        builder = (
            ZoneBuilder(origin)
            .soa(f"ns1.{origin}", f"h.{origin}")
            .ns(f"ns1.{origin}.")
            .a("ns1", "192.0.2.201")
        )
        for label in SECRETS:
            builder.a(label, "198.18.7.7")
        zone = builder.build()
        policy = SigningPolicy(
            nsec3=None
            if iterations is None
            else Nsec3Params(iterations=iterations, salt=SALT)
        )
        return sign_zone(zone, policy, rng=rng)

    zones = [make_zone("walkme.com"), make_zone("hashme.com", iterations=3)]
    zones += [make_zone(f"it{n}.com", iterations=n) for n in ITERATIONS]
    server = AuthoritativeServer("walk-auth")
    for zone in zones:
        server.add_zone(zone)
    net.attach("192.0.2.201", server)

    # Register the delegations in .com and re-sign it with its own keys.
    from repro.crypto.keys import make_ds
    from repro.dns.rdata import A, NS
    from repro.zone.signing import SigningPolicy as SP

    com = mini_internet["com"]
    for zone in zones:
        origin = zone.origin
        com.add(origin, RdataType.NS, 3600, NS(f"ns1.{origin.to_text()}"))
        com.add(origin, RdataType.DS, 3600, make_ds(origin, zone.keys[0].dnskey))
        com.add(f"ns1.{origin.to_text()}", RdataType.A, 3600, A("192.0.2.201"))
    sign_zone(
        com,
        SP(nsec3=Nsec3Params(iterations=0, opt_out=True)),
        ksk=com.keys[0],
        zsk=com.keys[1],
        rng=rng,
    )

    resolver = ValidatingResolver(
        net, "198.51.100.210", mini_internet["root_addresses"],
        mini_internet["trust_anchor"], policy=VENDOR_POLICIES["legacy"],
    )
    net.attach("198.51.100.210", resolver)
    client = StubClient(net, "203.0.113.210")
    return {"client": client, "resolver_ip": resolver.ip}


@pytest.fixture(params=ITERATIONS)
def iterated(request, walk_setup):
    """``(iterations, walker)`` on the zone signed with that many extra
    iterations — same salt, same names as the others."""
    walker = Nsec3Walker(
        walk_setup["client"], walk_setup["resolver_ip"], f"it{request.param}.com"
    )
    return request.param, walker


class CannedDenials:
    """A client whose every answer carries one fixed authority section."""

    def __init__(self, authority):
        self.authority = authority

    def ask(self, *args, **kwargs):
        return StubAnswer(Rcode.NXDOMAIN, False, True, [], (), authority=self.authority)


def nsec3_rrset(owner, iterations=3):
    rdata = NSEC3(1, 0, iterations, SALT, b"\x22" * 20, [RdataType.A])
    return RRset(owner, RdataType.NSEC3, 300, [rdata])


class TestNsecWalk:
    def test_enumerates_all_names(self, walk_setup):
        result = walk_nsec_zone(
            walk_setup["client"], walk_setup["resolver_ip"], "walkme.com"
        )
        discovered = {name.to_text() for name in result.names}
        for label in SECRETS:
            assert f"{label}.walkme.com." in discovered
        assert result.complete

    def test_query_budget_respected(self, walk_setup):
        result = walk_nsec_zone(
            walk_setup["client"], walk_setup["resolver_ip"], "walkme.com",
            max_queries=2,
        )
        assert result.queries <= 2
        assert not result.complete


class TestNsec3Walk:
    def test_collects_hashes(self, walk_setup):
        walker = Nsec3Walker(
            walk_setup["client"], walk_setup["resolver_ip"], "hashme.com"
        )
        collected = walker.collect([f"probe-{i}" for i in range(12)])
        assert collected >= 3
        assert walker.params is not None
        assert walker.params[1] == 3  # iterations

    def test_dictionary_attack_recovers_guessable(self, walk_setup):
        walker = Nsec3Walker(
            walk_setup["client"], walk_setup["resolver_ip"], "hashme.com"
        )
        walker.collect([f"crack-{i}" for i in range(25)])
        result = walker.crack(DEFAULT_DICTIONARY + ("hidden-gem",))
        assert "www" in result.recovered
        assert "hidden-gem" in result.recovered
        assert result.recovery_rate > 0.0

    def test_unguessable_stays_hidden(self, walk_setup):
        walker = Nsec3Walker(
            walk_setup["client"], walk_setup["resolver_ip"], "hashme.com"
        )
        walker.collect([f"x-{i}" for i in range(25)])
        result = walker.crack(("nothere", "alsonot"))
        assert "hidden-gem" not in result.recovered
        assert not set(result.recovered) & {"nothere", "alsonot"}

    def test_cost_scales_with_iterations(self, walk_setup):
        walker = Nsec3Walker(
            walk_setup["client"], walk_setup["resolver_ip"], "hashme.com"
        )
        walker.collect(["one-probe"])
        result = walker.crack(("a", "b", "c"))
        # 3 words + apex, at iterations+1 = 4 hashes each.
        assert result.hash_operations == 4 * 4

    def test_iterations_cost_the_walker_nothing(self, iterated):
        iterations, walker = iterated
        collected = walker.collect(PROBES)
        assert walker.params == (1, iterations, SALT)
        # Zeros are heroes, the walker's side: at every iteration count
        # the same queries harvest the same — here the whole — chain.
        assert (walker.queries, walker.skipped) == (len(PROBES), 0)
        assert collected == len(SECRETS) + 2  # + apex and ns1

    def test_iterations_hide_no_label_and_cost_the_cracker_linearly(self, iterated):
        iterations, walker = iterated
        walker.collect(PROBES)
        dictionary = DEFAULT_DICTIONARY + ("hidden-gem",)
        before = meter.snapshot()
        result = walker.crack(dictionary)
        charged = meter.snapshot() - before
        assert set(result.recovered) == {*SECRETS, "ns1", "@"}
        # ... and the cracker's: one SHA-1 pass per (iteration + 1) per
        # guess — the price every validating resolver pays per proof hash.
        assert charged.nsec3_hashes == len(dictionary) + 1
        assert result.hash_operations == charged.sha1_compressions
        assert result.hash_operations == (len(dictionary) + 1) * (iterations + 1)

    def test_unusable_owners_are_skipped_and_counted(self):
        owner_hash = b"\x11" * 20
        authority = [
            # Another zone's chain (other parameters), then no hash at all.
            nsec3_rrset(f"{b32hex_encode(owner_hash)}.sub.hashme.com", iterations=99),
            nsec3_rrset("not-base32hex!.hashme.com", iterations=99),
            nsec3_rrset(f"{b32hex_encode(owner_hash)}.hashme.com"),
        ]
        walker = Nsec3Walker(CannedDenials(authority), "192.0.2.1", "hashme.com")
        assert walker.collect(["x"]) == 2
        assert walker.hashes == {owner_hash, b"\x22" * 20}
        assert walker.skipped == 2
        assert walker.params == (1, 3, SALT)

    def test_decoder_defects_are_not_swallowed(self, monkeypatch):
        def broken(owner, zone):
            raise RuntimeError("decoder defect")

        monkeypatch.setattr(zonewalk, "owner_hash_of", broken)
        walker = Nsec3Walker(
            CannedDenials([nsec3_rrset("abc.hashme.com")]), "192.0.2.1", "hashme.com"
        )
        with pytest.raises(RuntimeError):
            walker.collect(["x"])

    def test_crack_before_collect_raises(self, walk_setup):
        walker = Nsec3Walker(
            walk_setup["client"], walk_setup["resolver_ip"], "hashme.com"
        )
        with pytest.raises(ValueError):
            walker.crack()
