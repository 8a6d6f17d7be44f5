"""Tests for the synthetic populations and the assembled internet."""

import random
from collections import Counter

import pytest

from repro.dns.name import Name
from repro.dns.rcode import Rcode
from repro.dns.rdata import NS
from repro.dns.types import RdataType
from repro.resolver.policy import VENDOR_POLICIES
from repro.resolver.stub import StubClient
from repro.testbed.internet import (
    KeyPool,
    _sign_from_spec,
    build_domain_zone,
    build_internet,
    zone_rng,
)
from repro.testbed.operators import OPERATORS, normalized_param_mix
from repro.testbed.population import (
    DomainSpec,
    Population,
    PopulationConfig,
    generate_tlds,
)
from repro.testbed.tranco import assign_tranco_ranks

from repro.zone.builder import ZoneBuilder

from tests.conftest import SMALL_CONFIG


class TestOperators:
    def test_shares_sum_to_one(self):
        assert sum(op.share for op in OPERATORS) == pytest.approx(1.0, abs=0.01)

    def test_mixes_normalise(self):
        for op in OPERATORS:
            mix = normalized_param_mix(op)
            assert sum(w for w, __, __ in mix) == pytest.approx(1.0)

    def test_squarespace_is_largest(self):
        largest = max(OPERATORS, key=lambda op: op.share)
        assert largest.key == "squarespace"
        assert largest.param_mix == ((1.0, 1, 8),)

    def test_aggregate_zero_iteration_share_calibrated(self):
        # Expected fraction of NSEC3 domains with zero iterations ≈ 12.2 %.
        expected = 0.0
        for op in OPERATORS:
            for weight, iterations, __ in normalized_param_mix(op):
                if iterations == 0:
                    expected += op.share * weight
        assert expected == pytest.approx(0.122, abs=0.02)

    def test_aggregate_saltless_share_calibrated(self):
        expected = 0.0
        for op in OPERATORS:
            for weight, __, salt in normalized_param_mix(op):
                if salt == 0:
                    expected += op.share * weight
        assert expected == pytest.approx(0.086, abs=0.02)


class TestTldPopulation:
    def test_counts_scale(self):
        tlds = generate_tlds(SMALL_CONFIG)
        assert len(tlds) == SMALL_CONFIG.n_tlds
        assert sum(t.dnssec for t in tlds) == SMALL_CONFIG.tld_dnssec
        assert sum(t.denial == "nsec3" for t in tlds) == SMALL_CONFIG.tld_nsec3

    def test_identity_digital_at_100(self):
        tlds = generate_tlds(SMALL_CONFIG)
        identity = [t for t in tlds if t.registry == "identity-digital"]
        assert len(identity) == SMALL_CONFIG.tld_identity_digital
        assert all(t.iterations == 100 for t in identity)

    def test_big_tlds_compliant(self):
        tlds = generate_tlds(SMALL_CONFIG)
        by_label = {t.label: t for t in tlds}
        for label in ("com", "net", "org"):
            assert by_label[label].denial == "nsec3"
            assert by_label[label].iterations == 0
            assert by_label[label].opt_out

    def test_deterministic(self):
        assert generate_tlds(SMALL_CONFIG) == generate_tlds(SMALL_CONFIG)


class TestDomainPopulation:
    @pytest.fixture(scope="class")
    def big_population(self):
        config = PopulationConfig(n_domains=20_000)
        return config, list(Population(config, include_tail=False))

    def test_size(self, big_population):
        config, specs = big_population
        assert len(specs) == config.n_domains

    def test_dnssec_rate_calibrated(self, big_population):
        config, specs = big_population
        rate = sum(s.dnssec for s in specs) / len(specs)
        assert rate == pytest.approx(config.dnssec_rate, abs=0.01)

    def test_nsec3_share_calibrated(self, big_population):
        __, specs = big_population
        dnssec = [s for s in specs if s.dnssec]
        nsec3 = [s for s in dnssec if s.nsec3]
        assert len(nsec3) / len(dnssec) == pytest.approx(0.589, abs=0.04)

    def test_zero_iteration_share_calibrated(self, big_population):
        __, specs = big_population
        nsec3 = [s for s in specs if s.nsec3]
        zero = sum(1 for s in nsec3 if s.iterations == 0)
        assert zero / len(nsec3) == pytest.approx(0.122, abs=0.035)

    def test_operator_shares_roughly_table2(self, big_population):
        __, specs = big_population
        nsec3 = [s for s in specs if s.nsec3]
        counts = Counter(s.operator for s in nsec3)
        assert counts["squarespace"] / len(nsec3) == pytest.approx(0.394, abs=0.05)

    def test_unique_names(self, big_population):
        __, specs = big_population
        names = [s.name for s in specs]
        assert len(set(names)) == len(names)

    def test_tail_injection(self):
        config = PopulationConfig(n_domains=50)
        specs = Population(config)[config.n_domains:]
        assert any(s.iterations == 500 for s in specs)
        assert any(s.salt_length == 160 for s in specs)

    def test_deterministic(self):
        config = PopulationConfig(n_domains=500)
        assert list(Population(config)) == list(Population(config))


class TestTranco:
    def test_ranks_dense_and_unique(self):
        config = PopulationConfig(n_domains=2000)
        specs = assign_tranco_ranks(
            list(Population(config, include_tail=False)), list_size=600
        )
        ranks = [s.tranco_rank for s in specs if s.tranco_rank]
        assert len(ranks) == 600
        assert sorted(ranks) == list(range(1, 601))

    def test_boost_raises_compliant_share(self):
        config = PopulationConfig(n_domains=30_000)
        specs = list(Population(config, include_tail=False))
        ranked = assign_tranco_ranks(specs, list_size=8000)
        overall = [s for s in specs if s.nsec3]
        popular = [s for s in ranked if s.tranco_rank and s.nsec3]
        overall_zero = sum(1 for s in overall if s.iterations == 0) / len(overall)
        popular_zero = sum(1 for s in popular if s.iterations == 0) / len(popular)
        assert popular_zero > overall_zero * 1.3


class TestBuiltInternet:
    def test_zones_hosted(self, testbed):
        inet = testbed["inet"]
        assert inet.domain_specs is testbed["domains"]
        for spec in testbed["domains"]:
            assert inet.zone_of(spec.name).origin == Name.from_text(spec.name)
        assert len(inet.tld_zones) == len(testbed["tlds"])
        assert inet.root_zone.signed

    def test_build_takes_only_a_streaming_population(self, testbed):
        domains, tlds = testbed["domains"], testbed["tlds"]
        with pytest.raises(TypeError):
            build_internet(list(domains), tlds)
        with pytest.raises(TypeError):
            build_internet(domains, tlds, lazy_domains=False)

    def test_signed_domains_have_ds_in_tld(self, testbed):
        inet = testbed["inet"]
        signed = [d for d in testbed["domains"] if d.dnssec]
        spec = signed[0]
        tld_zone = inet.tld_zones[spec.tld]
        assert tld_zone.get_rrset(spec.name, RdataType.DS) is not None

    def test_unsigned_domains_have_no_ds(self, testbed):
        inet = testbed["inet"]
        unsigned = [d for d in testbed["domains"] if not d.dnssec]
        spec = unsigned[0]
        tld_zone = inet.tld_zones[spec.tld]
        assert tld_zone.get_rrset(spec.name, RdataType.DS) is None

    def test_nsec3param_matches_spec(self, testbed):
        inet = testbed["inet"]
        for spec in testbed["domains"]:
            if not spec.nsec3:
                continue
            zone = inet.zone_of(spec.name)
            param = zone.get_rrset(spec.name, RdataType.NSEC3PARAM)[0]
            assert param.iterations == spec.iterations
            assert len(param.salt) == spec.salt_length

    def test_resolution_through_tree(self, testbed):
        inet = testbed["inet"]
        resolver = inet.make_resolver(VENDOR_POLICIES["bind9-2021"])
        stub = StubClient(inet.network, inet.allocator.next_v4())
        hits = 0
        for spec in testbed["domains"][:15]:
            answer = stub.ask(resolver.ip, f"www.{spec.name}", RdataType.A)
            if answer.rcode == Rcode.NOERROR and answer.answer:
                hits += 1
        assert hits == 15

    def test_ad_bit_for_compliant_signed_domain(self, testbed):
        inet = testbed["inet"]
        resolver = inet.make_resolver(VENDOR_POLICIES["bind9-2021"])
        stub = StubClient(inet.network, inet.allocator.next_v4())
        signed = [d for d in testbed["domains"] if d.nsec3 and d.iterations <= 150]
        answer = stub.ask(resolver.ip, f"www.{signed[0].name}", RdataType.A)
        assert answer.ad

    def test_probe_zone_layout(self, testbed):
        probes = testbed["probes"]
        assert len(probes.zones) == 51  # 47 it-N + valid + expired + control + parent
        assert "it-500" in probes.zones
        assert "it-2501-expired" in probes.zones
        assert probes.probe_name(25, "u") == "u.it-25.rfc9276-in-the-wild.com"
        assert probes.probe_name("valid", "u") == "u.valid.rfc9276-in-the-wild.com"

    def test_probe_keys_cover_paper_design(self, testbed):
        keys = testbed["probes"].all_probe_keys()
        ints = [k for k in keys if isinstance(k, int)]
        assert set(range(1, 26)).issubset(ints)
        assert {50, 51, 101, 151, 500}.issubset(ints)
        assert "valid" in keys and "expired" in keys and "it-2501-expired" in keys


class TestDomainZoneFromValues:
    """``build_domain_zone`` assembles values; this is the text it replaced."""

    SEED = 7

    @staticmethod
    def _from_text(spec, seed, pool, ns_domain):
        rng = zone_rng(seed, spec.name)
        ns_names = (f"ns1.{ns_domain}.", f"ns2.{ns_domain}.")
        zone = (
            ZoneBuilder(spec.name)
            .soa(ns_names[0], f"hostmaster.{spec.name}")
            .ns(*ns_names)
            .a("@", f"198.18.{rng.randrange(256)}.{rng.randrange(1, 255)}")
            .a("www", f"198.18.{rng.randrange(256)}.{rng.randrange(1, 255)}")
            .build()
        )
        if spec.dnssec:
            _sign_from_spec(zone, spec, pool, rng, spec.name)
        return zone

    @staticmethod
    def _image(zone):
        """Everything observable, in insertion order, names in exact case."""

        def rows(rrsets):
            return [
                (rrset.name.labels, int(rrset.rrtype), rrset.ttl, [r.to_wire() for r in rrset])
                for rrset in rrsets
            ]

        chain = zone.nsec3_chain
        return (
            zone.origin.labels,
            rows(rrset for node in zone.nodes.values() for rrset in node.values()),
            rows(zone.rrsigs.values()),
            zone.generation,
            zone.signed,
            chain and (chain.params.salt, chain.params.iterations, chain.params.opt_out),
            zone.nsec_chain is not None,
        )

    def test_equals_the_text_build_over_200_specs(self):
        pool = KeyPool(size=2, seed=self.SEED + 1)
        kinds = [
            dict(dnssec=False, denial=""),
            dict(dnssec=True, denial="nsec"),
            dict(dnssec=True, denial="nsec3", iterations=0, salt_length=0),
            dict(dnssec=True, denial="nsec3", iterations=5, salt_length=8),
            dict(dnssec=True, denial="nsec3", iterations=1, salt_length=4, opt_out=True),
        ]
        operators = ["squarespace", "generic-web", "Mixed-Case.Example"]
        images = set()
        for index in range(200):
            operator = operators[index % len(operators)]
            ns_domain = f"{operator.replace('.', '-')}-dns.net"
            tld = ("com", "org", "co-op")[index % 3]
            spec = DomainSpec(
                name=f"Site-{index}.{tld}" if index % 7 == 0 else f"site-{index}.{tld}",
                tld=tld,
                operator=operator,
                **kinds[index % len(kinds)],
            )
            ns_pair = (NS(f"ns1.{ns_domain}."), NS(f"ns2.{ns_domain}."))
            built = self._image(build_domain_zone(spec, self.SEED, pool, ns_pair))
            assert built == self._image(
                self._from_text(spec, self.SEED, pool, ns_domain)
            ), spec
            images.add(repr(built))
        assert len(images) == 200
