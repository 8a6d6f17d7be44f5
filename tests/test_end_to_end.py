"""End-to-end integration: the complete paper methodology on the testbed.

These tests run both measurement pipelines (domains and resolvers) against
the session testbed and assert the *shape* of the paper's findings — who
wins, where the thresholds sit — rather than exact percentages, which need
larger populations than a test should build.
"""

import pytest

from repro.analysis.figures import Figure1Accumulator, Figure3Accumulator
from repro.analysis.stats import DomainHeadlineAccumulator, ResolverHeadlineAccumulator
from repro.analysis.tables import OperatorTableAccumulator
from repro.dns.rcode import Rcode
from repro.dns.types import RdataType
from repro.dnssec.costmodel import meter
from repro.resolver.policy import VENDOR_POLICIES
from repro.resolver.stub import StubClient
from repro.scanner.engine import ScanEngine
from repro.scanner.nsec3_scan import scan_tld
from repro.scanner.pipeline import measure_domain
from repro.testbed.resolvers import deploy_resolvers

from tests.conftest import fold, run_survey

SMOKE_ITERATIONS = (1, 10, 25, 50, 51, 100, 101, 150, 151, 300, 500)


@pytest.fixture(scope="module")
def domain_pipeline(testbed):
    inet = testbed["inet"]
    upstream = inet.make_resolver(VENDOR_POLICIES["cloudflare"], name="e2e-upstream")
    engine = ScanEngine(inet.network, inet.allocator.next_v4(), upstream.ip)
    results = [measure_domain(engine, d.name) for d in testbed["domains"]]
    engine.drain()
    results = [result for result in results if result is not None]
    return engine, [result.domain for result in results], results


@pytest.fixture(scope="module")
def resolver_pipeline(testbed):
    inet = testbed["inet"]
    deployment = deploy_resolvers(
        inet, open_v4=24, open_v6=6, closed_v4=6, closed_v6=4, seed=11
    )
    entries = run_survey(inet, testbed["probes"], deployment, SMOKE_ITERATIONS)
    open_entries = [e for e in entries if e.resolver.access == "open"]
    closed_entries = [e for e in entries if e.resolver.access == "closed"]
    return deployment, open_entries, closed_entries


class TestDomainPipeline:
    def test_scan_recovers_ground_truth(self, testbed, domain_pipeline):
        __, enabled, results = domain_pipeline
        truth_dnssec = {d.name for d in testbed["domains"] if d.dnssec}
        truth_nsec3 = {d.name for d in testbed["domains"] if d.nsec3}
        assert set(enabled) == truth_dnssec
        assert {r.domain for r in results if r.nsec3_enabled} == truth_nsec3

    def test_headline_shape(self, testbed, domain_pipeline):
        __, __, results = domain_pipeline
        headline = fold(DomainHeadlineAccumulator, results).headline(len(testbed["domains"]))
        # The paper's core finding: a large majority is non-compliant.
        if headline.nsec3_enabled >= 5:
            assert headline.non_compliant_pct > 50.0

    def test_figure1_majority_at_low_iterations(self, domain_pipeline):
        __, __, results = domain_pipeline
        nsec3 = [r for r in results if r.nsec3_enabled]
        if len(nsec3) >= 5:
            fig = fold(Figure1Accumulator, results).figure()
            assert fig.iterations_cdf.fraction_at_or_below(25) > 0.8

    def test_operator_table_nonempty(self, domain_pipeline):
        __, __, results = domain_pipeline
        if any(r.nsec3_enabled for r in results):
            rows = fold(OperatorTableAccumulator, results).rows()
            assert rows
            assert rows[0].domains >= rows[-1].domains

    def test_tld_scan_identity_digital(self, testbed):
        inet = testbed["inet"]
        upstream = inet.make_resolver(VENDOR_POLICIES["google"], name="tld-upstream")
        engine = ScanEngine(inet.network, inet.allocator.next_v4(), upstream.ip)
        specs = [t for t in testbed["tlds"] if t.registry == "identity-digital"]
        results = [scan_tld(engine, spec) for spec in specs[:3]]
        engine.drain()
        assert all(r.report.iterations == 100 for r in results if r.nsec3_enabled)
        assert all(not r.report.item2_zero_iterations for r in results if r.nsec3_enabled)


class TestResolverPipeline:
    def test_kinds_classified_correctly(self, resolver_pipeline):
        deployment, open_entries, closed_entries = resolver_pipeline
        truth = {d.ip: d for d in deployment}
        for entry in open_entries + closed_entries:
            deployed = truth[entry.resolver.ip]
            cls = entry.classification
            if deployed.kind == "non-validating":
                assert not cls.is_validating
                continue
            assert cls.is_validating, deployed.policy_name
            policy = VENDOR_POLICIES[deployed.policy_name]
            if deployed.kind == "copier":
                assert cls.implements_item8
                assert cls.strict_servfail_at_one
            elif policy.insecure_above is not None:
                assert cls.implements_item6, deployed.policy_name

    def test_headline_shape(self, resolver_pipeline):
        __, open_entries, closed_entries = resolver_pipeline
        classifications = [
            e.classification for e in open_entries + closed_entries
        ]
        headline = fold(ResolverHeadlineAccumulator, classifications).headline()
        assert headline.validators > 0
        # Majority of validators limit iterations (paper: 78.3 %).
        assert headline.limit_pct > 40.0
        # Item 6 outweighs Item 8 (paper: 59.9 % vs 18.4 %).
        assert headline.item6 >= headline.item8

    def test_figure3_ad_share_declines(self, resolver_pipeline):
        __, open_entries, __ = resolver_pipeline
        entries = [e for e in open_entries if e.resolver.family == "v4"]
        fig = fold(Figure3Accumulator, entries).figure("open-v4")
        if fig.validators >= 5:
            ad_at_1 = fig.series[1][1]
            ad_at_500 = fig.series[500][1]
            assert ad_at_1 > ad_at_500

    def test_figure3_servfail_rises_after_150(self, resolver_pipeline):
        __, open_entries, closed_entries = resolver_pipeline
        fig = fold(Figure3Accumulator, open_entries + closed_entries).figure("all")
        servfail_150 = fig.series[150][2]
        servfail_151 = fig.series[151][2]
        assert servfail_151 >= servfail_150

    def test_ede27_only_from_limiting_resolvers(self, resolver_pipeline):
        deployment, open_entries, __ = resolver_pipeline
        truth = {d.ip: d for d in deployment}
        for entry in open_entries:
            cls = entry.classification
            if cls.ede27_support:
                policy = VENDOR_POLICIES[truth[entry.resolver.ip].policy_name]
                assert policy.ede27


class TestCveCostShape:
    """CVE-2023-50868: validation cost grows linearly with iterations."""

    def test_cost_scales_with_iterations(self, testbed):
        inet = testbed["inet"]
        probes = testbed["probes"]
        resolver = inet.make_resolver(VENDOR_POLICIES["legacy"], name="cve-victim")
        stub = StubClient(inet.network, inet.allocator.next_v4())

        def cost_of(key, unique):
            before = meter.snapshot()
            answer = stub.ask(resolver.ip, probes.probe_name(key, unique), RdataType.A)
            assert answer.rcode == Rcode.NXDOMAIN
            return (meter.snapshot() - before).sha1_compressions

        low = cost_of(1, "cve-low")
        high = cost_of(500, "cve-high")
        assert high > low * 20  # paper reports up to 72× CPU amplification
