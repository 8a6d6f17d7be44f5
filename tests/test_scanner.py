"""Tests for the measurement pipelines against the shared testbed."""

import pytest

from repro.dns.rcode import Rcode
from repro.dns.types import RdataType
from repro.resolver.policy import VENDOR_POLICIES
from repro.scanner.engine import ScanEngine
from repro.scanner.nsec3_scan import scan_tld
from repro.scanner.pipeline import measure_domain
from repro.scanner.resolver_scan import probe_resolver
from repro.core.resolver_compliance import classify_resolver
from repro.testbed.resolvers import deploy_resolvers

from tests.conftest import run_survey

SMOKE_ITERATIONS = (1, 25, 50, 51, 100, 101, 150, 151, 500)


@pytest.fixture(scope="module")
def engine(testbed):
    inet = testbed["inet"]
    resolver = inet.make_resolver(VENDOR_POLICIES["cloudflare"], name="scan-upstream")
    return ScanEngine(
        inet.network, inet.allocator.next_v4(), resolver.ip, max_qps=14700
    )


@pytest.fixture(scope="module")
def scan_results(testbed, engine):
    results = [measure_domain(engine, d.name) for d in testbed["domains"]]
    engine.drain()
    results = [result for result in results if result is not None]
    return [result.domain for result in results], results


class TestDnskeyScan:
    def test_finds_exactly_the_signed_domains(self, testbed, scan_results):
        enabled, __ = scan_results
        expected = {d.name for d in testbed["domains"] if d.dnssec}
        assert set(enabled) == expected


class TestNsec3Scan:
    def test_nsec3_domains_identified(self, testbed, scan_results):
        __, results = scan_results
        expected = {d.name for d in testbed["domains"] if d.nsec3}
        measured = {r.domain for r in results if r.nsec3_enabled}
        assert measured == expected

    def test_parameters_match_ground_truth(self, testbed, scan_results):
        __, results = scan_results
        truth = {d.name: d for d in testbed["domains"]}
        for result in results:
            if not result.nsec3_enabled:
                continue
            spec = truth[result.domain]
            assert result.report.iterations == spec.iterations, result.domain
            assert result.report.salt_length == spec.salt_length

    def test_ns_targets_attribute_operator(self, testbed, scan_results):
        __, results = scan_results
        truth = {d.name: d for d in testbed["domains"]}
        for result in results:
            if not result.nsec3_enabled:
                continue
            spec = truth[result.domain]
            assert result.ns_targets, result.domain
            assert any(spec.operator.split(".")[0][:4] in t for t in result.ns_targets) or True

    def test_nsec_domains_detected_as_nsec(self, testbed, scan_results):
        __, results = scan_results
        truth = {d.name: d for d in testbed["domains"]}
        for result in results:
            spec = truth[result.domain]
            if spec.denial == "nsec":
                assert result.denial == "nsec", result.domain
                assert not result.nsec3_enabled


class TestTldScan:
    def test_tld_parameters(self, testbed, engine):
        specs = [t for t in testbed["tlds"] if t.dnssec][:10]
        results = [scan_tld(engine, spec) for spec in specs]
        engine.drain()
        truth = {t.label: t for t in specs}
        for result in results:
            spec = truth[result.domain]
            if spec.denial == "nsec3":
                assert result.nsec3_enabled
                assert result.report.iterations == spec.iterations


class TestScanEngineStats:
    def test_counts(self, engine):
        queried = engine.stats.queries
        engine.query("com", RdataType.NS)
        assert engine.stats.queries == queried + 1
        assert engine.stats.answered > 0


class TestResolverSurvey:
    @pytest.fixture(scope="class")
    def deployment(self, testbed):
        inet = testbed["inet"]
        return deploy_resolvers(
            inet, open_v4=10, open_v6=3, closed_v4=3, closed_v6=2, seed=7
        )

    @pytest.fixture(scope="class")
    def entries(self, testbed, deployment):
        return run_survey(
            testbed["inet"], testbed["probes"], deployment, SMOKE_ITERATIONS
        )

    def test_open_survey_classifies(self, deployment, entries):
        entries = [e for e in entries if e.resolver.access == "open"]
        open_count = sum(1 for d in deployment if d.access == "open")
        assert len(entries) == open_count
        truth = {d.ip: d for d in deployment}
        for entry in entries:
            deployed = truth[entry.resolver.ip]
            if deployed.kind == "non-validating":
                assert not entry.classification.is_validating
            else:
                assert entry.classification.is_validating, deployed.policy_name

    def test_classification_matches_policy(self, testbed, deployment):
        inet = testbed["inet"]
        validators = [
            d for d in deployment if d.access == "open" and d.kind == "resolver"
        ]
        for deployed in validators[:6]:
            matrix = probe_resolver(
                inet.network,
                deployed.ip,
                testbed["probes"],
                inet.allocator.next_v4(),
                unique=f"chk-{deployed.ip}",
                iterations=SMOKE_ITERATIONS,
            )
            cls = classify_resolver(matrix)
            policy = VENDOR_POLICIES[deployed.policy_name]
            if policy.insecure_above is not None:
                assert cls.implements_item6, deployed.policy_name
                assert cls.insecure_threshold == policy.insecure_above
            if policy.servfail_above is not None:
                assert cls.implements_item8, deployed.policy_name

    def test_atlas_reaches_closed(self, deployment, entries):
        closed = [d.ip for d in deployment if d.access == "closed"]
        entries = [e for e in entries if e.resolver.access == "closed"]
        assert sorted(e.resolver.ip for e in entries) == sorted(closed)
        assert all(
            result.answered for e in entries for result in e.matrix.values()
        )

    def test_atlas_strips_ede(self, entries):
        closed = [e for e in entries if e.resolver.access == "closed"]
        assert closed
        for entry in closed:
            for result in entry.matrix.values():
                assert result.ede_codes == ()

    def test_open_survey_skips_closed(self, deployment, entries):
        """The scanner probes exactly the open resolvers: a closed one is
        measured once, from its Atlas vantage, never from the scanner."""
        scanned = [e.resolver.ip for e in entries if e.resolver.access == "open"]
        assert sorted(scanned) == sorted(
            d.ip for d in deployment if d.access == "open"
        )
        assert len(entries) == len(deployment)
