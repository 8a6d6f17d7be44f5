"""Coverage for smaller components: engine rate limiting, cost model,
query log, EDNS details, Atlas budget, glueless resolution."""

import pytest

from repro.dns.edns import Edns, ExtendedError
from repro.dnssec.costmodel import CostMeter, _sha1_blocks
from repro.resolver.policy import VENDOR_POLICIES
from repro.scanner.atlas import AtlasCampaign
from repro.scanner.engine import ScanEngine
from repro.server.querylog import QueryLog
from repro.testbed.resolvers import deploy_resolvers


class TestSha1Blocks:
    def test_empty_message_one_block(self):
        assert _sha1_blocks(0) == 1

    def test_boundary_at_55(self):
        # 55 bytes + 1 padding byte + 8 length bytes = 64: one block.
        assert _sha1_blocks(55) == 1
        assert _sha1_blocks(56) == 2

    def test_large(self):
        assert _sha1_blocks(119) == 2
        assert _sha1_blocks(120) == 3


class TestCostMeter:
    def test_charge_nsec3_accounting(self):
        meter = CostMeter()
        meter.charge_nsec3(iterations=0, input_length=20, salt_length=0)
        assert meter.nsec3_hashes == 1
        assert meter.sha1_compressions == 1
        meter.charge_nsec3(iterations=10, input_length=20, salt_length=0)
        assert meter.sha1_compressions == 1 + 11

    def test_reset(self):
        meter = CostMeter()
        meter.charge_verification()
        meter.reset()
        assert meter.signature_verifications == 0


class TestEdns:
    def test_ttl_field_packs_do_bit(self):
        edns = Edns(dnssec_ok=True)
        assert edns.ttl_field(0) & 0x8000

    def test_ttl_field_packs_extended_rcode(self):
        edns = Edns()
        assert (edns.ttl_field(16) >> 24) == 1

    def test_extended_errors_roundtrip(self):
        edns = Edns()
        edns.add_extended_error(27, "too many")
        errors = edns.extended_errors()
        assert errors == [ExtendedError(27, "too many")]

    def test_repr_includes_name(self):
        assert "Unsupported NSEC3" in repr(ExtendedError(27))


class TestQueryLog:
    def test_bounded(self):
        log = QueryLog(max_entries=3)
        for index in range(10):
            log.record("1.2.3.4", f"q{index}.test.", 1)
        assert len(log) == 3
        assert log.by_source["1.2.3.4"] == 10  # counter keeps counting

    def test_sources_for(self):
        log = QueryLog()
        log.record("1.1.1.1", "a.probe.test.", 1)
        log.record("2.2.2.2", "b.probe.test.", 1)
        log.record("3.3.3.3", "other.test.", 1)
        assert log.sources_for("probe.test") == ["1.1.1.1", "2.2.2.2"]

    def test_clear(self):
        log = QueryLog()
        log.record("1.1.1.1", "x.test.", 1)
        log.clear()
        assert len(log) == 0 and not log.by_source


class TestScanEngineRateLimit:
    def test_rate_limit_advances_clock(self, testbed):
        inet = testbed["inet"]
        upstream = inet.make_resolver(VENDOR_POLICIES["google"], name="rl-upstream")
        engine = ScanEngine(
            inet.network, inet.allocator.next_v4(), upstream.ip, max_qps=10
        )
        for index in range(5):
            engine.query(f"q{index}.com", 2)
        # 5 queries at 10 qps: the 5th is scheduled no earlier than 400 ms.
        assert engine.stats.duration_ms >= 400
        # Path latency rides on top of the schedule; allow slack.
        assert engine.stats.effective_qps <= 13.0

    def test_stats_track_timeouts(self, testbed):
        inet = testbed["inet"]
        engine = ScanEngine(inet.network, inet.allocator.next_v4(), "172.31.255.1")
        engine.query("x.com", 1)
        assert engine.stats.timeouts == 1


class TestAtlasBudget:
    def test_max_probes_respected(self, testbed):
        inet = testbed["inet"]
        deployment = deploy_resolvers(
            inet, open_v4=0, open_v6=0, closed_v4=4, closed_v6=0, seed=61
        )
        campaign = AtlasCampaign(
            inet.network, testbed["probes"], iterations=(1, 151), max_probes=2
        )
        eligible = list(campaign.eligible(deployment))
        assert [index for index, __ in eligible] == [0, 1]
        for index, deployed in eligible:
            __, healthy = campaign.probe(deployed, index)
            assert healthy


class TestGluelessResolution:
    def test_operator_ns_resolved_without_glue(self, testbed):
        """Domain NS targets live under operator domains: referrals from
        their TLDs carry no glue for them, forcing glueless resolution."""
        inet = testbed["inet"]
        resolver = inet.make_resolver(VENDOR_POLICIES["legacy"], name="glueless")
        spec = next(d for d in testbed["domains"] if d.dnssec)
        verdict = resolver.resolve_and_validate(f"www.{spec.name}", 1)
        assert verdict.rcode == 0


class TestInternetHelpers:
    def test_make_resolver_ipv6(self, testbed):
        from repro.net.address import is_ipv6

        resolver = testbed["inet"].make_resolver(
            VENDOR_POLICIES["legacy"], ipv6=True, name="v6r"
        )
        assert is_ipv6(resolver.ip)

    def test_zone_of(self, testbed):
        spec = testbed["domains"][0]
        zone = testbed["inet"].zone_of(spec.name)
        assert zone is not None
        assert zone.origin.to_text().rstrip(".") == spec.name
