"""Tests for the RFC 9276 compliance engine (the paper's core logic)."""

from types import SimpleNamespace

import pytest

from repro.analysis.stats import DomainHeadlineAccumulator, ResolverHeadlineAccumulator
from repro.core.guidance import GUIDANCE, Audience, Requirement, item
from repro.core.resolver_compliance import (
    PROBE_ITERATIONS,
    ProbeResult,
    classify_resolver,
)
from repro.core.zone_compliance import (
    SMALL_ZONE_DELEGATIONS,
    Nsec3Observation,
    check_rfc5155_consistency,
    check_zone_compliance,
)
from repro.dns.edns import EDE_UNSUPPORTED_NSEC3_ITERATIONS
from repro.dns.rcode import Rcode

from tests.conftest import fold


class TestGuidance:
    def test_twelve_items(self):
        assert len(GUIDANCE) == 12
        assert [entry.number for entry in GUIDANCE] == list(range(1, 13))

    def test_item2_is_must(self):
        assert item(2).keyword is Requirement.MUST
        assert item(2).audience is Audience.AUTHORITATIVE

    def test_item_audiences_match_paper_split(self):
        auth = [e for e in GUIDANCE if e.audience is Audience.AUTHORITATIVE]
        resolver = [e for e in GUIDANCE if e.audience is Audience.RESOLVER]
        assert [e.number for e in auth] == [1, 2, 3, 4, 5]
        assert [e.number for e in resolver] == [6, 7, 8, 9, 10, 11, 12]

    def test_unknown_item_raises(self):
        with pytest.raises(KeyError):
            item(13)


def observation(**kwargs):
    defaults = dict(
        domain="test.example",
        dnssec_enabled=True,
        nsec3param_records=((1, 0, b""),),
        nsec3_records=((1, 0, b""),),
    )
    defaults.update(kwargs)
    return Nsec3Observation(**defaults)


class TestRfc5155Consistency:
    def test_single_consistent_param(self):
        enabled, reason = check_rfc5155_consistency(observation())
        assert enabled and not reason

    def test_no_nsec3param(self):
        enabled, reason = check_rfc5155_consistency(
            observation(nsec3param_records=())
        )
        assert not enabled and "no NSEC3PARAM" in reason

    def test_multiple_nsec3param(self):
        enabled, reason = check_rfc5155_consistency(
            observation(nsec3param_records=((1, 0, b""), (1, 5, b"")))
        )
        assert not enabled and "more than one" in reason

    def test_inconsistent_nsec3_records(self):
        enabled, reason = check_rfc5155_consistency(
            observation(nsec3_records=((1, 0, b""), (1, 3, b"")))
        )
        assert not enabled and "inconsistent" in reason

    def test_nsec3_vs_param_mismatch(self):
        enabled, reason = check_rfc5155_consistency(
            observation(nsec3_records=((1, 9, b""),))
        )
        assert not enabled and "differ" in reason

    def test_no_nsec3_records_is_acceptable(self):
        # A domain may never have been probed negatively.
        enabled, __ = check_rfc5155_consistency(observation(nsec3_records=()))
        assert enabled


class TestZoneCompliance:
    def test_fully_compliant(self):
        report = check_zone_compliance(observation())
        assert report.nsec3_enabled
        assert report.item2_zero_iterations
        assert report.item3_no_salt
        assert report.rfc9276_compliant
        assert not report.violations

    def test_iterations_violation(self):
        report = check_zone_compliance(
            observation(
                nsec3param_records=((1, 10, b""),), nsec3_records=((1, 10, b""),)
            )
        )
        assert not report.item2_zero_iterations
        assert report.iterations == 10
        assert any("Item 2" in v for v in report.violations)

    def test_salt_violation(self):
        report = check_zone_compliance(
            observation(
                nsec3param_records=((1, 0, b"\xaa\xbb"),),
                nsec3_records=((1, 0, b"\xaa\xbb"),),
            )
        )
        assert not report.item3_no_salt
        assert report.salt_length == 2

    def test_optout_small_zone_flagged(self):
        report = check_zone_compliance(
            observation(opt_out_seen=True, delegation_count=3)
        )
        assert not report.item4_optout_ok

    def test_optout_large_zone_ok(self):
        report = check_zone_compliance(
            observation(opt_out_seen=True, delegation_count=50_000)
        )
        assert report.item4_optout_ok

    def test_optout_small_zone_cut_at_1000_delegations(self):
        """A small zone has *fewer* than 1 000 delegations: opt-out is
        flagged at 999 and allowed at exactly 1 000."""
        assert SMALL_ZONE_DELEGATIONS == 1000

        def optout_ok(delegations):
            return check_zone_compliance(
                observation(opt_out_seen=True, delegation_count=delegations)
            ).item4_optout_ok

        assert not optout_ok(999)
        assert optout_ok(1000)

    def test_open_zone_item1(self):
        report = check_zone_compliance(observation(zone_published_openly=True))
        assert report.item1_nsec3_justified is False

    def test_summary(self):
        reports = [
            check_zone_compliance(observation()),
            check_zone_compliance(
                observation(nsec3param_records=((1, 5, b"s"),), nsec3_records=())
            ),
            check_zone_compliance(observation(nsec3param_records=())),
        ]
        totals = fold(DomainHeadlineAccumulator, (SimpleNamespace(report=r) for r in reports))
        assert totals.results_seen == 3
        assert totals.nsec3_enabled == 2
        assert totals.zero_iterations == 1
        assert totals.results_seen - totals.nsec3_enabled == 1


def matrix_for(
    insecure_above=None,
    servfail_above=None,
    ede27=False,
    validating=True,
    item7_sloppy=False,
):
    """Synthesise a probe matrix as an ideal policy-following resolver."""
    matrix = {
        "valid": ProbeResult(Rcode.NOERROR, ad=validating),
        "expired": ProbeResult(
            Rcode.SERVFAIL if validating else Rcode.NXDOMAIN, ad=False
        ),
    }
    for count in PROBE_ITERATIONS:
        if count == 0:
            continue
        ede = (EDE_UNSUPPORTED_NSEC3_ITERATIONS,) if ede27 else ()
        if servfail_above is not None and count > servfail_above:
            matrix[count] = ProbeResult(Rcode.SERVFAIL, ede_codes=ede)
        elif insecure_above is not None and count > insecure_above:
            matrix[count] = ProbeResult(Rcode.NXDOMAIN, ad=False, ede_codes=ede)
        else:
            matrix[count] = ProbeResult(Rcode.NXDOMAIN, ad=validating)
    if servfail_above is not None and 2501 > servfail_above and not item7_sloppy:
        control = ProbeResult(Rcode.SERVFAIL)
    elif item7_sloppy:
        control = ProbeResult(Rcode.NXDOMAIN, ad=False)
    else:
        control = ProbeResult(Rcode.SERVFAIL)
    matrix["it-2501-expired"] = control
    return matrix


class TestResolverClassification:
    def test_item6_threshold_found(self):
        cls = classify_resolver(matrix_for(insecure_above=150))
        assert cls.is_validating
        assert cls.implements_item6
        assert cls.insecure_threshold == 150
        assert not cls.implements_item8

    def test_item8_threshold_found(self):
        cls = classify_resolver(matrix_for(servfail_above=150))
        assert cls.implements_item8
        assert cls.servfail_threshold == 150
        assert not cls.implements_item6

    def test_item8_at_zero_is_strict(self):
        cls = classify_resolver(matrix_for(servfail_above=0))
        assert cls.implements_item8
        assert cls.servfail_threshold == 0
        assert cls.strict_servfail_at_one

    def test_no_limit_resolver(self):
        cls = classify_resolver(matrix_for())
        assert cls.is_validating
        assert not cls.limits_iterations

    def test_non_validating(self):
        cls = classify_resolver(matrix_for(validating=False))
        assert not cls.is_validating

    def test_ede27_detected(self):
        cls = classify_resolver(matrix_for(servfail_above=100, ede27=True))
        assert cls.ede27_support

    def test_ede27_absent(self):
        cls = classify_resolver(matrix_for(servfail_above=100, ede27=False))
        assert not cls.ede27_support

    def test_item7_violation(self):
        cls = classify_resolver(matrix_for(insecure_above=150, item7_sloppy=True))
        assert cls.item7_violation

    def test_item7_compliant(self):
        cls = classify_resolver(matrix_for(insecure_above=150))
        assert not cls.item7_violation

    def test_item12_gap(self):
        cls = classify_resolver(matrix_for(insecure_above=50, servfail_above=150))
        assert cls.implements_item6 and cls.implements_item8
        assert cls.item12_gap

    def test_no_item12_gap_when_same_threshold(self):
        cls = classify_resolver(matrix_for(servfail_above=150))
        assert not cls.item12_gap

    def test_google_shape(self):
        cls = classify_resolver(matrix_for(insecure_above=100))
        assert cls.insecure_threshold == 100

    def test_summary(self):
        classifications = [
            classify_resolver(matrix_for(insecure_above=150)),
            classify_resolver(matrix_for(servfail_above=0)),
            classify_resolver(matrix_for()),
            classify_resolver(matrix_for(validating=False)),
        ]
        totals = fold(ResolverHeadlineAccumulator, classifications)
        assert totals.resolvers == 4
        assert totals.validating == 3
        assert totals.limit_iterations == 2
        assert totals.servfail_at_one == 1
