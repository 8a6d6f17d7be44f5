"""Tests for the CDF, headline stats, Table 2 and figure accumulators."""

import pytest

from repro.analysis.cdf import StreamingCdf
from repro.analysis.figures import Figure1Accumulator, Figure3Accumulator, figure2_series
from repro.analysis.stats import DomainHeadlineAccumulator, ResolverHeadlineAccumulator
from repro.analysis.tables import (
    OperatorTableAccumulator,
    format_operator_table,
    registered_domain,
)
from repro.core.resolver_compliance import PROBE_ITERATIONS, ProbeResult, classify_resolver
from repro.core.zone_compliance import Nsec3Observation, check_zone_compliance
from repro.dns.rcode import Rcode
from repro.scanner.nsec3_scan import DomainScanResult
from repro.scanner.resolver_scan import SurveyEntry

from tests.conftest import fold


class TestCdf:
    def test_fractions(self):
        cdf = StreamingCdf([1, 2, 2, 3, 10])
        assert cdf.fraction_at_or_below(0) == 0.0
        assert cdf.fraction_at_or_below(2) == pytest.approx(0.6)
        assert cdf.fraction_at_or_below(10) == 1.0

    def test_percentile(self):
        cdf = StreamingCdf(range(1, 101))
        assert cdf.percentile(0.5) == 50
        assert cdf.percentile(0.999) == 100
        assert cdf.percentile(1.0) == 100

    def test_empty(self):
        assert StreamingCdf().fraction_at_or_below(5) == 0.0
        with pytest.raises(ValueError):
            StreamingCdf().percentile(0.5)

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            StreamingCdf([1]).percentile(0.0)


def fake_result(domain, iterations=None, salt=0, ns=("ns1.op.net.",), opt_out=False):
    """A synthetic stage-2 result (nsec3-enabled iff iterations given)."""
    if iterations is None:
        observation = Nsec3Observation(domain=domain, nsec3param_records=())
    else:
        params = ((1, iterations, b"\x00" * salt),)
        observation = Nsec3Observation(
            domain=domain,
            nsec3param_records=params,
            nsec3_records=params,
            opt_out_seen=opt_out,
        )
    result = DomainScanResult(domain=domain)
    result.observation = observation
    result.report = check_zone_compliance(observation)
    result.ns_targets = ns
    result.denial = "nsec3" if iterations is not None else ""
    return result


class TestHeadlines:
    def test_domain_headline(self):
        results = [
            fake_result("a.com", 0, 0),
            fake_result("b.com", 1, 8),
            fake_result("c.com", 10, 8, opt_out=True),
            fake_result("d.com", None),
        ]
        headline = fold(DomainHeadlineAccumulator, results).headline(40)
        assert headline.nsec3_enabled == 3
        assert headline.zero_iterations == 1
        assert headline.zero_iterations_pct == pytest.approx(33.3, abs=0.1)
        assert headline.non_compliant_pct == pytest.approx(66.7, abs=0.1)
        assert headline.opt_out == 1
        assert headline.max_iterations == 10
        assert headline.dnssec_pct == pytest.approx(10.0)
        assert len(headline.rows()) == 7

    def test_resolver_headline(self):
        def matrix(**kw):
            from tests.test_core_compliance import matrix_for

            return matrix_for(**kw)

        classifications = [
            classify_resolver(matrix(insecure_above=150)),
            classify_resolver(matrix(servfail_above=0)),
            classify_resolver(matrix()),
        ]
        headline = fold(ResolverHeadlineAccumulator, classifications).headline()
        assert headline.validators == 3
        assert headline.item6 == 1
        assert headline.item8 == 1
        assert headline.servfail_at_one == 1
        assert headline.limit_pct == pytest.approx(66.7, abs=0.1)


class TestOperatorTable:
    def test_registered_domain(self):
        assert registered_domain("ns1.dns.operator.net.") == "operator.net"
        assert registered_domain("short.") == "short"

    def test_exclusive_aggregation(self):
        results = [
            fake_result("a.com", 1, 8, ns=("ns1.big.net.", "ns2.big.net.")),
            fake_result("b.com", 1, 8, ns=("ns1.big.net.",)),
            fake_result("c.com", 0, 0, ns=("ns1.small.org.",)),
            # Mixed operators: not exclusively served, excluded.
            fake_result("d.com", 5, 5, ns=("ns1.big.net.", "ns1.small.org.")),
        ]
        rows = fold(OperatorTableAccumulator, results).rows()
        assert rows[0].operator == "big.net"
        assert rows[0].domains == 2
        assert rows[0].top_params[0][1:] == (1, 8)
        assert {r.operator for r in rows} == {"big.net", "small.org"}

    def test_share_over_all_nsec3(self):
        results = [fake_result(f"x{i}.com", 1, 8) for i in range(4)]
        rows = fold(OperatorTableAccumulator, results).rows()
        assert rows[0].share_pct == pytest.approx(100.0)

    def test_format(self):
        rows = fold(OperatorTableAccumulator, [fake_result("a.com", 1, 8)]).rows()
        text = format_operator_table(rows)
        assert "op.net" in text and "1/8" in text


class TestFigures:
    def test_figure1(self):
        results = [fake_result(f"d{i}.com", it, salt) for i, (it, salt) in
                   enumerate([(0, 0), (1, 8), (5, 8), (500, 8)])]
        fig = fold(Figure1Accumulator, results).figure()
        assert fig.iterations_cdf.fraction_at_or_below(0) == pytest.approx(0.25)
        assert fig.iterations_cdf.fraction_at_or_below(5) == pytest.approx(0.75)
        assert fig.salt_length_cdf.fraction_at_or_below(0) == pytest.approx(0.25)
        rows = fig.rows((0, 500))
        assert rows[-1][1] == pytest.approx(100.0)

    def test_figure2(self):
        from dataclasses import dataclass

        @dataclass
        class Spec:
            name: str
            tranco_rank: int

        specs = [Spec("a.com", 1), Spec("b.com", 2), Spec("c.com", 3)]
        results = [
            fake_result("a.com", 0, 0),
            fake_result("b.com", 9, 8),
            fake_result("c.com", None),
        ]
        fig = figure2_series(results, specs, list_size=3)
        assert fig.counts["ranked_nsec3"] == 2
        assert fig.counts["zero_iterations"] == 1
        assert len(fig.rows(buckets=3)) == 3

    def test_figure3(self):
        def entry(insecure_above):
            from tests.test_core_compliance import matrix_for

            matrix = matrix_for(insecure_above=insecure_above)
            return SurveyEntry(None, matrix, classify_resolver(matrix))

        entries = [entry(150), entry(150), entry(50)]
        fig = fold(Figure3Accumulator, entries).figure("open-v4")
        assert fig.validators == 3
        nx, adnx, servfail = fig.series[100]
        assert nx == pytest.approx(100.0)
        assert adnx == pytest.approx(2 / 3 * 100, abs=0.1)
        assert servfail == 0.0
        nx, adnx, __ = fig.series[200]
        assert adnx == 0.0

    def test_figure3_excludes_non_validators(self):
        from tests.test_core_compliance import matrix_for

        matrix = matrix_for(validating=False)
        entries = [SurveyEntry(None, matrix, classify_resolver(matrix))]
        fig = fold(Figure3Accumulator, entries).figure("open-v6")
        assert fig.validators == 0
