"""Headline statistics — the numbers quoted in the paper's §5 prose.

Each headline is computed one way: an ``update(record)`` accumulator
(:class:`DomainHeadlineAccumulator`, :class:`ResolverHeadlineAccumulator`)
that folds results as they arrive in O(1) memory, as
:class:`repro.core.report.StudyAggregates` does during a campaign.
"""

from __future__ import annotations

from dataclasses import dataclass


def _pct(part, whole):
    return 100.0 * part / whole if whole else 0.0


@dataclass
class DomainHeadline:
    """§5.1 headline numbers, computed from scan results."""

    total_domains: int
    dnssec_enabled: int
    nsec3_enabled: int
    zero_iterations: int
    no_salt: int
    opt_out: int
    max_iterations: int

    @property
    def dnssec_pct(self):
        return _pct(self.dnssec_enabled, self.total_domains)

    @property
    def nsec3_given_dnssec_pct(self):
        return _pct(self.nsec3_enabled, self.dnssec_enabled)

    @property
    def zero_iterations_pct(self):
        return _pct(self.zero_iterations, self.nsec3_enabled)

    @property
    def non_compliant_pct(self):
        """The paper's 87.8 %: NSEC3-enabled domains failing Item 2."""
        return 100.0 - self.zero_iterations_pct

    @property
    def no_salt_pct(self):
        return _pct(self.no_salt, self.nsec3_enabled)

    @property
    def opt_out_pct(self):
        return _pct(self.opt_out, self.nsec3_enabled)

    def rows(self):
        """(label, paper value, measured value) rows for reports."""
        return [
            ("DNSSEC-enabled / registered (%)", 8.8, round(self.dnssec_pct, 1)),
            ("NSEC3-enabled / DNSSEC (%)", 58.9, round(self.nsec3_given_dnssec_pct, 1)),
            ("zero additional iterations (%)", 12.2, round(self.zero_iterations_pct, 1)),
            ("non-compliant with Item 2 (%)", 87.8, round(self.non_compliant_pct, 1)),
            ("no salt (%)", 8.6, round(self.no_salt_pct, 1)),
            ("opt-out flag set (%)", 6.4, round(self.opt_out_pct, 1)),
            ("max additional iterations", 500, self.max_iterations),
        ]


class DomainHeadlineAccumulator:
    """Fold stage-2 scan results into §5.1 headline counters, one at a
    time. Every result folded is a DNSSEC-enabled domain (stage 1's
    output); only NSEC3-enabled ones reach the iteration counters.
    """

    def __init__(self):
        self.results_seen = 0
        self.nsec3_enabled = 0
        self.zero_iterations = 0
        self.no_salt = 0
        self.opt_out = 0
        self.max_iterations = 0

    def update(self, result):
        self.results_seen += 1
        report = result.report
        if report is None or not report.nsec3_enabled:
            return self
        self.nsec3_enabled += 1
        self.zero_iterations += report.item2_zero_iterations
        self.no_salt += report.item3_no_salt
        self.opt_out += report.opt_out
        if report.iterations > self.max_iterations:
            self.max_iterations = report.iterations
        return self

    def headline(self, total_domains):
        """The §5.1 headline over a universe of *total_domains* registered
        domains (the 302 M equivalent)."""
        return DomainHeadline(
            total_domains=total_domains,
            dnssec_enabled=self.results_seen,
            nsec3_enabled=self.nsec3_enabled,
            zero_iterations=self.zero_iterations,
            no_salt=self.no_salt,
            opt_out=self.opt_out,
            max_iterations=self.max_iterations,
        )


@dataclass
class ResolverHeadline:
    """§5.2 headline numbers, computed from resolver classifications."""

    validators: int
    limit_iterations: int
    item6: int
    item8: int
    servfail_at_one: int
    ede27: int
    item7_violations: int
    item12_gaps: int

    @property
    def limit_pct(self):
        return _pct(self.limit_iterations, self.validators)

    @property
    def item6_pct(self):
        return _pct(self.item6, self.validators)

    @property
    def item8_pct(self):
        return _pct(self.item8, self.validators)

    @property
    def ede27_pct(self):
        return _pct(self.ede27, self.limit_iterations)

    @property
    def item7_violation_pct(self):
        return _pct(self.item7_violations, self.item6)

    @property
    def item12_gap_pct(self):
        return _pct(self.item12_gaps, self.validators)

    def rows(self):
        return [
            ("validators limiting iterations (%)", 78.3, round(self.limit_pct, 1)),
            ("Item 6: insecure above a limit (%)", 59.9, round(self.item6_pct, 1)),
            ("Item 8: SERVFAIL above a limit (%)", 18.4, round(self.item8_pct, 1)),
            ("SERVFAIL from it-1 (count)", 418, self.servfail_at_one),
            ("EDE 27 among limiters (%)", 18.0, round(self.ede27_pct, 1)),
            ("Item 7 violations (%)", 0.2, round(self.item7_violation_pct, 1)),
            ("Item 12 gaps (%)", 4.3, round(self.item12_gap_pct, 1)),
        ]


class ResolverHeadlineAccumulator:
    """Fold resolver classifications into §5.2 headline counters, one at
    a time. Only validating resolvers count towards the headline.
    """

    def __init__(self):
        self.resolvers = 0
        self.validating = 0
        self.limit_iterations = 0
        self.item6 = 0
        self.item8 = 0
        self.servfail_at_one = 0
        self.ede27 = 0
        self.item7_violations = 0
        self.item12_gaps = 0

    def update(self, classification):
        self.resolvers += 1
        if not classification.is_validating:
            return self
        self.validating += 1
        self.limit_iterations += classification.limits_iterations
        self.item6 += classification.implements_item6
        self.item8 += classification.implements_item8
        self.servfail_at_one += classification.strict_servfail_at_one
        self.ede27 += classification.ede27_support
        self.item7_violations += classification.item7_violation
        self.item12_gaps += classification.item12_gap
        return self

    def headline(self):
        return ResolverHeadline(
            validators=self.validating,
            limit_iterations=self.limit_iterations,
            item6=self.item6,
            item8=self.item8,
            servfail_at_one=self.servfail_at_one,
            ede27=self.ede27,
            item7_violations=self.item7_violations,
            item12_gaps=self.item12_gaps,
        )

