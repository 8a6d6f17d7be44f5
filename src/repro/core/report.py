"""Full study report: every paper artifact in one text document.

:class:`StudyAggregates` folds scan results, TLD results, and survey
entries into bounded-memory accumulators as they arrive, and renders the
paper's §5 structure from the aggregates alone — the streaming study
pipeline feeds it one record at a time and never holds the result lists.
These accumulators are the only computation of the report's numbers.

:func:`render_study_report` folds lists of results, already held, through
one :class:`StudyAggregates`.
"""

from __future__ import annotations

from collections import Counter

from repro.analysis.figures import Figure1Accumulator, Figure3Accumulator
from repro.analysis.stats import (
    DomainHeadlineAccumulator,
    ResolverHeadlineAccumulator,
)
from repro.analysis.tables import OperatorTableAccumulator, format_operator_table
from repro.core.guidance import GUIDANCE

TITLE = "RFC 9276 compliance study (synthetic reproduction)"


def _section(title):
    bar = "=" * len(title)
    return f"\n{title}\n{bar}\n"


class StudyAggregates:
    """Incremental study state: everything the report needs, O(1) in the
    number of domains scanned.

    Feed records with :meth:`update_domain` / :meth:`update_tld` /
    :meth:`update_survey` in arrival order, then :meth:`render`.
    Sections with no records folded in are omitted, mirroring the
    optional list arguments of :func:`render_study_report`.
    """

    def __init__(self):
        self.domain_headline = DomainHeadlineAccumulator()
        self.figure1 = Figure1Accumulator()
        self.operators = OperatorTableAccumulator()
        self.tlds_seen = 0
        self.tld_nsec3 = 0
        self.tld_iteration_counts = Counter()
        self.tld_opt_out = 0
        self.resolver_headline = ResolverHeadlineAccumulator()
        self.item6_thresholds = Counter()
        self.figure3 = Figure3Accumulator()

    def update_domain(self, result):
        """Fold one stage-2 :class:`DomainScanResult`."""
        self.domain_headline.update(result)
        self.figure1.update(result)
        self.operators.update(result)
        return self

    def update_tld(self, result):
        """Fold one TLD scan result."""
        self.tlds_seen += 1
        if result.nsec3_enabled:
            self.tld_nsec3 += 1
            self.tld_iteration_counts[result.report.iterations] += 1
            self.tld_opt_out += result.report.opt_out
        return self

    def update_survey(self, entry):
        """Fold one resolver :class:`SurveyEntry`."""
        classification = entry.classification
        self.resolver_headline.update(classification)
        if (
            classification.implements_item6
            and classification.insecure_threshold is not None
        ):
            self.item6_thresholds[classification.insecure_threshold] += 1
        self.figure3.update(entry)
        return self

    def render(self, total_domains):
        """Render the full study as text from the folded aggregates."""
        lines = [TITLE, "*" * len(TITLE)]

        lines.append(_section("Guidance under test (RFC 9276, paper Table 1)"))
        for item in GUIDANCE:
            lines.append(f"  Item {item.number:2d} [{item.keyword.value}] {item.summary}")

        lines.append(_section("Domain names (paper §5.1)"))
        headline = self.domain_headline.headline(total_domains)
        for label, paper, measured in headline.rows():
            lines.append(f"  {label:42s} paper={paper:>6}  measured={measured}")

        figure1 = self.figure1.figure()
        if len(figure1.iterations_cdf):
            lines.append("\n  Figure 1 — CDFs over NSEC3-enabled domains:")
            lines.append(f"  {'x':>5s} {'iter ≤ x (%)':>13s} {'salt ≤ x B (%)':>15s}")
            for x, it_pct, salt_pct in figure1.rows((0, 1, 5, 10, 25, 50, 150, 500)):
                lines.append(f"  {x:5d} {it_pct:13.1f} {salt_pct:15.1f}")

        rows = self.operators.rows()
        if rows:
            lines.append("\n  Table 2 — authoritative operators:")
            for text_line in format_operator_table(rows).splitlines():
                lines.append("  " + text_line)

        if self.tlds_seen:
            lines.append(_section("Top-level domains (paper §5.1)"))
            lines.append(f"  NSEC3-enabled TLDs: {self.tld_nsec3} / {self.tlds_seen}")
            lines.append(
                f"  iteration values: {dict(sorted(self.tld_iteration_counts.items()))}"
            )
            lines.append(
                f"  opt-out: {self.tld_opt_out} "
                f"({100.0 * self.tld_opt_out / self.tld_nsec3:.1f} %)"
                if self.tld_nsec3
                else "  (no NSEC3 TLDs)"
            )

        if self.resolver_headline.resolvers:
            lines.append(_section("Validating resolvers (paper §5.2)"))
            resolver_headline = self.resolver_headline.headline()
            for label, paper, measured in resolver_headline.rows():
                lines.append(f"  {label:40s} paper={paper:>6}  measured={measured}")

            lines.append(
                f"\n  Item 6 thresholds: {dict(sorted(self.item6_thresholds.items()))}"
            )

            figure3 = self.figure3.figure("all probed resolvers")
            lines.append(
                f"\n  Figure 3 — all categories ({figure3.validators} validators):"
            )
            lines.append(
                f"  {'it-N':>6s} {'NXDOMAIN%':>10s} {'AD+NX%':>8s} {'SERVFAIL%':>10s}"
            )
            for count in (1, 25, 50, 51, 100, 101, 150, 151, 300, 500):
                if count in figure3.series:
                    nx, adnx, servfail = figure3.series[count]
                    lines.append(f"  {count:6d} {nx:10.1f} {adnx:8.1f} {servfail:10.1f}")

        lines.append(_section("Verdict"))
        lines.append(
            f"  {headline.non_compliant_pct:.1f} % of NSEC3-enabled domains fail "
            "RFC 9276 Item 2 (paper: 87.8 %). Zeros are heroes."
        )
        return "\n".join(lines)


def render_study_report(
    domain_results,
    total_domains,
    tld_results=None,
    survey_entries=None,
):
    """Render the full study as text.

    *domain_results* — stage-2 scan results; *tld_results* — TLD scan
    results; *survey_entries* — resolver survey entries (open + closed).
    Sections without data are omitted.
    """
    aggregates = StudyAggregates()
    for result in domain_results:
        aggregates.update_domain(result)
    for result in tld_results or ():
        aggregates.update_tld(result)
    for entry in survey_entries or ():
        aggregates.update_survey(entry)
    return aggregates.render(total_domains)
