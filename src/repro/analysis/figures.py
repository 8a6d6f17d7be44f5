"""Figure regeneration: the data series behind the paper's Figures 1–3.

Figures 1 and 3 are ``update(record)`` accumulators
(:class:`Figure1Accumulator`, :class:`Figure3Accumulator`) that fold
results as they arrive, with memory bounded by the number of *distinct*
x-axis values, not the number of samples. The study report folds them
in :class:`repro.core.report.StudyAggregates`. Figure 2 needs the
synthetic Tranco ranking (:mod:`repro.testbed.tranco`), which no
campaign builds, so :func:`figure2_series` reads a list of results.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.analysis.cdf import StreamingCdf


@dataclass
class Figure1:
    """CDFs of additional iterations and salt length (Figure 1)."""

    iterations_cdf: StreamingCdf
    salt_length_cdf: StreamingCdf

    def rows(self, xs=(0, 1, 2, 5, 8, 10, 16, 25, 50, 100, 150, 500)):
        """(x, %domains with iterations ≤ x, %domains with salt ≤ x B)."""
        return [
            (
                x,
                100.0 * self.iterations_cdf.fraction_at_or_below(x),
                100.0 * self.salt_length_cdf.fraction_at_or_below(x),
            )
            for x in xs
        ]


class Figure1Accumulator:
    """Fold stage-2 scan results into Figure 1's two CDFs incrementally."""

    def __init__(self):
        self.iterations = StreamingCdf()
        self.salt_lengths = StreamingCdf()

    def update(self, result):
        if not result.nsec3_enabled:
            return self
        self.iterations.update(result.report.iterations)
        self.salt_lengths.update(result.report.salt_length)
        return self

    def figure(self):
        return Figure1(self.iterations, self.salt_lengths)


@dataclass
class Figure2:
    """CDFs over popularity ranks (Figure 2)."""

    #: Ranks of all NSEC3-enabled ranked domains.
    nsec3_rank_cdf: StreamingCdf
    #: Ranks of NSEC3-enabled ranked domains with zero iterations.
    zero_it_rank_cdf: StreamingCdf
    #: Ranks of NSEC3-enabled ranked domains without salt.
    no_salt_rank_cdf: StreamingCdf
    list_size: int
    counts: dict

    def rows(self, buckets=10):
        """Rank-bucket rows: (upper rank, % of each curve at or below)."""
        rows = []
        for bucket in range(1, buckets + 1):
            upper = self.list_size * bucket // buckets
            rows.append(
                (
                    upper,
                    100.0 * self.nsec3_rank_cdf.fraction_at_or_below(upper),
                    100.0 * self.zero_it_rank_cdf.fraction_at_or_below(upper),
                    100.0 * self.no_salt_rank_cdf.fraction_at_or_below(upper),
                )
            )
        return rows


def figure2_series(scan_results, specs, list_size):
    """Figure 2: intersect scan results with the synthetic Tranco list.

    *specs* supply the rank assignment (scan results identify domains by
    name); *list_size* is the ranking's length.
    """
    rank_of = {spec.name: spec.tranco_rank for spec in specs if spec.tranco_rank}
    nsec3_ranks, zero_ranks, nosalt_ranks = StreamingCdf(), StreamingCdf(), StreamingCdf()
    ranked_dnssec = 0
    for result in scan_results:
        rank = rank_of.get(result.domain)
        if rank is None:
            continue
        ranked_dnssec += 1
        if not result.nsec3_enabled:
            continue
        nsec3_ranks.update(rank)
        if result.report.iterations == 0:
            zero_ranks.update(rank)
        if result.report.salt_length == 0:
            nosalt_ranks.update(rank)
    counts = {
        "ranked_dnssec": ranked_dnssec,
        "ranked_nsec3": len(nsec3_ranks),
        "zero_iterations": len(zero_ranks),
        "no_salt": len(nosalt_ranks),
    }
    return Figure2(nsec3_ranks, zero_ranks, nosalt_ranks, list_size, counts)


@dataclass
class Figure3Category:
    """One subfigure of Figure 3 (e.g. open IPv4)."""

    category: str
    validators: int
    #: iteration count -> (nxdomain %, ad+nxdomain %, servfail %).
    series: dict

    def rows(self):
        return [
            (count, *self.series[count]) for count in sorted(self.series)
        ]


class Figure3Accumulator:
    """Fold survey entries into one Figure 3 subfigure incrementally.

    Memory is O(distinct probe iteration counts) — ~50 keys — however
    many resolvers stream through. Only validating resolvers contribute,
    as in the paper.
    """

    def __init__(self):
        self.validators = 0
        self._tallies = defaultdict(lambda: [0, 0, 0])

    def update(self, entry):
        if not entry.classification.is_validating:
            return self
        self.validators += 1
        for key, result in entry.matrix.items():
            if not isinstance(key, int):
                continue
            if result.is_nxdomain:
                self._tallies[key][0] += 1
                if result.ad:
                    self._tallies[key][1] += 1
            elif result.is_servfail:
                self._tallies[key][2] += 1
        return self

    def figure(self, category):
        total = self.validators
        series = {}
        for count, (nx, adnx, servfail) in self._tallies.items():
            if total:
                series[count] = (
                    100.0 * nx / total,
                    100.0 * adnx / total,
                    100.0 * servfail / total,
                )
            else:
                series[count] = (0.0, 0.0, 0.0)
        return Figure3Category(category=category, validators=total, series=series)

