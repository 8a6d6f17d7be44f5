"""Table 2 regeneration: operator aggregation of NSEC3-enabled domains.

The paper processes the NS records of all NSEC3-enabled domains,
aggregates the NS targets by *registered domain* (even across public
suffixes), and reports the 10 operators that exclusively serve the most
domains, with each operator's dominant NSEC3 parameter settings.

:class:`OperatorTableAccumulator` computes it one ``update(result)`` at a
time, with exact counts. It holds one counter per operator and parameter
setting, not per domain; the operators come from the closed
:data:`repro.testbed.operators.OPERATORS` catalogue.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass


def registered_domain(ns_target):
    """The registered domain of an NS target: its last two labels.

    Public-suffix handling in the real study is more involved; the
    synthetic namespace always uses two-label registrations.
    """
    labels = [l for l in ns_target.rstrip(".").split(".") if l]
    if len(labels) < 2:
        return ns_target.rstrip(".")
    return ".".join(labels[-2:]).lower()


@dataclass
class OperatorRow:
    """One row of Table 2."""

    operator: str
    domains: int
    share_pct: float
    #: Most common parameter settings: [(count, iterations, salt_length)].
    top_params: list

    def params_text(self):
        return ", ".join(f"{it}/{salt}" for __, it, salt in self.top_params)


class OperatorTableAccumulator:
    """Fold stage-2 scan results into Table 2 tallies, one at a time.

    Only *exclusively served* domains count (all NS targets under one
    registered domain), mirroring the paper.
    """

    def __init__(self):
        self.nsec3_total = 0
        #: operator -> Counter of (iterations, salt_length) over the
        #: domains it exclusively serves, in first-seen order.
        self._params = {}

    def update(self, result):
        if not result.nsec3_enabled:
            return self
        self.nsec3_total += 1
        operators = {registered_domain(t) for t in result.ns_targets}
        if len(operators) != 1:
            return self  # not exclusively served
        operator = next(iter(operators))
        params = self._params.get(operator)
        if params is None:
            params = self._params[operator] = Counter()
        params[(result.report.iterations, result.report.salt_length)] += 1
        return self

    def rows(self, top_n=10, params_coverage=0.999):
        """The rendered Table 2 rows, largest operators first. The sort is
        stable over first-seen order, so operators with equal counts keep
        the order in which the scan first met them.
        """
        rows = []
        for operator, params in self._params.items():
            count = params.total()
            covered = 0
            top = []
            for (iterations, salt), param_count in params.most_common():
                top.append((param_count, iterations, salt))
                covered += param_count
                if covered / count >= params_coverage:
                    break
            rows.append(
                OperatorRow(
                    operator=operator,
                    domains=count,
                    share_pct=(
                        100.0 * count / self.nsec3_total if self.nsec3_total else 0.0
                    ),
                    top_params=top,
                )
            )
        rows.sort(key=lambda row: -row.domains)
        return rows[:top_n]


def format_operator_table(rows):
    """Render rows in the paper's Table 2 layout."""
    lines = [
        f"{'Auth. name server operator':34s} {'# NSEC3 domains':>16s} "
        f"{'(%)':>6s}  iterations/salt-length"
    ]
    for row in rows:
        lines.append(
            f"{row.operator:34s} {row.domains:16d} {row.share_pct:6.1f}  "
            f"{row.params_text()}"
        )
    return "\n".join(lines)
