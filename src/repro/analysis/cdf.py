"""Empirical cumulative distribution functions for the figures.

:class:`StreamingCdf` is built by ``update(value)``, one sample at a
time, and holds one counter per *distinct* value, so memory is
O(distinct) rather than O(samples). The axes the paper plots (iteration
counts, salt lengths, popularity ranks) are discrete, and every read is
an exact ``count / n`` division.
"""

from __future__ import annotations

import bisect
import math


class StreamingCdf:
    """An exact CDF built incrementally: one counter per distinct value.

    ``update`` is O(log distinct): a sorted insert on first sight of a
    value, a dict increment afterwards.
    """

    def __init__(self, samples=()):
        self._counts = {}
        self._sorted = []  # distinct values, ascending
        self._cumulative = None  # cache: cumulative counts per distinct
        self.n = 0
        for value in samples:
            self.update(value)

    def update(self, value):
        if value in self._counts:
            self._counts[value] += 1
        else:
            self._counts[value] = 1
            bisect.insort(self._sorted, value)
        self.n += 1
        self._cumulative = None
        return self

    def _cumulative_counts(self):
        if self._cumulative is None:
            total = 0
            cumulative = []
            for value in self._sorted:
                total += self._counts[value]
                cumulative.append(total)
            self._cumulative = cumulative
        return self._cumulative

    def __len__(self):
        return self.n

    def fraction_at_or_below(self, value):
        """P(X ≤ value), in [0, 1]."""
        if not self.n:
            return 0.0
        position = bisect.bisect_right(self._sorted, value)
        if position == 0:
            return 0.0
        return self._cumulative_counts()[position - 1] / self.n

    def percentile(self, fraction):
        """The smallest sample x with P(X ≤ x) ≥ fraction."""
        if not self.n:
            raise ValueError("empty CDF")
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        rank = max(1, math.ceil(fraction * self.n))
        position = bisect.bisect_left(self._cumulative_counts(), rank)
        return self._sorted[position]
