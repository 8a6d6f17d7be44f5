"""Analysis: turning scan output into the paper's tables and figures."""

from repro.analysis.cdf import Cdf, StreamingCdf
from repro.analysis.sketch import QuantileSketch, SpaceSavingTopK, StreamStats
from repro.analysis.stats import (
    DomainHeadlineAccumulator,
    ResolverHeadlineAccumulator,
    domain_headline_stats,
    resolver_headline_stats,
)
from repro.analysis.tables import OperatorTableAccumulator, operator_table
from repro.analysis.figures import (
    Figure1Accumulator,
    Figure3Accumulator,
    figure1_series,
    figure2_series,
    figure3_series,
)
from repro.analysis.longitudinal import compliance_timeline

__all__ = [
    "Cdf",
    "StreamingCdf",
    "QuantileSketch",
    "SpaceSavingTopK",
    "StreamStats",
    "DomainHeadlineAccumulator",
    "ResolverHeadlineAccumulator",
    "domain_headline_stats",
    "resolver_headline_stats",
    "OperatorTableAccumulator",
    "operator_table",
    "Figure1Accumulator",
    "Figure3Accumulator",
    "figure1_series",
    "figure2_series",
    "figure3_series",
    "compliance_timeline",
]
