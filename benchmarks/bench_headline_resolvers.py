"""§5.2 headline numbers: the resolver-side findings.

Paper (of 114 K validators): 78.3 % limit iterations; 59.9 % implement
Item 6 (insecure above a limit); 18.4 % implement Item 8 (SERVFAIL);
418 resolvers SERVFAIL from it-1; <18 % of limiters attach EDE 27;
0.2 % violate Item 7; 4.3 % show an Item 12 gap; common Item 6 thresholds
150 ≫ 100 > 50 with 12.5× fewer at 50 than at 150.
"""

from collections import Counter

from repro.analysis.stats import ResolverHeadlineAccumulator

from benchmarks.conftest import fold


def test_headline_resolvers(benchmark, resolver_survey):
    classifications = [entry.classification for entry in resolver_survey["all"]]
    headline = benchmark(fold, ResolverHeadlineAccumulator, classifications).headline()

    print("\n=== §5.2 headline: validating resolvers (paper vs measured) ===")
    for label, paper, measured in headline.rows():
        print(f"  {label:40s} paper={paper:>6}  measured={measured}")

    thresholds = Counter(
        cls.insecure_threshold
        for cls in classifications
        if cls.implements_item6 and cls.insecure_threshold is not None
    )
    print("\nItem 6 thresholds (measured):", dict(sorted(thresholds.items())))

    assert headline.validators >= 50
    # Shapes: most validators limit; Item 6 dominates Item 8.
    assert headline.limit_pct > 55.0
    assert headline.item6 > headline.item8
    # 150 is the most common Item 6 threshold after 100 (Google's).
    assert thresholds.get(150, 0) > thresholds.get(50, 0)


def test_threshold_ratio_150_vs_50(benchmark, resolver_survey):
    classifications = [entry.classification for entry in resolver_survey["all"]]

    def tally():
        # Pure Item 6 thresholds: resolvers with an additional SERVFAIL
        # band (Item 12 gaps) sit at 50 for a different reason than the
        # CVE patches and would skew the vendor-threshold histogram.
        return Counter(
            cls.insecure_threshold
            for cls in classifications
            if cls.implements_item6
            and not cls.implements_item8
            and cls.insecure_threshold is not None
        )

    thresholds = benchmark(tally)
    at150 = thresholds.get(150, 0)
    at50 = thresholds.get(50, 0)
    print(f"\nthreshold 150: {at150}, threshold 50: {at50} "
          f"(paper ratio ≈ 12.5×)")
    if at50:
        assert at150 / at50 > 3.0
    else:
        assert at150 > 0
