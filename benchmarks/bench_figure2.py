"""Figure 2: CDF of popularity ranks of NSEC3-enabled domains.

Paper: both curves (zero-iteration share and saltless share by rank)
increase uniformly — compliance is rank-independent — while popular
domains are more compliant overall than the full population (22.8 % vs
12.2 % zero-iteration; 23.6 % vs 8.6 % saltless).
"""

from repro.analysis.figures import Figure1Accumulator, figure2_series

from benchmarks.conftest import TRANCO_SIZE, fold


def test_figure2(benchmark, bench_internet, domain_scan):
    results = domain_scan["results"]
    specs = bench_internet["domains"]
    fig = benchmark(figure2_series, results, specs, TRANCO_SIZE)

    print("\n=== Figure 2: popularity-rank CDFs (measured) ===")
    print(f"{'rank ≤':>8s} {'NSEC3 (%)':>10s} {'0-iter (%)':>11s} {'no-salt (%)':>12s}")
    for upper, nsec3_pct, zero_pct, nosalt_pct in fig.rows(buckets=10):
        print(f"{upper:8d} {nsec3_pct:10.1f} {zero_pct:11.1f} {nosalt_pct:12.1f}")

    counts = fig.counts
    ranked_zero_pct = (
        100.0 * counts["zero_iterations"] / counts["ranked_nsec3"]
        if counts["ranked_nsec3"]
        else 0.0
    )
    overall = fold(Figure1Accumulator, results).figure()
    overall_zero_pct = 100.0 * overall.iterations_cdf.fraction_at_or_below(0)
    print(f"\nranked NSEC3 domains: {counts['ranked_nsec3']}")
    print(
        f"zero-iteration among ranked: paper=22.8 %  measured={ranked_zero_pct:.1f} % "
        f"(overall paper=12.2 %, measured={overall_zero_pct:.1f} %)"
    )

    # Shape 1: uniform rank distribution — the CDF at the midpoint bucket
    # is near 50 %.
    midpoint = fig.nsec3_rank_cdf.fraction_at_or_below(TRANCO_SIZE // 2)
    assert 0.35 < midpoint < 0.65
    # Shape 2: popular domains more compliant than the population at large.
    if counts["ranked_nsec3"] >= 20:
        assert ranked_zero_pct > overall_zero_pct
