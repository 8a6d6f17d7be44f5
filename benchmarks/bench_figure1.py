"""Figure 1: CDFs of additional iterations and salt length.

Paper: 12.2 % of NSEC3-enabled domains at 0 iterations; ≤25 iterations for
99.9 %; ≤10-byte salt for 97.2 % of salted domains; tails reaching 500
iterations and 160-byte salts.
"""

from repro.analysis.figures import Figure1Accumulator

from benchmarks.conftest import fold

GRID = (0, 1, 2, 5, 8, 10, 16, 25, 40, 50, 100, 150, 200, 500)


def test_figure1(benchmark, domain_scan):
    results = domain_scan["results"]
    fig = benchmark(fold, Figure1Accumulator, results).figure()

    print("\n=== Figure 1: CDFs over NSEC3-enabled domains (measured) ===")
    print(f"{'x':>5s} {'iterations ≤ x (%)':>20s} {'salt length ≤ x B (%)':>22s}")
    for x, it_pct, salt_pct in fig.rows(GRID):
        print(f"{x:5d} {it_pct:20.1f} {salt_pct:22.1f}")

    zero_pct = 100.0 * fig.iterations_cdf.fraction_at_or_below(0)
    p999 = fig.iterations_cdf.percentile(0.999)
    print(f"\nzero iterations: paper=12.2 %  measured={zero_pct:.1f} %")
    print(f"P99.9 iterations: paper≤25     measured={p999}")
    print(f"max iterations:  paper=500     measured={fig.iterations_cdf.percentile(1.0)}")

    # Shape: minority at zero, vast majority at ≤25, long tail present.
    assert zero_pct < 30.0
    assert fig.iterations_cdf.fraction_at_or_below(25) > 0.95
    assert fig.iterations_cdf.percentile(1.0) >= 200
    assert fig.salt_length_cdf.fraction_at_or_below(10) > 0.9
