"""§5.1 headline numbers: the domain-side findings.

Paper: 302 M domains → 26.6 M DNSSEC-enabled (8.8 %) → 15.5 M NSEC3-enabled
(58.9 % of DNSSEC); 12.2 % zero iterations (87.8 % non-compliant); 8.6 %
saltless; 6.4 % opt-out; iteration maximum 500. TLDs: 1,354/1,449 DNSSEC,
1,302 NSEC3, 688 zero-iteration, 447 at 100 (Identity Digital), 672
saltless, 85.4 % opt-out.
"""

from collections import Counter

from repro.analysis.stats import DomainHeadlineAccumulator

from benchmarks.conftest import fold


def test_headline_domains(benchmark, bench_internet, domain_scan):
    results = domain_scan["results"]
    total = len(bench_internet["domains"])
    headline = benchmark(fold, DomainHeadlineAccumulator, results).headline(total)

    print("\n=== §5.1 headline: registered domains (paper vs measured) ===")
    for label, paper, measured in headline.rows():
        print(f"  {label:42s} paper={paper:>6}  measured={measured}")

    assert headline.nsec3_enabled > 0
    # The paper's central claim: most NSEC3-enabled domains break Item 2.
    assert headline.non_compliant_pct > 70.0
    # The tail exists and the max matches the paper's observed 500.
    assert headline.max_iterations == 500


def test_headline_tlds(benchmark, bench_internet, tld_scan):
    def analyse():
        nsec3 = [r for r in tld_scan if r.nsec3_enabled]
        return {
            "nsec3": len(nsec3),
            "zero": sum(1 for r in nsec3 if r.report.item2_zero_iterations),
            "at100": sum(1 for r in nsec3 if r.report.iterations == 100),
            "saltless": sum(1 for r in nsec3 if r.report.item3_no_salt),
            "optout": sum(1 for r in nsec3 if r.report.opt_out),
            "iteration_counts": Counter(r.report.iterations for r in nsec3),
        }

    stats = benchmark(analyse)
    scale = len(bench_internet["tlds"]) / 1449.0

    print("\n=== §5.1 headline: TLDs (paper vs measured, scaled) ===")
    rows = [
        ("NSEC3-enabled TLDs", 1302, stats["nsec3"]),
        ("zero additional iterations", 688, stats["zero"]),
        ("at exactly 100 iterations (Identity Digital)", 447, stats["at100"]),
        ("no salt", 672, stats["saltless"]),
    ]
    for label, paper, measured in rows:
        print(f"  {label:46s} paper={paper:5d} (scaled≈{paper * scale:6.0f})  measured={measured}")
    optout_pct = 100.0 * stats["optout"] / stats["nsec3"] if stats["nsec3"] else 0.0
    print(f"  {'opt-out flag set (%)':46s} paper= 85.4  measured={optout_pct:.1f}")

    assert abs(stats["at100"] - 447 * scale) <= 3
    assert stats["zero"] > stats["nsec3"] * 0.4
    assert optout_pct > 60.0
