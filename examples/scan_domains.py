#!/usr/bin/env python3
"""The paper's §4.1/§5.1 domain pipeline on a synthetic Internet.

Builds a calibrated population of registered domains under real-ratio TLDs
(standing in for the paper's curated 302 M-name list), scans its names
zdns-style through a shared caching resolver, stage by stage through the
library API, and prints the paper's domain-side results: the headline
compliance numbers, Figure 1's CDFs, and Table 2's operator breakdown.

Usage:  python examples/scan_domains.py [n_domains]
"""

import sys
import time

from repro.analysis.figures import figure1_series
from repro.analysis.stats import domain_headline_stats
from repro.analysis.tables import format_operator_table, operator_table
from repro.resolver.policy import VENDOR_POLICIES
from repro.scanner.dnskey_scan import dnssec_enabled
from repro.scanner.engine import ScanEngine
from repro.scanner.nsec3_scan import domain_rng, scan_domain
from repro.testbed.internet import build_internet
from repro.testbed.population import (
    PopulationConfig,
    generate_population,
    generate_tlds,
    inject_tail_domains,
)


def main(n_domains=800):
    config = PopulationConfig(
        n_domains=n_domains,
        n_tlds=120,
        tld_dnssec=112,
        tld_nsec3=108,
        tld_zero_iterations=57,
        tld_identity_digital=37,
        tld_saltless=56,
        tld_salt8=46,
        tld_salt10=1,
    )
    print(f"generating population of {n_domains} registered domains…")
    tlds = generate_tlds(config)
    domains = inject_tail_domains(generate_population(config, tlds=tlds))

    start = time.perf_counter()
    inet = build_internet(domains, tlds, seed=7)
    print(
        f"built {len(inet.domain_zones)} signed zones under {len(tlds)} TLDs "
        f"in {time.perf_counter() - start:.1f}s"
    )

    # The shared resolver standing in for Cloudflare 1.1.1.1.
    upstream = inet.make_resolver(VENDOR_POLICIES["cloudflare"], name="1.1.1.1-sim")
    engine = ScanEngine(
        inet.network, inet.allocator.next_v4(), upstream.ip, max_qps=14_700
    )

    print("\nstage 1: DNSKEY scan…")
    enabled = [spec.name for spec in domains if dnssec_enabled(engine, spec.name)]
    engine.drain()
    print(f"  {len(enabled)}/{len(domains)} domains are DNSSEC-enabled")

    print("stage 2: NSEC3PARAM / NSEC3 / NS scan…")
    results = [scan_domain(engine, name, domain_rng(1355, name)) for name in enabled]
    engine.drain()
    print(
        f"  {engine.stats.queries} queries total, "
        f"resolver cache hit rate {upstream.cache.hit_rate:.2f}"
    )

    headline = domain_headline_stats(results, total_domains=len(domains))
    print("\n=== §5.1 headline numbers (paper vs this run) ===")
    for label, paper, measured in headline.rows():
        print(f"  {label:42s} paper={paper:>6}  measured={measured}")

    fig = figure1_series(results)
    print("\n=== Figure 1: CDF rows ===")
    print(f"{'x':>5s} {'iterations ≤ x (%)':>20s} {'salt ≤ x bytes (%)':>20s}")
    for x, it_pct, salt_pct in fig.rows((0, 1, 5, 10, 25, 50, 150, 500)):
        print(f"{x:5d} {it_pct:20.1f} {salt_pct:20.1f}")

    print("\n=== Table 2: operator breakdown ===")
    print(format_operator_table(operator_table(results)))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 800)
