#!/usr/bin/env python3
"""The paper's §4.2/§5.2 resolver survey on a synthetic Internet.

Deploys a population of open and closed resolvers running real vendor
policies (BIND9, Unbound, Google, Cloudflare, Technitium, broken CPE
boxes, …), stands up the 49 ``rfc9276-in-the-wild.com`` probe zones,
probes every resolver, and prints the classification results: Figure 3's
series and the §5.2 headline numbers.

Usage:  python examples/resolver_survey.py [n_open_v4]
"""

import sys
import time
from collections import Counter

from repro.analysis.figures import Figure3Accumulator
from repro.analysis.stats import ResolverHeadlineAccumulator
from repro.core.resolver_compliance import classify_resolver
from repro.scanner.atlas import AtlasCampaign
from repro.scanner.resolver_scan import ResolverSurvey, SurveyEntry, requeue_label
from repro.testbed.internet import build_internet
from repro.testbed.population import Population, PopulationConfig, generate_tlds
from repro.testbed.resolvers import deploy_resolvers
from repro.testbed.rfc9276_wild import build_probe_zones


def classified(deployed, probed):
    """A probe session's ``(matrix, healthy)`` as a classified entry."""
    matrix, __ = probed
    return SurveyEntry(deployed, matrix, classify_resolver(matrix, resolver=deployed.ip))


def main(open_v4=60):
    config = PopulationConfig(
        n_domains=20, n_tlds=40, tld_dnssec=36, tld_nsec3=33,
        tld_zero_iterations=15, tld_identity_digital=7,
        tld_saltless=15, tld_salt8=12, tld_salt10=1,
    )
    tlds = generate_tlds(config)
    domains = Population(config, tlds=tlds, include_tail=False)
    inet = build_internet(domains, tlds, seed=11)
    probes = build_probe_zones(inet)
    print(f"probe zones online: {len(probes.zones) - 1} children of {probes.parent_name}")

    deployment = deploy_resolvers(
        inet,
        open_v4=open_v4,
        open_v6=open_v4 // 4,
        closed_v4=open_v4 // 5,
        closed_v6=open_v4 // 8,
        seed=99,
    )
    print(f"deployed {len(deployment)} resolvers:")
    for (kind, policy), count in sorted(
        Counter((d.kind, d.policy_name) for d in deployment).items()
    ):
        print(f"  {count:4d} × {kind}/{policy}")

    start = time.perf_counter()
    # Open resolvers are probed from the scanner, each under its own
    # cache-busting label; closed ones from a vantage inside their network.
    survey = ResolverSurvey(inet.network, probes, inet.allocator.next_v4())
    open_entries = [
        classified(deployed, survey.probe(deployed, requeue_label(index)))
        for index, deployed in enumerate(deployment)
        if deployed.access != "closed"
    ]
    atlas = AtlasCampaign(inet.network, probes)
    closed_entries = [
        classified(deployed, atlas.probe(deployed, index))
        for index, deployed in atlas.eligible(deployment)
    ]
    print(
        f"\nprobed {len(open_entries)} open + {len(closed_entries)} closed "
        f"resolvers in {time.perf_counter() - start:.1f}s "
        f"({len(probes.all_probe_keys())} zones each)"
    )

    headline = ResolverHeadlineAccumulator()
    for entry in open_entries + closed_entries:
        headline.update(entry.classification)
    print("\n=== §5.2 headline numbers (paper vs this run) ===")
    for label, paper, measured in headline.headline().rows():
        print(f"  {label:40s} paper={paper:>6}  measured={measured}")

    for access, family, title in (
        ("open", "v4", "(a) Open, IPv4"),
        ("open", "v6", "(b) Open, IPv6"),
        ("closed", "v4", "(c) Closed, IPv4"),
        ("closed", "v6", "(d) Closed, IPv6"),
    ):
        pool = open_entries if access == "open" else closed_entries
        figure3 = Figure3Accumulator()
        for entry in pool:
            if entry.resolver.family == family:
                figure3.update(entry)
        fig = figure3.figure(title)
        print(f"\n=== Figure 3 {title}: {fig.validators} validators ===")
        print(f"{'it-N':>6s} {'NXDOMAIN%':>10s} {'AD+NX%':>8s} {'SERVFAIL%':>10s}")
        for count in (1, 25, 50, 51, 100, 101, 150, 151, 300, 500):
            if count in fig.series:
                nx, adnx, servfail = fig.series[count]
                print(f"{count:6d} {nx:10.1f} {adnx:8.1f} {servfail:10.1f}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 60)
