#!/usr/bin/env python3
"""CVE-2023-50868: NSEC3 closest-encloser proofs as a resolver DoS.

Demonstrates the vulnerability motivating RFC 9276's urgency: a validating
resolver asked for non-existent names under a high-iteration zone must
re-hash several names with (iterations + 1) SHA-1 passes each — CPU an
attacker spends nothing to trigger. The demo measures the amplification on
an unpatched ("legacy") resolver and then shows the patched policy
(insecure above 50, per the 2023 fixes) capping the damage.

Usage:  python examples/cve_2023_50868.py
"""

from repro.dns.rcode import Rcode
from repro.dns.types import RdataType
from repro.dnssec.costmodel import meter
from repro.resolver.policy import VENDOR_POLICIES
from repro.resolver.stub import StubClient
from repro.testbed.internet import build_internet
from repro.testbed.population import Population, PopulationConfig, generate_tlds
from repro.testbed.rfc9276_wild import build_probe_zones


def denial_cost(stub, resolver_ip, probes, key, unique):
    """SHA-1 compressions the resolver spends validating one denial."""
    before = meter.snapshot()
    answer = stub.ask(resolver_ip, probes.probe_name(key, unique), RdataType.A)
    delta = meter.snapshot() - before
    return answer, delta.sha1_compressions


def main():
    config = PopulationConfig(
        n_domains=10, n_tlds=40, tld_dnssec=36, tld_nsec3=33,
        tld_zero_iterations=15, tld_identity_digital=7,
        tld_saltless=15, tld_salt8=12, tld_salt10=1,
    )
    tlds = generate_tlds(config)
    inet = build_internet(
        Population(config, tlds=tlds, include_tail=False), tlds, seed=3
    )
    probes = build_probe_zones(inet)
    stub = StubClient(inet.network, inet.allocator.next_v4())

    victim = inet.make_resolver(VENDOR_POLICIES["legacy"], name="unpatched")
    print("=== Unpatched resolver (no iteration limit) ===")
    print(f"{'zone':>10s} {'rcode':>9s} {'SHA-1 compressions':>20s} {'amplification':>14s}")
    __, baseline = denial_cost(stub, victim.ip, probes, 1, "base")
    print(f"{'it-1':>10s} {'NXDOMAIN':>9s} {baseline:20d} {'1.0x':>14s}")
    for count in (50, 150, 500):
        answer, cost = denial_cost(stub, victim.ip, probes, count, f"atk{count}")
        print(
            f"{'it-' + str(count):>10s} {Rcode.to_text(answer.rcode):>9s} "
            f"{cost:20d} {cost / baseline:13.1f}x"
        )
    print("(Gruza et al. measured up to 72× CPU instructions on real resolvers)")

    patched = inet.make_resolver(VENDOR_POLICIES["bind9-2023"], name="patched")
    print("\n=== Patched resolver (insecure above 50, CVE-2023-50868 fix) ===")
    __, base2 = denial_cost(stub, patched.ip, probes, 1, "pbase")
    print(f"{'it-1':>10s} {'NXDOMAIN':>9s} {base2:20d} {'1.0x':>14s}")
    for count in (50, 150, 500):
        answer, cost = denial_cost(stub, patched.ip, probes, count, f"patk{count}")
        note = " (resolver skipped the proof)" if count > 50 else ""
        print(
            f"{'it-' + str(count):>10s} {Rcode.to_text(answer.rcode):>9s} "
            f"{cost:20d} {cost / base2:13.1f}x{note}"
        )
    print(
        "\nThe patched policy answers insecurely above its limit instead of "
        "paying the hash bill — Items 6/8 of RFC 9276 in action.\n"
        "(The meter is global: the remaining above-limit cost is the\n"
        " *authoritative server* assembling the proof the resolver declined\n"
        " to verify; the resolver-side share is what the patch eliminates.)"
    )


if __name__ == "__main__":
    main()
