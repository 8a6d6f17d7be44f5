#!/usr/bin/env python3
"""Quickstart: sign a zone with NSEC3, serve it, resolve it, audit it.

Runs a three-node simulated Internet (root → com → example.com), signs
example.com with deliberately non-compliant NSEC3 parameters, resolves a
few names through a validating resolver, and audits the zone against
RFC 9276 — the core loop of the paper in ~100 lines.

Usage:  python examples/quickstart.py
"""

import random

from repro.core.zone_compliance import Nsec3Observation, check_zone_compliance
from repro.crypto.keys import make_ds
from repro.dns.rcode import Rcode
from repro.dns.rdata import A
from repro.dns.rrset import RRset
from repro.dns.types import RdataType
from repro.net.network import Network
from repro.resolver.policy import VENDOR_POLICIES
from repro.resolver.stub import StubClient
from repro.resolver.validating import ValidatingResolver
from repro.server.authoritative import AuthoritativeServer
from repro.zone.builder import ZoneBuilder
from repro.zone.nsec3chain import Nsec3Params
from repro.zone.signing import SigningPolicy, sign_zone


def main():
    rng = random.Random(2024)
    net = Network(seed=1)

    # --- 1. Build and sign example.com with NSEC3 (10 iterations, salted:
    #        exactly what RFC 9276 says not to do).
    example = (
        ZoneBuilder("example.com")
        .soa("ns1.example.com", "hostmaster.example.com")
        .ns("ns1.example.com.")
        .a("ns1", "192.0.2.53")
        .a("www", "192.0.2.80")
        .txt("@", "hello from the quickstart zone")
        .build()
    )
    params = Nsec3Params(iterations=10, salt=bytes.fromhex("DEADBEEF"))
    sign_zone(example, SigningPolicy(nsec3=params), rng=rng)
    print(f"signed {example.origin} — NSEC3 chain of {len(example.nsec3_chain)} records")

    # --- 2. Build the parent tree: com and the root, each delegating with DS.
    com = (
        ZoneBuilder("com")
        .soa("ns1.gtld.net", "h.gtld.net")
        .ns("ns1.com.")
        .a("ns1", "192.0.2.52")
        .delegate("example", "ns1.example.com.",
                  ds=make_ds("example.com", example.keys[0].dnskey))
        .build()
    )
    com.add("ns1.example.com", RdataType.A, 3600, A("192.0.2.53"))
    sign_zone(com, SigningPolicy(nsec3=Nsec3Params(0, b"", opt_out=True)), rng=rng)

    root = (
        ZoneBuilder(".")
        .soa("a.root.", "h.root.")
        .ns("a.root.")
        .a("a.root.", "192.0.2.1")
        .delegate("com.", "ns1.com.", ds=make_ds("com", com.keys[0].dnskey))
        .build()
    )
    root.add("ns1.com", RdataType.A, 3600, A("192.0.2.52"))
    sign_zone(root, SigningPolicy(nsec3=None), rng=rng)

    # --- 3. Host everything and attach a validating resolver (BIND9-style
    #        policy: insecure above 150 iterations).
    for ip, zone in (("192.0.2.1", root), ("192.0.2.52", com), ("192.0.2.53", example)):
        server = AuthoritativeServer(f"auth-{ip}")
        server.add_zone(zone)
        net.attach(ip, server)

    trust_anchor = RRset(".", RdataType.DS, 3600, [make_ds(".", root.keys[0].dnskey)])
    resolver = ValidatingResolver(
        net, "198.51.100.53", ["192.0.2.1"], trust_anchor,
        policy=VENDOR_POLICIES["bind9-2021"],
    )
    net.attach("198.51.100.53", resolver)

    # --- 4. Resolve through the full chain of trust.
    stub = StubClient(net, "203.0.113.10")
    for qname, qtype in (
        ("www.example.com", RdataType.A),
        ("example.com", RdataType.TXT),
        ("missing.example.com", RdataType.A),
    ):
        answer = stub.ask(resolver.ip, qname, qtype)
        records = [r.to_text() for rrset in answer.answer for r in rrset
                   if int(rrset.rrtype) == int(qtype)]
        print(
            f"{qname:24s} {RdataType.to_text(qtype):4s} → "
            f"{Rcode.to_text(answer.rcode):9s} AD={answer.ad} {records}"
        )

    # --- 5. Audit the zone against RFC 9276 Items 1-5.
    observation = Nsec3Observation(
        domain="example.com",
        dnssec_enabled=True,
        nsec3param_records=((1, params.iterations, params.salt),),
        nsec3_records=((1, params.iterations, params.salt),),
    )
    report = check_zone_compliance(observation)
    print(f"\nRFC 9276 audit of example.com (compliant={report.rfc9276_compliant}):")
    for violation in report.violations:
        print(f"  ✗ {violation}")
    print("\nFix: re-sign with Nsec3Params(iterations=0, salt=b'') — zeros are heroes.")


if __name__ == "__main__":
    main()
