#!/usr/bin/env python3
"""Zone walking: why NSEC3 exists, and why iterations barely help.

Part 1 walks an NSEC-signed zone through a recursive resolver: each denial
names the *next* existing owner, so repeatedly querying just past it
enumerates the whole zone — the privacy leak NSEC3 was designed to stop
(paper §2.2).

Part 2 harvests the NSEC3 hashes of the same zone from denials, then runs
an offline dictionary attack (www, mail, api, …) against them. RFC 9276's
rationale in one table: the same queries and the same dictionary recover
the guessable names at 0 iterations and at 500 alike — extra iterations
only multiply the hashing bill, for attacker and *defender* alike.

Usage:  python examples/zone_walking.py
"""

import random

from repro.net.network import Network
from repro.resolver.stub import StubClient
from repro.resolver.validating import ValidatingResolver
from repro.scanner.zonewalk import Nsec3Walker, walk_nsec_zone
from repro.server.authoritative import AuthoritativeServer
from repro.zone.builder import ZoneBuilder
from repro.zone.nsec3chain import Nsec3Params
from repro.zone.signing import SigningPolicy, sign_zone

ZONE = "victim.test"
SECRET_LABELS = ("www", "mail", "api", "staging", "vpn", "db-internal", "zq7x1")
DICTIONARY = (
    "www", "mail", "api", "ftp", "staging", "dev", "test", "vpn", "ns1",
    "admin", "portal", "shop", "blog", "db", "db-internal", "intranet",
)


def serve(net, index, nsec3):
    """Host the zone, signed with NSEC (*nsec3* None) or NSEC3, on its
    own server; returns the address of a recursive resolver that finds
    it there."""
    builder = ZoneBuilder(ZONE).soa(f"ns1.{ZONE}", f"h.{ZONE}").ns(f"ns1.{ZONE}.")
    builder.a("ns1", "192.0.2.1")
    for label in SECRET_LABELS:
        builder.a(label, "198.18.0.1")
    zone = sign_zone(builder.build(), SigningPolicy(nsec3=nsec3), rng=random.Random(index))
    server = AuthoritativeServer(f"auth-{index}")
    server.add_zone(zone)
    net.attach(f"192.0.2.{index}", server)
    resolver = ValidatingResolver(
        net, f"198.51.100.{index}", [f"192.0.2.{index}"], None, validate=False
    )
    net.attach(resolver.ip, resolver)
    return resolver.ip


def main():
    net = Network(seed=1)
    client = StubClient(net, "203.0.113.1")

    print("=== Part 1: walking the NSEC chain ===")
    walk = walk_nsec_zone(client, serve(net, 1, None), ZONE)
    names = [name.to_text() for name in walk.names]
    print(f"enumerated {len(names)} names in {walk.queries} queries:")
    for name in names:
        print(f"  {name}")
    assert walk.complete and {f"{label}.{ZONE}." for label in SECRET_LABELS} <= set(names)
    print("→ every name leaked, including db-internal and the random one.\n")

    print("=== Part 2: offline dictionary attack vs NSEC3 iterations ===")
    print(f"{'iterations':>11s} {'queries':>8s} {'recovered labels':>40s} {'attacker SHA-1 ops':>19s}")
    for index, iterations in enumerate((0, 1, 10, 150, 500), start=2):
        params = Nsec3Params(iterations=iterations, salt=b"\x5a\x5a")
        walker = Nsec3Walker(client, serve(net, index, params), ZONE)
        walker.collect(f"probe-{i}" for i in range(30))
        result = walker.crack(DICTIONARY)
        labels = ", ".join(label for label in result.recovered if label != "@")
        print(f"{iterations:11d} {walker.queries:8d} {labels:>40s} {result.hash_operations:19d}")
    print(
        "\n→ the same guessable labels fall at every iteration count; only the\n"
        "  un-guessable 'zq7x1' stays hidden. Extra iterations scale the cost\n"
        "  for attacker and *defender* alike — hence RFC 9276 Item 2: use 0."
    )


if __name__ == "__main__":
    main()
