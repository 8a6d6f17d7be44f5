"""The ``rfc9276-in-the-wild.com`` probe infrastructure (paper §4.2).

49 purpose-built child zones plus the Item 7 control:

- ``it-1`` … ``it-25`` — every iteration count up to the population P99.9;
- ``it-50`` … ``it-500`` in steps of 25 — the long tail;
- ``it-51``, ``it-101``, ``it-151`` — successors of the vendor thresholds;
- ``valid`` — compliant (0 iterations, no salt), wildcarded so unique
  probe names return NOERROR (+AD from validators);
- ``expired`` — correctly built but with expired RRSIGs (validators must
  SERVFAIL);
- ``it-2501-expired`` — 2,501 iterations (beyond every RFC 5155 limit)
  with an *expired signature over the NSEC3 RRset only*: a resolver that
  answers NXDOMAIN instead of SERVFAIL skipped signature verification and
  violates Item 7.

Divergence from the paper: their zones all carried wildcards (for
cache-busting); ours give the ``it-N`` zones no wildcard so that unique
probe names yield the NXDOMAIN + closest-encloser proof that Figure 3
classifies. The observable (RCODE/AD/EDE per iteration count) is the same.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.crypto.keys import make_ds
from repro.dns.name import Name
from repro.server.authoritative import AuthoritativeServer
from repro.zone.builder import ZoneBuilder
from repro.zone.nsec3chain import Nsec3Params
from repro.zone.signing import SigningPolicy, sign_zone

#: Iteration counts with a dedicated probe zone (§4.2).
PROBE_ZONE_ITERATIONS = tuple(
    sorted(set(range(1, 26)) | set(range(50, 501, 25)) | {51, 101, 151})
)

PARENT_DOMAIN = "rfc9276-in-the-wild.com"


@dataclass
class ProbeZoneSet:
    """Handles to the deployed probe infrastructure."""

    parent_name: Name
    server: AuthoritativeServer
    server_ips: tuple
    zones: dict = field(default_factory=dict)

    def probe_name(self, key, unique=""):
        """FQDN to query for probe *key* (an iteration count or control).

        *unique* is the per-resolver cache-busting label the paper's
        methodology prescribes.
        """
        label = self.zone_label(key)
        prefix = f"{unique}." if unique else ""
        return f"{prefix}{label}.{PARENT_DOMAIN}"

    @staticmethod
    def zone_label(key):
        if key == 0 or key == "valid":
            return "valid"
        if isinstance(key, int):
            return f"it-{key}"
        return str(key)

    def all_probe_keys(self):
        """Controls plus every it-N, in probing order."""
        return ["valid", "expired", *PROBE_ZONE_ITERATIONS, "it-2501-expired"]


def _child_zone(label, parent, server_v4, server_v6, wildcard):
    origin = f"{label}.{parent}"
    builder = (
        ZoneBuilder(origin)
        .soa(f"ns1.{origin}", f"hostmaster.{origin}")
        .ns(f"ns1.{origin}.")
        .a(f"ns1.{origin}.", server_v4)
        .aaaa(f"ns1.{origin}.", server_v6)
        .a("@", "203.0.113.80")
        .a("www", "203.0.113.80")
        .txt("@", "NSEC3 measurement study; contact research@example for opt-out")
    )
    if wildcard:
        builder.wildcard_a("203.0.113.80")
    return builder.build()


def build_probe_zones(inet, seed=9276):
    """Deploy the probe infrastructure into an existing Internet testbed.

    Inserts the delegation into the ``com`` TLD zone (re-signing it), hosts
    the parent and all child zones on a dedicated measurement server, and
    returns the :class:`ProbeZoneSet`.
    """
    rng = random.Random(seed)
    network = inet.network
    server = AuthoritativeServer("rfc9276-wild")
    v4, v6 = inet.allocator.next_v4(), inet.allocator.next_v6()
    network.attach(v4, server)
    network.attach(v6, server)

    parent = Name.from_text(PARENT_DOMAIN)
    parent_builder = (
        ZoneBuilder(PARENT_DOMAIN)
        .soa(f"ns1.{PARENT_DOMAIN}", f"hostmaster.{PARENT_DOMAIN}")
        .ns(f"ns1.{PARENT_DOMAIN}.")
        .a("ns1", v4)
        .aaaa("ns1", v6)
        .a("@", "203.0.113.80")
    )

    zone_specs = []
    zone_specs.append(("valid", SigningPolicy(nsec3=Nsec3Params(0, b"")), True))
    zone_specs.append(
        ("expired", SigningPolicy(nsec3=Nsec3Params(0, b""), expired=True), True)
    )
    for iterations in PROBE_ZONE_ITERATIONS:
        zone_specs.append(
            (f"it-{iterations}", SigningPolicy(nsec3=Nsec3Params(iterations, b"")), False)
        )
    zone_specs.append(
        (
            "it-2501-expired",
            SigningPolicy(nsec3=Nsec3Params(2501, b""), expired_nsec3_only=True),
            False,
        )
    )

    probe_set = ProbeZoneSet(parent, server, (v4, v6))
    child_entries = []
    for label, policy, wildcard in zone_specs:
        zone = _child_zone(label, PARENT_DOMAIN, v4, v6, wildcard)
        ksk, zsk = inet.key_pool.next_pair()
        sign_zone(zone, policy, ksk=ksk, zsk=zsk, rng=rng)
        server.add_zone(zone)
        probe_set.zones[label] = zone
        child_entries.append((label, zone))

    # Parent zone: delegate every child with DS, then sign (0 iterations).
    for label, zone in child_entries:
        origin = f"{label}.{PARENT_DOMAIN}"
        parent_builder.delegate(
            Name.from_text(origin),
            f"ns1.{origin}.",
            ds=[make_ds(origin, zone.keys[0].dnskey)],
        )
        parent_builder.a(f"ns1.{origin}.", v4)
        parent_builder.aaaa(f"ns1.{origin}.", v6)
    parent_zone = parent_builder.build()
    ksk, zsk = inet.key_pool.next_pair()
    sign_zone(parent_zone, SigningPolicy(nsec3=Nsec3Params(0, b"")), ksk=ksk, zsk=zsk, rng=rng)
    server.add_zone(parent_zone)
    probe_set.zones["@"] = parent_zone

    # Insert the delegation into .com and re-sign it with its existing keys.
    com = inet.tld_zones.get("com")
    if com is None:
        raise ValueError("testbed has no .com zone to delegate the probe domain from")
    com_spec = next(spec for spec in inet.tld_specs if spec.label == "com")
    from repro.dns.rdata import NS, A, AAAA
    from repro.dns.types import RdataType

    com.add(parent, RdataType.NS, 3600, NS(f"ns1.{PARENT_DOMAIN}."))
    com.add(parent, RdataType.DS, 3600, make_ds(PARENT_DOMAIN, parent_zone.keys[0].dnskey))
    com.add(f"ns1.{PARENT_DOMAIN}", RdataType.A, 3600, A(v4))
    com.add(f"ns1.{PARENT_DOMAIN}", RdataType.AAAA, 3600, AAAA(v6))
    ksk_com, zsk_com = com.keys if com.keys else inet.key_pool.next_pair()
    com_params = Nsec3Params(
        iterations=com_spec.iterations,
        salt=b"",
        opt_out=com_spec.opt_out,
    ) if com_spec.denial == "nsec3" else None
    sign_zone(com, SigningPolicy(nsec3=com_params), ksk=ksk_com, zsk=zsk_com, rng=rng)
    return probe_set
