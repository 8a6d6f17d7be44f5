"""The resolver population under measurement (paper §4.2/§5.2, Figure 3).

Deploys open and closed, IPv4 and IPv6 resolvers whose vendor-policy
mixture is calibrated to the paper's findings:

- 59.9 % of validators implement Item 6 (insecure above a limit), with the
  limit at 150 for the 2021 software wave, at 100 for Google forwarders
  (36.4 % of open IPv4 validators), and at 50 for the 12.5×-rarer
  CVE-2023-50868-patched installations;
- 18.4 % implement Item 8 (SERVFAIL above a limit), mostly at 150
  (Cloudflare/OpenDNS), 418 resolvers from it-1 (query-copying devices),
  92 at it-101 (Technitium, with EDE 27);
- 0.2 % violate Item 7 (skip NSEC3 RRSIG verification);
- 4.3 % show the Item 12 insecure/SERVFAIL gap;
- the rest validate but apply no iteration limit.

Closed resolvers sit inside private network segments; the simulated
network refuses them datagrams from the outside, so only the Atlas-style
probes (:mod:`repro.scanner.atlas`) can reach them — the same constraint
that forced the paper onto RIPE Atlas.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.net.network import Host
from repro.resolver.forwarder import QueryCopyingForwarder
from repro.resolver.policy import VENDOR_POLICIES

#: Mixture of validating resolvers: (kind, policy name, weight).
#: Weights follow §5.2; see the module docstring for the provenance.
DEFAULT_VALIDATOR_MIXTURE = (
    # Item 6 at 150: the 2021 vendor wave.
    ("resolver", "bind9-2021", 0.055),
    ("resolver", "unbound", 0.060),
    ("resolver", "knot-2021", 0.015),
    ("resolver", "powerdns-2021", 0.040),
    ("resolver", "quad9", 0.012),
    ("resolver", "sloppy-150", 0.002),     # Item 7 violators (0.2 %)
    ("resolver", "gapped", 0.043),         # Item 12 gaps (4.3 %)
    # Item 6 at 100: Google Public DNS and its forwarders.
    ("resolver", "google", 0.364),
    # Item 6 at 50: CVE-2023-50868 patched (≈ 12.5× rarer than 150).
    ("resolver", "bind9-2023", 0.008),
    ("resolver", "knot-2023", 0.003),
    ("resolver", "powerdns-2023", 0.004),
    # Item 8 at 150: Cloudflare / OpenDNS and their forwarders.
    ("resolver", "cloudflare", 0.118),
    ("resolver", "opendns", 0.058),
    # Item 8 at 100 with EDE 27: Technitium.
    ("resolver", "technitium", 0.001),
    # Item 8 at 0: broken devices echoing the query (418 in the paper).
    ("copier", "strict-rfc9276", 0.004),
    # No iteration limit at all.
    ("resolver", "legacy", 0.213),
)


@dataclass(frozen=True)
class ResolverMixture:
    """Composition of a resolver deployment."""

    validators: tuple = DEFAULT_VALIDATOR_MIXTURE
    #: Fraction of deployed resolvers that validate at all. The paper saw
    #: ~5.5 % among open IPv4 responders; simulating millions of
    #: non-validators adds nothing, so experiments default to a higher
    #: fraction and report validator-relative shares like the paper does.
    validator_fraction: float = 0.7


@dataclass
class DeployedResolver:
    """One resolver instance in the measured population."""

    ip: str
    family: str              # "v4" | "v6"
    access: str              # "open" | "closed"
    network_id: str
    kind: str                # "resolver" | "copier" | "non-validating"
    policy_name: str
    #: For closed resolvers: a source address inside their network segment
    #: that an Atlas-style probe can use.
    probe_source_ip: str = ""


class _ProbeEndpoint(Host):
    """A silent host owning the Atlas probe's source address."""

    def handle_datagram(self, wire, src_ip, via_tcp=False):
        return None


def _pick(rng, mixture):
    total = sum(weight for __, __, weight in mixture)
    roll = rng.random() * total
    acc = 0.0
    for kind, policy, weight in mixture:
        acc += weight
        if roll <= acc:
            return kind, policy
    return mixture[-1][0], mixture[-1][1]


def _stratified_assignments(mixture, count, rng):
    """Deterministic largest-remainder allocation of *count* resolvers.

    I.i.d. sampling makes small deployments drift noticeably from the
    calibrated shares (the paper's percentages are population statistics,
    not per-resolver coin flips), so each (kind, policy) gets its exact
    proportional share, with the fractional remainders going to the
    largest leftovers. Placement order is shuffled.
    """
    n_validators = round(count * mixture.validator_fraction)
    weights = mixture.validators
    total = sum(weight for __, __, weight in weights)
    exact = [
        (kind, policy, n_validators * weight / total) for kind, policy, weight in weights
    ]
    floors = [(kind, policy, int(share)) for kind, policy, share in exact]
    assigned = sum(n for __, __, n in floors)
    remainders = sorted(
        range(len(exact)),
        key=lambda i: exact[i][2] - floors[i][2],
        reverse=True,
    )
    counts = [n for __, __, n in floors]
    for index in remainders[: n_validators - assigned]:
        counts[index] += 1
    # Rare-but-real behaviours (the paper's 418 query-copiers, the 92
    # Technitium instances) must have a witness in any deployment large
    # enough to afford one; steal the slot from the largest component.
    if n_validators >= 2 * len(weights):
        for index in range(len(counts)):
            if counts[index] == 0:
                counts[counts.index(max(counts))] -= 1
                counts[index] = 1
    assignments = []
    for (kind, policy, __), n in zip(weights, counts):
        assignments.extend([(kind, policy)] * n)
    assignments.extend([("non-validating", "legacy")] * (count - n_validators))
    rng.shuffle(assignments)
    return assignments


def deploy_resolvers(
    inet,
    open_v4=60,
    open_v6=15,
    closed_v4=15,
    closed_v6=10,
    mixture=None,
    rng=None,
    seed=53,
):
    """Deploy the resolver population onto the testbed network.

    Returns a list of :class:`DeployedResolver`. Closed resolvers each get
    a private network segment plus a registered probe source address.
    """
    mixture = mixture or ResolverMixture()
    rng = rng or random.Random(seed)
    deployed = []
    copier_upstreams = {}

    def _make_one(index, family, access, kind, policy_name):
        ipv6 = family == "v6"
        network_id = "public" if access == "open" else f"closed-{access}-{index}"

        if kind == "copier":
            upstream = copier_upstreams.get(policy_name)
            if upstream is None:
                upstream = inet.make_resolver(
                    VENDOR_POLICIES[policy_name], name=f"copier-upstream-{policy_name}"
                )
                copier_upstreams[policy_name] = upstream
            ip = inet.allocator.next_v6() if ipv6 else inet.allocator.next_v4()
            inet.network.attach(
                ip,
                QueryCopyingForwarder(inet.network, ip, upstream.ip),
                network_id=network_id,
            )
        else:
            ip = inet.make_resolver(
                VENDOR_POLICIES[policy_name],
                validate=(kind != "non-validating"),
                network_id=network_id,
                ipv6=ipv6,
                name=f"{access}-{family}-{policy_name}-{index}",
            ).ip

        probe_source = ""
        if access == "closed":
            probe_source = (
                inet.allocator.next_v6() if ipv6 else inet.allocator.next_v4()
            )
            inet.network.attach(probe_source, _ProbeEndpoint(), network_id=network_id)
        deployed.append(
            DeployedResolver(
                ip=ip,
                family=family,
                access=access,
                network_id=network_id,
                kind=kind,
                policy_name=policy_name,
                probe_source_ip=probe_source,
            )
        )

    for family, access, count in (
        ("v4", "open", open_v4),
        ("v6", "open", open_v6),
        ("v4", "closed", closed_v4),
        ("v6", "closed", closed_v6),
    ):
        assignments = _stratified_assignments(mixture, count, rng)
        for index, (kind, policy_name) in enumerate(assignments):
            _make_one(index, family, access, kind, policy_name)
    return deployed
