"""Build the simulated world a service instance puts on real sockets.

One construction path shared by ``repro serve``, the soak harness, and
the service tests: the measurement pipeline's own
:meth:`~repro.scanner.pipeline.World.build` (the scaled population
internet with lazy zones and bounded memory, the RFC 9276 probe zones)
plus the adversarial NSEC3/KeyTrap lab and a guarded validating
resolver in front of it all. Loadgen processes derive the same benign
names from the same ``(domains, tlds)`` pair without ever seeing these
objects — the scaling rule is the contract.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.resolver.guard import GUARD_PROFILES
from repro.resolver.policy import VENDOR_POLICIES
from repro.scanner.pipeline import CampaignPlan, World
from repro.testbed.adversary import build_attack_zones


@dataclass
class ServiceWorld:
    """Handles to everything a served testbed is made of."""

    inet: object
    probes: object
    attack: object
    resolver: object

    @property
    def auth_server(self):
        """The probe-zone authoritative server (direct-auth binding)."""
        return self.probes.server


def build_service_world(
    domains=40,
    tlds=12,
    seed=7,
    guard="guarded",
    policy="legacy",
    with_attack=True,
):
    """The served testbed: internet + probes + attack lab + resolver.

    *guard* names a :data:`~repro.resolver.guard.GUARD_PROFILES` entry
    (or None for an unguarded resolver — soak comparisons only; a live
    frontend without per-query budgets is exactly the pre-2024 posture
    the paper warns about).
    """
    world = World.build(
        CampaignPlan(role="serve", domains=domains, tlds=tlds, resolvers=0, seed=seed)
    )
    inet = world.inet
    attack = build_attack_zones(inet, seed=seed + 50_861) if with_attack else None
    resolver = inet.make_resolver(
        VENDOR_POLICIES[policy],
        name="service-resolver",
        guard=GUARD_PROFILES[guard] if guard else None,
    )
    return ServiceWorld(
        inet=inet, probes=world.probes, attack=attack, resolver=resolver
    )
