"""RIPE-Atlas-style measurement of closed resolvers (§4.2).

Closed resolvers only answer queries from inside their own network, so the
paper used RIPE Atlas probes as in-network vantage points. The simulated
equivalent: every closed resolver's segment contains a registered probe
address; the campaign issues the standard probe matrix from there.

Fidelity detail: "RIPE Atlas does not supply the EDE data" — the campaign
strips EDE codes from its results, which is why the paper could not check
Items 10/11 for closed resolvers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.resolver_compliance import classify_resolver
from repro.scanner.resolver_scan import SurveyEntry, probe_with_policy
from repro.testbed.rfc9276_wild import PROBE_ZONE_ITERATIONS

#: Classification note of a closed resolver whose probes stayed unhealthy.
ATLAS_DEGRADED_NOTE = "degraded: Atlas probes unanswered or unstable"


@dataclass
class AtlasCampaign:
    """Probes closed resolvers from inside their networks."""

    network: object
    probe_set: object
    iterations: tuple = PROBE_ZONE_ITERATIONS
    #: RIPE Atlas caps concurrent measurements; we model the cap as a
    #: simple budget of resolvers per campaign run.
    max_probes: int = 1000
    #: Same graceful-degradation knobs as :class:`ResolverSurvey` — Atlas
    #: probes cross the same hostile network the scanner does.
    retry_policy: object = None
    #: In-flight window on the simulation kernel (Atlas probes run from
    #: independent vantage points, so their sessions naturally overlap).
    concurrency: int = 1
    entries: list = field(default_factory=list)

    def eligible(self, deployed_resolvers):
        """``(index, resolver)`` for the closed resolvers, in deployment
        order, that have a probe vantage and fit the probe budget."""
        count = 0
        for index, deployed in enumerate(deployed_resolvers):
            if deployed.access != "closed" or not deployed.probe_source_ip:
                continue
            if count >= self.max_probes:
                break
            count += 1
            yield index, deployed

    def run(self, deployed_resolvers):
        from repro.net.sim import CampaignExecutor

        executor = CampaignExecutor(self.network.kernel, self.concurrency)
        self.entries = []
        for index, deployed in self.eligible(deployed_resolvers):
            matrix, healthy = executor.submit(
                lambda d=deployed, i=index: self.probe(d, i)
            )
            classification = classify_resolver(matrix, resolver=deployed.ip)
            if not healthy:
                classification.notes.append(ATLAS_DEGRADED_NOTE)
            self.entries.append(SurveyEntry(deployed, matrix, classification))
        executor.drain()
        return self.entries

    def probe(self, deployed, index):
        """One closed resolver's probe session; returns (matrix, healthy)."""
        return probe_with_policy(
            self.network,
            deployed.ip,
            self.probe_set,
            deployed.probe_source_ip,
            f"atlas{index}",
            self.iterations,
            self.retry_policy,
            keep_ede=False,  # Atlas does not expose EDE
        )

    def classifications(self):
        return [entry.classification for entry in self.entries]
