"""The synthetic Internet testbed.

Builds everything the paper's measurements ran against, calibrated to the
published marginals so the analysis pipelines regenerate the same shapes:

- :mod:`repro.testbed.operators` — Table 2 operator profiles;
- :mod:`repro.testbed.population` — the registered-domain population and
  the TLD population (§5.1 calibration), standing in for the paper's
  curated domain list;
- :mod:`repro.testbed.tranco` — a synthetic popularity ranking (Figure 2);
- :mod:`repro.testbed.internet` — assembles root, TLD and domain zones on
  a simulated network with per-operator authoritative servers;
- :mod:`repro.testbed.rfc9276_wild` — the 49 probe zones of §4.2;
- :mod:`repro.testbed.resolvers` — the open/closed resolver population
  with vendor-policy mixture (Figure 3 calibration);
- :mod:`repro.testbed.adversary` — CVE-2023-50868 and KeyTrap zones for
  the ``attack`` command.
"""

from repro.testbed.operators import OPERATORS, OperatorProfile
from repro.testbed.population import (
    DomainSpec,
    Population,
    PopulationConfig,
    TldSpec,
    generate_population,
    generate_tlds,
    iter_population,
    population_size,
)
from repro.testbed.internet import Internet, build_internet
from repro.testbed.rfc9276_wild import ProbeZoneSet, build_probe_zones
from repro.testbed.resolvers import DeployedResolver, ResolverMixture, deploy_resolvers
from repro.testbed.tranco import assign_tranco_ranks

__all__ = [
    "OPERATORS",
    "OperatorProfile",
    "DomainSpec",
    "TldSpec",
    "Population",
    "PopulationConfig",
    "generate_population",
    "generate_tlds",
    "iter_population",
    "population_size",
    "Internet",
    "build_internet",
    "ProbeZoneSet",
    "build_probe_zones",
    "DeployedResolver",
    "ResolverMixture",
    "deploy_resolvers",
    "assign_tranco_ranks",
]
