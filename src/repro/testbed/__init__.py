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
