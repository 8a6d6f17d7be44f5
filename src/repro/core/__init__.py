"""The paper's primary contribution: an RFC 9276 compliance engine.

- :mod:`repro.core.guidance` — Table 1 of the paper (the twelve guidance
  items of RFC 9276) encoded as first-class rule objects.
- :mod:`repro.core.zone_compliance` — Items 1–5 audits for zones/domains,
  plus the RFC 5155 consistency checks of paper §4.1.
- :mod:`repro.core.resolver_compliance` — Items 6–12 classification of a
  resolver from its observed responses to the ``it-N`` probe zones
  (paper §4.2/§5.2).
"""
