"""repro — reproduction of *Zeros Are Heroes: NSEC3 Parameter Settings in the Wild* (IMC 2024).

This package implements, from scratch and in pure Python:

- a complete DNS wire-format codec (:mod:`repro.dns`),
- DNSSEC cryptography and signing/validation (:mod:`repro.crypto`,
  :mod:`repro.dnssec`),
- a zone model with NSEC/NSEC3 chain generation (:mod:`repro.zone`),
- a simulated Internet with authoritative name servers and validating
  recursive resolvers (:mod:`repro.net`, :mod:`repro.server`,
  :mod:`repro.resolver`),
- the paper's measurement methodology: calibrated synthetic populations,
  the ``rfc9276-in-the-wild.com`` probe zones, bulk scanners, and the
  RFC 9276 compliance engine (:mod:`repro.testbed`, :mod:`repro.scanner`,
  :mod:`repro.core`, :mod:`repro.analysis`).
"""

__version__ = "1.0.0"
