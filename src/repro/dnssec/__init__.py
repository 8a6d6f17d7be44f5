"""DNSSEC engine: NSEC3 hashing, RRset signing, validation, denial proofs.

The modules here implement the mechanisms whose *parameters* the paper
measures:

- :mod:`repro.dnssec.nsec3hash` — the iterated, salted SHA-1 of RFC 5155,
  instrumented by :mod:`repro.dnssec.costmodel` so the CVE-2023-50868
  amplification benchmark can count real work;
- :mod:`repro.dnssec.signer` / :mod:`repro.dnssec.validator` — RRSIG
  computation and verification over canonical RRsets (RFC 4034 §6);
- :mod:`repro.dnssec.denial` — closest-encloser proofs: what an
  authoritative server must assemble for a negative answer and what a
  validating resolver must hash to check it.
"""
