"""Recursive resolvers: iterative resolution, caching, DNSSEC validation.

The validating resolver composes :mod:`repro.dnssec` primitives with the
per-vendor NSEC3 iteration policies of :mod:`repro.resolver.policy` — the
behavioural axis the paper's §5.2 measures.
"""
