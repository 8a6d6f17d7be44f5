"""Stage 1 of the domain pipeline (§4.1): which domains are DNSSEC-enabled.

"We used zdns to query each domain for its DNSKEY records […]. If any
DNSKEY records are returned, we consider the domain name DNSSEC-enabled."
The paper deliberately keeps domains whose signatures are broken — so this
scan runs with CD (checking disabled), exactly as a non-validating lookup
tool would.
"""

from __future__ import annotations

from repro.dns.rcode import Rcode
from repro.dns.types import RdataType


def dnssec_enabled(engine, name):
    """True when *name* answers a DNSKEY query with DNSKEY records."""
    answer = engine.query(
        name, RdataType.DNSKEY, want_dnssec=True, checking_disabled=True
    )
    return answer.rcode == Rcode.NOERROR and any(
        int(rrset.rrtype) == int(RdataType.DNSKEY) for rrset in answer.answer
    )


def dnskey_scan(engine, domain_names):
    """Return the subset of *domain_names* that present DNSKEY records."""
    enabled = [name for name in domain_names if dnssec_enabled(engine, name)]
    # Settle the engine's in-flight window so stage 2 starts after every
    # stage-1 session has completed on the simulated clock.
    engine.drain()
    return enabled
