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
