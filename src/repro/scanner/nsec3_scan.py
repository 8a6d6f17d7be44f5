"""Stage 2 of the domain pipeline (§4.1): NSEC3 parameters and compliance.

For every DNSSEC-enabled domain:

1. query ``NSEC3PARAM`` (the advertised chain parameters) and ``NS`` (for
   operator attribution, Table 2);
2. query a random, almost-surely-nonexistent subdomain to trigger a
   negative response carrying actual ``NSEC3`` records;
3. keep only domains with exactly one NSEC3PARAM record and consistent
   parameters across NSEC3 and NSEC3PARAM (RFC 5155 consistency — the
   paper's *NSEC3-enabled* filter);
4. audit against RFC 9276 Items 1–5.

All queries run with CD set: the paper's scanner measures what zones
publish, not what a validator accepts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.zone_compliance import Nsec3Observation, check_zone_compliance
from repro.dns.rcode import Rcode
from repro.dns.types import RdataType


@dataclass
class DomainScanResult:
    """Everything stage 2 learned about one domain."""

    domain: str
    observation: Nsec3Observation = None
    report: object = None
    ns_targets: tuple = ()
    denial: str = ""

    @property
    def nsec3_enabled(self):
        return self.report is not None and self.report.nsec3_enabled


def _params_of(rdata):
    return (rdata.hash_algorithm, rdata.iterations, bytes(rdata.salt))


def _random_label(rng):
    return "zx" + "".join(rng.choice("abcdefghijklmnopqrstuvwxyz0123456789") for __ in range(12))


def domain_rng(seed, domain):
    """The probe-label RNG for one domain, derived from (seed, domain).

    Seeding from the *name* rather than sharing one sequential stream
    makes the probe label a pure function of the domain: a campaign
    partitioned across worker shards (or resumed mid-list) draws exactly
    the labels the single-process scan would. ``random.Random(str)``
    seeds via SHA-512 of the bytes, independent of PYTHONHASHSEED.
    """
    return random.Random(f"{seed}/{str(domain).rstrip('.').lower()}")


def scan_domain(engine, domain, rng, delegation_count=0, open_zone=False):
    """Run the stage-2 scan for one domain; returns a DomainScanResult."""
    result = DomainScanResult(domain=domain)

    param_answer = engine.query(
        domain, RdataType.NSEC3PARAM, checking_disabled=True
    )
    nsec3params = []
    if param_answer.rcode == Rcode.NOERROR:
        for rrset in param_answer.answer:
            if int(rrset.rrtype) == int(RdataType.NSEC3PARAM):
                nsec3params.extend(_params_of(r) for r in rrset)

    ns_answer = engine.query(domain, RdataType.NS, checking_disabled=True)
    targets = []
    if ns_answer.rcode == Rcode.NOERROR:
        for rrset in ns_answer.answer:
            if int(rrset.rrtype) == int(RdataType.NS):
                targets.extend(r.target.to_text() for r in rrset)
    result.ns_targets = tuple(sorted(set(targets)))

    probe_name = f"{_random_label(rng)}.{domain}"
    negative = engine.query(probe_name, RdataType.A, checking_disabled=True)
    nsec3_records = []
    opt_out = False
    saw_nsec = False
    for rrset in negative.authority:
        if int(rrset.rrtype) == int(RdataType.NSEC3):
            for rdata in rrset:
                nsec3_records.append(_params_of(rdata))
                opt_out = opt_out or rdata.opt_out
        elif int(rrset.rrtype) == int(RdataType.NSEC):
            saw_nsec = True
    if saw_nsec and not nsec3_records and not nsec3params:
        result.denial = "nsec"
    elif nsec3params or nsec3_records:
        result.denial = "nsec3"

    result.observation = Nsec3Observation(
        domain=domain,
        dnssec_enabled=True,
        nsec3param_records=tuple(nsec3params),
        nsec3_records=tuple(nsec3_records),
        opt_out_seen=opt_out,
        delegation_count=delegation_count,
        zone_published_openly=open_zone,
    )
    result.report = check_zone_compliance(result.observation)
    return result


def scan_tld(engine, spec, seed=31):
    """The TLD variant of :func:`scan_domain` (§5.1's 1,449-TLD analysis).

    *spec* may be a label or a :class:`~repro.testbed.population.TldSpec`;
    a spec contributes its open-zone-data flag to the Item 1 heuristic,
    and every TLD counts as delegation-heavy for Items 4/5.
    """
    label = spec if isinstance(spec, str) else spec.label
    return scan_domain(
        engine,
        label,
        domain_rng(seed, label),
        delegation_count=10_000,
        open_zone=not isinstance(spec, str) and spec.open_zone_data,
    )
