"""Measurement tooling: the paper's §4 methodology as code.

- :mod:`repro.scanner.engine` — a zdns-style bulk query engine with rate
  limiting and retry bookkeeping;
- :mod:`repro.scanner.dnskey_scan` — stage 1: which domains are
  DNSSEC-enabled (DNSKEY present);
- :mod:`repro.scanner.nsec3_scan` — stage 2: NSEC3PARAM / NSEC3 / NS
  retrieval, RFC 5155 consistency filtering, RFC 9276 zone audits;
- :mod:`repro.scanner.resolver_scan` — the 49-probe resolver survey;
- :mod:`repro.scanner.atlas` — RIPE-Atlas-style probing of closed
  resolvers (no EDE visibility, in-network vantage);
- :mod:`repro.scanner.pipeline` — the whole method as one pipeline (the
  world, what a unit does), run as shards by the CLI and the fleet;
- :mod:`repro.scanner.campaign` — ``run_units``, the one campaign loop,
  and the journaled checkpoint it resumes from;
- :mod:`repro.scanner.supervisor` — ``--workers N``: the pipeline as a
  supervised fleet of shard processes;
- :mod:`repro.scanner.zonewalk` — NSEC walking and NSEC3 dictionary
  attacks: the title claim, not a pipeline stage.
"""

from repro.scanner.campaign import CampaignCheckpoint
from repro.scanner.engine import ScanEngine, ScanStats
from repro.scanner.dnskey_scan import dnskey_scan
from repro.scanner.nsec3_scan import DomainScanResult, nsec3_scan, scan_tlds
from repro.scanner.resolver_scan import (
    ResolverSurvey,
    SurveyRetryPolicy,
    probe_resolver,
)
from repro.scanner.atlas import AtlasCampaign
from repro.scanner.zonewalk import Nsec3Walker, walk_nsec_zone

__all__ = [
    "CampaignCheckpoint",
    "ScanEngine",
    "ScanStats",
    "SurveyRetryPolicy",
    "dnskey_scan",
    "DomainScanResult",
    "nsec3_scan",
    "scan_tlds",
    "ResolverSurvey",
    "probe_resolver",
    "AtlasCampaign",
    "Nsec3Walker",
    "walk_nsec_zone",
]
