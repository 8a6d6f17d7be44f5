"""Measurement tooling: the paper's §4 methodology as code.

- :mod:`repro.scanner.engine` — a zdns-style bulk query engine with rate
  limiting and retry bookkeeping;
- :mod:`repro.scanner.dnskey_scan` — stage 1: which domains are
  DNSSEC-enabled (DNSKEY present);
- :mod:`repro.scanner.nsec3_scan` — stage 2: NSEC3PARAM / NSEC3 / NS
  retrieval, RFC 5155 consistency filtering, RFC 9276 zone audits;
- :mod:`repro.scanner.resolver_scan` — the 49-probe resolver survey;
- :mod:`repro.scanner.openresolver` — open-resolver discovery;
- :mod:`repro.scanner.atlas` — RIPE-Atlas-style probing of closed
  resolvers (no EDE visibility, in-network vantage);
- :mod:`repro.scanner.pipeline` — the whole method as one pipeline (the
  world, what a unit does), run as shards by the CLI and the fleet.
"""

from repro.scanner.campaign import CampaignCheckpoint, CampaignResult, job_key
from repro.scanner.engine import ScanEngine, ScanStats
from repro.scanner.dnskey_scan import dnskey_scan
from repro.scanner.nsec3_scan import DomainScanResult, nsec3_scan, scan_tlds
from repro.scanner.resolver_scan import (
    ResolverSurvey,
    SurveyRetryPolicy,
    probe_resolver,
)
from repro.scanner.openresolver import discover_open_resolvers
from repro.scanner.atlas import AtlasCampaign
from repro.scanner.axfr import TransferRefused, ZoneTransfer, axfr
from repro.scanner.zonewalk import Nsec3Walker, walk_nsec_zone

__all__ = [
    "CampaignCheckpoint",
    "CampaignResult",
    "job_key",
    "ScanEngine",
    "ScanStats",
    "SurveyRetryPolicy",
    "dnskey_scan",
    "DomainScanResult",
    "nsec3_scan",
    "scan_tlds",
    "ResolverSurvey",
    "probe_resolver",
    "discover_open_resolvers",
    "AtlasCampaign",
    "TransferRefused",
    "ZoneTransfer",
    "axfr",
    "Nsec3Walker",
    "walk_nsec_zone",
]
