"""Measurement tooling: the paper's §4 methodology as code.

The modules below define what one unit of a campaign does. Only
:mod:`repro.scanner.campaign`'s ``run_units`` loops over units: no
module here runs a batch of its own.

- :mod:`repro.scanner.engine` — a zdns-style query engine with rate
  limiting and retry bookkeeping;
- :mod:`repro.scanner.dnskey_scan` — stage 1: is one domain
  DNSSEC-enabled (DNSKEY present);
- :mod:`repro.scanner.nsec3_scan` — stage 2 for one domain or TLD:
  NSEC3PARAM / NSEC3 / NS retrieval, RFC 5155 consistency filtering,
  RFC 9276 zone audits;
- :mod:`repro.scanner.resolver_scan` — one resolver's 49-probe session;
- :mod:`repro.scanner.atlas` — RIPE-Atlas-style probing of one closed
  resolver (no EDE visibility, in-network vantage);
- :mod:`repro.scanner.pipeline` — the whole method as one pipeline (the
  world, what a unit does), run as shards by the CLI and the fleet;
- :mod:`repro.scanner.campaign` — ``run_units``, the one campaign loop,
  and the journaled checkpoint it resumes from;
- :mod:`repro.scanner.supervisor` — ``--workers N``: the pipeline as a
  supervised fleet of shard processes;
- :mod:`repro.scanner.zonewalk` — NSEC walking and NSEC3 dictionary
  attacks: the title claim, not a pipeline stage.
"""
