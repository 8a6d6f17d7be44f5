"""Zone-side RFC 9276 compliance: Items 1–5 plus RFC 5155 consistency.

The paper's §4.1 pipeline keeps only domains that

1. return exactly one ``NSEC3PARAM`` record,
2. use identical parameters on all observed ``NSEC3`` records, and
3. use identical parameters between ``NSEC3`` and ``NSEC3PARAM`` records,

and calls those *NSEC3-enabled*. This module implements that filter and the
per-domain compliance verdicts that feed Figure 1, Table 2 and the headline
"87.8 % fail to adhere" number.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Paper §5.1: opt-out is reasonable only for large, delegation-heavy zones.
#: Zones below this delegation count are "small" for Item 4 purposes.
SMALL_ZONE_DELEGATIONS = 1000


@dataclass(frozen=True)
class Nsec3Observation:
    """What a scan observed about one domain's NSEC3 configuration.

    ``nsec3param_records`` holds the parameter tuples
    ``(hash_algorithm, iterations, salt)`` of every NSEC3PARAM record at the
    apex; ``nsec3_records`` the tuples seen on NSEC3 records in negative
    responses; ``opt_out_seen`` whether any NSEC3 record had the opt-out
    flag set.
    """

    domain: str
    dnssec_enabled: bool = False
    nsec3param_records: tuple = ()
    nsec3_records: tuple = ()
    opt_out_seen: bool = False
    delegation_count: int = 0
    zone_published_openly: bool = False


@dataclass
class ZoneComplianceReport:
    """Per-domain verdicts for Items 1–5."""

    domain: str
    nsec3_enabled: bool = False
    exclusion_reason: str = ""
    iterations: int | None = None
    salt_length: int | None = None
    opt_out: bool = False
    item2_zero_iterations: bool = False
    item3_no_salt: bool = False
    item4_optout_ok: bool = True
    item1_nsec3_justified: bool | None = None
    violations: list = field(default_factory=list)

    @property
    def rfc9276_compliant(self):
        """Compliant in the paper's headline sense: Items 2 AND 3 both met.

        The paper's 87.8 % figure counts domains failing Item 2 alone;
        :attr:`item2_zero_iterations` exposes that directly.
        """
        return self.item2_zero_iterations and self.item3_no_salt


def check_rfc5155_consistency(observation):
    """Apply the paper's §4.1 filter. Returns (is_nsec3_enabled, reason)."""
    params = observation.nsec3param_records
    if not params:
        return False, "no NSEC3PARAM record"
    if len(params) > 1:
        return False, "more than one NSEC3PARAM record"
    if observation.nsec3_records:
        distinct = set(observation.nsec3_records)
        if len(distinct) > 1:
            return False, "inconsistent parameters among NSEC3 records"
        if params[0] != next(iter(distinct)):
            return False, "NSEC3 and NSEC3PARAM parameters differ"
    return True, ""


def check_zone_compliance(observation):
    """Audit one domain observation against RFC 9276 Items 1–5."""
    report = ZoneComplianceReport(domain=observation.domain)
    enabled, reason = check_rfc5155_consistency(observation)
    report.nsec3_enabled = enabled
    report.exclusion_reason = reason
    if not enabled:
        return report

    hash_algorithm, iterations, salt = observation.nsec3param_records[0]
    report.iterations = iterations
    report.salt_length = len(salt)
    report.opt_out = observation.opt_out_seen

    report.item2_zero_iterations = iterations == 0
    if not report.item2_zero_iterations:
        report.violations.append(
            f"Item 2 (MUST): {iterations} additional iterations (expected 0)"
        )

    report.item3_no_salt = len(salt) == 0
    if not report.item3_no_salt:
        report.violations.append(
            f"Item 3 (SHOULD NOT): salt of {len(salt)} bytes present"
        )

    small_zone = observation.delegation_count < SMALL_ZONE_DELEGATIONS
    if observation.opt_out_seen and small_zone:
        report.item4_optout_ok = False
        report.violations.append(
            "Item 4 (NOT RECOMMENDED): opt-out flag set on a small zone"
        )

    # Item 1 heuristic mirrors the paper's argument: a zone that openly
    # publishes its contents gains nothing from hashed denial.
    if observation.zone_published_openly:
        report.item1_nsec3_justified = False
        report.violations.append(
            "Item 1 (SHOULD): NSEC3 used although zone contents are public"
        )
    return report

