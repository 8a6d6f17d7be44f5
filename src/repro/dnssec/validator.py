"""DNSSEC validation primitives (RFC 4035 §5).

This module validates individual RRsets against DNSKEY RRsets and DNSKEYs
against DS records; walking the chain of trust from the root anchor is the
resolver's job (:mod:`repro.resolver.validating`), which composes these
primitives.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field

from repro import obs
from repro.crypto.keys import (
    SUPPORTED_ALGORITHMS,
    ds_matches_dnskey,
    verify_signature,
)
from repro.dns.name import Name
from repro.dns.types import RdataType
from repro.dnssec.costmodel import meter
from repro.dnssec.signer import (
    SIMULATION_NOW,
    canonical_rrset_wire,
    rrsig_signed_owner,
)
from repro.memo import Memo


class SecurityStatus(enum.Enum):
    """RFC 4035 §4.3 security states."""

    SECURE = "secure"
    INSECURE = "insecure"
    BOGUS = "bogus"
    INDETERMINATE = "indeterminate"


@dataclass
class ValidationResult:
    """Outcome of validating one RRset."""

    status: SecurityStatus
    reason: str = ""
    rrsig: object = None

    @property
    def secure(self):
        return self.status is SecurityStatus.SECURE


@dataclass
class ValidationContext:
    """Validation-time configuration shared across one resolution."""

    now: int = SIMULATION_NOW
    #: Names of zones whose keys have already been chained to the trust
    #: anchor, mapped to their validated DNSKEY RRsets.
    trusted_keys: dict = field(default_factory=dict)

    def trust_zone_keys(self, zone, dnskey_rrset):
        self.trusted_keys[Name.from_text(zone)] = dnskey_rrset

    def keys_for(self, zone):
        return self.trusted_keys.get(Name.from_text(zone))


#: RRSIG verification outcomes. Verification is a pure function of the
#: signed data, the signature and the public key, and the study
#: re-verifies the very same RRSIGs thousands of times across resolvers.
#: The key is ``(RRSIG_RDATA prefix, signature, sha256(canonical RRset
#: wire), DNSKEY wire)``: a key rollover changes the DNSKEY component and
#: an RRset change the digest, so both force a real verification.
#: Temporal validity is checked by the callers *before* the memo is
#: consulted, and :meth:`repro.dnssec.costmodel.CostMeter.charge_verification`
#: is charged on hit and miss alike, so guard budgets and cost
#: experiments never see the memo.
verification_memo = Memo("verify", 65536)


#: Resolved per-status counters for the validation hot path.
_VALIDATOR_CHILDREN = obs.ChildCache()


def _signed_payload(payloads, rrset, rrsig):
    """``(payload, sha256(payload))``: the canonical wire of *rrset* as
    *rrsig* signed it, kept in *payloads* by ``(original TTL, signed
    owner)`` for one validation call. Several RRSIGs over one RRset and
    colliding key tags (KeyTrap's lever) must not re-serialise it for
    every candidate key."""
    owner = rrsig_signed_owner(rrsig, rrset)
    key = (rrsig.original_ttl, owner)
    signed = payloads.get(key)
    if signed is None:
        wire = canonical_rrset_wire(rrset, rrsig.original_ttl, owner=owner)
        signed = payloads[key] = (wire, hashlib.sha256(wire).digest())
    return signed


def _rrsig_verifies(rrsig, dnskey, payload, digest):
    """One metered signature verification over *payload* (the canonical
    RRset wire, with its sha256 *digest*), through the bounded memo.

    The caller has already charged the meter; this only decides whether
    the bignum math actually runs.
    """
    key = (rrsig.rdata_prefix(), rrsig.signature, digest, dnskey.to_wire())
    result = verification_memo.get(key)
    if result is None:
        result = verify_signature(
            dnskey, rrsig.rdata_prefix() + payload, rrsig.signature
        )
        verification_memo.put(key, result)
    return result


def _candidate_keys(dnskey_rrset, rrsig):
    for dnskey in dnskey_rrset:
        if (
            dnskey.protocol == 3
            and dnskey.is_zone_key()
            and not dnskey.is_revoked()
            and dnskey.algorithm == rrsig.algorithm
            and dnskey.key_tag() == rrsig.key_tag
        ):
            yield dnskey


def validate_rrset(rrset, rrsig_rrset, dnskey_rrset, now=SIMULATION_NOW):
    """Validate *rrset* against one of the signatures in *rrsig_rrset*.

    Returns SECURE on the first signature that verifies; BOGUS if
    signatures exist but none verifies (or all are outside their validity
    window); INDETERMINATE when no covering signature is present at all.
    """
    if not obs.enabled:
        return _validate_rrset(rrset, rrsig_rrset, dnskey_rrset, now)
    if obs.tracing:
        # Span attributes (name/type rendering) are only worth computing
        # when a tracer is actually recording.
        with obs.span(
            "dnssec.validate_rrset",
            owner=str(rrset.name),
            type=RdataType.to_text(rrset.rrtype),
        ) as span:
            result = _validate_rrset(rrset, rrsig_rrset, dnskey_rrset, now)
            span.set(status=result.status.value)
    else:
        result = _validate_rrset(rrset, rrsig_rrset, dnskey_rrset, now)
    status = result.status.value
    key = ("status", status)
    child = _VALIDATOR_CHILDREN.get(obs.registry, key)
    if child is None:
        child = _VALIDATOR_CHILDREN.put(
            key,
            obs.registry.counter(
                "repro_rrset_validations_total",
                "RRset validation outcomes, by security status.",
                labelnames=("status",),
            ).labels(status=status),
        )
    child.inc()
    return result


def _validate_rrset(rrset, rrsig_rrset, dnskey_rrset, now):
    if rrsig_rrset is None or not rrsig_rrset:
        return ValidationResult(
            SecurityStatus.INDETERMINATE, "no RRSIG covering the RRset"
        )
    relevant = [
        sig for sig in rrsig_rrset if sig.type_covered == int(rrset.rrtype)
    ]
    if not relevant:
        return ValidationResult(
            SecurityStatus.INDETERMINATE,
            f"no RRSIG covers type {RdataType.to_text(rrset.rrtype)}",
        )
    last_reason = "no signature verified"
    payloads = {}
    for rrsig in relevant:
        if not rrset.name.is_subdomain_of(rrsig.signer):
            last_reason = "signer is not an ancestor of the owner name"
            continue
        if rrsig.labels > rrset.name.label_count:
            last_reason = "RRSIG labels field exceeds owner label count"
            continue
        if not rrsig.is_valid_at(now):
            last_reason = (
                "signature outside validity window "
                f"({rrsig.inception}..{rrsig.expiration}, now {now})"
            )
            continue
        if rrsig.algorithm not in SUPPORTED_ALGORITHMS:
            last_reason = f"unsupported algorithm {rrsig.algorithm}"
            continue
        for dnskey in _candidate_keys(dnskey_rrset, rrsig):
            meter.charge_verification()
            if _rrsig_verifies(
                rrsig, dnskey, *_signed_payload(payloads, rrset, rrsig)
            ):
                return ValidationResult(SecurityStatus.SECURE, rrsig=rrsig)
        last_reason = "signature did not verify under any candidate key"
    return ValidationResult(SecurityStatus.BOGUS, last_reason)


def validate_dnskey_with_ds(zone, dnskey_rrset, dnskey_rrsigs, ds_rrset, now=SIMULATION_NOW):
    """Establish trust in a zone's DNSKEY RRset via a validated DS RRset.

    Per RFC 4035 §5.2: some DS must match some SEP-capable DNSKEY, and the
    DNSKEY RRset must be self-signed by that key. *dnskey_rrsigs* is the
    RRSIG RRset accompanying the DNSKEY RRset.
    """
    zone = Name.from_text(zone)
    if ds_rrset is None or not ds_rrset:
        return ValidationResult(
            SecurityStatus.INDETERMINATE, "no DS RRset for the zone"
        )
    for ds in ds_rrset:
        for dnskey in dnskey_rrset:
            if not ds_matches_dnskey(zone, ds, dnskey):
                continue
            result = _validate_self_signature(dnskey_rrset, dnskey_rrsigs, dnskey, now)
            if result.secure:
                return result
    return ValidationResult(
        SecurityStatus.BOGUS, "no DS record matches a self-signing DNSKEY"
    )


def _validate_self_signature(dnskey_rrset, dnskey_rrsigs, anchor_key, now):
    if dnskey_rrsigs is None or not dnskey_rrsigs:
        return ValidationResult(
            SecurityStatus.INDETERMINATE, "DNSKEY RRset carries no RRSIGs"
        )
    payloads = {}
    for rrsig in dnskey_rrsigs:
        if rrsig.type_covered != int(RdataType.DNSKEY):
            continue
        if rrsig.key_tag != anchor_key.key_tag():
            continue
        if not rrsig.is_valid_at(now):
            continue
        meter.charge_verification()
        if _rrsig_verifies(
            rrsig, anchor_key, *_signed_payload(payloads, dnskey_rrset, rrsig)
        ):
            return ValidationResult(SecurityStatus.SECURE, rrsig=rrsig)
    return ValidationResult(
        SecurityStatus.BOGUS, "DNSKEY RRset not signed by the DS-matched key"
    )
