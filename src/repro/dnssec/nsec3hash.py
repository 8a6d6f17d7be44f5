"""The NSEC3 hash of RFC 5155 §5.

::

    IH(salt, x, 0)   = H(x || salt)
    IH(salt, x, k)   = H(IH(salt, x, k-1) || salt)   for k > 0
    hash(name)       = IH(salt, canonical-owner-name, iterations)

with H = SHA-1 (the only algorithm ever defined). The *iterations* field
counts **additional** applications — the value RFC 9276 Item 2 requires to
be zero, and the lever of CVE-2023-50868.
"""

from __future__ import annotations

import hashlib

from repro import obs
from repro.dns.base32 import b32hex_encode
from repro.dns.name import Name
from repro.dns.rdata.nsec3 import NSEC3_HASH_SHA1
from repro.dnssec.costmodel import meter


class UnknownHashAlgorithm(ValueError):
    """Raised for NSEC3 hash algorithm numbers other than 1 (SHA-1)."""


#: Digest memo, one table per chain parameters: the scan hot path hashes
#: the same probe owners against the same ``(salt, iterations)`` over and
#: over (closest-encloser proofs re-hash the zone apex for every query).
#: Bounded: tables are cleared, not grown, past the limits.
_MEMO_PARAMS_LIMIT = 64
_MEMO_OWNERS_LIMIT = 4096
_digest_memo = {}


def _compute_iterated_digest(owner_wire, salt, iterations):
    """The raw RFC 5155 iterated hash, no caching: what the memo is tested
    against and the micro-benchmarks time."""
    digest = hashlib.sha1(owner_wire + salt).digest()
    for __ in range(iterations):
        digest = hashlib.sha1(digest + salt).digest()
    return digest


def _iterated_digest(owner_wire, salt, iterations):
    # The meter charges full price even on a memo hit: the cost model
    # describes a resolver that recomputes per query (the CVE-2023-50868
    # exposure), while the memo only saves *our* host CPU.
    table_key = (salt, iterations)
    table = _digest_memo.get(table_key)
    if table is None:
        if len(_digest_memo) >= _MEMO_PARAMS_LIMIT:
            _digest_memo.clear()
        table = _digest_memo.setdefault(table_key, {})
    digest = table.get(owner_wire)
    if digest is None:
        digest = _compute_iterated_digest(owner_wire, salt, iterations)
        if len(table) >= _MEMO_OWNERS_LIMIT:
            table.clear()
        table[owner_wire] = digest
    meter.charge_nsec3(iterations, len(owner_wire), len(salt))
    return digest


def nsec3_hash(owner_wire, salt, iterations, hash_algorithm=NSEC3_HASH_SHA1):
    """Hash a canonical wire-format owner name; returns the 20-byte digest."""
    if hash_algorithm != NSEC3_HASH_SHA1:
        raise UnknownHashAlgorithm(f"NSEC3 hash algorithm {hash_algorithm}")
    if not obs.enabled:
        return _iterated_digest(owner_wire, salt, iterations)
    if obs.tracing:
        with obs.span("nsec3.hash", iterations=iterations):
            digest = _iterated_digest(owner_wire, salt, iterations)
    else:
        digest = _iterated_digest(owner_wire, salt, iterations)
    obs.profiler.observe_iterations(iterations)
    return digest


def nsec3_hash_batch(owner_wires, salt, iterations, hash_algorithm=NSEC3_HASH_SHA1):
    """Hash many owner names under one ``(salt, iterations)`` setting.

    Chain builds hash every name in a zone exactly once, so the
    per-owner memo buys nothing there; this single pass skips it and
    charges the meter per name exactly as :func:`nsec3_hash` would, so
    the cost model cannot tell the batch from N single calls. Callers
    fall back to :func:`nsec3_hash` when span tracing is on (the batch
    emits no per-hash spans).
    """
    if hash_algorithm != NSEC3_HASH_SHA1:
        raise UnknownHashAlgorithm(f"NSEC3 hash algorithm {hash_algorithm}")
    charge = meter.charge_nsec3
    observe = obs.profiler.observe_iterations if obs.enabled else None
    salt_length = len(salt)
    digests = []
    for wire in owner_wires:
        digests.append(_compute_iterated_digest(wire, salt, iterations))
        charge(iterations, len(wire), salt_length)
        if observe is not None:
            observe(iterations)
    return digests


def nsec3_hash_name(name, salt, iterations, hash_algorithm=NSEC3_HASH_SHA1):
    """Hash a :class:`~repro.dns.name.Name` (canonicalised first)."""
    name = Name.from_text(name)
    return nsec3_hash(name.canonical_wire(), salt, iterations, hash_algorithm)


def nsec3_owner_name(name, zone, salt, iterations, hash_algorithm=NSEC3_HASH_SHA1):
    """The NSEC3 record owner for *name* in *zone*: ``base32hex(hash).zone``."""
    digest = nsec3_hash_name(name, salt, iterations, hash_algorithm)
    zone = Name.from_text(zone)
    return zone.prepend(b32hex_encode(digest).encode("ascii"))
