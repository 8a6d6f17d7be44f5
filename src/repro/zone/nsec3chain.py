"""NSEC3 chain construction (RFC 5155 §7.1).

Given a zone and a parameter set, computes the hashed owner names of every
authoritative name (including empty non-terminals), sorts them by hash
value, and links each record to the next hash — wrapping the last record
to the first. With *opt-out* set, insecure delegations (no DS) receive no
NSEC3 record and the spanning record carries the opt-out flag.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro import obs
from repro.dns.base32 import b32hex_encode
from repro.dns.name import Name
from repro.dns.rdata.nsec3 import NSEC3, NSEC3PARAM, NSEC3_FLAG_OPTOUT, NSEC3_HASH_SHA1
from repro.dns.rrset import RRset
from repro.dns.types import RdataType
from repro.dnssec.nsec3hash import nsec3_hash, nsec3_hash_batch


@dataclass(frozen=True)
class Nsec3Params:
    """The per-zone NSEC3 parameter set the paper measures.

    ``iterations`` is the number of *additional* hash iterations (RFC 9276
    Item 2 requires 0) and ``salt`` the salt appended at each step (Item 3
    recommends none).
    """

    iterations: int = 0
    salt: bytes = b""
    opt_out: bool = False
    hash_algorithm: int = NSEC3_HASH_SHA1

    def to_nsec3param(self):
        """The apex NSEC3PARAM record (flags always zero, RFC 5155 §4.1.2)."""
        return NSEC3PARAM(self.hash_algorithm, 0, self.iterations, self.salt)


@dataclass
class Nsec3Entry:
    """One link of the chain."""

    owner_hash: bytes
    owner_name: Name
    source_name: Name
    rdata: NSEC3 = None


class Nsec3Chain:
    """The complete, sorted NSEC3 chain of a zone."""

    def __init__(self, params, entries):
        self.params = params
        #: Entries sorted by owner hash.
        self.entries = entries
        self._hashes = [entry.owner_hash for entry in entries]
        self._by_hash = {entry.owner_hash: entry for entry in entries}

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def find_matching(self, target_hash):
        """The entry whose owner hash equals *target_hash*, or None."""
        return self._by_hash.get(target_hash)

    def find_covering(self, target_hash):
        """The entry whose (owner, next) interval covers *target_hash*.

        Assumes *target_hash* does not match any entry; with a single-entry
        chain that entry covers everything else.
        """
        if not self.entries:
            return None
        index = bisect.bisect_right(self._hashes, target_hash) - 1
        if index < 0:
            # Below the first hash: covered by the wrap-around (last) record.
            return self.entries[-1]
        return self.entries[index]

    def rrsets(self, ttl):
        """Materialise the chain as one single-rdata RRset per entry."""
        return [
            RRset(entry.owner_name, RdataType.NSEC3, ttl, [entry.rdata])
            for entry in self.entries
        ]


def _types_at(zone, name, apex):
    """The type bitmap content for *name* (RFC 5155 §7.1 bullet 3)."""
    node = zone.nodes.get(name, {})
    types = set()
    is_delegation = zone.is_delegation_point(name)
    for rrtype in node:
        if is_delegation and rrtype not in (int(RdataType.NS), int(RdataType.DS)):
            continue  # only the cut-relevant types appear at a delegation
        types.add(rrtype)
    if name == apex:
        types.add(int(RdataType.NSEC3PARAM))
        types.add(int(RdataType.DNSKEY))
    if node and not is_delegation:
        types.add(int(RdataType.RRSIG))
    elif is_delegation and int(RdataType.DS) in node:
        types.add(int(RdataType.RRSIG))
    return types


def build_nsec3_chain(zone, params):
    """Build the chain for *zone* under *params*.

    Returns the :class:`Nsec3Chain`; the caller (usually
    :func:`repro.zone.signing.sign_zone`) is responsible for inserting the
    chain's RRsets and the apex NSEC3PARAM into the zone and signing them.
    """
    apex = zone.origin
    names = set(zone.authoritative_names())
    names.update(zone.empty_nonterminals())
    names.add(apex)

    if params.opt_out:
        secure = set()
        for name in names:
            if zone.is_delegation_point(name):
                has_ds = int(RdataType.DS) in zone.nodes.get(name, {})
                if not has_ds:
                    continue  # opted out: no NSEC3 record for this delegation
            secure.add(name)
        names = secure

    ordered = list(names)
    if not obs.tracing:
        digests = nsec3_hash_batch(
            [name.canonical_wire() for name in ordered],
            params.salt,
            params.iterations,
            params.hash_algorithm,
        )
    else:
        digests = [
            nsec3_hash(
                name.canonical_wire(),
                params.salt,
                params.iterations,
                params.hash_algorithm,
            )
            for name in ordered
        ]
    entries = []
    for name, digest in zip(ordered, digests):
        owner = apex.prepend(b32hex_encode(digest).encode("ascii"))
        entries.append(Nsec3Entry(digest, owner, name))
    entries.sort(key=lambda entry: entry.owner_hash)

    flags = NSEC3_FLAG_OPTOUT if params.opt_out else 0
    count = len(entries)
    for index, entry in enumerate(entries):
        next_entry = entries[(index + 1) % count]
        entry.rdata = NSEC3(
            params.hash_algorithm,
            flags,
            params.iterations,
            params.salt,
            next_entry.owner_hash,
            sorted(_types_at(zone, entry.source_name, apex)),
        )
    return Nsec3Chain(params, entries)
