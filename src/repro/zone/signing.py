"""Whole-zone DNSSEC signing (RFC 4035 §2).

:func:`sign_zone` generates keys (or uses supplied ones), builds the
denial-of-existence chain (NSEC or NSEC3 per the policy), inserts DNSKEY /
NSEC3PARAM / chain RRsets, and signs every authoritative RRset:

- the DNSKEY RRset with the KSK (and ZSK),
- everything else with the ZSK,
- delegation NS RRsets and glue are *not* signed (the parent is not
  authoritative for them); DS RRsets at cuts are.

The paper's control zones need broken signatures on purpose, so the
policy can mark the whole zone — or only the NSEC3 records — as expired.

With ``defer_signatures`` signing takes a snapshot of each RRset, which
fixes everything its signature covers, and computes the signature the
first time :meth:`Zone.get_rrsigs` reads it. The lazy zone host signs
this way, so a zone pays only for the signatures its queries read.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import partial

from repro import obs
from repro.crypto.keys import ALG_ECDSAP256SHA256, generate_keypair
from repro.dns.base32 import b32hex_encode
from repro.dns.rdata import parse_rdata
from repro.dns.rrset import RRset
from repro.dns.types import RdataType
from repro.dns.wire import Reader
from repro.dnssec.costmodel import meter
from repro.dnssec.signer import SIMULATION_NOW, canonical_rrset_wire, sign_rrset
from repro.zone import build_cache
from repro.zone.nsec3chain import Nsec3Chain, Nsec3Entry, Nsec3Params, build_nsec3_chain
from repro.zone.nsecchain import NsecChain, NsecEntry, build_nsec_chain

#: TTL given to generated DNSKEY / NSEC / NSEC3 / NSEC3PARAM RRsets.
DNSSEC_TTL = 3600

#: Optional hook fired with the zone after every completed
#: :func:`sign_zone` — cold sign or cache load alike. The supervised
#: worker installs one to tick build progress into its heartbeat so the
#: watchdog can tell a slow build from a hung one.
zone_signed_listener = None


@dataclass
class SigningPolicy:
    """How to sign a zone."""

    #: None → plain NSEC; an :class:`Nsec3Params` → NSEC3.
    nsec3: Nsec3Params | None = None
    algorithm: int = ALG_ECDSAP256SHA256
    #: Sign with signatures that are already expired (the ``expired`` zone).
    expired: bool = False
    #: Expire only the signatures covering NSEC3 records
    #: (the ``it-2501-expired`` zone of paper §4.2).
    expired_nsec3_only: bool = False
    now: int = SIMULATION_NOW
    rsa_bits: int = 1024

    def signature_window(self, rrtype):
        """(inception, expiration) for signatures over *rrtype* RRsets."""
        expire_this = self.expired or (
            self.expired_nsec3_only and int(rrtype) == int(RdataType.NSEC3)
        )
        if expire_this:
            return self.now - 60 * 86400, self.now - 30 * 86400
        return self.now - 3600, self.now + 30 * 86400


def sign_zone(zone, policy=None, ksk=None, zsk=None, rng=None, defer_signatures=False):
    """Sign *zone* in place and return it.

    Generates an ECDSA KSK/ZSK pair when none is supplied (a seeded *rng*
    makes the zone reproducible). Repeat signing replaces previous DNSSEC
    material. With *defer_signatures* each RRset's signature waits in
    ``zone.pending_rrsigs``, over a snapshot of the RRset taken now,
    until a read needs it; the signatures are the same bytes either way
    (PKCS#1 v1.5 and RFC 6979 are deterministic).

    When a :mod:`repro.zone.build_cache` is active, the signing work is
    content-addressed: the first process to sign a given (zone content,
    policy, keys) combination stores the resulting DNSSEC artifacts, and
    every later call — in this process, a sibling worker, or a restart
    after a crash — loads them instead of redoing the bignum work.
    Loads charge the cost model and mutate the zone exactly as a cold
    sign would, so downstream reports stay byte-identical.
    """
    policy = policy or SigningPolicy()
    rng = rng or random
    if ksk is None:
        ksk = generate_keypair(policy.algorithm, ksk=True, rsa_bits=policy.rsa_bits, rng=rng)
    if zsk is None:
        zsk = generate_keypair(policy.algorithm, ksk=False, rsa_bits=policy.rsa_bits, rng=rng)
    zone.keys = [ksk, zsk]
    zone.rrsigs = {}
    zone.pending_rrsigs = {}

    _strip_dnssec(zone)

    cache = build_cache.active()
    if cache is None:
        _sign_stripped(zone, policy, ksk, zsk, defer_signatures)
    else:
        fingerprint = _zone_fingerprint(zone, policy, ksk, zsk)
        payload = cache.load("zone", fingerprint)
        if payload is not None:
            cache.count("hit")
            _install_entry(zone, policy, ksk, zsk, payload)
        else:
            with cache.lock("zone", fingerprint):
                # A sibling worker may have signed and stored this very
                # zone while we waited on the lock.
                payload = cache.load("zone", fingerprint)
                if payload is not None:
                    cache.count("hit")
                    _install_entry(zone, policy, ksk, zsk, payload)
                else:
                    cache.count("miss")
                    _sign_stripped(zone, policy, ksk, zsk, defer_signatures)
                    cache.store("zone", fingerprint, _entry_payload(zone))
    if zone_signed_listener is not None:
        zone_signed_listener(zone)
    return zone


def _sign_stripped(zone, policy, ksk, zsk, defer_signatures=False):
    """The cold signing pass over an already-stripped zone."""
    apex = zone.origin
    dnskey_rrset = RRset(apex, RdataType.DNSKEY, DNSSEC_TTL, [ksk.dnskey, zsk.dnskey])
    zone.add_rrset(dnskey_rrset)

    if policy.nsec3 is not None:
        nsec3param = RRset(
            apex, RdataType.NSEC3PARAM, DNSSEC_TTL, [policy.nsec3.to_nsec3param()]
        )
        zone.add_rrset(nsec3param)
        chain = build_nsec3_chain(zone, policy.nsec3)
        zone.nsec3_chain = chain
        zone.nsec_chain = None
        for rrset in chain.rrsets(DNSSEC_TTL):
            zone.add_rrset(rrset)
    else:
        chain = build_nsec_chain(zone)
        zone.nsec_chain = chain
        zone.nsec3_chain = None
        for rrset in chain.rrsets(DNSSEC_TTL):
            zone.add_rrset(rrset)

    _sign_all(zone, policy, ksk, zsk, defer_signatures)
    zone.signed = True
    # _sign_all writes zone.rrsigs directly; let generation-keyed caches know.
    zone.touch()


def _zone_fingerprint(zone, policy, ksk, zsk):
    """Content-addressed cache key for signing *zone* under *policy*.

    Covers the cache schema version (via
    :meth:`ZoneBuildCache.fingerprint`), the stripped zone content (the
    seed and spec reach the key through the rng-drawn records and
    salts), the signing-policy digest, and the key material (DNSKEY wire
    forms — public halves determine the signatures for both RSA and the
    deterministic RFC 6979 ECDSA used here).
    """
    digest = hashlib.sha256()
    digest.update(zone.origin.canonical_wire())
    for rrset in zone.all_rrsets():
        digest.update(canonical_rrset_wire(rrset))
    if policy.nsec3 is not None:
        params = policy.nsec3
        denial = (
            f"nsec3/{params.hash_algorithm}/{params.iterations}"
            f"/{params.salt.hex()}/{int(params.opt_out)}"
        )
    else:
        denial = "nsec"
    digest.update(
        (
            f"|{denial}|alg={policy.algorithm}|expired={int(policy.expired)}"
            f"|expired_nsec3={int(policy.expired_nsec3_only)}|now={policy.now}|"
        ).encode("ascii")
    )
    for key in (ksk, zsk):
        digest.update(key.dnskey.to_wire())
        digest.update(b"|")
    return build_cache.ZoneBuildCache.fingerprint("zone", digest.digest())


def _entry_payload(zone):
    """Serialise a freshly signed zone's DNSSEC artifacts for the cache.

    A cache entry holds finished signatures, so any still pending are
    computed first.
    """
    zone.complete_rrsigs()
    if zone.nsec3_chain is not None:
        denial = "nsec3"
        chain = [
            [
                entry.owner_hash.hex(),
                entry.source_name.to_wire().hex(),
                entry.rdata.to_wire().hex(),
            ]
            for entry in zone.nsec3_chain.entries
        ]
    else:
        denial = "nsec"
        chain = [
            [entry.owner_name.to_wire().hex(), entry.rdata.to_wire().hex()]
            for entry in zone.nsec_chain.entries
        ]
    rrsigs = [
        [name.to_wire().hex(), covered, rrset.ttl, [r.to_wire().hex() for r in rrset.rdatas]]
        for (name, covered), rrset in zone.rrsigs.items()
    ]
    return {"denial": denial, "chain": chain, "rrsigs": rrsigs}


def _wire_name(hex_string):
    return Reader(bytes.fromhex(hex_string)).read_name()


def _wire_rdata(rrtype, hex_string):
    wire = bytes.fromhex(hex_string)
    return parse_rdata(rrtype, Reader(wire), len(wire))


def _install_entry(zone, policy, ksk, zsk, payload):
    """Rebuild the DNSSEC state of *zone* from a cache entry.

    Must mirror :func:`_sign_stripped` observably: the same RRsets in
    the same insertion order (zone generation and node iteration order
    feed packed-answer cache keys), the same chain objects, the same
    ``zone.rrsigs`` contents — and the same CostMeter charges, because a
    load stands in for a rebuild that would have hashed every chain
    member. Signature bytes come from the entry; everything cheap is
    recomputed.
    """
    apex = zone.origin
    zone.add_rrset(RRset(apex, RdataType.DNSKEY, DNSSEC_TTL, [ksk.dnskey, zsk.dnskey]))
    if payload["denial"] == "nsec3":
        params = policy.nsec3
        zone.add_rrset(
            RRset(apex, RdataType.NSEC3PARAM, DNSSEC_TTL, [params.to_nsec3param()])
        )
        iterations = params.iterations
        salt_length = len(params.salt)
        observe = obs.profiler.observe_iterations if obs.enabled else None
        entries = []
        for owner_hex, source_hex, rdata_hex in payload["chain"]:
            owner_hash = bytes.fromhex(owner_hex)
            source = _wire_name(source_hex)
            owner = apex.prepend(b32hex_encode(owner_hash).encode("ascii"))
            entries.append(
                Nsec3Entry(
                    owner_hash, owner, source, _wire_rdata(RdataType.NSEC3, rdata_hex)
                )
            )
            # The cost model describes a signer that hashes every chain
            # member; charge the load like the rebuild it replaces.
            meter.charge_nsec3(iterations, len(source.canonical_wire()), salt_length)
            if observe is not None:
                observe(iterations)
        chain = Nsec3Chain(params, entries)
        zone.nsec3_chain = chain
        zone.nsec_chain = None
    else:
        entries = [
            NsecEntry(_wire_name(owner_hex), _wire_rdata(RdataType.NSEC, rdata_hex))
            for owner_hex, rdata_hex in payload["chain"]
        ]
        chain = NsecChain(entries)
        zone.nsec_chain = chain
        zone.nsec3_chain = None
    for rrset in chain.rrsets(DNSSEC_TTL):
        zone.add_rrset(rrset)
    for name_hex, covered, ttl, wires in payload["rrsigs"]:
        name = _wire_name(name_hex)
        zone.rrsigs[(name, int(covered))] = RRset(
            name,
            RdataType.RRSIG,
            ttl,
            [_wire_rdata(RdataType.RRSIG, wire) for wire in wires],
        )
    zone.signed = True
    zone.touch()


def _strip_dnssec(zone):
    """Remove any DNSSEC records from a previous signing pass."""
    dnssec_types = {
        int(RdataType.DNSKEY),
        int(RdataType.NSEC),
        int(RdataType.NSEC3),
        int(RdataType.NSEC3PARAM),
        int(RdataType.RRSIG),
    }
    for name in list(zone.nodes):
        node = zone.nodes[name]
        for rrtype in list(node):
            if rrtype in dnssec_types:
                del node[rrtype]
        if not node:
            del zone.nodes[name]
    zone.nsec3_chain = None
    zone.nsec_chain = None
    zone.signed = False
    zone.touch()


def _should_sign(zone, rrset):
    """Delegation NS RRsets and glue are unsigned; all else is signed."""
    cut = zone.delegation_for(rrset.name)
    if cut is None:
        return True
    if cut == rrset.name:
        # At the cut the parent signs only DS (and the NSEC/NSEC3 record,
        # which lives on a hashed/different owner for NSEC3).
        return int(rrset.rrtype) in (int(RdataType.DS), int(RdataType.NSEC), int(RdataType.NSEC3))
    return False  # glue below the cut


def _sign_all(zone, policy, ksk, zsk, defer_signatures=False):
    # Hoist the per-key signing setup (EMSA prefix, CRT context for
    # RSA) out of the per-RRset loop; same signature bytes.
    sign_with = {id(ksk): ksk.bulk_signer(), id(zsk): zsk.bulk_signer()}
    for rrset in list(zone.all_rrsets()):
        if int(rrset.rrtype) == int(RdataType.RRSIG):
            continue
        if not _should_sign(zone, rrset):
            continue
        inception, expiration = policy.signature_window(rrset.rrtype)
        key = ksk if int(rrset.rrtype) == int(RdataType.DNSKEY) else zsk
        signature = partial(
            _rrsig_rrset,
            # Deferred, it signs a snapshot: an RRset edited after this
            # point keeps the signature over the data as signed now.
            rrset.copy() if defer_signatures else rrset,
            key,
            zone.origin,
            inception,
            expiration,
            policy.now,
            sign_with[id(key)],
        )
        slot = (rrset.name, int(rrset.rrtype))
        if defer_signatures:
            zone.pending_rrsigs[slot] = signature
        else:
            zone.rrsigs[slot] = signature()


def _rrsig_rrset(rrset, key, signer, inception, expiration, now, sign):
    """The RRSIG RRset over *rrset*, signed with *key* through *sign*."""
    rrsig = sign_rrset(
        rrset, key, signer, inception=inception, expiration=expiration, now=now, sign=sign
    )
    return RRset(rrset.name, RdataType.RRSIG, rrset.ttl, [rrsig])
