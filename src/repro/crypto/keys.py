"""DNSSEC key management: algorithm registry, key pairs, DS digests.

Ties the raw RSA/ECDSA implementations to the DNSKEY/DS record formats of
RFC 4034 and friends.
"""

from __future__ import annotations

import hashlib
import random

from repro.crypto import ecdsa, rsa
from repro.dns.rdata.dnssec import (
    DNSKEY,
    DS,
    DS_DIGEST_SHA1,
    DS_DIGEST_SHA256,
    FLAG_SEP,
    FLAG_ZONE,
    PROTOCOL_DNSSEC,
)
from repro.dns.name import Name

#: DNSSEC algorithm numbers (IANA registry).
ALG_RSASHA1 = 5
ALG_RSASHA256 = 8
ALG_ECDSAP256SHA256 = 13

ALGORITHM_NAMES = {
    ALG_RSASHA1: "RSASHA1",
    ALG_RSASHA256: "RSASHA256",
    ALG_ECDSAP256SHA256: "ECDSAP256SHA256",
}

SUPPORTED_ALGORITHMS = frozenset(ALGORITHM_NAMES)

_RSA_HASH = {ALG_RSASHA1: "sha1", ALG_RSASHA256: "sha256"}


class UnsupportedAlgorithm(ValueError):
    """Raised when an algorithm number has no implementation here."""


class KeyPair:
    """A DNSSEC signing key: private key plus its DNSKEY record."""

    __slots__ = ("algorithm", "flags", "private", "dnskey", "_tag")

    def __init__(self, algorithm, flags, private):
        self.algorithm = int(algorithm)
        self.flags = int(flags)
        self.private = private
        self.dnskey = DNSKEY(
            flags, PROTOCOL_DNSSEC, algorithm, self._encode_public()
        )
        self._tag = self.dnskey.key_tag()

    def _encode_public(self):
        if self.algorithm in _RSA_HASH:
            return rsa.encode_public_key(self.private.public())
        if self.algorithm == ALG_ECDSAP256SHA256:
            return ecdsa.encode_public_key(self.private.public())
        raise UnsupportedAlgorithm(f"algorithm {self.algorithm}")

    @property
    def key_tag(self):
        return self._tag

    @property
    def is_ksk(self):
        return bool(self.flags & FLAG_SEP)

    def sign(self, message):
        """Sign raw bytes with this key's algorithm."""
        if self.algorithm in _RSA_HASH:
            return self.private.sign(message, _RSA_HASH[self.algorithm])
        if self.algorithm == ALG_ECDSAP256SHA256:
            return self.private.sign(message)
        raise UnsupportedAlgorithm(f"algorithm {self.algorithm}")

    def bulk_signer(self):
        """A ``message -> signature`` closure for many-RRset signing loops.

        For RSA keys this hoists the EMSA prefix and CRT context out of
        the loop (see :meth:`RsaPrivateKey.signer`); ECDSA signing has no
        per-key setup worth hoisting, so :meth:`sign` is returned as-is.
        """
        if self.algorithm in _RSA_HASH:
            return self.private.signer(_RSA_HASH[self.algorithm])
        return self.sign


def generate_keypair(algorithm=ALG_ECDSAP256SHA256, ksk=False, rsa_bits=1024, rng=None):
    """Generate a signing key pair for the given DNSSEC algorithm.

    ECDSA P-256 is the default because its keys generate in microseconds,
    which matters when the testbed signs thousands of zones.
    """
    rng = rng or random
    flags = FLAG_ZONE | (FLAG_SEP if ksk else 0)
    if algorithm in _RSA_HASH:
        private = rsa.generate_rsa_key(rsa_bits, rng=rng)
    elif algorithm == ALG_ECDSAP256SHA256:
        private = ecdsa.generate_ecdsa_key(rng)
    else:
        raise UnsupportedAlgorithm(f"algorithm {algorithm}")
    return KeyPair(algorithm, flags, private)


def verify_signature(dnskey, message, signature):
    """Verify *signature* over *message* with the public key in *dnskey*.

    Always performs the real public-key operation. The bounded,
    metered verification memo lives one layer up in
    :mod:`repro.dnssec.validator`, where RRset canonical forms make the
    memo key cheap and hit/miss counters are exported.
    """
    algorithm = dnskey.algorithm
    if algorithm in _RSA_HASH:
        try:
            public = rsa.decode_public_key(dnskey.key)
        except ValueError:
            return False
        return public.verify(message, signature, _RSA_HASH[algorithm])
    if algorithm == ALG_ECDSAP256SHA256:
        try:
            public = ecdsa.decode_public_key(dnskey.key)
        except ValueError:
            return False
        return public.verify(message, signature)
    raise UnsupportedAlgorithm(f"algorithm {algorithm}")


def make_ds(owner, dnskey, digest_type=DS_DIGEST_SHA256):
    """Build the DS record a parent publishes for a child's KSK (RFC 4034 §5).

    The digest covers ``canonical-owner-name | DNSKEY-rdata``.
    """
    owner = Name.from_text(owner)
    material = owner.canonical_wire() + dnskey.to_wire()
    if digest_type == DS_DIGEST_SHA1:
        digest = hashlib.sha1(material).digest()
    elif digest_type == DS_DIGEST_SHA256:
        digest = hashlib.sha256(material).digest()
    else:
        raise UnsupportedAlgorithm(f"DS digest type {digest_type}")
    return DS(dnskey.key_tag(), dnskey.algorithm, digest_type, digest)


def ds_matches_dnskey(owner, ds, dnskey):
    """True iff *ds* is the digest of *dnskey* at *owner*."""
    if ds.key_tag != dnskey.key_tag() or ds.algorithm != dnskey.algorithm:
        return False
    try:
        expected = make_ds(owner, dnskey, ds.digest_type)
    except UnsupportedAlgorithm:
        return False
    return expected.digest == ds.digest
