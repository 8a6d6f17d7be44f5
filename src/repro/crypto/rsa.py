"""RSA key generation and PKCS#1 v1.5 signatures (RFC 8017 subset).

DNSSEC algorithms 5 (RSASHA1) and 8 (RSASHA256) use this scheme
(RFC 3110 / RFC 5702). The DNSKEY public-key wire format is implemented in
:func:`encode_public_key` / :func:`decode_public_key`.
"""

from __future__ import annotations

import hashlib
import random

from repro.crypto.primes import generate_prime

# DigestInfo DER prefixes for EMSA-PKCS1-v1_5 (RFC 8017 §9.2 notes).
_DIGEST_PREFIX = {
    "sha1": bytes.fromhex("3021300906052b0e03021a05000414"),
    "sha256": bytes.fromhex("3031300d060960864801650304020105000420"),
}

# EMSA-PKCS1-v1_5 head (everything before the digest) per (em_len, hash):
# the padding run and DigestInfo prefix depend only on those two, and a
# signer re-derives them for every record in a zone.
_EMSA_HEAD = {}


def _emsa_head(em_len, hash_name):
    head = _EMSA_HEAD.get((em_len, hash_name))
    if head is None:
        prefix = _DIGEST_PREFIX[hash_name]
        digest_len = hashlib.new(hash_name).digest_size
        t_len = len(prefix) + digest_len
        if em_len < t_len + 11:
            raise ValueError("RSA modulus too small for this digest")
        padding = b"\xff" * (em_len - t_len - 3)
        head = b"\x00\x01" + padding + b"\x00" + prefix
        _EMSA_HEAD[(em_len, hash_name)] = head
    return head


class RsaPrivateKey:
    """An RSA private key.

    ``(n, e, d)`` always; when the factors are known (freshly generated
    keys) the CRT parameters ``(p, q, dp, dq, qinv)`` are stored too and
    :meth:`sign` exponentiates modulo the half-size factors — the same
    signature, ~3–4x faster. Keys rebuilt from ``(n, e, d)`` alone take
    the plain-``d`` path, which is what the CRT path is tested against.
    """

    __slots__ = ("n", "e", "d", "bits", "size", "p", "q", "dp", "dq", "qinv")

    def __init__(self, n, e, d, p=None, q=None):
        self.n = n
        self.e = e
        self.d = d
        self.bits = n.bit_length()
        self.size = (self.bits + 7) // 8
        self.p = p
        self.q = q
        if p is not None and q is not None:
            self.dp = d % (p - 1)
            self.dq = d % (q - 1)
            self.qinv = pow(q, -1, p)
        else:
            self.dp = self.dq = self.qinv = None

    def public(self):
        return RsaPublicKey(self.n, self.e)

    def sign(self, message, hash_name="sha256"):
        """EMSA-PKCS1-v1_5 signature over *message*."""
        return self.signer(hash_name)(message)

    def signer(self, hash_name="sha256"):
        """A ``message -> signature`` closure with per-key setup hoisted.

        Zone signing signs once per RRset with the same key and hash;
        the closure binds the EMSA head, the output size, and the CRT
        (or, for a key without its factors, plain-``d``) parameters once
        instead of re-deriving them per record.
        """
        head = _emsa_head(self.size, hash_name)
        size = self.size
        new = hashlib.new
        if self.dp is not None:
            p, q, dp, dq, qinv = self.p, self.q, self.dp, self.dq, self.qinv

            def sign(message):
                c = int.from_bytes(head + new(hash_name, message).digest(), "big")
                # Garner's recombination (RFC 8017 §5.1.2 second form).
                m1 = pow(c, dp, p)
                m2 = pow(c, dq, q)
                return (m2 + ((qinv * (m1 - m2)) % p) * q).to_bytes(size, "big")

        else:
            n, d = self.n, self.d

            def sign(message):
                c = int.from_bytes(head + new(hash_name, message).digest(), "big")
                return pow(c, d, n).to_bytes(size, "big")

        return sign


class RsaPublicKey:
    """An RSA public key (n, e)."""

    __slots__ = ("n", "e", "bits", "size")

    def __init__(self, n, e):
        self.n = n
        self.e = e
        self.bits = n.bit_length()
        self.size = (self.bits + 7) // 8

    def verify(self, message, signature, hash_name="sha256"):
        """True iff *signature* is a valid PKCS#1 v1.5 signature of *message*."""
        k = self.size
        if len(signature) != k:
            return False
        representative = int.from_bytes(signature, "big")
        if representative >= self.n:  # RFC 8017 §5.2.2 step 1
            return False
        decrypted = pow(representative, self.e, self.n)
        expected = _pkcs1_encode(message, k, hash_name)
        return decrypted.to_bytes(k, "big") == expected


def _pkcs1_encode(message, em_len, hash_name):
    digest = hashlib.new(hash_name, message).digest()
    return _emsa_head(em_len, hash_name) + digest


def generate_rsa_key(bits=1024, rng=None):
    """Generate an RSA key. 1024-bit keys keep the simulation fast.

    e is fixed to 65537 and the primes are drawn in FIPS 186-4 §B.3.3's
    order: a prime with e | p − 1, or a q within 2^(bits/2 − 100) of p,
    re-draws that one prime, never the pair. :func:`generate_prime`
    forces the two top bits, so the modulus has exactly *bits* bits by
    construction. The factors are kept on the key so signing can use
    the CRT.
    """
    rng = rng or random
    e = 65537
    p = _draw_prime(bits // 2, e, rng)
    q = _draw_prime(bits - bits // 2, e, rng, near=p, gap=1 << max(bits // 2 - 100, 0))
    n = p * q
    assert n.bit_length() == bits
    # e is prime and divides neither p − 1 nor q − 1, so it is invertible.
    d = pow(e, -1, (p - 1) * (q - 1))
    return RsaPrivateKey(n, e, d, p=p, q=q)


def _draw_prime(bits, e, rng, near=0, gap=0):
    """A *bits*-bit prime with e ∤ prime − 1, more than *gap* from *near*."""
    while True:
        prime = generate_prime(bits, rng=rng)
        if (prime - 1) % e and abs(prime - near) > gap:
            return prime


def encode_public_key(key):
    """DNSKEY public key field for RSA (RFC 3110 §2)."""
    exponent = key.e.to_bytes((key.e.bit_length() + 7) // 8, "big")
    modulus = key.n.to_bytes((key.n.bit_length() + 7) // 8, "big")
    if len(exponent) <= 255:
        header = bytes([len(exponent)])
    else:
        header = b"\x00" + len(exponent).to_bytes(2, "big")
    return header + exponent + modulus


def decode_public_key(data):
    """Parse an RFC 3110 public key field into :class:`RsaPublicKey`."""
    if not data:
        raise ValueError("empty RSA public key")
    if data[0] != 0:
        exp_len = data[0]
        offset = 1
    else:
        if len(data) < 3:
            raise ValueError("truncated RSA exponent length")
        exp_len = int.from_bytes(data[1:3], "big")
        offset = 3
    if len(data) < offset + exp_len + 1:
        raise ValueError("truncated RSA public key")
    e = int.from_bytes(data[offset : offset + exp_len], "big")
    n = int.from_bytes(data[offset + exp_len :], "big")
    if n == 0 or e == 0:
        raise ValueError("degenerate RSA public key")
    return RsaPublicKey(n, e)
