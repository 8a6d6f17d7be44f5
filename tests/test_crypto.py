"""Tests for the pure-Python RSA and ECDSA implementations."""

import math
import random
import types

import pytest

from repro.crypto import ecdsa, rsa
from repro.crypto.keys import (
    ALG_ECDSAP256SHA256,
    ALG_RSASHA1,
    ALG_RSASHA256,
    KeyPair,
    verify_signature,
)
from repro.crypto.primes import generate_prime, is_probable_prime
from repro.dns.rdata import A
from repro.dns.rdata.dnssec import FLAG_ZONE
from repro.dns.rrset import RRset
from repro.dns.types import RdataType
from repro.dnssec.signer import make_rrsig_rrset, rrsig_signed_data, sign_rrset
from repro.dnssec.validator import SecurityStatus, validate_rrset, verification_memo
from repro.testbed.internet import KeyPool

from tests.test_fastpath import _with_signature


class TestPrimes:
    def test_small_primes(self):
        assert is_probable_prime(2)
        assert is_probable_prime(97)
        assert is_probable_prime(7919)

    def test_small_composites(self):
        assert not is_probable_prime(1)
        assert not is_probable_prime(0)
        assert not is_probable_prime(91)  # 7 * 13
        assert not is_probable_prime(561)  # Carmichael number

    def test_generated_prime_has_exact_bits(self):
        rng = random.Random(1)
        prime = generate_prime(128, rng=rng)
        assert prime.bit_length() == 128
        assert is_probable_prime(prime)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            generate_prime(4)


class TestRsa:
    @pytest.fixture(scope="class")
    def key(self):
        return rsa.generate_rsa_key(512, rng=random.Random(7))

    def test_sign_verify(self, key):
        signature = key.sign(b"the message", "sha256")
        assert key.public().verify(b"the message", signature, "sha256")

    def test_verify_rejects_wrong_message(self, key):
        signature = key.sign(b"the message", "sha256")
        assert not key.public().verify(b"other message", signature, "sha256")

    def test_verify_rejects_bitflip(self, key):
        signature = bytearray(key.sign(b"m", "sha256"))
        signature[10] ^= 0x01
        assert not key.public().verify(b"m", bytes(signature), "sha256")

    def test_verify_rejects_wrong_length(self, key):
        assert not key.public().verify(b"m", b"\x00" * 10, "sha256")

    def test_sha1_mode(self, key):
        signature = key.sign(b"legacy", "sha1")
        assert key.public().verify(b"legacy", signature, "sha1")
        assert not key.public().verify(b"legacy", signature, "sha256")

    def test_public_key_encoding_round_trip(self, key):
        encoded = rsa.encode_public_key(key)
        decoded = rsa.decode_public_key(encoded)
        assert decoded.n == key.n and decoded.e == key.e

    def test_long_exponent_encoding(self):
        # Force the 3-byte exponent-length header path.
        fake = rsa.RsaPublicKey((1 << 512) + 1, (1 << 2050) + 1)
        encoded = rsa.encode_public_key(fake)
        decoded = rsa.decode_public_key(encoded)
        assert decoded.e == fake.e and decoded.n == fake.n

    def test_decode_rejects_garbage(self):
        with pytest.raises(ValueError):
            rsa.decode_public_key(b"")
        with pytest.raises(ValueError):
            rsa.decode_public_key(b"\x00\x00")

    def test_modulus_too_small_for_digest(self):
        tiny = rsa.RsaPrivateKey(3 * 5, 3, 3)
        with pytest.raises(ValueError):
            tiny.sign(b"x", "sha256")


KEY_SIZES = (512, 513, 768, 1024)
KEYS_PER_SIZE = 64


@pytest.fixture(scope="module")
def seeded():
    """``.keys[bits]``: 64 seeded keys; ``.draws[bits]``: the successful
    ``generate_prime`` draws they took. Generated once for the module."""
    inner = rsa.generate_prime
    total = [0]

    def counted(bits, rng=None):
        total[0] += 1
        return inner(bits, rng=rng)

    made = types.SimpleNamespace(keys={}, draws={})
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rsa, "generate_prime", counted)
        for bits in KEY_SIZES:
            before = total[0]
            rng = random.Random(bits)
            made.keys[bits] = [
                rsa.generate_rsa_key(bits, rng=rng) for __ in range(KEYS_PER_SIZE)
            ]
            made.draws[bits] = total[0] - before
    return made


class TestRsaKeyGeneration:
    """FIPS 186-4 §B.3.3: no confirmed prime is ever thrown away."""

    @pytest.mark.parametrize("bits", KEY_SIZES)
    def test_two_prime_draws_per_key(self, seeded, bits):
        assert seeded.draws[bits] == 2 * KEYS_PER_SIZE
        assert all(key.n.bit_length() == bits for key in seeded.keys[bits])

    @pytest.mark.parametrize("bits", KEY_SIZES)
    def test_key_parameters(self, seeded, bits):
        for key in seeded.keys[bits]:
            p, q = key.p, key.q
            assert (p.bit_length(), q.bit_length()) == (bits // 2, bits - bits // 2)
            for prime in (p, q):
                # prime >= ceil(sqrt(2) * 2^(k-1))  <=>  prime^2 >= 2^(2k-1)
                assert prime * prime >= 1 << (2 * prime.bit_length() - 1)
                assert (prime - 1) % key.e != 0
            assert p != q and p * q == key.n
            assert abs(p - q) > 1 << (bits // 2 - 100)
            assert key.d * key.e % math.lcm(p - 1, q - 1) == 1
            assert key.dp == key.d % (p - 1) and key.dq == key.d % (q - 1)
            assert key.qinv * q % p == 1

    def test_seeded_pool_is_reproducible(self):
        material = KeyPool(size=2, seed=9).material()
        assert KeyPool(size=2, seed=9).material() == material
        assert KeyPool.from_material(material).material() == material
        assert KeyPool(size=2, seed=10).material() != material

    @pytest.mark.parametrize("bits", KEY_SIZES)
    def test_cryptography_loads_every_key(self, seeded, bits):
        """The outside oracle: OpenSSL's own key check accepts each key,
        verifies our signature and signs one that we verify."""
        pytest.importorskip("cryptography")
        from cryptography.hazmat.primitives import hashes
        from cryptography.hazmat.primitives.asymmetric import padding
        from cryptography.hazmat.primitives.asymmetric import rsa as oracle_rsa

        message = f"key check {bits}".encode()
        for key in seeded.keys[bits]:
            oracle = oracle_rsa.RSAPrivateNumbers(
                p=key.p, q=key.q, d=key.d, dmp1=key.dp, dmq1=key.dq, iqmp=key.qinv,
                public_numbers=oracle_rsa.RSAPublicNumbers(key.e, key.n),
            ).private_key()  # validates the numbers; raises ValueError if inconsistent
            oracle.public_key().verify(
                key.sign(message), message, padding.PKCS1v15(), hashes.SHA256()
            )  # raises InvalidSignature on reject
            theirs = oracle.sign(message, padding.PKCS1v15(), hashes.SHA256())
            assert key.public().verify(message, theirs)


def _plus_n(signature, key):
    """The octets of s + n, or None when they no longer fit in k octets."""
    forged = int.from_bytes(signature, "big") + key.n
    if forged < 1 << (8 * key.size):
        return forged.to_bytes(key.size, "big")
    return None


def _forgeable(key, hash_name):
    """(message, s, s + n) with s + n still k octets long."""
    for i in range(1000):
        message = f"forge {i}".encode()
        signature = key.sign(message, hash_name)
        forged = _plus_n(signature, key)
        if forged is not None:
            return message, signature, forged
    raise AssertionError("no signature representative small enough")


class TestRsaSignatureRange:
    """RFC 8017 §5.2.2 step 1: a representative s >= n is rejected."""

    @pytest.mark.parametrize("bits", (512, 768, 1024))
    @pytest.mark.parametrize("hash_name", ("sha1", "sha256"))
    def test_verify_rejects_s_plus_n(self, seeded, bits, hash_name):
        key = seeded.keys[bits][0]
        message, signature, forged = _forgeable(key, hash_name)
        assert len(forged) == len(signature) and forged != signature
        assert key.public().verify(message, signature, hash_name)
        assert not key.public().verify(message, forged, hash_name)
        n_octets = key.n.to_bytes(key.size, "big")  # s = n: 0^e mod n, never valid
        assert not key.public().verify(message, n_octets, hash_name)

    @pytest.mark.parametrize("bits", (512, 768, 1024))
    @pytest.mark.parametrize(
        "hash_name,algorithm", (("sha1", ALG_RSASHA1), ("sha256", ALG_RSASHA256))
    )
    def test_dnssec_layers_agree(self, seeded, bits, hash_name, algorithm):
        """verify_signature, and validate_rrset on a memo miss and a hit."""
        pair = KeyPair(algorithm, FLAG_ZONE, seeded.keys[bits][0])
        dnskeys = RRset("example.com", RdataType.DNSKEY, 3600, [pair.dnskey])
        for i in range(1000):  # an RRset whose signature has room for + n
            rrset = RRset("www.example.com", RdataType.A, 300 + i, [A("192.0.2.1")])
            good = sign_rrset(rrset, pair, "example.com")
            forged = _plus_n(good.signature, pair.private)
            if forged is not None:
                break
        bad = _with_signature(good, forged)
        signed = rrsig_signed_data(good, rrset)
        assert verify_signature(pair.dnskey, signed, good.signature)
        assert not verify_signature(pair.dnskey, signed, bad.signature)
        verification_memo.clear()
        for rrsig, status in ((good, SecurityStatus.SECURE), (bad, SecurityStatus.BOGUS)):
            rrsigs = make_rrsig_rrset(rrset, [rrsig])
            hits = verification_memo.hits
            assert validate_rrset(rrset, rrsigs, dnskeys).status is status  # miss
            assert verification_memo.hits == hits
            assert validate_rrset(rrset, rrsigs, dnskeys).status is status  # hit
            assert verification_memo.hits == hits + 1
        verification_memo.clear()

    @pytest.mark.parametrize("bits", (512, 768, 1024))
    def test_cryptography_agrees(self, seeded, bits):
        pytest.importorskip("cryptography")
        from cryptography.exceptions import InvalidSignature
        from cryptography.hazmat.primitives import hashes
        from cryptography.hazmat.primitives.asymmetric import padding
        from cryptography.hazmat.primitives.asymmetric import rsa as oracle_rsa

        key = seeded.keys[bits][0]
        oracle = oracle_rsa.RSAPublicNumbers(key.e, key.n).public_key()
        for hash_name, algorithm in (("sha1", hashes.SHA1()), ("sha256", hashes.SHA256())):
            message, signature, forged = _forgeable(key, hash_name)
            oracle.verify(signature, message, padding.PKCS1v15(), algorithm)
            with pytest.raises(InvalidSignature):
                oracle.verify(forged, message, padding.PKCS1v15(), algorithm)


class TestEcdsa:
    @pytest.fixture(scope="class")
    def key(self):
        return ecdsa.generate_ecdsa_key(random.Random(11))

    def test_public_point_on_curve(self, key):
        assert ecdsa.is_on_curve(key.public_point)

    def test_sign_verify(self, key):
        signature = key.sign(b"hello ecdsa")
        assert len(signature) == 64
        assert key.public().verify(b"hello ecdsa", signature)

    def test_deterministic_signatures(self, key):
        # RFC 6979 nonces: same message, same signature.
        assert key.sign(b"stable") == key.sign(b"stable")

    def test_verify_rejects_wrong_message(self, key):
        signature = key.sign(b"one")
        assert not key.public().verify(b"two", signature)

    def test_verify_rejects_bitflip(self, key):
        signature = bytearray(key.sign(b"m"))
        signature[5] ^= 0x40
        assert not key.public().verify(b"m", bytes(signature))

    def test_verify_rejects_zero_r(self, key):
        assert not key.public().verify(b"m", b"\x00" * 64)

    def test_verify_rejects_bad_length(self, key):
        assert not key.public().verify(b"m", b"\x01" * 63)

    def test_public_key_encoding_round_trip(self, key):
        encoded = ecdsa.encode_public_key(key.public())
        assert len(encoded) == 64
        decoded = ecdsa.decode_public_key(encoded)
        assert decoded.point == key.public_point

    def test_decode_rejects_off_curve(self):
        with pytest.raises(ValueError):
            ecdsa.decode_public_key(b"\x01" * 64)

    def test_decode_rejects_bad_length(self):
        with pytest.raises(ValueError):
            ecdsa.decode_public_key(b"\x01" * 63)

    def test_scalar_mult_matches_known_vector(self):
        # 2·G for P-256 (public test vector).
        point = ecdsa._scalar_mult(2, (ecdsa.GX, ecdsa.GY))
        assert point[0] == int(
            "7CF27B188D034F7E8A52380304B51AC3C08969E277F21B35A60B48FC47669978", 16
        )
        assert point[1] == int(
            "07775510DB8ED040293D9AC69F7430DBBA7DADE63CE982299E04B79D227873D1", 16
        )

    def test_base_table_consistent_with_generic_mult(self):
        rng = random.Random(3)
        for __ in range(5):
            k = rng.getrandbits(160)
            fast = ecdsa._scalar_mult(k, (ecdsa.GX, ecdsa.GY))
            slow = ecdsa._from_jacobian(
                ecdsa._scalar_mult_jac(k, (ecdsa.GX, ecdsa.GY))
            )
            assert fast == slow

    def test_private_scalar_bounds(self):
        with pytest.raises(ValueError):
            ecdsa.EcdsaPrivateKey(0)
        with pytest.raises(ValueError):
            ecdsa.EcdsaPrivateKey(ecdsa.N)

    def test_cryptography_agrees(self, key):
        """The outside oracle, through the DNSSEC key layer: OpenSSL loads
        our DNSKEY public key field (RFC 6605 §4: x‖y) as a P-256 point,
        verifies our raw r‖s signature once DER-wrapped, and signs one
        that we verify."""
        pytest.importorskip("cryptography")
        from cryptography.hazmat.primitives import hashes
        from cryptography.hazmat.primitives.asymmetric import ec
        from cryptography.hazmat.primitives.asymmetric.utils import (
            decode_dss_signature,
            encode_dss_signature,
        )

        pair = KeyPair(ALG_ECDSAP256SHA256, FLAG_ZONE, key)
        message = b"ecdsa oracle"
        public = ec.EllipticCurvePublicKey.from_encoded_point(
            ec.SECP256R1(), b"\x04" + pair.dnskey.key
        )
        ours = pair.sign(message)
        r, s = int.from_bytes(ours[:32], "big"), int.from_bytes(ours[32:], "big")
        public.verify(
            encode_dss_signature(r, s), message, ec.ECDSA(hashes.SHA256())
        )  # raises InvalidSignature on reject
        oracle = ec.derive_private_key(key.d, ec.SECP256R1())
        assert oracle.public_key().public_numbers() == public.public_numbers()
        r, s = decode_dss_signature(oracle.sign(message, ec.ECDSA(hashes.SHA256())))
        theirs = r.to_bytes(32, "big") + s.to_bytes(32, "big")
        assert verify_signature(pair.dnskey, message, theirs)
        assert not verify_signature(pair.dnskey, b"another message", theirs)
