"""Tests for the RFC 5155 NSEC3 hash, including the RFC's own test vector."""

import pytest

from repro.dns.base32 import b32hex_encode
from repro.dns.name import Name
from repro.dnssec.costmodel import meter
from repro.dnssec.nsec3hash import (
    UnknownHashAlgorithm,
    nsec3_hash,
    nsec3_hash_batch,
    nsec3_hash_name,
    nsec3_owner_name,
)


#: RFC 5155 Appendix A: every hashed owner name of the example zone
#: (salt AABBCCDD, 12 additional iterations).
APPENDIX_A = [
    ("example", "0P9MHAVEQVM6T7VBL5LOP2U3T2RP3TOM"),
    ("a.example", "35MTHGPGCU1QG68FAB165KLNSNK3DPVL"),
    ("ai.example", "GJEQE526PLBF1G8MKLP59ENFD789NJGI"),
    ("ns1.example", "2T7B4G4VSA5SMI47K61MV5BV1A22BOJR"),
    ("ns2.example", "Q04JKCEVQVMU85R014C7DKBA38O0JI5R"),
    ("w.example", "K8UDEMVP1J2F7EG6JEBPS17VP3N8I58H"),
    ("*.w.example", "R53BQ7CC2UVMUBFU5OCMM6PERS9TK9EN"),
    ("x.w.example", "B4UM86EGHHDS6NEA196SMVMLO4ORS995"),
    ("y.w.example", "JI6NEOAEPV8B5O6K4EV33ABHA8HT9FGC"),
    ("x.y.w.example", "2VPTU5TIMAMQTTGL4LUU9KG21E0AOR3S"),
    ("xx.example", "T644EBQK9BIBCNA874GIVR6JOJ62MLHV"),
]


class TestRfc5155Vectors:
    """RFC 5155 Appendix A uses salt AABBCCDD and 12 additional iterations."""

    SALT = bytes.fromhex("AABBCCDD")
    ITERATIONS = 12

    @pytest.mark.parametrize("name,expected", APPENDIX_A)
    def test_appendix_a_hashes(self, name, expected):
        digest = nsec3_hash_name(name, self.SALT, self.ITERATIONS)
        assert b32hex_encode(digest) == expected
        # nsec3_hash itself, on the owner wire the chain builder and the
        # validator hand it, agrees with a hashlib-only reference.
        owner = Name.from_text(name).canonical_wire()
        assert nsec3_hash(owner, self.SALT, self.ITERATIONS) == digest
        assert digest == _reference_hash(owner, self.SALT, self.ITERATIONS)


def _reference_hash(owner_wire, salt, iterations):
    """RFC 5155 §5 with :mod:`hashlib` alone: IH(salt, x, 0) = H(x || salt),
    IH(salt, x, k) = H(IH(salt, x, k-1) || salt)."""
    import hashlib

    digest = hashlib.sha1(owner_wire + salt).digest()
    for __ in range(iterations):
        digest = hashlib.sha1(digest + salt).digest()
    return digest


class TestBasics:
    def test_zero_iterations_single_sha1(self):
        import hashlib

        name = Name.from_text("example.com")
        expected = hashlib.sha1(name.canonical_wire() + b"\x01").digest()
        assert nsec3_hash_name(name, b"\x01", 0) == expected

    def test_case_insensitive(self):
        assert nsec3_hash_name("EXAMPLE.COM", b"", 3) == nsec3_hash_name(
            "example.com", b"", 3
        )

    def test_iterations_change_hash(self):
        assert nsec3_hash_name("example.com", b"", 1) != nsec3_hash_name(
            "example.com", b"", 2
        )

    def test_salt_changes_hash(self):
        assert nsec3_hash_name("example.com", b"a", 1) != nsec3_hash_name(
            "example.com", b"b", 1
        )

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(UnknownHashAlgorithm):
            nsec3_hash(b"\x00", b"", 0, hash_algorithm=2)

    def test_owner_name(self):
        owner = nsec3_owner_name("www.example.com", "example.com", b"", 0)
        assert owner.label_count == 3
        assert owner.is_subdomain_of(Name.from_text("example.com"))
        assert len(owner.labels[0]) == 32


class TestCostAccounting:
    def test_hash_count_charged(self):
        meter.reset()
        nsec3_hash_name("example.com", b"", 0)
        assert meter.nsec3_hashes == 1
        assert meter.sha1_compressions >= 1

    def test_iterations_scale_compressions(self):
        meter.reset()
        nsec3_hash_name("example.com", b"", 0)
        base = meter.sha1_compressions
        meter.reset()
        nsec3_hash_name("example.com", b"", 100)
        assert meter.sha1_compressions >= base + 100

    def test_snapshot_subtraction(self):
        meter.reset()
        before = meter.snapshot()
        nsec3_hash_name("example.com", b"", 5)
        delta = meter.snapshot() - before
        assert delta.nsec3_hashes == 1
        assert delta.sha1_compressions == 6


class TestBatch:
    """The chain builder's batch must be N single hashes in disguise:
    same digests, same meter charges."""

    OWNERS = [
        Name.from_text(text).canonical_wire()
        for text in ("example", "a.example", "*.w.example", "x" * 63 + ".example")
    ]

    @pytest.mark.parametrize("salt", [b"", bytes.fromhex("AABBCCDD"), b"\x07" * 200])
    @pytest.mark.parametrize("iterations", [0, 1, 12, 150])
    def test_matches_per_owner_hash(self, salt, iterations):
        meter.reset()
        batch = nsec3_hash_batch(self.OWNERS, salt, iterations)
        batch_cost = meter.snapshot()
        meter.reset()
        single = [nsec3_hash(owner, salt, iterations) for owner in self.OWNERS]
        assert batch == single
        assert batch_cost == meter.snapshot()
        assert batch_cost.nsec3_hashes == len(self.OWNERS)

    def test_rfc5155_vector(self):
        (digest,) = nsec3_hash_batch(
            [Name.from_text("example").canonical_wire()],
            TestRfc5155Vectors.SALT,
            TestRfc5155Vectors.ITERATIONS,
        )
        assert b32hex_encode(digest) == "0P9MHAVEQVM6T7VBL5LOP2U3T2RP3TOM"

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(UnknownHashAlgorithm):
            nsec3_hash_batch([b"\x00"], b"", 0, hash_algorithm=2)
