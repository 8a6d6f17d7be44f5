"""Tests for NSEC3 denial-of-existence proofs (RFC 5155 §7/§8)."""

import random

import pytest

from repro.dns.name import Name
from repro.dns.rrset import RRset
from repro.dns.types import RdataType
from repro.dnssec.denial import (
    DenialError,
    collect_proof_records,
    hash_covers,
    owner_hash_of,
    verify_nodata,
    verify_nxdomain,
)
from repro.dnssec.nsec3hash import nsec3_hash
from repro.zone.builder import ZoneBuilder
from repro.zone.nsec3chain import Nsec3Params
from repro.zone.signing import SigningPolicy, sign_zone

ZONE_NAME = "example.com"
PARAMS = Nsec3Params(iterations=2, salt=b"\x42")


@pytest.fixture(scope="module")
def zone():
    built = (
        ZoneBuilder(ZONE_NAME)
        .soa("ns1.example.com", "h.example.com")
        .ns("ns1.example.com.")
        .a("ns1", "192.0.2.1")
        .a("www", "192.0.2.2")
        .a("api", "192.0.2.3")
        .a("deep.sub", "192.0.2.4")
        .build()
    )
    return sign_zone(built, SigningPolicy(nsec3=PARAMS), rng=random.Random(4))


def digest_of(name):
    return nsec3_hash(
        Name.from_text(name).canonical_wire(), PARAMS.salt, PARAMS.iterations
    )


def proof_sections(zone, *names):
    """Assemble NSEC3 RRsets covering/matching *names* like a server would."""
    chain = zone.nsec3_chain
    seen = {}
    for name in names:
        digest = digest_of(name)
        entry = chain.find_matching(digest) or chain.find_covering(digest)
        seen[entry.owner_name] = entry
    return [
        RRset(e.owner_name, RdataType.NSEC3, 3600, [e.rdata]) for e in seen.values()
    ]


class TestHashCovers:
    def test_plain_interval(self):
        assert hash_covers(b"\x10", b"\x20", b"\x18")
        assert not hash_covers(b"\x10", b"\x20", b"\x20")
        assert not hash_covers(b"\x10", b"\x20", b"\x10")
        assert not hash_covers(b"\x10", b"\x20", b"\x30")

    def test_wraparound_interval(self):
        assert hash_covers(b"\xf0", b"\x10", b"\xff")
        assert hash_covers(b"\xf0", b"\x10", b"\x05")
        assert not hash_covers(b"\xf0", b"\x10", b"\x80")

    def test_wraparound_interval_is_open_at_both_ends(self):
        """The last record of the chain covers what lies past its owner
        and before the first owner, but neither owner itself: those names
        exist, so a proof that "covers" them proves nothing."""
        assert not hash_covers(b"\xf0", b"\x10", b"\xf0")
        assert not hash_covers(b"\xf0", b"\x10", b"\x10")
        assert hash_covers(b"\xf0", b"\x10", b"\xf0\x00")
        # A one-record chain (owner == next) covers every other hash.
        assert hash_covers(b"\x80", b"\x80", b"\x81")
        assert not hash_covers(b"\x80", b"\x80", b"\x80")


class TestOwnerHash:
    def test_round_trip(self, zone):
        entry = zone.nsec3_chain.entries[0]
        assert owner_hash_of(entry.owner_name, ZONE_NAME) == entry.owner_hash

    def test_rejects_wrong_depth(self):
        with pytest.raises(DenialError):
            owner_hash_of(Name.from_text("a.b.example.com"), ZONE_NAME)

    def test_rejects_bad_label(self):
        with pytest.raises(DenialError):
            owner_hash_of(Name.from_text("notbase32!!.example.com"), ZONE_NAME)


class TestCollect:
    def test_collects_params(self, zone):
        section = proof_sections(zone, "nope.example.com")
        records, params = collect_proof_records(section, ZONE_NAME)
        assert params == (1, PARAMS.iterations, PARAMS.salt)
        assert records

    def test_inconsistent_params_rejected(self, zone):
        from repro.dns.rdata.nsec3 import NSEC3

        section = proof_sections(zone, "nope.example.com")
        rogue = NSEC3(1, 0, 99, b"", b"\x01" * 20, [])
        section.append(
            RRset(zone.nsec3_chain.entries[0].owner_name, RdataType.NSEC3, 60, [rogue])
        )
        with pytest.raises(DenialError):
            collect_proof_records(section, ZONE_NAME)

    def test_empty_section(self):
        records, params = collect_proof_records([], ZONE_NAME)
        assert records == [] and params is None


class TestNxdomain:
    def test_valid_proof(self, zone):
        qname = "doesnotexist.example.com"
        section = proof_sections(
            zone, ZONE_NAME, qname, f"*.{ZONE_NAME}"
        )
        records, params = collect_proof_records(section, ZONE_NAME)
        proof = verify_nxdomain(qname, ZONE_NAME, records, params)
        assert proof.valid, proof.reason
        assert proof.closest_encloser == Name.from_text(ZONE_NAME)
        assert proof.iterations == PARAMS.iterations

    def test_deep_name_closest_encloser(self, zone):
        # sub.example.com is an empty non-terminal: closest encloser for
        # nope.deep.sub.example.com is deep.sub.example.com.
        qname = "nope.deep.sub.example.com"
        ce = "deep.sub.example.com"
        section = proof_sections(zone, ce, qname, f"*.{ce}")
        records, params = collect_proof_records(section, ZONE_NAME)
        proof = verify_nxdomain(qname, ZONE_NAME, records, params)
        assert proof.valid, proof.reason
        assert proof.closest_encloser == Name.from_text(ce)

    def test_missing_next_closer_cover_fails(self, zone):
        qname = "doesnotexist.example.com"
        section = proof_sections(zone, ZONE_NAME)  # only the CE match
        records, params = collect_proof_records(section, ZONE_NAME)
        proof = verify_nxdomain(qname, ZONE_NAME, records, params)
        assert not proof.valid

    def test_existing_name_fails(self, zone):
        section = proof_sections(zone, "www.example.com", ZONE_NAME)
        records, params = collect_proof_records(section, ZONE_NAME)
        proof = verify_nxdomain("www.example.com", ZONE_NAME, records, params)
        assert not proof.valid
        assert "exists" in proof.reason

    def test_out_of_zone_fails(self, zone):
        section = proof_sections(zone, ZONE_NAME)
        records, params = collect_proof_records(section, ZONE_NAME)
        proof = verify_nxdomain("x.other.net", ZONE_NAME, records, params)
        assert not proof.valid

    def test_no_records_fails(self):
        proof = verify_nxdomain("x.example.com", ZONE_NAME, [], None)
        assert not proof.valid

    def test_wildcard_not_required_when_disabled(self, zone):
        qname = "doesnotexist.example.com"
        section = proof_sections(zone, ZONE_NAME, qname)
        records, params = collect_proof_records(section, ZONE_NAME)
        strict = verify_nxdomain(qname, ZONE_NAME, records, params)
        relaxed = verify_nxdomain(
            qname, ZONE_NAME, records, params, require_wildcard=False
        )
        assert relaxed.valid
        # The wildcard hash may or may not fall in the same spans; relaxed
        # must never be stricter than strict.
        assert relaxed.valid >= strict.valid


class TestNodata:
    def test_valid_nodata(self, zone):
        section = proof_sections(zone, "www.example.com")
        records, params = collect_proof_records(section, ZONE_NAME)
        proof = verify_nodata(
            "www.example.com", RdataType.AAAA, ZONE_NAME, records, params
        )
        assert proof.valid, proof.reason

    def test_type_present_fails(self, zone):
        section = proof_sections(zone, "www.example.com")
        records, params = collect_proof_records(section, ZONE_NAME)
        proof = verify_nodata(
            "www.example.com", RdataType.A, ZONE_NAME, records, params
        )
        assert not proof.valid

    def test_no_match_without_optout_fails(self, zone):
        section = proof_sections(zone, ZONE_NAME)
        records, params = collect_proof_records(section, ZONE_NAME)
        proof = verify_nodata(
            "ghost.example.com", RdataType.A, ZONE_NAME, records, params
        )
        assert not proof.valid


class TestOptOut:
    @pytest.fixture(scope="class")
    def optout_zone(self):
        from repro.crypto.keys import make_ds
        from repro.dns.rdata import NS

        built = (
            ZoneBuilder("tld")
            .soa("ns1.tld", "h.tld")
            .ns("ns1.tld.")
            .a("ns1", "192.0.2.1")
            .delegate("insecure", "ns1.elsewhere.net.")
            .build()
        )
        params = Nsec3Params(iterations=1, salt=b"", opt_out=True)
        return sign_zone(built, SigningPolicy(nsec3=params), rng=random.Random(8))

    def test_insecure_delegation_not_in_chain(self, optout_zone):
        digest = nsec3_hash(
            Name.from_text("insecure.tld").canonical_wire(), b"", 1
        )
        assert optout_zone.nsec3_chain.find_matching(digest) is None

    def test_optout_nodata_ds_proof(self, optout_zone):
        chain = optout_zone.nsec3_chain
        digest = nsec3_hash(Name.from_text("insecure.tld").canonical_wire(), b"", 1)
        apex_digest = nsec3_hash(Name.from_text("tld").canonical_wire(), b"", 1)
        section = []
        seen = set()
        for entry in (chain.find_matching(apex_digest), chain.find_covering(digest)):
            if entry.owner_name not in seen:
                seen.add(entry.owner_name)
                section.append(
                    RRset(entry.owner_name, RdataType.NSEC3, 60, [entry.rdata])
                )
        records, params = collect_proof_records(section, "tld")
        proof = verify_nodata("insecure.tld", RdataType.DS, "tld", records, params)
        assert proof.valid, proof.reason
        assert proof.opt_out
