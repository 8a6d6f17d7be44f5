"""Tests for the zone container, lookup semantics, and the builder."""

import pytest

from repro.dns.name import Name
from repro.dns.rdata import A, NS
from repro.dns.rrset import RRset
from repro.dns.types import RdataType
from repro.zone.builder import ZoneBuilder
from repro.zone.zone import LookupStatus, Zone


@pytest.fixture()
def zone():
    return (
        ZoneBuilder("example.com")
        .soa("ns1.example.com", "hostmaster.example.com")
        .ns("ns1.example.com.", "ns2.example.com.")
        .a("ns1", "192.0.2.1")
        .a("www", "192.0.2.10")
        .cname("alias", "www.example.com.")
        .a("a.b.c", "192.0.2.20")
        .wildcard_a("192.0.2.30", under="wild")
        .a("wild", "192.0.2.31")
        .delegate("child", "ns1.child.example.com.")
        .build()
    )


class TestConstruction:
    def test_requires_soa(self):
        with pytest.raises(ValueError):
            ZoneBuilder("x.test").ns("ns.x.test.").build()

    def test_requires_apex_ns(self):
        with pytest.raises(ValueError):
            ZoneBuilder("x.test").soa("ns.x.test", "h.x.test").build()

    def test_rejects_out_of_zone_record(self, zone):
        with pytest.raises(ValueError):
            zone.add("other.net", RdataType.A, 60, A("1.2.3.4"))

    def test_add_merges_rdata(self, zone):
        before = len(zone.get_rrset("www.example.com", RdataType.A))
        zone.add("www.example.com", RdataType.A, 60, A("192.0.2.99"))
        assert len(zone.get_rrset("www.example.com", RdataType.A)) == before + 1
        # Duplicate rdata does not grow the RRset.
        zone.add("www.example.com", RdataType.A, 60, A("192.0.2.99"))
        assert len(zone.get_rrset("www.example.com", RdataType.A)) == before + 1

    def test_record_count(self, zone):
        assert zone.record_count() >= 9


class TestLookup:
    def test_positive(self, zone):
        result = zone.lookup("www.example.com", RdataType.A)
        assert result.status is LookupStatus.ANSWER
        assert result.rrset[0].to_text() == "192.0.2.10"

    def test_nodata(self, zone):
        result = zone.lookup("www.example.com", RdataType.AAAA)
        assert result.status is LookupStatus.NODATA

    def test_nxdomain(self, zone):
        result = zone.lookup("missing.example.com", RdataType.A)
        assert result.status is LookupStatus.NXDOMAIN

    def test_empty_nonterminal_is_nodata(self, zone):
        # b.c.example.com exists only as an ancestor of a.b.c.example.com.
        result = zone.lookup("b.c.example.com", RdataType.A)
        assert result.status is LookupStatus.NODATA

    def test_cname(self, zone):
        result = zone.lookup("alias.example.com", RdataType.A)
        assert result.status is LookupStatus.CNAME
        assert result.cname[0].target == Name.from_text("www.example.com")

    def test_cname_query_for_cname_type(self, zone):
        result = zone.lookup("alias.example.com", RdataType.CNAME)
        assert result.status is LookupStatus.ANSWER

    def test_wildcard_expansion(self, zone):
        result = zone.lookup("anything.wild.example.com", RdataType.A)
        assert result.status is LookupStatus.WILDCARD
        assert result.rrset.name == Name.from_text("anything.wild.example.com")
        assert result.wildcard_owner == Name.from_text("*.wild.example.com")

    def test_wildcard_does_not_match_existing(self, zone):
        result = zone.lookup("wild.example.com", RdataType.A)
        assert result.status is LookupStatus.ANSWER
        assert result.rrset[0].to_text() == "192.0.2.31"

    def test_wildcard_nodata_for_missing_type(self, zone):
        result = zone.lookup("anything.wild.example.com", RdataType.TXT)
        assert result.status is LookupStatus.NODATA

    def test_delegation(self, zone):
        result = zone.lookup("host.child.example.com", RdataType.A)
        assert result.status is LookupStatus.DELEGATION
        assert result.delegation.name == Name.from_text("child.example.com")

    def test_delegation_at_cut(self, zone):
        result = zone.lookup("child.example.com", RdataType.A)
        assert result.status is LookupStatus.DELEGATION

    def test_ds_at_cut_answered_by_parent(self, zone):
        result = zone.lookup("child.example.com", RdataType.DS)
        assert result.status is LookupStatus.NODATA  # no DS stored → NODATA

    def test_not_in_zone(self, zone):
        result = zone.lookup("www.other.net", RdataType.A)
        assert result.status is LookupStatus.NOT_IN_ZONE

    def test_apex_ns(self, zone):
        result = zone.lookup("example.com", RdataType.NS)
        assert result.status is LookupStatus.ANSWER
        assert len(result.rrset) == 2


class TestStructure:
    def test_delegation_for(self, zone):
        assert zone.delegation_for("x.child.example.com") == Name.from_text(
            "child.example.com"
        )
        assert zone.delegation_for("www.example.com") is None

    def test_authoritative_names_exclude_glue(self, zone):
        zone.add("ns1.child.example.com", RdataType.A, 60, A("192.0.2.40"))
        names = zone.authoritative_names()
        assert Name.from_text("ns1.child.example.com") not in names
        assert Name.from_text("child.example.com") in names

    def test_empty_nonterminals(self, zone):
        empties = zone.empty_nonterminals()
        assert Name.from_text("b.c.example.com") in empties
        assert Name.from_text("c.example.com") in empties
        assert Name.from_text("www.example.com") not in empties

    def test_soa_property(self, zone):
        assert zone.soa is not None
        assert int(zone.soa.rrtype) == int(RdataType.SOA)
