"""Shared fixtures: a small signed mini-Internet reused across test modules.

Building and signing zones is the expensive part of integration testing,
so the heavyweight fixtures are session-scoped and read-only by convention
(tests attach their own resolvers/clients rather than mutating zones).
"""

import random
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.crypto.keys import make_ds
from repro.dns.rdata import A
from repro.dns.rrset import RRset
from repro.dns.types import RdataType
from repro.net.network import Network
from repro.net.sim import CampaignExecutor
from repro.scanner.atlas import AtlasCampaign
from repro.scanner.campaign import run_units
from repro.scanner.pipeline import FoldSink, World
from repro.scanner.resolver_scan import ResolverSurvey
from repro.server.authoritative import AuthoritativeServer
from repro.testbed.internet import build_internet
from repro.testbed.population import (
    PopulationConfig,
    Population,
    generate_tlds,
)
from repro.testbed.rfc9276_wild import build_probe_zones
from repro.zone.builder import ZoneBuilder
from repro.zone.nsec3chain import Nsec3Params
from repro.zone.signing import SigningPolicy, sign_zone

#: A compact TLD configuration reused by testbed tests.
SMALL_CONFIG = PopulationConfig(
    n_domains=60,
    n_tlds=40,
    tld_dnssec=36,
    tld_nsec3=33,
    tld_zero_iterations=15,
    tld_identity_digital=7,
    tld_saltless=15,
    tld_salt8=12,
    tld_salt10=1,
)


@pytest.fixture(scope="session")
def mini_internet():
    """A hand-built 3-level tree: root → com → example.com (NSEC3, 5 it)."""
    rng = random.Random(99)
    net = Network(seed=2)
    example = (
        ZoneBuilder("example.com")
        .soa("ns1.example.com", "h.example.com")
        .ns("ns1.example.com.")
        .a("ns1", "192.0.2.53")
        .a("www", "192.0.2.80")
        .txt("info", "hello world")
        .wildcard_a("192.0.2.99", under="wild")
        .a("wild", "192.0.2.98")
        .build()
    )
    sign_zone(
        example,
        SigningPolicy(nsec3=Nsec3Params(iterations=5, salt=b"\xca\xfe")),
        rng=rng,
    )
    com = (
        ZoneBuilder("com")
        .soa("ns1.gtld.net", "h.gtld.net")
        .ns("ns1.com.")
        .a("ns1", "192.0.2.52")
        .delegate(
            "example",
            "ns1.example.com.",
            ds=make_ds("example.com", example.keys[0].dnskey),
        )
        .delegate("unsigned", "ns1.example.com.")
        .build()
    )
    com.add("ns1.example.com", RdataType.A, 3600, A("192.0.2.53"))
    sign_zone(
        com, SigningPolicy(nsec3=Nsec3Params(iterations=0, opt_out=True)), rng=rng
    )
    unsigned = (
        ZoneBuilder("unsigned.com")
        .soa("ns1.example.com.", "h.unsigned.com")
        .ns("ns1.example.com.")
        .a("www", "192.0.2.70")
        .build()
    )
    rootz = (
        ZoneBuilder(".")
        .soa("a.root.", "h.root.")
        .ns("a.root.")
        .a("a.root.", "192.0.2.1")
        .delegate("com.", "ns1.com.", ds=make_ds("com", com.keys[0].dnskey))
        .build()
    )
    rootz.add("ns1.com", RdataType.A, 3600, A("192.0.2.52"))
    sign_zone(rootz, SigningPolicy(nsec3=None), rng=rng)

    servers = {}
    for ip, zones in (
        ("192.0.2.1", [rootz]),
        ("192.0.2.52", [com]),
        ("192.0.2.53", [example, unsigned]),
    ):
        server = AuthoritativeServer(f"auth-{ip}")
        for zone in zones:
            server.add_zone(zone)
        net.attach(ip, server)
        servers[ip] = server

    trust_anchor = RRset(".", RdataType.DS, 3600, [make_ds(".", rootz.keys[0].dnskey)])
    return {
        "network": net,
        "root": rootz,
        "com": com,
        "example": example,
        "unsigned": unsigned,
        "servers": servers,
        "root_addresses": ["192.0.2.1"],
        "trust_anchor": trust_anchor,
    }


@pytest.fixture(scope="session")
def testbed():
    """A small generated testbed with probe zones."""
    tlds = generate_tlds(SMALL_CONFIG)
    domains = Population(SMALL_CONFIG, tlds=tlds, include_tail=False)
    inet = build_internet(domains, tlds, seed=5)
    probe_set = build_probe_zones(inet)
    return {"inet": inet, "probes": probe_set, "domains": domains, "tlds": tlds}


def survey_world(inet, probes, deployment, iterations, concurrency=1, retry_policy=None):
    """A :class:`World` that holds only the §4.2 resolver probers: open
    resolvers from a scanner address allocated here, closed ones from
    their Atlas vantage. Its units are ``survey_units(deployment)``."""
    world = World()
    world.inet, world.probes, world.deployment = inet, probes, deployment
    world.survey = ResolverSurvey(
        inet.network, probes, inet.allocator.next_v4(),
        iterations=iterations, retry_policy=retry_policy,
    )
    world.atlas = AtlasCampaign(
        inet.network, probes, iterations=iterations, retry_policy=retry_policy
    )
    world.atlas_budget = frozenset(i for i, __ in world.atlas.eligible(deployment))
    world.executor = CampaignExecutor(inet.network.kernel, concurrency)
    return world


def survey_units(deployment):
    return [("r", str(index)) for index in range(len(deployment))]


def _keeping(deployment, entries):
    """A fold target that appends each classified entry to *entries*,
    holding its deployed resolver."""
    by_ip = {deployed.ip: deployed for deployed in deployment}
    return SimpleNamespace(
        update_survey=lambda entry: entries.append(
            replace(entry, resolver=by_ip[entry.resolver.ip])
        )
    )


def survey_entries(deployment, records):
    """Fold ``(unit key, record)`` pairs into classified
    :class:`~repro.scanner.resolver_scan.SurveyEntry` objects."""
    entries = []
    sink = FoldSink(_keeping(deployment, entries))
    for key, record in records:
        sink.record(key, record)
    return entries


def run_survey(inet, probes, deployment, iterations, concurrency=1, retry_policy=None):
    """The §4.2 survey of *deployment*, run the way every command runs it:
    ``run_units`` over a :func:`survey_world`. Returns the classified
    entries in settle order, so requeued resolvers come last."""
    world = survey_world(inet, probes, deployment, iterations, concurrency, retry_policy)
    entries = []
    run_units(world, survey_units(deployment), FoldSink(_keeping(deployment, entries)))
    return entries


def fold(accumulator_class, records):
    """A fresh *accumulator_class* with every record folded in, in order,
    as :class:`repro.core.report.StudyAggregates` folds a campaign."""
    accumulator = accumulator_class()
    for record in records:
        accumulator.update(record)
    return accumulator
