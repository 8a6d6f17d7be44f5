"""Shared benchmark fixtures: one medium-scale testbed per session.

Scale rationale (see DESIGN.md §6): the paper's populations are millions
strong; the bench testbed keeps every *ratio* (operator shares, parameter
mixtures, vendor-policy weights) while scaling counts to what a laptop
signs in seconds. Exact percentages therefore converge to the paper's as
the scale grows; the tables printed by each bench include both.
"""

import json
import os

import pytest

from repro import obs
from repro.core.resolver_compliance import classify_resolver
from repro.resolver.policy import VENDOR_POLICIES
from repro.scanner.atlas import AtlasCampaign
from repro.scanner.dnskey_scan import dnssec_enabled
from repro.scanner.engine import ScanEngine
from repro.scanner.nsec3_scan import domain_rng, scan_domain, scan_tld
from repro.scanner.resolver_scan import ResolverSurvey, SurveyEntry, requeue_label
from repro.testbed.internet import build_internet
from repro.testbed.population import Population, PopulationConfig, generate_tlds
from repro.testbed.resolvers import deploy_resolvers
from repro.testbed.rfc9276_wild import build_probe_zones
from repro.testbed.tranco import assign_tranco_ranks

#: Benchmark-scale configuration (ratios preserved from the paper).
BENCH_CONFIG = PopulationConfig(
    n_domains=1500,
    n_tlds=400,
    tld_dnssec=374,
    tld_nsec3=359,
    tld_zero_iterations=190,
    tld_identity_digital=123,
    tld_saltless=186,
    tld_salt8=154,
    tld_salt10=2,
)

TRANCO_SIZE = 500

RESOLVER_COUNTS = dict(open_v4=110, open_v6=25, closed_v4=25, closed_v6=15)


#: Set REPRO_BENCH_METRICS=path to collect telemetry during a bench run
#: and dump a JSON snapshot of the registry when the session ends.
#: Default: off, so benchmark numbers measure the uninstrumented fast path.
_METRICS_SNAPSHOT = os.environ.get("REPRO_BENCH_METRICS", "")


def fold(accumulator_class, records):
    """A fresh *accumulator_class* with every record folded in, in order,
    as :class:`repro.core.report.StudyAggregates` folds a campaign."""
    accumulator = accumulator_class()
    for record in records:
        accumulator.update(record)
    return accumulator


@pytest.fixture(scope="session", autouse=True)
def bench_metrics_snapshot():
    if not _METRICS_SNAPSHOT:
        yield
        return
    obs.enable()
    yield
    with open(_METRICS_SNAPSHOT, "w", encoding="utf-8") as handle:
        json.dump(obs.registry.to_json(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    obs.disable()


@pytest.fixture(scope="session")
def bench_internet():
    tlds = generate_tlds(BENCH_CONFIG)
    population = Population(BENCH_CONFIG, tlds=tlds)
    inet = build_internet(population, tlds, seed=42)
    # Ranks feed the analyses only; no zone depends on them.
    domains = assign_tranco_ranks(list(population), list_size=TRANCO_SIZE)
    probes = build_probe_zones(inet)
    return {"inet": inet, "probes": probes, "domains": domains, "tlds": tlds}


@pytest.fixture(scope="session")
def domain_scan(bench_internet):
    """The full §4.1 pipeline: DNSKEY scan then NSEC3 scan, via one resolver."""
    inet = bench_internet["inet"]
    upstream = inet.make_resolver(VENDOR_POLICIES["cloudflare"], name="bench-upstream")
    engine = ScanEngine(
        inet.network, inet.allocator.next_v4(), upstream.ip, max_qps=14700
    )
    names = [d.name for d in bench_internet["domains"]]
    enabled = [name for name in names if dnssec_enabled(engine, name)]
    engine.drain()
    results = [scan_domain(engine, name, domain_rng(1355, name)) for name in enabled]
    engine.drain()
    return {"engine": engine, "enabled": enabled, "results": results,
            "upstream": upstream}


@pytest.fixture(scope="session")
def tld_scan(bench_internet, domain_scan):
    engine = domain_scan["engine"]
    results = [scan_tld(engine, spec) for spec in bench_internet["tlds"]]
    engine.drain()
    return results


def survey_entries(inet, probes, deployment):
    """Probe every open resolver from one scanner address and every closed
    one from its Atlas vantage; returns ``(open, closed)`` classified
    :class:`~repro.scanner.resolver_scan.SurveyEntry` lists."""

    def classified(deployed, probed):
        matrix, __ = probed
        return SurveyEntry(
            deployed, matrix, classify_resolver(matrix, resolver=deployed.ip)
        )

    survey = ResolverSurvey(inet.network, probes, inet.allocator.next_v4())
    open_entries = [
        classified(deployed, survey.probe(deployed, requeue_label(index)))
        for index, deployed in enumerate(deployment)
        if deployed.access != "closed"
    ]
    atlas = AtlasCampaign(inet.network, probes)
    closed_entries = [
        classified(deployed, atlas.probe(deployed, index))
        for index, deployed in atlas.eligible(deployment)
    ]
    return open_entries, closed_entries


@pytest.fixture(scope="session")
def resolver_survey(bench_internet):
    """The full §4.2 pipeline: deploy, probe open + closed resolvers."""
    inet = bench_internet["inet"]
    deployment = deploy_resolvers(inet, seed=77, **RESOLVER_COUNTS)
    open_entries, closed_entries = survey_entries(
        inet, bench_internet["probes"], deployment
    )
    return {
        "deployment": deployment,
        "open": open_entries,
        "closed": closed_entries,
        "all": open_entries + closed_entries,
    }
