"""Resolver resource guards: budgets, watchdog, admission, attack zones."""

import pytest

from repro import obs
from repro.dns.edns import EDE_STALE_ANSWER, EDE_UNSUPPORTED_NSEC3_ITERATIONS
from repro.dns.rcode import Rcode
from repro.dns.types import RdataType
from repro.dnssec.costmodel import meter
from repro.net.sim import CampaignExecutor
from repro.resolver.cache import Cache
from repro.resolver.guard import (
    GUARD_PROFILES,
    AdmissionController,
    BudgetExceeded,
    DeadlineExceeded,
    GuardConfig,
    WorkBudget,
    activate,
    current,
)
from repro.resolver.policy import VENDOR_POLICIES
from repro.resolver.stub import StubClient
from repro.testbed.adversary import build_attack_zones
from repro.testbed.internet import build_internet
from repro.testbed.population import (
    PopulationConfig,
    Population,
    generate_tlds,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _config(**overrides):
    """A GuardConfig with every ceiling disabled except the overrides."""
    base = dict(
        name="test",
        max_hash_cost=None,
        max_signature_verifications=None,
        max_upstream_queries=None,
        max_chain_depth=None,
        deadline_ms=None,
        max_inflight=None,
        serve_stale=False,
    )
    base.update(overrides)
    return GuardConfig(**base)


def _small_lab(seed=5):
    config = PopulationConfig(
        n_domains=24,
        n_tlds=12,
        tld_dnssec=10,
        tld_nsec3=9,
        tld_zero_iterations=4,
        tld_identity_digital=2,
        tld_saltless=4,
        tld_salt8=4,
        tld_salt10=1,
    )
    tlds = generate_tlds(config)
    domains = Population(config, tlds=tlds, include_tail=False)
    return build_internet(domains, tlds, seed=seed)


@pytest.fixture(scope="module")
def attack_lab():
    """A small Internet with the adversarial lab zones deployed."""
    inet = _small_lab()
    attack = build_attack_zones(inet)
    return {"inet": inet, "attack": attack}


# -- WorkBudget units ---------------------------------------------------------


def test_budget_hash_cost_ceiling_trips_with_bounded_overshoot():
    budget = WorkBudget(_config(max_hash_cost=50), FakeClock())
    with activate(budget):
        assert current() is budget
        with pytest.raises(BudgetExceeded) as err:
            for __ in range(100):
                # 11 compressions per charge (1 initial + 10 iterations).
                meter.charge_nsec3(10, 20, 0)
    assert err.value.kind == "hash_cost"
    assert err.value.ede_code == EDE_UNSUPPORTED_NSEC3_ITERATIONS
    # Overshoot past the ceiling is at most one metered operation.
    assert 50 < budget.hash_cost <= 50 + 11
    # Scope exit restores the uninstrumented state.
    assert current() is None
    assert meter.listener is None


def test_budget_verification_ceiling():
    budget = WorkBudget(_config(max_signature_verifications=3), FakeClock())
    with activate(budget):
        with pytest.raises(BudgetExceeded) as err:
            for __ in range(10):
                meter.charge_verification()
    assert err.value.kind == "verifications"
    assert budget.verifications == 4


def test_watchdog_deadline_on_sim_clock():
    clock = FakeClock()
    budget = WorkBudget(_config(deadline_ms=100.0), clock)
    with activate(budget):
        meter.charge_verification()  # within deadline: no error
        clock.now = 250.0
        with pytest.raises(DeadlineExceeded) as err:
            meter.charge_verification()
    assert err.value.kind == "deadline"


def test_upstream_fanout_ceiling():
    budget = WorkBudget(_config(max_upstream_queries=4), FakeClock())
    for __ in range(4):
        budget.charge_upstream()
    with pytest.raises(BudgetExceeded) as err:
        budget.charge_upstream()
    assert err.value.kind == "upstream_fanout"


def test_chain_depth_ceiling():
    budget = WorkBudget(_config(max_chain_depth=16), FakeClock())
    budget.charge_depth(16)  # at the ceiling: fine
    with pytest.raises(BudgetExceeded) as err:
        budget.charge_depth(17)
    assert err.value.kind == "chain_depth"


def test_charges_outside_scope_are_free():
    meter.charge_nsec3(2500, 30, 8)  # no active budget: must not raise
    assert current() is None


# -- AdmissionController ------------------------------------------------------


def test_admission_controller_interval_accounting():
    admission = AdmissionController(2)
    assert admission.admit(0.0)
    admission.complete(0.0, 50.0)
    assert admission.admit(10.0)
    admission.complete(10.0, 60.0)
    # Two intervals still open at t=20: shed.
    assert not admission.admit(20.0)
    # The first interval ended at 50; capacity is free again at 55.
    assert admission.admit(55.0)
    assert admission.admitted == 3
    assert admission.shed == 1


# -- serve-stale reads -------------------------------------------------------


def test_cache_peek_returns_expired_entries():
    clock = FakeClock()
    cache = Cache(clock=clock, max_entries=10)
    cache.put("stale", "value", ttl_seconds=1)
    clock.now = 10_000.0
    assert cache.peek("stale").value == "value"
    assert cache.get("stale") is None  # get still drops expired entries
    assert cache.peek("stale") is None


# -- adversarial zones end to end ---------------------------------------------


def _cost_of(resolver, qname):
    before = meter.snapshot()
    verdict = resolver.resolve_and_validate(qname, RdataType.A)
    return verdict, meter.snapshot() - before


def test_encloser_attack_bounded_by_guard(attack_lab):
    inet, attack = attack_lab["inet"], attack_lab["attack"]
    profile = GUARD_PROFILES["guarded"]
    unguarded = inet.make_resolver(VENDOR_POLICIES["legacy"], name="enc-unguarded")
    guarded = inet.make_resolver(
        VENDOR_POLICIES["legacy"], name="enc-guarded", guard=profile
    )

    verdict, cost = _cost_of(unguarded, attack.attack_name("encloser-500", "u1"))
    assert verdict.rcode == Rcode.NXDOMAIN
    assert verdict.ad
    assert cost.sha1_compressions > profile.max_hash_cost

    verdict, cost = _cost_of(guarded, attack.attack_name("encloser-500", "g1"))
    assert verdict.rcode == Rcode.SERVFAIL
    assert EDE_UNSUPPORTED_NSEC3_ITERATIONS in {code for code, __ in verdict.ede}
    # Bounded by the configured budget plus at most one NSEC3 hash.
    assert cost.sha1_compressions <= profile.max_hash_cost + 2_000
    assert guarded.guard_events == {"hash_cost": 1}


def test_keytrap_attack_bounded_by_guard(attack_lab):
    inet, attack = attack_lab["inet"], attack_lab["attack"]
    profile = GUARD_PROFILES["guarded"]
    unguarded = inet.make_resolver(VENDOR_POLICIES["legacy"], name="kt-unguarded")
    guarded = inet.make_resolver(
        VENDOR_POLICIES["legacy"], name="kt-guarded", guard=profile
    )

    verdict, cost = _cost_of(unguarded, attack.attack_name("keytrap", "u1"))
    # The sabotaged zone is still fully valid: the unguarded resolver
    # grinds through every (garbage sig x colliding key) pair and then
    # authenticates the answer.
    assert verdict.rcode == Rcode.NOERROR
    assert verdict.ad
    assert cost.signature_verifications > profile.max_signature_verifications

    verdict, cost = _cost_of(guarded, attack.attack_name("keytrap", "g1"))
    assert verdict.rcode == Rcode.SERVFAIL
    assert verdict.ede
    assert (
        cost.signature_verifications <= profile.max_signature_verifications + 1
    )
    assert guarded.guard_events == {"verifications": 1}


def test_benign_queries_agree_with_unguarded(attack_lab):
    inet, attack = attack_lab["inet"], attack_lab["attack"]
    unguarded = inet.make_resolver(VENDOR_POLICIES["legacy"], name="ben-unguarded")
    guarded = inet.make_resolver(
        VENDOR_POLICIES["legacy"], name="ben-guarded", guard=GUARD_PROFILES["guarded"]
    )
    names = [f"{attack.parent_name.to_text().rstrip('.')}"]
    names += [spec.name for spec in inet.domain_specs[:4]]
    for qname in names:
        baseline = unguarded.resolve_and_validate(qname, RdataType.A)
        observed = guarded.resolve_and_validate(qname, RdataType.A)
        assert observed.rcode == baseline.rcode
        assert observed.ad == baseline.ad
        assert observed.ede == baseline.ede
    assert guarded.guard_events == {}


def test_guard_metrics_exported(attack_lab):
    inet, attack = attack_lab["inet"], attack_lab["attack"]
    obs.enable()
    try:
        guarded = inet.make_resolver(
            VENDOR_POLICIES["legacy"], name="metrics-guarded",
            guard=GUARD_PROFILES["guarded"],
        )
        guarded.resolve_and_validate(
            attack.attack_name("encloser-500", "metrics1"), RdataType.A
        )
        exported = obs.registry.to_json()
        family = exported["repro_guard_budget_exceeded_total"]
        samples = {
            (s["labels"]["resolver"], s["labels"]["kind"]): s["value"]
            for s in family["samples"]
        }
        assert samples[("metrics-guarded", "hash_cost")] == 1
    finally:
        obs.disable()
        obs.reset()


# -- load shedding ------------------------------------------------------------


def _run_shed_campaign(concurrency, queries=24, seed=5):
    """One fixed campaign of unique NXDOMAIN probes; returns (shed, refused)."""
    inet = _small_lab(seed=seed)
    guard = _config(max_inflight=4)
    resolver = inet.make_resolver(
        VENDOR_POLICIES["legacy"], name=f"shed-{concurrency}", guard=guard
    )
    client = StubClient(inet.network, inet.allocator.next_v4())
    executor = CampaignExecutor(inet.network.kernel, concurrency=concurrency)
    target = inet.domain_specs[0].name
    answers = []
    for index in range(queries):
        qname = f"u{index}.{target}"
        answers.append(
            executor.submit(lambda q=qname: client.ask(resolver.ip, q, RdataType.A))
        )
    executor.drain()
    refused = sum(1 for answer in answers if answer.rcode == Rcode.REFUSED)
    return resolver.admission.shed, refused


def test_shedding_deterministic_across_concurrency():
    # Serial queries never overlap on the sim clock: nothing is shed.
    shed_serial, refused_serial = _run_shed_campaign(1)
    assert (shed_serial, refused_serial) == (0, 0)

    shed_8, refused_8 = _run_shed_campaign(8)
    assert shed_8 > 0
    assert refused_8 == shed_8
    # Same seed, same campaign: shedding decisions are reproducible.
    assert _run_shed_campaign(8) == (shed_8, refused_8)

    shed_32, refused_32 = _run_shed_campaign(32)
    assert refused_32 == shed_32
    assert shed_32 >= shed_8


def test_shed_serves_stale_from_cache(attack_lab):
    inet, attack = attack_lab["inet"], attack_lab["attack"]
    guard = _config(max_inflight=0, serve_stale=True)
    resolver = inet.make_resolver(
        VENDOR_POLICIES["legacy"], name="stale-res", guard=guard
    )
    qname = attack.attack_name("no-such-child")
    # Prime the cache directly (bypasses datagram admission).
    primed = resolver.resolve_and_validate(qname, RdataType.A)
    assert primed.rcode == Rcode.NXDOMAIN

    client = StubClient(inet.network, inet.allocator.next_v4())
    answer = client.ask(resolver.ip, qname, RdataType.A)
    assert answer.rcode == Rcode.NXDOMAIN
    assert EDE_STALE_ANSWER in answer.ede_codes
    assert resolver.admission.shed == 1


def test_shed_refuses_without_stale_answer(attack_lab):
    inet = attack_lab["inet"]
    guard = _config(max_inflight=0, serve_stale=False)
    resolver = inet.make_resolver(
        VENDOR_POLICIES["legacy"], name="refuse-res", guard=guard
    )
    client = StubClient(inet.network, inet.allocator.next_v4())
    answer = client.ask(resolver.ip, "anything.example.net", RdataType.A)
    assert answer.rcode == Rcode.REFUSED
    assert resolver.admission.shed == 1
