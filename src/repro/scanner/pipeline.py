"""The measurement pipeline: one world, one unit semantics, one runner.

The paper's method (§4.1 DNSKEY gate → NSEC3 probes per domain, the TLD
audit, §4.2 it-N resolver probes) is defined here once, for the CLI's
in-process run, every supervised fleet worker, the service world,
``trace`` and ``attack``:

- :class:`CampaignPlan` / :class:`UnitUniverse` — what to measure: the
  global unit list (domains, then TLD audits, then resolver probes, open
  before closed), derived purely from the plan, so every process agrees
  on it without building a testbed. Units keep their **global indices**
  under any sharding, so cache-busting probe labels (``r{index}``,
  ``atlas{index}``) do not depend on who measures them.
- :meth:`World.build` — the simulated world of a plan, in the one
  address-allocation order every report depends on.
- :meth:`World.measure` — what a ``d``/``t``/``r`` unit does.
- :func:`repro.scanner.campaign.run_units` — the skip-done → measure →
  quarantine → requeue → settle loop, which drives a world over any
  sub-stream of units into a sink: a worker's crash-safe checkpoint, or
  a :class:`FoldSink` over report aggregates.

A single-process run is shard 0 of 1 through the same calls a fleet
worker makes, which is why a merged fleet report is byte-identical to
it: the same code measured the same units.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from types import SimpleNamespace

from repro.core.resolver_compliance import classify_resolver
from repro.core.zone_compliance import Nsec3Observation, check_zone_compliance
from repro.net.faults import parse_fault_spec
from repro.net.sim import CampaignExecutor
from repro.resolver.policy import VENDOR_POLICIES
from repro.scanner.atlas import ATLAS_DEGRADED_NOTE, AtlasCampaign
from repro.scanner.campaign import CampaignError
from repro.scanner.dnskey_scan import dnssec_enabled
from repro.scanner.engine import ScanEngine
from repro.scanner.nsec3_scan import (
    DomainScanResult,
    domain_rng,
    scan_domain,
    scan_tld,
)
from repro.scanner.resolver_scan import (
    SURVEY_DEGRADED_NOTE,
    ResolverSurvey,
    SurveyEntry,
    SurveyRetryPolicy,
    matrix_from_record,
    matrix_to_record,
    requeue_label,
)
from repro.testbed.internet import build_internet
from repro.testbed.population import Population, generate_tlds, scaled_config
from repro.testbed.resolvers import deploy_resolvers
from repro.testbed.rfc9276_wild import build_probe_zones
from repro.zone import build_cache

#: Which roles' worlds hold probe zones, a scan engine, a resolver survey.
_PROBE_ROLES = ("study", "survey", "trace", "serve")
_SCAN_ROLES = ("study", "scan")
_SURVEY_ROLES = ("study", "survey")


# -- what to measure -----------------------------------------------------------


@dataclass(frozen=True)
class CampaignPlan:
    """Everything a process needs to rebuild the world and find its shard.

    Plain values only: the plan crosses the spawn boundary as a dict.
    ``faults`` is the *network-weather* spec (kill tokens stripped);
    ``kill`` carries the extracted ProcessKill parameters.
    """

    #: "study" | "scan" | "survey" have units to measure; "trace" |
    #: "attack" | "serve" only build a world.
    role: str
    domains: int
    tlds: int
    resolvers: int
    seed: int
    workers: int = 1
    state_dir: str = None
    concurrency: int = 1
    faults: str = None
    kill: tuple = None        # (rate, max_kills, hang_rate, seed)
    collect_metrics: bool = False
    discard_checkpoint: bool = False
    stall_timeout_s: float = 60.0
    max_restarts: int = 3
    restart_backoff_s: float = 0.25
    flush_every: int = 20
    poll_interval_s: float = 0.05

    @classmethod
    def from_args(cls, args, role):
        """Build a plan from the CLI namespace (``survey`` caps the
        domain build at 20: it only needs the tree, not the population)."""
        domains = args.domains
        if role == "survey":
            domains = min(domains, 20)
        network_spec, kills = split_fault_spec(
            getattr(args, "faults", None), seed=args.seed
        )
        workers = getattr(args, "workers", 1)
        kill = None
        if kills:
            if workers < 2:
                raise CampaignError(
                    "--faults kill: needs --workers 2 or more: without a "
                    "supervisor nothing restarts a killed or hung shard"
                )
            model = kills[0]
            kill = (model.rate, model.max_kills, model.hang_rate, model.seed)
        return cls(
            role=role,
            domains=domains,
            tlds=args.tlds,
            resolvers=getattr(args, "resolvers", 0) or 0,
            seed=args.seed,
            workers=workers,
            state_dir=getattr(args, "state_dir", None),
            concurrency=getattr(args, "concurrency", 1),
            faults=network_spec,
            kill=kill,
            collect_metrics=getattr(args, "metrics_out", None) is not None,
            discard_checkpoint=getattr(args, "discard_checkpoint", False),
            stall_timeout_s=getattr(args, "stall_timeout", 60.0),
            max_restarts=getattr(args, "max_restarts", 3),
        )

    def to_dict(self):
        return asdict(self)


def split_fault_spec(spec, seed=0):
    """Split ``--faults`` into (network spec or None, [ProcessKill...]).

    The world receives only the network-weather tokens: a ``kill``-only
    spec must leave the simulated network bit-for-bit untouched, so the
    supervised run stays byte-identical to the clean single-process one.
    """
    if not spec:
        return None, []
    plan = parse_fault_spec(spec, seed=seed)
    kills = plan.process_faults()
    if not kills:
        return spec, []
    tokens = [
        token.strip()
        for token in spec.split(",")
        if token.strip() and token.strip().split(":")[0] != "kill"
    ]
    return (",".join(tokens) or None), kills


def deployment_counts(resolvers):
    """The resolver-survey deployment mix for ``--resolvers N``."""
    return {
        "open_v4": resolvers,
        "open_v6": max(2, resolvers // 4),
        "closed_v4": max(2, resolvers // 5),
        "closed_v6": max(1, resolvers // 8),
    }


class UnitUniverse:
    """Index-addressed view of the campaign's global unit list.

    The canonical order is domains, then TLD audits, then resolver
    probes; unit *i* resolves on demand from the deterministic
    population stream instead of a materialised list. A shard walks the
    (start=shard, stride=workers) sub-stream, so its resident footprint
    is its own results, not the campaign.
    """

    def __init__(self, plan):
        config = scaled_config(plan.domains, plan.tlds)
        self.tld_specs = generate_tlds(config)
        self.tld_by_label = {spec.label: spec for spec in self.tld_specs}
        self.population = Population(config, tlds=self.tld_specs)
        self.n_domain_units = (
            len(self.population) if plan.role in _SCAN_ROLES else 0
        )
        self.n_tld_units = len(self.tld_specs) if plan.role == "study" else 0
        if plan.role in _SURVEY_ROLES:
            self.n_resolver_units = sum(
                deployment_counts(plan.resolvers).values()
            )
        else:
            self.n_resolver_units = 0

    def __len__(self):
        return self.n_domain_units + self.n_tld_units + self.n_resolver_units

    def unit_at(self, index):
        """The ``(kind, name)`` unit at global *index*."""
        if not 0 <= index < len(self):
            raise IndexError(index)
        if index < self.n_domain_units:
            return ("d", self.population.spec_at(index).name)
        index -= self.n_domain_units
        if index < self.n_tld_units:
            return ("t", self.tld_specs[index].label)
        return ("r", str(index - self.n_tld_units))

    def iter_shard(self, start, stride=1):
        """Lazily yield the units at ``start, start+stride, ...``."""
        for index in range(start, len(self), stride):
            yield self.unit_at(index)

    def shard_size(self, shard, workers):
        """How many units the (shard, workers) sub-stream yields."""
        return max(0, (len(self) - shard + workers - 1) // workers)

    def __iter__(self):
        return self.iter_shard(0, 1)


def unit_key(unit):
    kind, name = unit
    return f"{kind}/{name}"


# -- the world -----------------------------------------------------------------


class World:
    """Handles to everything a plan is measured in; the parts a role
    does not need stay None."""

    plan = universe = inet = probes = None
    #: The §4.1 scan engine, behind the shared upstream resolver.
    engine = None
    #: The §4.2 deployment and its probers: open resolvers from the
    #: scanner, closed ones (inside the global Atlas budget) from
    #: within, sharing one in-flight window.
    deployment = survey = atlas = executor = None
    atlas_budget = frozenset()

    @classmethod
    def build(cls, plan, scope=None, progress=None):
        """Build the world of *plan*.

        Upstream resolver, engine source, resolver deployment and survey
        source are allocated in that order whichever units the caller
        goes on to measure. SLD zones materialise lazily on first query,
        so memory follows the working set, not the population. A *scope*
        (:class:`~repro.testbed.internet.BuildScope`, fleet workers)
        pre-warms the build cache with the shard's own SLDs; *progress*
        is ticked as construction advances. ``plan.state_dir`` hosts that cache, shared by every
        process pointed at it.
        """
        if plan.state_dir is not None:
            build_cache.activate(os.path.join(plan.state_dir, "build-cache"))
        world = cls()
        world.plan = plan
        world.universe = universe = UnitUniverse(plan)
        world.inet = inet = build_internet(
            universe.population,
            universe.tld_specs,
            seed=plan.seed,
            build_scope=scope,
            progress=progress,
        )
        # Claim the tracer clock for this world's kernel: a later Network
        # construction can no longer silently rebind it.
        inet.network.kernel.bind_obs()
        if plan.role in _PROBE_ROLES:
            world.probes = build_probe_zones(inet)
        # The weather hits the measurement, not the construction; under
        # it the campaigns harden themselves (extra attempts per target,
        # matrix stability checks) so headline numbers converge to the
        # clean run's.
        chaos = bool(plan.faults)
        if chaos:
            inet.network.set_faults(parse_fault_spec(plan.faults, seed=plan.seed))
        if plan.role in _SCAN_ROLES:
            upstream = inet.make_resolver(
                VENDOR_POLICIES["cloudflare"], name="cli-upstream"
            )
            world.engine = ScanEngine(
                inet.network,
                inet.allocator.next_v4(),
                upstream.ip,
                max_qps=14_700,
                retries=2 if chaos else 1,
                target_retries=3 if chaos else 0,
                concurrency=plan.concurrency,
                # Spread the in-flight window over a small scanner
                # fleet, like the paper's zdns deployment.
                shards=min(max(1, plan.concurrency), 8),
            )
        if plan.role in _SURVEY_ROLES:
            world.deployment = deploy_resolvers(
                inet, seed=plan.seed, **deployment_counts(plan.resolvers)
            )
            policy = SurveyRetryPolicy(require_stable=True) if chaos else None
            world.survey = ResolverSurvey(
                inet.network, world.probes, inet.allocator.next_v4(),
                retry_policy=policy,
            )
            world.atlas = AtlasCampaign(
                inet.network, world.probes, retry_policy=policy
            )
            world.atlas_budget = frozenset(
                index for index, __ in world.atlas.eligible(world.deployment)
            )
            world.executor = CampaignExecutor(inet.network.kernel, plan.concurrency)
        return world

    # -- the campaign :func:`~repro.scanner.campaign.run_units` drives ---------

    key = staticmethod(unit_key)

    @property
    def network(self):
        return self.inet.network

    @property
    def retry_policy(self):
        return self.survey.retry_policy

    def phase_of(self, unit):
        """The campaign phase a unit belongs to, in canonical unit order."""
        kind, name = unit
        if kind == "r":
            closed = self.deployment[int(name)].access == "closed"
            return "atlas" if closed else "survey"
        return "scan" if kind == "d" else "tlds"

    def measure(self, unit, requeue_round=None):
        """Measure one unit — the only place that says what a ``d``,
        ``t`` or ``r`` unit does; returns ``(record, settled)``.

        The record is the unit's ``study-units/1`` journal form. Only an
        open resolver found unhealthy under a retry policy comes back
        unsettled: it is owed a requeue. Closed resolvers get no second
        chance — Atlas admits them degraded at once.
        """
        kind, name = unit
        if kind == "d":
            return _scan_record(measure_domain(self.engine, name)), True
        if kind == "t":
            spec = self.universe.tld_by_label[name]
            return _scan_record(scan_tld(self.engine, spec)), True
        index = int(name)
        deployed = self.deployment[index]
        closed = deployed.access == "closed"
        if closed:
            if index not in self.atlas_budget:
                return {"skip": True}, True
            probe = lambda: self.atlas.probe(deployed, index)
        else:
            probe = lambda: self.survey.probe(
                deployed, requeue_label(index, requeue_round)
            )
        matrix, healthy = self.executor.submit(probe)
        record = {
            "access": deployed.access,
            "ip": deployed.ip,
            "matrix": matrix_to_record(matrix),
            "healthy": bool(healthy),
        }
        if closed and not healthy:
            record["degraded"] = True
        return record, healthy or closed

    def drain(self):
        """Settle every in-flight session on the simulated clock."""
        if self.engine is not None:
            self.engine.drain()
        if self.executor is not None:
            self.executor.drain()


# -- one unit ------------------------------------------------------------------


def measure_domain(engine, name, seed=1355):
    """§4.1 for one domain: the DNSKEY gate (stage 1), then — only for a
    DNSSEC-enabled name — the stage-2 NSEC3 probes. None when gated out."""
    if not dnssec_enabled(engine, name):
        return None
    return scan_domain(engine, name, domain_rng(seed, name))


# -- a unit's journal record ---------------------------------------------------


def observation_to_record(observation):
    """A :class:`Nsec3Observation` as a JSON-able checkpoint record."""
    return {
        "domain": observation.domain,
        "params": [
            [a, i, s.hex()] for a, i, s in observation.nsec3param_records
        ],
        "nsec3": [[a, i, s.hex()] for a, i, s in observation.nsec3_records],
        "optout": observation.opt_out_seen,
        "delegations": observation.delegation_count,
        "open": observation.zone_published_openly,
    }


def observation_from_record(record):
    try:
        return Nsec3Observation(
            domain=record["domain"],
            dnssec_enabled=True,
            nsec3param_records=tuple(
                (a, i, bytes.fromhex(s)) for a, i, s in record["params"]
            ),
            nsec3_records=tuple(
                (a, i, bytes.fromhex(s)) for a, i, s in record["nsec3"]
            ),
            opt_out_seen=record["optout"],
            delegation_count=record["delegations"],
            zone_published_openly=record["open"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CampaignError(
            f"shard checkpoint record is not an NSEC3 observation "
            f"({exc!r}); the state directory is stale or foreign — "
            "re-run with --discard-checkpoint (or a fresh --state-dir)"
        ) from None


def _scan_record(result):
    """A stage-2 result (None: the name is not DNSSEC-enabled)."""
    if result is None:
        return {"enabled": False}
    return {
        "enabled": True,
        "obs": observation_to_record(result.observation),
        "ns": list(result.ns_targets),
        "denial": result.denial,
    }


def fold_record(target, unit, record):
    """Fold one unit's record into *target* — a
    :class:`~repro.core.report.StudyAggregates`, or anything with its
    three ``update_*`` methods."""
    kind, name = unit
    if kind == "r":
        if record.get("skip"):
            return
        matrix = matrix_from_record(record["matrix"])
        classification = classify_resolver(matrix, resolver=record["ip"])
        if record.get("degraded"):
            closed = record["access"] == "closed"
            classification.notes.append(
                ATLAS_DEGRADED_NOTE if closed else SURVEY_DEGRADED_NOTE
            )
        resolver = SimpleNamespace(ip=record["ip"], access=record["access"])
        target.update_survey(
            SurveyEntry(
                resolver, matrix, classification,
                requeued=bool(record.get("requeued")),
            )
        )
    elif record.get("enabled"):
        observation = observation_from_record(record["obs"])
        result = DomainScanResult(
            domain=name,
            observation=observation,
            report=check_zone_compliance(observation),
            ns_targets=tuple(record["ns"]),
            denial=record["denial"],
        )
        (target.update_domain if kind == "d" else target.update_tld)(result)


# -- the in-process sink ------------------------------------------------------


class FoldSink:
    """The sink of an in-process run: records fold straight into report
    aggregates. (A worker's sink is its ``CampaignCheckpoint``, where a
    journaled unit is done and a note is fresh once across resumes; here
    nothing is ever done already and every note is fresh.)"""

    def __init__(self, target):
        self.target = target

    def done(self, key):
        return False

    def note(self, key, tag="requeued"):
        return True

    def record(self, key, record):
        kind, __, name = key.partition("/")
        fold_record(self.target, (kind, name), record)
