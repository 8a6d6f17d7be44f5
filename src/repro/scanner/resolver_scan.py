"""The resolver survey (§4.2/§5.2): probe the 49 zones, classify Items 6–12.

Each resolver is asked, with a unique cache-busting label, for a name
under every probe zone. The response matrix — RCODE, AD bit, EDE codes —
feeds :func:`repro.core.resolver_compliance.classify_resolver`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.core.resolver_compliance import ProbeResult, classify_resolver
from repro.dns.types import RdataType
from repro.dnssec.costmodel import meter
from repro.resolver.stub import StubClient
from repro.scanner.campaign import run_units
from repro.testbed.rfc9276_wild import PROBE_ZONE_ITERATIONS

#: Classification note of a resolver still unhealthy after every requeue.
SURVEY_DEGRADED_NOTE = "degraded: probes unanswered after end-of-campaign requeue"


def _to_probe_result(answer, keep_ede=True):
    return ProbeResult(
        rcode=answer.rcode,
        ad=answer.ad,
        ede_codes=tuple(answer.ede_codes) if keep_ede else (),
        ra=answer.ra,
        answered=answer.answered,
    )


def _ask_probe(client, resolver_ip, probe_set, key, unique):
    """One probe query, cost-profiled per probe zone when obs is enabled."""
    qname = probe_set.probe_name(key, unique)
    if not obs.enabled:
        return client.ask(resolver_ip, qname, RdataType.A)
    cost_start = meter.snapshot()
    answer = client.ask(resolver_ip, qname, RdataType.A)
    obs.profiler.record_probe(
        probe_set.zone_label(key),
        meter.snapshot() - cost_start,
        answer.rcode,
        answered=answer.answered,
    )
    return answer


def _confirmed_probe(client, resolver_ip, probe_set, key, unique, confirm):
    """One probe cell, re-queried until two consecutive answers agree.

    A resolver-side transient (an upstream query lost to network weather
    makes the resolver SERVFAIL once) is indistinguishable from policy in
    a single answer. The paper's §5.2 move — query again with a fresh
    label so the cache cannot echo the damage — generalises per cell:
    accept an answer only once two consecutive asks agree on
    (rcode, AD, answered). With *confirm* extra asks exhausted, the last
    answer stands and the matrix-level stability pass gets to object.
    """
    answer = _ask_probe(client, resolver_ip, probe_set, key, unique)
    for extra in range(confirm):
        again = _ask_probe(client, resolver_ip, probe_set, key, f"{unique}c{extra}")
        if (
            again.rcode == answer.rcode
            and again.ad == answer.ad
            and again.answered == answer.answered
        ):
            return again
        answer = again
    return answer


def probe_resolver(
    network,
    resolver_ip,
    probe_set,
    source_ip,
    unique,
    iterations=PROBE_ZONE_ITERATIONS,
    keep_ede=True,
    breaker=None,
    retries=1,
    confirm=0,
):
    """Probe one resolver; returns the matrix for classify_resolver().

    With a shared *breaker*, probes to a quarantined resolver fail fast
    (they come back as unanswered entries) instead of burning the full
    per-probe retry schedule on a host that is known dead. *retries* is
    the stub transport's per-query retry count; *confirm* > 0 turns on
    per-cell answer confirmation (see :func:`_confirmed_probe`).
    """
    client = StubClient(network, source_ip, retries=retries, breaker=breaker)
    matrix = {}
    matrix["valid"] = _to_probe_result(
        _confirmed_probe(client, resolver_ip, probe_set, "valid", unique, confirm),
        keep_ede,
    )
    matrix["expired"] = _to_probe_result(
        _confirmed_probe(client, resolver_ip, probe_set, "expired", unique, confirm),
        keep_ede,
    )
    for count in iterations:
        if count == 0:
            continue
        answer = _confirmed_probe(
            client, resolver_ip, probe_set, count, unique, confirm
        )
        matrix[count] = _to_probe_result(answer, keep_ede)
    matrix["it-2501-expired"] = _to_probe_result(
        _confirmed_probe(
            client, resolver_ip, probe_set, "it-2501-expired", unique, confirm
        ),
        keep_ede,
    )
    return matrix


def probe_stability(
    network,
    resolver_ip,
    probe_set,
    source_ip,
    unique,
    iterations=(1, 50, 100, 150, 151, 500),
    attempts=2,
):
    """Re-probe a resolver and report whether its answers are stable.

    The paper re-queried apparent Item 12 violators and found that
    "different response patterns" usually meant a broken resolver, not a
    real three-phase configuration. Returns ``(stable, matrices)``.
    """
    matrices = []
    for attempt in range(attempts):
        matrices.append(
            probe_resolver(
                network,
                resolver_ip,
                probe_set,
                source_ip,
                f"{unique}-a{attempt}",
                iterations=iterations,
            )
        )
    first = matrices[0]
    stable = all(
        all(
            matrix[key].rcode == first[key].rcode and matrix[key].ad == first[key].ad
            for key in first
        )
        for matrix in matrices[1:]
    )
    return stable, matrices


@dataclass
class SurveyEntry:
    """One resolver's probe matrix plus its classification."""

    resolver: object  # testbed.resolvers.DeployedResolver
    matrix: dict
    classification: object
    #: Satisfied from a checkpoint without re-querying.
    resumed: bool = False
    #: Entered the end-of-campaign requeue before producing this matrix.
    requeued: bool = False


@dataclass(frozen=True)
class SurveyRetryPolicy:
    """Graceful degradation knobs for :class:`ResolverSurvey`.

    *max_attempts* bounds the per-resolver probe attempts in the main
    pass; a matrix is *healthy* when every probe was answered. With
    *require_stable*, two consecutive healthy matrices must agree
    (rcode + AD per probe) before a resolver is admitted — the paper's
    §5.2 re-probe generalised to the whole matrix, which filters out
    fault-induced SERVFAILs that a single pass cannot distinguish from
    policy. *stub_retries* is the stub transport's per-query retry count
    and *confirm* the number of per-cell confirmation re-asks (each with
    a fresh cache-busting label) — both defend individual cells so the
    matrix-level check converges. Unhealthy resolvers are quarantined
    and requeued after the main pass, *requeue_attempts* times, with
    *requeue_delay_ms* of simulated time between passes so outages can
    clear.
    """

    max_attempts: int = 3
    require_stable: bool = False
    requeue_attempts: int = 2
    requeue_delay_ms: float = 2000.0
    stub_retries: int = 3
    confirm: int = 2


def requeue_label(index, requeue_round=None):
    """The cache-busting probe label of open resolver *index*: a fresh
    one per requeue pass, so no cache can echo earlier damage."""
    return f"r{index}" if requeue_round is None else f"r{index}-rq{requeue_round}"


def _matrix_healthy(matrix):
    return all(result.answered for result in matrix.values())


def _matrices_agree(first, second):
    if first.keys() != second.keys():
        return False
    return all(
        first[key].rcode == second[key].rcode
        and first[key].ad == second[key].ad
        and first[key].answered == second[key].answered
        for key in first
    )


def probe_with_policy(
    network,
    resolver_ip,
    probe_set,
    source_ip,
    unique,
    iterations,
    policy,
    keep_ede=True,
    breaker=None,
):
    """Probe one resolver under a :class:`SurveyRetryPolicy`.

    Returns ``(matrix, healthy)``: *healthy* means every probe answered
    and, with ``require_stable``, two consecutive attempts agreed. The
    last matrix is returned either way so callers can keep the evidence.
    Without a *policy* it is the legacy single pass, healthy by decree.
    """
    if policy is None:
        matrix = probe_resolver(
            network, resolver_ip, probe_set, source_ip, unique,
            iterations=iterations, keep_ede=keep_ede,
        )
        return matrix, True
    previous = None
    matrix = None
    for attempt in range(policy.max_attempts):
        matrix = probe_resolver(
            network,
            resolver_ip,
            probe_set,
            source_ip,
            f"{unique}-t{attempt}",
            iterations=iterations,
            keep_ede=keep_ede,
            breaker=breaker,
            retries=policy.stub_retries,
            confirm=policy.confirm,
        )
        if not _matrix_healthy(matrix):
            previous = None
            continue
        if not policy.require_stable:
            return matrix, True
        if previous is not None and _matrices_agree(previous, matrix):
            return matrix, True
        previous = matrix
    return matrix, False


def matrix_to_record(matrix):
    """A probe matrix as a JSON-able checkpoint record (keys keep type)."""
    probes = []
    for key, result in matrix.items():
        tag = "i" if isinstance(key, int) else "s"
        probes.append(
            [
                tag,
                key,
                {
                    "rcode": int(result.rcode),
                    "ad": bool(result.ad),
                    "ede": list(result.ede_codes),
                    "ra": bool(result.ra),
                    "answered": bool(result.answered),
                },
            ]
        )
    return {"probes": probes}


def matrix_from_record(record):
    matrix = {}
    for tag, key, fields_ in record["probes"]:
        matrix[int(key) if tag == "i" else str(key)] = ProbeResult(
            rcode=fields_["rcode"],
            ad=fields_["ad"],
            ede_codes=tuple(fields_["ede"]),
            ra=fields_["ra"],
            answered=fields_["answered"],
        )
    return matrix


@dataclass
class ResolverSurvey:
    """Runs the full survey over a deployed resolver population.

    With a :class:`SurveyRetryPolicy` the survey degrades gracefully
    under network weather: unhealthy resolvers (unanswered probes —
    dead, flapping, or circuit-quarantined) are set aside during the
    main pass and requeued at the end of the campaign; what still fails
    is admitted with a ``degraded`` note rather than silently
    misclassified. With *checkpoint_path*, completed matrices persist to
    JSON and a resumed survey re-classifies them locally — zero
    duplicate queries.
    """

    network: object
    probe_set: object
    scanner_source_ip: str
    #: Restrict it-N probing to a subset for cheap smoke surveys.
    iterations: tuple = PROBE_ZONE_ITERATIONS
    #: Re-probe apparent Item 12 violators and discount unstable ones —
    #: the paper's §5.2 verification step ("querying these resolvers again
    #: often results in different response patterns").
    verify_item12_stability: bool = False
    #: Graceful-degradation knobs (None = legacy single-pass behaviour).
    retry_policy: object = None
    #: JSON checkpoint for resumable campaigns (None = not persisted).
    checkpoint_path: str = None
    #: Archive an unreadable/foreign checkpoint and start fresh instead
    #: of raising CampaignError (the CLI's --discard-checkpoint).
    checkpoint_discard: bool = False
    #: Shared per-destination circuit breaker (created lazily when a
    #: retry policy is set).
    breaker: object = None
    #: In-flight window on the simulation kernel: how many resolvers'
    #: probe sessions overlap on the simulated clock (1 = serial; the
    #: answers are identical at any width, only elapsed time changes).
    concurrency: int = 1
    entries: list = field(default_factory=list)

    def __post_init__(self):
        from repro.net.resilience import CircuitBreaker

        policy = self.retry_policy
        if policy is not None and self.breaker is None:
            recovery = min(1500.0, policy.requeue_delay_ms or 1500.0)
            self.breaker = CircuitBreaker(
                clock=lambda: self.network.clock_ms, recovery_ms=recovery
            )

    def run(self, deployed_resolvers):
        """Probe every open resolver (closed ones are unreachable from
        the scanner; the Atlas campaign covers them)."""
        from repro.net.sim import CampaignExecutor
        from repro.scanner.campaign import CampaignCheckpoint

        self._executor = CampaignExecutor(self.network.kernel, self.concurrency)
        self._deployment = list(deployed_resolvers)
        self._checkpoint = (
            CampaignCheckpoint(
                self.checkpoint_path,
                schema="survey-matrix/1",
                discard=self.checkpoint_discard,
            )
            if self.checkpoint_path
            else None
        )
        self.entries = []
        if obs.console is not None:
            obs.console.expect(len(self._deployment))
        run_units(
            self,
            [i for i, d in enumerate(self._deployment) if d.access != "closed"],
            self,
        )
        if self._checkpoint is not None:
            self._checkpoint.flush()
        return self.entries

    # -- the survey as run_units' campaign: a unit is a deployment index --------

    def key(self, index):
        return f"{self._deployment[index].ip}#{index}"

    def phase_of(self, index):
        return "survey"

    def measure(self, index, requeue_round=None):
        deployed = self._deployment[index]
        unique = requeue_label(index, requeue_round)
        matrix, healthy = self._executor.submit(
            lambda: self.probe(deployed, unique)
        )
        return {"ip": deployed.ip, "unique": unique, "matrix": matrix}, healthy

    def drain(self):
        self._executor.drain()

    # -- ... and as its sink: entries, persisted when checkpointed --------------

    def done(self, key):
        if self._checkpoint is None or not self._checkpoint.done(key):
            return False
        deployed = self._deployment[int(key.rpartition("#")[2])]
        matrix = matrix_from_record(self._checkpoint.get(key))
        # Classification is a pure function of the matrix, so a resume
        # recomputes it without touching the network (the item-12
        # stability verdict is baked into the stored matrix's
        # provenance — no re-probing).
        classification = classify_resolver(matrix, resolver=deployed.ip)
        self.entries.append(
            SurveyEntry(deployed, matrix, classification, resumed=True)
        )
        return True

    def note(self, key, tag="requeued"):
        return self._checkpoint is None or self._checkpoint.note(key, tag)

    def record(self, key, record):
        deployed = self._deployment[int(key.rpartition("#")[2])]
        matrix = record["matrix"]
        classification = classify_resolver(matrix, resolver=deployed.ip)
        if record.get("degraded"):
            classification.notes.append(SURVEY_DEGRADED_NOTE)
        elif self.verify_item12_stability and classification.item12_gap:
            self._verify_gap(deployed, record["unique"], classification)
        self.entries.append(
            SurveyEntry(
                deployed, matrix, classification,
                requeued=bool(record.get("requeued")),
            )
        )
        # A degraded matrix is not persisted: a resumed survey gives the
        # resolver a fresh chance instead of replaying the damage.
        if self._checkpoint is not None and not record.get("degraded"):
            self._checkpoint.record(key, matrix_to_record(matrix))

    def probe(self, deployed, unique):
        """Probe once (legacy) or until healthy/stable (with a policy)."""
        return probe_with_policy(
            self.network,
            deployed.ip,
            self.probe_set,
            self.scanner_source_ip,
            unique,
            self.iterations,
            self.retry_policy,
            breaker=self.breaker,
        )

    def _verify_gap(self, deployed, unique, classification):
        stable, __ = probe_stability(
            self.network,
            deployed.ip,
            self.probe_set,
            self.scanner_source_ip,
            f"{unique}-verify",
            iterations=self.iterations,
        )
        if not stable:
            classification.item12_gap = False
            classification.notes.append(
                "Item 12 gap discounted: responses unstable across re-probes"
            )

    def classifications(self):
        return [entry.classification for entry in self.entries]
