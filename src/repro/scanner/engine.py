"""The bulk scan engine (zdns-equivalent).

Sends large batches of queries through a shared recursive resolver — the
paper used Cloudflare 1.1.1.1 — with a client-side rate limit (their scan
averaged 14.7 K requests/s; see the ethics appendix). The limiter operates
on the simulated clock, so cache-hit-rate and load numbers in the ethics
ablation are meaningful.
"""

from __future__ import annotations

import zlib
from collections import Counter
from dataclasses import dataclass, field

from repro import obs
from repro.dns.rcode import Rcode
from repro.dns.types import RdataType
from repro.net.sim import CampaignExecutor
from repro.resolver.stub import StubClient
from repro.scanner.campaign import count_campaign


#: Resolved per-rcode scan counters for the per-query hot path.
_SCAN_CHILDREN = obs.ChildCache()


def shard_source_ip(base_ip, index):
    """A deterministic scanner-fleet source address for shard *index*.

    Drawn from 100.64.0.0/10 (the CGNAT block), which none of the
    testbed allocators (10.0.0.0/16, 192.0.2.0/24, 198.18.0.0/15,
    2001:db8::/32) ever hand out, so shard sources can never collide
    with a deployed host. The base address is mixed in so two sharded
    engines on one network keep distinct fleets.
    """
    basis = zlib.crc32(str(base_ip).encode("utf-8")) & 0x3FF
    host = (basis * 251 + index) % (1 << 22)
    return f"100.{64 + (host >> 16)}.{(host >> 8) & 0xFF}.{host & 0xFF}"


@dataclass
class ScanStats:
    """Bookkeeping for one scan campaign.

    Outcomes are kept per rcode (``rcodes``), so SERVFAIL-vs-NXDOMAIN
    splits survive aggregation.
    """

    queries: int = 0
    #: Answered queries by (integer) rcode.
    rcodes: Counter = field(default_factory=Counter)
    #: Queries unanswered after every retry.
    unanswered: int = 0
    started_ms: float = 0.0
    finished_ms: float = 0.0
    #: Extra per-target attempts spent absorbing flaky answers.
    reprobes: int = 0


class ScanEngine:
    """Sends rate-limited queries to one upstream resolver.

    *target_retries* is the per-target resilience knob: a query whose
    final answer is a timeout or SERVFAIL is re-asked up to that many
    extra times (the upstream path may just have had a bad moment — the
    paper re-queried flaky responders for the same reason). *breaker*
    is an optional shared circuit breaker handed to the transport.

    *concurrency* is the in-flight window: each query becomes a session
    on the network's simulation kernel, so up to that many overlap on
    the simulated clock (answers are byte-identical at any window size —
    sessions execute in submission order; only time overlaps). The
    default of 1 preserves exact serial behaviour. *shards* splits the
    stub-client hot path across that many source addresses (the paper's
    scan fleet), which also spreads per-source rate-limit buckets.
    """

    def __init__(
        self,
        network,
        source_ip,
        resolver_ip,
        max_qps=None,
        retries=1,
        target_retries=0,
        breaker=None,
        concurrency=1,
        shards=1,
    ):
        self.network = network
        self.client = StubClient(network, source_ip, retries=retries, breaker=breaker)
        self.resolver_ip = resolver_ip
        self.max_qps = max_qps
        self.target_retries = target_retries
        self.stats = ScanStats()
        self.concurrency = max(1, int(concurrency))
        self.shards = max(1, int(shards))
        if self.shards > 1:
            self._clients = [self.client] + [
                StubClient(
                    network,
                    shard_source_ip(source_ip, index),
                    retries=retries,
                    breaker=breaker,
                )
                for index in range(1, self.shards)
            ]
        else:
            self._clients = None
        self.executor = CampaignExecutor(network.kernel, self.concurrency)
        self._submitted = 0

    def _client_for(self, index):
        """The shard client owning query *index* (``self.client`` unsharded)."""
        if self._clients is None:
            return self.client
        return self._clients[index % self.shards]

    def drain(self):
        """Wait for every in-flight session; syncs stats to the makespan."""
        self.executor.drain()
        if self.stats.queries:
            self.stats.finished_ms = max(
                self.stats.finished_ms, self.network.kernel.now
            )

    def _ask(self, qname, qtype, want_dnssec, checking_disabled, client=None):
        """One rate-limited attempt (no outcome bookkeeping)."""
        if self.stats.queries == 0:
            self.stats.started_ms = self.network.clock_ms
        if self.max_qps:
            # Keep the average request rate at or below the limit by
            # advancing the simulated clock when we are ahead of schedule.
            earliest = self.stats.started_ms + (
                self.stats.queries * 1000.0 / self.max_qps
            )
            if self.network.clock_ms < earliest:
                self.network.clock_ms = earliest
        answer = (client or self.client).ask(
            self.resolver_ip,
            qname,
            qtype,
            want_dnssec=want_dnssec,
            checking_disabled=checking_disabled,
        )
        self.stats.queries += 1
        if obs.enabled:
            rcode_text = obs.rcode_label(answer.rcode, answer.answered)
            child = _SCAN_CHILDREN.get(obs.registry, rcode_text)
            if child is None:
                child = _SCAN_CHILDREN.put(
                    rcode_text,
                    obs.registry.counter(
                        "repro_scan_queries_total",
                        "Scan-engine queries, by response rcode "
                        "(timeout if none).",
                        labelnames=("rcode",),
                    ).labels(rcode=rcode_text),
                )
            child.inc()
        self.stats.finished_ms = self.network.clock_ms
        return answer

    @staticmethod
    def _transient(answer):
        """Outcomes worth a re-ask: no answer, or a (possibly fault-induced)
        SERVFAIL — genuine SERVFAILs are stable and survive the retries."""
        return not answer.answered or answer.rcode == Rcode.SERVFAIL

    def query(self, qname, qtype=RdataType.A, want_dnssec=True, checking_disabled=False):
        """One rate-limited query; returns a :class:`StubAnswer`.

        Only the final outcome lands in ``stats.rcodes``/``unanswered``;
        intermediate re-asks count as ``stats.reprobes`` (and as queries,
        for pacing — they are real traffic). With ``concurrency > 1``
        the query runs as one in-flight session on the kernel — the
        answer is still returned synchronously, while its simulated cost
        overlaps the window.
        """
        index = self._submitted
        self._submitted += 1
        return self.executor.submit(
            lambda: self._query_session(
                qname, qtype, want_dnssec, checking_disabled,
                self._client_for(index),
            )
        )

    def _query_session(self, qname, qtype, want_dnssec, checking_disabled, client):
        if obs.events:
            obs.emit("query.issued", qname=str(qname), qtype=int(qtype))
        answer = self._ask(qname, qtype, want_dnssec, checking_disabled, client)
        for __ in range(self.target_retries):
            if not self._transient(answer):
                break
            self.stats.reprobes += 1
            answer = self._ask(qname, qtype, want_dnssec, checking_disabled, client)
        if answer.answered:
            self.stats.rcodes[answer.rcode] += 1
        else:
            self.stats.unanswered += 1
        if obs.events:
            obs.emit(
                "query.completed",
                qname=str(qname),
                rcode=obs.rcode_label(answer.rcode, answer.answered),
            )
        count_campaign("completed", "scan")
        return answer
