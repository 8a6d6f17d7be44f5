"""Chaos soak harness: sustained mixed load plus real-world stressors.

Drives a live :class:`~repro.service.frontend.DnsService` through the
failure modes a production frontend meets, in phases:

1. **benign** — warm the resolver cache at a comfortable QPS; every
   answer must be correct (NOERROR/NXDOMAIN, never SERVFAIL);
2. **attack burst** — benign traffic continues while CVE-2023-50868 and
   KeyTrap streams run at a paced QPS, then an unpaced flood slams the
   engine far past its drain rate; the guard budgets bound per-query
   cost and the admission gates shed — ``repro_guard_shed_total`` must
   rise while the paced benign p99 stays bounded;
3. **malformed datagrams** — a seeded wire-fuzz corpus (truncated
   headers, absurd section counts, random bytes) over UDP and TCP; the
   service must stay silent or answer FORMERR, never crash;
4. **connection churn + slow-loris** — rapid TCP connect/close cycles
   plus connections that dribble partial frames; the reaper must close
   the stragglers and the connection cap must hold;
5. **recovery + graceful drain** — benign traffic must still be
   answered correctly after the chaos, then SIGTERM-style drain must
   flush every in-flight query.

The :class:`SoakReport` turns the run into explicit pass/fail
violations: zero unhandled engine exceptions, bounded RSS growth,
bounded benign p99 under attack, shed counters rising, clean drain.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field

from repro import obs
from repro.obs.timeseries import family_sum
from repro.obs.wallclock import WallClockScraper, rss_bytes
from repro.service.engine import ServiceEngine
from repro.service.frontend import Binding, DnsService
from repro.service.loadgen import LoadGenerator, benign_pool
from repro.service.world import build_service_world


@dataclass
class SoakConfig:
    """Knobs for one soak run (defaults suit a ~30 s CI smoke)."""

    domains: int = 40
    tlds: int = 12
    seed: int = 7
    guard: str = "guarded"
    phase_s: float = 5.0
    benign_qps: float = 120.0
    attack_qps: float = 250.0
    attack_ratio: float = 0.4
    #: The overload flood: this many queries offered essentially at once
    #: (far past any worker's drain rate), forcing the admission gates
    #: to shed deterministically on every machine speed.
    burst_queries: int = 800
    burst_qps: float = 4_000.0
    engine_capacity: int = 48
    max_pending: int = 64
    pending_timeout_s: float = 8.0
    tcp_idle_timeout_s: float = 1.5
    query_timeout_s: float = 10.0
    fuzz_datagrams: int = 300
    churn_connections: int = 40
    loris_connections: int = 8
    drain_queries: int = 20
    rss_growth_limit_mb: float = 400.0
    benign_p99_limit_ms: float = 5_000.0


@dataclass
class SoakReport:
    """Phase reports, final snapshot, and the explicit violation list."""

    phases: dict = field(default_factory=dict)
    snapshot: dict = field(default_factory=dict)
    rss_start_mb: float = 0.0
    rss_end_mb: float = 0.0
    shed_before_attack: float = 0.0
    shed_after_attack: float = 0.0
    violations: list = field(default_factory=list)
    duration_s: float = 0.0

    @property
    def passed(self):
        return not self.violations

    def to_json(self):
        return {
            "passed": self.passed,
            "violations": self.violations,
            "duration_s": round(self.duration_s, 1),
            "rss_start_mb": round(self.rss_start_mb, 1),
            "rss_end_mb": round(self.rss_end_mb, 1),
            "shed_before_attack": self.shed_before_attack,
            "shed_after_attack": self.shed_after_attack,
            "snapshot": self.snapshot,
            "phases": {
                name: report.to_json() if hasattr(report, "to_json") else report
                for name, report in self.phases.items()
            },
        }

    def render(self):
        lines = [f"soak: {'PASS' if self.passed else 'FAIL'} "
                 f"({self.duration_s:.1f}s, rss {self.rss_start_mb:.0f}→"
                 f"{self.rss_end_mb:.0f} MB, "
                 f"shed {self.shed_before_attack:.0f}→{self.shed_after_attack:.0f}, "
                 f"packed {self.snapshot.get('packed', 0)})"]
        for name, report in self.phases.items():
            if hasattr(report, "render"):
                lines.append(f"[{name}]")
                lines.append(report.render())
        for violation in self.violations:
            lines.append(f"VIOLATION: {violation}")
        return "\n".join(lines)


def _fuzz_corpus(rng, count):
    """Seeded malformed-wire corpus (the wire-fuzz test's shapes, live)."""
    corpus = [b"", b"\x00", b"\x12\x34"]
    while len(corpus) < count:
        shape = rng.randrange(4)
        if shape == 0:  # pure noise
            corpus.append(bytes(rng.randrange(256) for __ in range(rng.randrange(1, 64))))
        elif shape == 1:  # plausible header, absurd section counts
            corpus.append(
                bytes(rng.randrange(256) for __ in range(4))
                + b"\xff\xff" * 4
                + bytes(rng.randrange(256) for __ in range(rng.randrange(0, 16)))
            )
        elif shape == 2:  # truncated mid-header
            corpus.append(bytes(rng.randrange(256) for __ in range(rng.randrange(3, 12))))
        else:  # valid-looking query cut mid-name
            corpus.append(
                rng.randrange(65536).to_bytes(2, "big")
                + b"\x01\x00\x00\x01\x00\x00\x00\x00\x00\x00"
                + b"\x3fpartial"
            )
    return corpus[:count]


class _SoakRun:
    def __init__(self, config):
        self.config = config
        self.report = SoakReport()

    async def run(self):
        config = self.config
        if not obs.enabled:
            obs.enable()
        started = time.monotonic()
        self.report.rss_start_mb = rss_bytes() / 1e6

        world = build_service_world(
            domains=config.domains,
            tlds=config.tlds,
            seed=config.seed,
            guard=config.guard,
        )
        engine = ServiceEngine(
            capacity=config.engine_capacity,
            pending_timeout_s=config.pending_timeout_s,
        )
        service = DnsService(
            [
                Binding(
                    "resolver",
                    world.resolver,
                    port=0,
                    max_pending=config.max_pending,
                )
            ],
            engine=engine,
            tcp_idle_timeout_s=config.tcp_idle_timeout_s,
            tcp_handshake_timeout_s=config.tcp_idle_timeout_s,
            reaper_interval_s=0.25,
        )
        await service.start()
        scraper = WallClockScraper(obs.registry, interval_s=1.0).start()
        host = service.bindings[0].host
        port = service.bindings[0].bound_port
        benign = benign_pool(config.domains, config.tlds)
        try:
            await self._phase_benign(host, port, benign)
            await self._phase_attack(host, port, benign)
            await self._phase_fuzz(host, port)
            await self._phase_churn(host, port)
            await self._phase_recovery(host, port, benign)
            await self._phase_drain(service, host, port, benign)
        finally:
            scraper.stop()
            if service.started:
                await service.drain_and_stop()
        self.report.rss_end_mb = rss_bytes() / 1e6
        self.report.duration_s = time.monotonic() - started
        self._judge(engine, service)
        return self.report

    # -- phases --------------------------------------------------------------

    async def _phase_benign(self, host, port, benign):
        config = self.config
        report = await LoadGenerator(
            host,
            port,
            qps=config.benign_qps,
            duration_s=config.phase_s,
            attack_ratio=0.0,
            benign_names=benign,
            timeout_s=config.query_timeout_s,
            seed=config.seed + 1,
        ).run()
        self.report.phases["benign"] = report

    async def _phase_attack(self, host, port, benign):
        config = self.config
        self.report.shed_before_attack = self._shed_total()
        report = await LoadGenerator(
            host,
            port,
            qps=config.attack_qps,
            duration_s=config.phase_s,
            attack_ratio=config.attack_ratio,
            benign_names=benign,
            timeout_s=config.query_timeout_s,
            seed=config.seed + 2,
        ).run()
        self.report.phases["attack"] = report
        # The overload flood: unpaced, cache-busting, half adversarial.
        # Arrival outruns the single worker by construction, so the
        # engine gate fills and sheds well-formed queries through the
        # guard-counted REFUSED/serve-stale path.
        burst = await LoadGenerator(
            host,
            port,
            qps=config.burst_qps,
            duration_s=config.burst_queries / config.burst_qps,
            attack_ratio=0.5,
            benign_names=benign,
            unique_ratio=1.0,
            # Kernel-level UDP drops are expected at this offered rate;
            # don't let them stretch the phase to the full query timeout.
            timeout_s=min(2.0, config.query_timeout_s),
            seed=config.seed + 20,
        ).run()
        self.report.shed_after_attack = self._shed_total()
        self.report.phases["burst"] = burst

    async def _phase_fuzz(self, host, port):
        config = self.config
        rng = random.Random(config.seed + 3)
        corpus = _fuzz_corpus(rng, config.fuzz_datagrams)
        loop = asyncio.get_running_loop()
        transport, __ = await loop.create_datagram_endpoint(
            asyncio.DatagramProtocol, remote_addr=(host, port)
        )
        try:
            for chunk in corpus:
                transport.sendto(chunk)
                await asyncio.sleep(0)
        finally:
            transport.close()
        # The same corpus over TCP: garbage length prefixes included.
        tcp_fuzzed = 0
        for chunk in corpus[:32]:
            try:
                reader, writer = await asyncio.open_connection(host, port)
            except OSError:
                continue
            try:
                writer.write(len(chunk).to_bytes(2, "big") + chunk)
                await writer.drain()
                tcp_fuzzed += 1
            except OSError:
                pass
            finally:
                writer.close()
        await asyncio.sleep(0.2)
        self.report.phases["fuzz"] = {
            "udp_datagrams": len(corpus),
            "tcp_frames": tcp_fuzzed,
        }

    async def _phase_churn(self, host, port):
        config = self.config
        churned = 0
        for __ in range(config.churn_connections):
            try:
                __reader, writer = await asyncio.open_connection(host, port)
            except OSError:
                continue
            writer.close()
            churned += 1
        # Slow-loris: dribble half a length header and stall.
        loris = []
        for __ in range(config.loris_connections):
            try:
                __reader, writer = await asyncio.open_connection(host, port)
            except OSError:
                continue
            writer.write(b"\x00")
            loris.append(writer)
        with_timeout = config.tcp_idle_timeout_s + 1.0
        await asyncio.sleep(with_timeout)
        for writer in loris:
            writer.close()
        self.report.phases["churn"] = {
            "churned": churned,
            "loris_opened": len(loris),
        }

    async def _phase_recovery(self, host, port, benign):
        config = self.config
        report = await LoadGenerator(
            host,
            port,
            qps=config.benign_qps / 2,
            duration_s=max(2.0, config.phase_s / 2),
            attack_ratio=0.0,
            benign_names=benign,
            unique_ratio=0.0,
            timeout_s=config.query_timeout_s,
            seed=config.seed + 4,
        ).run()
        self.report.phases["recovery"] = report

    async def _phase_drain(self, service, host, port, benign):
        """Queries in flight when SIGTERM lands must all be answered."""
        config = self.config
        send_window_s = config.drain_queries / 200.0
        generator = LoadGenerator(
            host,
            port,
            qps=200.0,
            duration_s=send_window_s,
            attack_ratio=0.0,
            benign_names=benign,
            # Unique labels force cache misses, so replies trail the
            # sends and the drain genuinely flushes in-flight work.
            unique_ratio=1.0,
            timeout_s=config.query_timeout_s,
            seed=config.seed + 5,
        )
        task = asyncio.get_running_loop().create_task(generator.run())
        # Drain after the last datagram leaves but (likely) before the
        # worker has answered them all.
        await asyncio.sleep(send_window_s + 0.05)
        snapshot = await service.drain_and_stop()
        report = await task
        self.report.phases["drain"] = report
        self.report.snapshot = snapshot

    # -- verdicts ------------------------------------------------------------

    def _shed_total(self):
        return family_sum(obs.registry, "repro_guard_shed_total")

    def _judge(self, engine, service):
        config = self.config
        report = self.report
        fail = report.violations.append

        if engine.stats.errors:
            fail(
                f"{engine.stats.errors} unhandled backend exceptions: "
                f"{engine.stats.error_samples[:3]}"
            )
        growth_mb = report.rss_end_mb - report.rss_start_mb
        if growth_mb > config.rss_growth_limit_mb:
            fail(
                f"RSS grew {growth_mb:.0f} MB > {config.rss_growth_limit_mb:.0f} MB limit"
            )

        benign_phase = report.phases.get("benign")
        if benign_phase is not None:
            stats = benign_phase.stats("benign")
            if stats.answered == 0:
                fail("benign phase: no queries answered")
            bad = stats.rcodes.get("SERVFAIL", 0)
            if bad:
                fail(f"benign phase: {bad} SERVFAILs on benign traffic")

        attack_phase = report.phases.get("attack")
        if attack_phase is not None:
            stats = attack_phase.stats("benign")
            p99 = stats.percentile(99)
            if p99 is not None and p99 > config.benign_p99_limit_ms:
                fail(
                    f"benign p99 under attack {p99:.0f} ms > "
                    f"{config.benign_p99_limit_ms:.0f} ms limit"
                )
            answered = stats.answered + stats.timeouts
            if answered and stats.timeouts > answered * 0.5:
                fail(
                    f"benign traffic starved under attack: "
                    f"{stats.timeouts}/{answered} timeouts"
                )
            shed_rise = report.shed_after_attack - report.shed_before_attack
            if shed_rise <= 0:
                fail(
                    "attack burst shed nothing: repro_guard_shed_total "
                    "never rose, admission control never engaged"
                )

        recovery = report.phases.get("recovery")
        if recovery is not None:
            stats = recovery.stats("benign")
            if stats.answered == 0:
                fail("service did not recover after chaos phases")

        drain = report.phases.get("drain")
        if drain is not None:
            stats = drain.stats("benign")
            if stats.timeouts:
                fail(f"graceful drain lost {stats.timeouts} in-flight queries")
            if not report.snapshot.get("drain_flushed", False):
                fail("engine drain did not flush within its timeout")


def run_soak(config=None):
    """Run one soak (sync driver); returns the :class:`SoakReport`."""
    return asyncio.run(_SoakRun(config or SoakConfig()).run())
