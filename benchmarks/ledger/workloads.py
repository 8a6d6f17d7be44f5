"""The four ledger workloads, as run inside one fresh interpreter.

Each workload drives the system through public functions (or the
``python -m repro`` CLI), measures one fixed-work closed-loop window as a
sequence of chunks, and checks its outputs: against the population's or
deployment's own ground truth for any seed, and (in the parent) against
pinned digests for the seeds in ``golden.json``. :func:`run` returns
JSON-ready documents, each one *replica* of the measurement, its times
scaled to the host's reference speed (``sampler.py``); the parent folds
several replicas of the same work into one measurement (``cli.compose``).
"""

from __future__ import annotations

import dataclasses
import glob
import hashlib
import importlib
import json
import os
import platform
import resource
import select
import shutil
import signal
import socket
import subprocess
import sys
import time

from benchmarks.ledger import trace
from benchmarks.ledger.sampler import Samplers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

TLDS = 120
QUERY_TIMEOUT_S = 3.0


# -- measuring -----------------------------------------------------------------


def percentile(values, q):
    """The repo's percentile convention, by its own implementation."""
    from repro.service.loadgen import ClassStats

    return ClassStats(latencies_ms=values).percentile(q)


def process_cpu_s(pid):
    """User+system seconds of the live process *pid*, all its threads, at
    nanosecond resolution: the kernel's per-process CPU clock
    (``MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)`` of ``clock_getcpuclockid``)."""
    return time.clock_gettime((~pid << 3) | 2)


def reaped_tree_cpu_s():
    """User+system seconds of this process and the children it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb(live_pids=()):
    """The largest high-water mark in the process tree (not the sum)."""
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    for pid in live_pids:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    peak_kib = max(peak_kib, int(line.split()[1]))
    return peak_kib / 1024.0


def spin_ms():
    """A fixed pure-Python loop: how fast this host runs bytecode right now."""
    started = time.perf_counter()
    total = 0
    for index in range(2_000_000):
        total += index * index % 7
    return (time.perf_counter() - started) * 1000.0


def host_fingerprint():
    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "spin_ms": spin_ms(),
    }


def sha256_text(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Window:
    """The measured window, as consecutive chunks: :meth:`mark` ends one.

    Wall is ``perf_counter``. CPU is one clock per process (or group of
    processes) that works inside the window; together the *cpu_clocks*
    have to cover them all.
    """

    def __init__(self, *cpu_clocks):
        self._cpu_clocks = cpu_clocks or (time.process_time,)
        self._marks = []
        self.mark()

    def mark(self):
        self._marks.append(
            (time.perf_counter(), [clock() for clock in self._cpu_clocks])
        )

    @property
    def start(self):
        return self._marks[0][0]

    @property
    def end(self):
        return self._marks[-1][0]

    @property
    def wall_s(self):
        return self.end - self.start

    def chunks(self):
        """``[wall_s, [cpu_s per clock]]`` per chunk, in order."""
        return [
            [after[0] - before[0], [b - a for a, b in zip(before[1], after[1])]]
            for before, after in zip(self._marks, self._marks[1:])
        ]


# -- counters read from public attributes -------------------------------------


def sim_counts(inet):
    """Raw cumulative counters of one simulated world (ints only); the
    ``_``-prefixed hit/miss pairs only feed :func:`counter_metrics`."""
    from repro.dnssec.costmodel import meter
    from repro.dnssec.validator import verification_memo
    from repro.resolver.validating import ValidatingResolver
    from repro.server.authoritative import AuthoritativeServer

    network = inet.network
    hosts = {}
    for ip in network.addresses():
        host = network.host_at(ip)
        hosts[id(host)] = host
    servers = [h for h in hosts.values() if isinstance(h, AuthoritativeServer)]
    resolvers = [h for h in hosts.values() if isinstance(h, ValidatingResolver)]
    lazy = inet.lazy_host
    return {
        "net.datagrams": network.stats.datagrams,
        "net.bytes_sent": network.stats.bytes_sent,
        "net.sim_events": network.kernel.events_run,
        "dnssec.cost.sha1_compressions": meter.sha1_compressions,
        "dnssec.cost.nsec3_hashes": meter.nsec3_hashes,
        "dnssec.cost.signature_verifications": meter.signature_verifications,
        "_memo.hits": verification_memo.hits,
        "_memo.misses": verification_memo.misses,
        "_answer_cache.hits": sum(s.answer_cache.hits for s in servers),
        "_answer_cache.misses": sum(s.answer_cache.misses for s in servers),
        "server.answer_cache.evictions": sum(s.answer_cache.evictions for s in servers),
        "server.answer_cache.invalidations": sum(
            s.answer_cache.invalidations for s in servers
        ),
        "_resolver_cache.hits": sum(r.cache.hits for r in resolvers),
        "_resolver_cache.misses": sum(r.cache.misses for r in resolvers),
        "resolver.cache.evictions": sum(r.cache.evictions for r in resolvers),
        "resolver.guard.budget_exceeded": sum(
            sum(r.guard_events.values()) for r in resolvers
        ),
        "testbed.lazy_zone.builds": lazy.builds if lazy is not None else 0,
        "testbed.lazy_zone.evictions": lazy.evictions if lazy is not None else 0,
    }


def _ratio(hits, misses):
    return hits / (hits + misses) if hits + misses else 0.0


def counter_metrics(before, after):
    """Window deltas of :func:`sim_counts`, hit/miss pairs folded to ratios."""
    delta = {key: after[key] - before.get(key, 0) for key in after}
    out = {key: value for key, value in delta.items() if not key.startswith("_")}
    out["dnssec.validate.memo_hit_ratio"] = _ratio(
        delta["_memo.hits"], delta["_memo.misses"]
    )
    out["server.answer_cache.hit_ratio"] = _ratio(
        delta["_answer_cache.hits"], delta["_answer_cache.misses"]
    )
    out["resolver.cache.hit_ratio"] = _ratio(
        delta["_resolver_cache.hits"], delta["_resolver_cache.misses"]
    )
    return out


#: The counts that repeat exactly for one (workload, seed, size); pinned.
EXACT_COUNTS = (
    "net.datagrams",
    "dnssec.cost.sha1_compressions",
    "dnssec.cost.nsec3_hashes",
    "dnssec.cost.signature_verifications",
)


def replica(started, setup_s, window, latencies_ms, ops_per_chunk, attempted,
            failed, problems, layers, digests, rss_mb=None):
    """The document of one replica, times as the clocks read them
    (:func:`to_reference_speed` scales them). Set-up began at *started*.
    *latencies_ms* has one entry per op whose time the driver of the ops
    saw, in the order of the ops, *ops_per_chunk* to a chunk; *rss_mb* is
    for a caller whose process tree is gone by now."""
    return {
        "setup": [started, setup_s],
        "start": window.start,
        "chunks": window.chunks(),
        "latencies_ms": latencies_ms,
        "ops_per_chunk": ops_per_chunk,
        "peak_rss_mb": peak_rss_mb() if rss_mb is None else rss_mb,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:5],
        "layers": layers,
        "digests": digests,
    }


def sim_replica(started, setup_s, window, problems, layers, digests):
    """A single-process workload: every chunk but the last is one op, one
    problem is one failed op, and the exact counts are pinned."""
    latencies_ms = [wall_s * 1000.0 for wall_s, __ in window.chunks()[:-1]]
    digests.update({name: layers[name] for name in EXACT_COUNTS})
    return [replica(
        started, setup_s, window, latencies_ms, 1, len(latencies_ms), len(problems),
        problems, layers, digests,
    )]


def to_reference_speed(document, samplers, wall_cpus, clock_cpus):
    """Scale the replica's times to the reference speed of the host.

    The set-up and each chunk's wall time become what they would have
    taken had the CPUs that set their pace, *wall_cpus*, run the
    samplers' kernel at the reference speed throughout; an op's latency
    is scaled as its chunk, and a chunk's CPU seconds clock by clock,
    *clock_cpus* naming the CPUs each clock's processes ran on.
    ``host.stretch`` is what the window as a whole was divided by.
    """
    started, setup_s = document.pop("setup")
    document["setup_s"] = samplers.reference_s(wall_cpus, started, started + setup_s)
    since = document.pop("start")
    raw_s = 0.0
    factors = []
    chunks = []
    for wall_s, clocks in document["chunks"]:
        until = since + wall_s
        factors.append(samplers.reference_s(wall_cpus, since, until) / wall_s)
        chunks.append([
            wall_s * factors[-1],
            sum(
                cpu_s * samplers.reference_s(cpus, since, until) / wall_s
                for cpu_s, cpus in zip(clocks, clock_cpus)
            ),
        ])
        since = until
        raw_s += wall_s
    document["chunks"] = chunks
    per_chunk = document.pop("ops_per_chunk")
    document["latencies_ms"] = [
        latency * factors[min(index // per_chunk, len(factors) - 1)]
        for index, latency in enumerate(document["latencies_ms"])
    ]
    document["raw_window_s"] = raw_s
    document["layers"]["host.stretch"] = raw_s / sum(wall_s for wall_s, __ in chunks)


# -- tracing -------------------------------------------------------------------


def start_tracer(spans_path):
    """Install the span wrappers when this is the traced run."""
    if spans_path is None:
        return None
    tracer = trace.Tracer()
    tracer.install()
    return tracer


def stop_tracer(tracer, window, spans_path):
    """Remove the wrappers, write the spans, return the layer metrics."""
    if tracer is None:
        return {}
    tracer.uninstall()
    tracer.dump(spans_path)
    return layer_metrics(
        trace.aggregate(trace.LAYERS, tracer.buffers, window.start, window.end)
    )


def layer_metrics(aggregated):
    out = {}
    for layer, numbers in aggregated.items():
        out[f"{layer}.calls"] = numbers["calls"]
        out[f"{layer}.self_s"] = numbers["self_s"]
    return out


# -- scan-stream ---------------------------------------------------------------


def _population(domains):
    """The population ``python -m repro scan --domains N`` scans. Its seed
    is the repo's default, as in the CLI, where ``--seed`` picks keys,
    salts, deployment and schedule: two seeds then differ in their inputs
    but not in how many signed domains there are to scan (which moved
    ``wall_s`` by 5-12% between seeds when the population followed the
    seed)."""
    from repro.testbed.population import Population, generate_tlds, scaled_config

    config = scaled_config(domains, TLDS)
    tlds = generate_tlds(config)
    return Population(config, tlds=tlds), tlds


def _scan_problem(spec, answer, enabled, result):
    """Why the scan of *spec* disagrees with the population's ground truth."""
    from repro.dns.rcode import Rcode

    if not answer.answered:
        return "timeout"
    if answer.rcode != Rcode.NOERROR:
        return f"DNSKEY query answered {Rcode.to_text(answer.rcode)}"
    if enabled != spec.dnssec:
        return "dnssec gate disagrees with the population"
    if not enabled:
        return None
    if result.denial != spec.denial:
        return f"denial {result.denial!r}, population says {spec.denial!r}"
    if spec.nsec3:
        seen = {
            (iterations, len(salt))
            for __, iterations, salt in result.observation.nsec3param_records
        }
        if seen != {(spec.iterations, spec.salt_length)}:
            return f"NSEC3PARAM {sorted(seen)} differs from the population"
    return None


def scan_stream(seed, seconds, spans_path, work_dir):
    from repro.core.report import StudyAggregates
    from repro.dns.rcode import Rcode
    from repro.dns.types import RdataType
    from repro.resolver.policy import VENDOR_POLICIES
    from repro.scanner.engine import ScanEngine
    from repro.testbed import internet

    # Traced entry points are reached through their modules, where the
    # tracer put its wrappers; a name imported here would bypass them.
    # (The package exports a function that shadows this module's name.)
    nsec3_scan = importlib.import_module("repro.scanner.nsec3_scan")
    tracer = start_tracer(spans_path)
    started = time.perf_counter()
    population, tlds = _population(150 * seconds)
    inet = internet.build_internet(population, tlds, seed=seed, lazy_domains=True)
    upstream = inet.make_resolver(VENDOR_POLICIES["cloudflare"], name="cli-upstream")
    engine = ScanEngine(
        inet.network, inet.allocator.next_v4(), upstream.ip, max_qps=14_700
    )
    setup_s = time.perf_counter() - started

    aggregates = StudyAggregates()
    problems = []
    dnskey = int(RdataType.DNSKEY)
    before = sim_counts(inet)
    window = Window()
    for spec in population:
        try:
            answer = engine.query(
                spec.name, RdataType.DNSKEY, want_dnssec=True, checking_disabled=True
            )
            enabled = answer.rcode == Rcode.NOERROR and any(
                int(rrset.rrtype) == dnskey for rrset in answer.answer
            )
            result = None
            if enabled:
                result = nsec3_scan.scan_domain(
                    engine, spec.name, nsec3_scan.domain_rng(1355, spec.name)
                )
                aggregates.update_domain(result)
            problem = _scan_problem(spec, answer, enabled, result)
        except Exception as exc:  # an op that raises is a failed op
            problem = f"{type(exc).__name__}: {exc}"
        window.mark()
        if problem:
            problems.append(f"{spec.name}: {problem}")
    engine.drain()
    report = aggregates.render(len(population))
    window.mark()
    counters = counter_metrics(before, sim_counts(inet))
    layers = stop_tracer(tracer, window, spans_path)

    return sim_replica(
        started, setup_s, window, problems, {**counters, **layers},
        {"report_sha256": sha256_text(report)},
    )


# -- survey-probe --------------------------------------------------------------


def _survey_problem(deployed, matrix, classification):
    if not all(cell.answered for cell in matrix.values()):
        return "resolver left unclassified: a probe went unanswered"
    if classification.is_validating != (deployed.kind != "non-validating"):
        return "validating verdict disagrees with the deployment"
    return None


def survey_probe(seed, seconds, spans_path, work_dir):
    from repro.core import resolver_compliance
    from repro.scanner import resolver_scan
    from repro.scanner.supervisor import deployment_counts
    from repro.testbed import internet, resolvers, rfc9276_wild

    iterations = rfc9276_wild.PROBE_ZONE_ITERATIONS
    tracer = start_tracer(spans_path)
    started = time.perf_counter()
    population, tlds = _population(20)
    inet = internet.build_internet(population, tlds, seed=seed, lazy_domains=True)
    probes = rfc9276_wild.build_probe_zones(inet)
    deployment = resolvers.deploy_resolvers(
        inet, seed=seed, **deployment_counts(round(2.4 * seconds))
    )
    scanner_source = inet.allocator.next_v4()
    setup_s = time.perf_counter() - started

    problems = []
    verdicts = []
    before = sim_counts(inet)
    window = Window()
    for index, deployed in enumerate(deployment):
        try:
            # Open resolvers from the scanner, closed ones from their
            # Atlas-style probe vantage, as the campaign supervisor does.
            if deployed.access == "closed":
                matrix = resolver_scan.probe_resolver(
                    inet.network, deployed.ip, probes, deployed.probe_source_ip,
                    unique=f"atlas{index}", iterations=iterations, keep_ede=False,
                )
            else:
                matrix = resolver_scan.probe_resolver(
                    inet.network, deployed.ip, probes, scanner_source,
                    f"r{index}", iterations=iterations,
                )
            classification = resolver_compliance.classify_resolver(
                matrix, resolver=deployed.ip
            )
            verdicts.append(dataclasses.asdict(classification))
            problem = _survey_problem(deployed, matrix, classification)
        except Exception as exc:  # an op that raises is a failed op
            problem = f"{type(exc).__name__}: {exc}"
        window.mark()
        if problem:
            problems.append(f"resolver {index} ({deployed.policy_name}): {problem}")
    digest = sha256_text(json.dumps(verdicts, sort_keys=True))
    window.mark()
    counters = counter_metrics(before, sim_counts(inet))
    layers = stop_tracer(tracer, window, spans_path)

    return sim_replica(
        started, setup_s, window, problems, {**counters, **layers},
        {"classification_sha256": digest},
    )


# -- fleet-warm ----------------------------------------------------------------


def _study_report(outcome):
    from repro.core.report import render_study_report

    return render_study_report(
        outcome.domain_results, outcome.total_domains,
        outcome.tld_results, outcome.entries,
    )


def fleet_warm(seed, seconds, spans_path, work_dir, replicas=1):
    """One cold pass, then *replicas* warm passes, each a replica: a warm
    pass leaves nothing behind but ``shard-*`` files, which are deleted."""
    from repro.scanner.supervisor import CampaignPlan, run_supervised

    state_dir = os.path.join(work_dir, "fleet-state")
    plan = CampaignPlan(
        role="study", domains=62 * seconds, tlds=TLDS, resolvers=round(2.75 * seconds),
        seed=seed, workers=2, state_dir=state_dir,
    )

    def forget_shards():
        for path in glob.glob(os.path.join(state_dir, "shard-*")):
            os.unlink(path)

    # Set-up is the cold pass: it signs every zone and fills build-cache/.
    started = time.perf_counter()
    cold = run_supervised(plan)
    cold_sha = sha256_text(_study_report(cold))
    forget_shards()
    setup_s = time.perf_counter() - started

    documents = []
    for __ in range(replicas):
        # Only this (supervisor) process is traced; nothing goes into workers.
        # The window is one chunk: nothing inside the fleet is visible from here.
        tracer = start_tracer(spans_path)
        began = time.time()
        window = Window(reaped_tree_cpu_s)
        warm = run_supervised(plan)
        warm_sha = sha256_text(_study_report(warm))
        window.mark()
        layers = stop_tracer(tracer, window, spans_path)

        coverage = warm.coverage
        total = coverage.units_total
        problems = [f"unit missing from coverage: {key}" for key in coverage.missing[:5]]
        failed = len(coverage.missing)
        if cold_sha != warm_sha or not cold.coverage.complete or coverage.lame_shards:
            problems.append("cold and warm reports differ, or coverage is partial")
            failed = total

        # The rest of the layer numbers come from what the fleet itself wrote.
        reports = warm.shard_reports
        cache_events = {}
        for report in reports:
            for event, count in (report.get("build_cache") or {}).items():
                cache_events[event] = cache_events.get(event, 0) + count
        slowest_shard_s = max(r["build_seconds"] + r["measure_seconds"] for r in reports)
        layers.update({
            "net.sim_events": sum(r["events"] for r in reports),
            "scanner.fleet.shard_build_s_max": max(r["build_seconds"] for r in reports),
            "scanner.fleet.shard_measure_s_max": max(
                r["measure_seconds"] for r in reports
            ),
            "scanner.fleet.supervise_overhead_s": window.wall_s - slowest_shard_s,
            "scanner.fleet.restarts": warm.restarts,
            "scanner.journal.bytes": sum(
                os.path.getsize(path)
                for path in glob.glob(os.path.join(state_dir, "shard-*.ckpt*"))
            ),
        })
        for event in ("hit", "load", "store", "wait", "corrupt"):
            layers[f"zone.build_cache.{event}"] = cache_events.get(event, 0)
        # The workers' build-cache calls: what their done-files count.
        layers["zone.build_cache.calls"] = (
            cache_events.get("load", 0) + cache_events.get("store", 0)
        )

        # No single unit's time is visible from outside the supervisor. What
        # is: when each shard delivered, by the mtime of its done-file.
        latencies_ms = [
            (os.stat(path).st_mtime - began) * 1000.0
            for path in sorted(glob.glob(os.path.join(state_dir, "shard-*.done.json")))
        ]
        forget_shards()
        documents.append(replica(
            started, setup_s, window, latencies_ms, len(latencies_ms), total, failed,
            problems, layers,
            {"report_sha256": warm_sha, "net.sim_events": layers["net.sim_events"]},
        ))
    return documents


# -- serve-mixed ---------------------------------------------------------------

EXPECTED_RCODES = {
    "hot": {"NOERROR", "NXDOMAIN"},
    "unique": {"NOERROR", "NXDOMAIN"},
    "attack": {"SERVFAIL"},
}


class Server:
    """``python -m repro serve`` as a child, on an ephemeral loopback port."""

    def __init__(self, seed, spans_path, work_dir):
        self.counts_path = os.path.join(work_dir, "server-counts.json")
        self.stderr_path = os.path.join(work_dir, "server.stderr")
        self.stdout_path = os.path.join(work_dir, "server.stdout")
        command = [sys.executable, "-m", "repro"]
        if spans_path is not None:
            command = [sys.executable, os.path.join(HERE, "serve_traced.py"),
                       spans_path, self.counts_path]
        command += ["serve", "--port", "0", "--seed", str(seed),
                    "--guard", "guarded", "--policy", "legacy"]
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        with open(self.stderr_path, "wb") as err, open(self.stdout_path, "wb") as out:
            self.process = subprocess.Popen(
                command, stdout=out, stderr=err, env=env, cwd=ROOT
            )
        self.pid = self.process.pid
        self.port = None

    def wait_ready(self, timeout_s=120.0):
        deadline = time.monotonic() + timeout_s
        marker = "resolver listening on 127.0.0.1:"
        while time.monotonic() < deadline and self.process.poll() is None:
            with open(self.stderr_path, encoding="utf-8", errors="replace") as handle:
                text = handle.read()
            if marker in text:
                self.port = int(text.split(marker, 1)[1].split()[0])
                return
            time.sleep(0.02)
        self.stop()
        with open(self.stderr_path, encoding="utf-8", errors="replace") as handle:
            raise RuntimeError("server did not come up:\n" + handle.read()[-2000:])

    def stop(self):
        """SIGTERM (graceful drain) and wait; the drain snapshot, or None."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        try:
            with open(self.stdout_path, encoding="utf-8") as handle:
                return json.load(handle)
        except ValueError:
            return None


class QueryMix:
    """The seeded hot/unique/attack schedule of ``LoadGenerator.next_query``."""

    def __init__(self, port, seed):
        from repro.service.loadgen import LoadGenerator, benign_pool

        self.pool = benign_pool()
        self._hot = set(self.pool)
        self._schedule = LoadGenerator(
            "127.0.0.1", port, attack_ratio=0.05, unique_ratio=0.3,
            benign_names=self.pool, seed=seed,
        )

    def __iter__(self):
        """``(class, qname)`` without end; class is hot, unique or attack."""
        while True:
            klass, qname = self._schedule.next_query()
            if klass == "benign":
                klass = "hot" if qname in self._hot else "unique"
            yield klass, qname


def query_wire(qname, msg_id):
    from repro.dns.message import make_query
    from repro.dns.types import RdataType

    return make_query(qname, RdataType.A, want_dnssec=True, msg_id=msg_id).to_wire()


def _reply_problem(klass, response):
    """Why *response* (a Message, or None for a timeout) fails its class."""
    from repro.dns.flags import Flag
    from repro.dns.rcode import Rcode

    if response is None:
        return "timeout"
    if response.has_flag(Flag.TC):
        return "truncated"
    rcode = Rcode.to_text(response.rcode)
    return None if rcode in EXPECTED_RCODES[klass] else f"{klass} answered {rcode}"


def _udp_socket(port):
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.connect(("127.0.0.1", port))
    return sock


class ClosedLoop:
    """*connections* UDP sockets with one outstanding query each.

    ``classes``, ``latencies_ms`` hold one entry per query in the order
    the queries were sent, which is the order of the schedule.
    """

    def __init__(self, port, seed, connections=2):
        import random

        self._socks = [_udp_socket(port) for __ in range(connections)]
        self._ids = random.Random(seed)
        self.classes = []
        self.latencies_ms = []
        self.rcodes = {"hot": {}, "unique": {}, "attack": {}}
        self.problems = []

    def close(self):
        for sock in self._socks:
            sock.close()

    def run(self, queries, count):
        """Send the next *count* of the ``(class, qname)`` iterator
        *queries* and return once each has its reply or has timed out."""
        from repro.dns.rcode import Rcode
        from repro.net.transport import validate_reply

        clock = time.perf_counter
        pending = {}  # sock -> (op index, msg_id, sent at)
        sent = done = 0

        def send(sock):
            nonlocal sent
            klass, qname = next(queries)
            msg_id = self._ids.randrange(65536)
            wire = query_wire(qname, msg_id)
            pending[sock] = (len(self.classes), msg_id, clock())
            self.classes.append(klass)
            self.latencies_ms.append(None)
            sock.send(wire)
            sent += 1

        def settle(sock, response):
            nonlocal done
            index, __, sent_at = pending.pop(sock)
            self.latencies_ms[index] = (clock() - sent_at) * 1000.0
            klass = self.classes[index]
            problem = _reply_problem(klass, response)
            if problem:
                self.problems.append(problem)
            if response is not None:
                text = Rcode.to_text(response.rcode)
                self.rcodes[klass][text] = self.rcodes[klass].get(text, 0) + 1
            done += 1
            if sent < count:
                send(sock)

        for sock in self._socks[:count]:
            send(sock)
        while done < count:
            ready, __, __ = select.select(list(pending), [], [], QUERY_TIMEOUT_S)
            for sock in ready:
                response = validate_reply(sock.recv(65535), pending[sock][1])
                if response is not None:  # else a stale reply: keep waiting
                    settle(sock, response)
            now = clock()
            for sock in [s for s, (__, __, at) in pending.items()
                         if now - at > QUERY_TIMEOUT_S]:
                settle(sock, None)


def paced_pass(queries, port, rate, duration_s):
    """Open loop at *rate* q/s; each query is timed from when it was due.

    ``LoadGenerator.run`` paces the same schedule but times a query from
    when it was sent and does not say how late it sent it, so a stall in
    the server (or in the generator) that delays later queries would not
    show; timing from the due time is the point of this pass.
    """
    from repro.net.transport import validate_reply

    total = max(1, int(rate * duration_s))
    interval = 1.0 / rate
    clock = time.perf_counter
    queries = iter(queries)
    sock = _udp_socket(port)
    sock.setblocking(False)
    pending = {}  # msg_id -> (class, due)
    latencies, lateness = [], []
    failed = 0
    index = 0
    try:
        started = clock()
        while index < total or pending:
            now = clock()
            wait = 0.05
            if index < total:
                due = started + index * interval
                if now >= due:
                    klass, qname = next(queries)
                    # Sequential ids: at most rate x timeout are in flight.
                    msg_id = index % 65536
                    pending[msg_id] = (klass, due)
                    sock.send(query_wire(qname, msg_id))
                    lateness.append((clock() - due) * 1000.0)
                    index += 1
                    continue
                wait = due - now
            if select.select([sock], [], [], wait)[0]:
                while True:
                    try:
                        raw = sock.recv(65535)
                    except BlockingIOError:
                        break
                    msg_id = int.from_bytes(raw[:2], "big")
                    if msg_id not in pending:
                        continue
                    klass, due = pending.pop(msg_id)
                    latencies.append((clock() - due) * 1000.0)
                    if _reply_problem(klass, validate_reply(raw, msg_id)):
                        failed += 1
            if index >= total or index % 256 == 0:
                now = clock()
                for msg_id in [m for m, (__, due) in pending.items()
                               if now - due > QUERY_TIMEOUT_S]:
                    del pending[msg_id]
                    failed += 1
    finally:
        sock.close()
    return {
        "service.paced_p50_ms": percentile(latencies, 50) or 0.0,
        "service.paced_p99_ms": percentile(latencies, 99) or 0.0,
        "service.paced_late_p99_ms": percentile(lateness, 99),
        "service.paced_failed_share": failed / total,
    }


def take_cpu(turn):
    """Pin this process to one of its CPUs, by *turn*; returns the next
    CPU, for a partner process.

    The host's vCPUs slow down independently of each other, for seconds
    at a time, so the replicas of a measurement take turns on them: the
    fastest replica of a chunk is then less often a slowed one. A
    process left to the scheduler also migrates, which alone moved the
    ``serve-mixed`` window by 25% from run to run.
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
    return cpus[(turn + 1) % len(cpus)]


#: Queries per chunk of the ``serve-mixed`` window (about 45 ms). Both
#: sockets drain at a chunk's end, so chunks do not overlap.
SERVE_CHUNK = 100


def serve_mixed(seed, seconds, spans_path, work_dir, server_cpu, paced=False):
    started = time.perf_counter()
    server = Server(seed, spans_path, work_dir)
    try:
        os.sched_setaffinity(server.pid, {server_cpu})
        server.wait_ready()
        mix = QueryMix(server.port, seed)
        # Warm the cache: one query per benign name, outside the window.
        warm_up = ClosedLoop(server.port, seed, connections=1)
        warm_up.run((("hot", name) for name in mix.pool), len(mix.pool))
        warm_up.close()
        setup_s = time.perf_counter() - started

        total = 560 * seconds
        queries = iter(mix)
        loop = ClosedLoop(server.port, seed)
        client_cpu_s = -time.process_time()
        server_cpu_s = -process_cpu_s(server.pid)
        window = Window(time.process_time, lambda: process_cpu_s(server.pid))
        try:
            for __ in range(total // SERVE_CHUNK):
                loop.run(queries, SERVE_CHUNK)
                window.mark()
        finally:
            loop.close()
        client_cpu_s += time.process_time()
        server_cpu_s += process_cpu_s(server.pid)
        rss_mb = peak_rss_mb(live_pids=(server.pid,))
        layers = {
            "service.server_cpu_s": server_cpu_s,
            "service.client_cpu_s": client_cpu_s,
        }
        for klass in EXPECTED_RCODES:
            layers[f"service.{klass}_p50_ms"] = percentile(
                [ms for ms, k in zip(loop.latencies_ms, loop.classes) if k == klass], 50
            ) or 0.0
        if paced:
            layers.update(paced_pass(queries, server.port, 1000.0, seconds / 2.0))
    finally:
        snapshot = server.stop()

    problems = loop.problems
    failed = len(problems)
    if snapshot is None:
        problems.append("server printed no drain snapshot")
        failed = total
    else:
        layers.update({
            "service.engine_p50_ms": snapshot["latency_p50_ms"],
            "service.engine_p99_ms": snapshot["latency_p99_ms"],
            "service.peak_inflight": snapshot["peak_inflight"],
            "service.shed_refused": snapshot["shed_refused"],
            "service.shed_stale": snapshot["shed_stale"],
            "service.expired": snapshot["expired"],
        })
    if spans_path is not None and snapshot is not None:
        # perf_counter is CLOCK_MONOTONIC here, so the server's span
        # times and this process's window bounds share one clock.
        names, buffers = trace.load_spans(spans_path)
        layers.update(layer_metrics(
            trace.aggregate(names, buffers, window.start, window.end)
        ))
        # Server-side counters cover the server's whole life, warm-up too.
        with open(server.counts_path, encoding="utf-8") as handle:
            layers.update(counter_metrics({}, json.load(handle)))

    rcodes = loop.rcodes
    benign = dict(rcodes["hot"])
    for rcode, count in rcodes["unique"].items():
        benign[rcode] = benign.get(rcode, 0) + count
    return [replica(
        started, setup_s, window, loop.latencies_ms, SERVE_CHUNK, total, failed,
        sorted(set(problems)), layers,
        {"rcodes": {"benign": benign, "attack": rcodes["attack"]}}, rss_mb=rss_mb,
    )]


# -- entry point ---------------------------------------------------------------

WORKLOADS = {
    "scan-stream": scan_stream,
    "survey-probe": survey_probe,
    "fleet-warm": fleet_warm,
    "serve-mixed": serve_mixed,
}


def run(workload, seed, seconds, work_root, replicas=1, turn=0, spans=False,
        paced=False):
    """Run one workload in this interpreter; returns its replica documents:
    one, or for ``fleet-warm``, whose set-up serves any number of windows,
    *replicas* of them. *turn* says which CPU this run takes (the fleet
    takes them all). ``src/`` has to be on ``sys.path``.

    The traced run (*spans*) leaves ``<workload>.spans.json`` (+ ``.bin``)
    in *work_root*; everything else the run writes is removed.
    """
    host = host_fingerprint()
    work_dir = os.path.join(work_root, f"{workload}-{os.getpid()}")
    os.makedirs(work_dir)
    spans_path = os.path.join(work_root, f"{workload}.spans.json") if spans else None
    cpus = sorted(os.sched_getaffinity(0))
    extra = {}
    if workload == "fleet-warm":
        # Its two workers go where the scheduler puts them.
        extra["replicas"] = replicas
        wall_cpus, clock_cpus = cpus, [cpus]
    else:
        next_cpu = take_cpu(turn)
        wall_cpus = [cpus[turn % len(cpus)]]
        clock_cpus = [wall_cpus]
    if workload == "serve-mixed":
        # The server is the bottleneck of the closed loop (busy all of the
        # window, the client under half of it): its CPU sets the pace.
        extra.update(server_cpu=next_cpu, paced=paced)
        wall_cpus, clock_cpus = [next_cpu], [wall_cpus, [next_cpu]]
    samplers = Samplers(work_dir, cpus)
    try:
        documents = WORKLOADS[workload](seed, seconds, spans_path, work_dir, **extra)
    finally:
        samplers.stop()
        shutil.rmtree(work_dir, ignore_errors=True)
    for document in documents:
        to_reference_speed(document, samplers, wall_cpus, clock_cpus)
        document["layers"]["host.spin_ms"] = host["spin_ms"]
        document["layers"]["failed_share"] = document["failed"] / document["attempted"]
        document.update(workload=workload, seed=seed, seconds=seconds, host=host)
    return documents
