"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``study``  — run both measurement pipelines on a synthetic Internet and
  print the full report (domains, TLDs, resolvers);
- ``scan``   — the domain pipeline only;
- ``survey`` — the resolver survey only;
- ``trace`` — run one probe query with tracing on and print its span tree;
- ``attack`` — run adversarial NSEC3/DNSSEC workloads (CVE-2023-50868
  encloser zones, KeyTrap-style key-tag collisions) against an unguarded
  and a resource-guarded resolver and report per-query cost;
- ``serve`` — put the simulated testbed on real UDP/TCP sockets,
  wire-compatible with ``dig``/zdns (overload-hardened: admission
  control, TCP reaping, graceful drain on SIGTERM);
- ``loadgen`` — replay benign population traffic mixed with adversarial
  streams against a running ``serve`` instance at a configured QPS;
- ``soak`` — the chaos soak harness: benign baseline, attack flood,
  malformed-datagram fuzz, connection churn, recovery, graceful drain —
  exits non-zero on any robustness violation;
- ``timeline`` — the modelled longitudinal view of RFC 9276 adoption;
- ``guidance`` — print the twelve RFC 9276 items (paper Table 1).

The measurement commands accept ``--metrics-out PATH`` (``-`` for stdout)
to dump the telemetry registry collected during the run, and
``--faults SPEC`` to run under injected network faults (chaos mode): the
spec grammar lives in :func:`repro.net.faults.parse_fault_spec`, and
``--faults chaos`` enables the standard weather profile. With faults
active the pipelines automatically harden themselves (per-target
retries, matrix stability checks), so headline numbers should converge
to the clean run's.

``--concurrency N`` runs the campaigns with N query sessions in flight
on the discrete-event simulation kernel (``repro.net.sim``): results and
classifications are identical to the serial run, but the simulated
elapsed time shrinks toward ``1/N`` — the paper's concurrent-scanner
posture. The default of 1 is bit-for-bit the legacy serial behaviour.

``--workers N`` (study/scan/survey) splits the global unit list into N
shards measured by the same shard shell; the report is byte-identical at
any N. N = 1 measures shard 0 of 1 in this process, N ≥ 2 spawns a
supervised worker per shard (see :mod:`repro.scanner.supervisor`).
``--state-dir DIR`` gives every shard, in-process or spawned, a
crash-safe journaled checkpoint there, merged into the report with
coverage accounting: pass the same DIR again to resume an interrupted
campaign without re-measuring what it journaled. Without it a single
process folds units as they settle and writes nothing, and a fleet works
in a temporary directory it removes when the run ends. A ``kill:`` token
in ``--faults`` injects seeded worker SIGKILLs/hangs to exercise the
supervisor, so it needs ``--workers`` ≥ 2.

Streaming telemetry (all subcommands): ``--events-out PATH`` writes the
structured event journal as JSONL (flight-recorder dumps included),
``--series-out PATH`` writes metric time-series scraped every
``--scrape-interval`` simulated ms, and ``--progress`` prints live
heartbeat/stall lines to stderr. Reports on stdout stay byte-identical
whether telemetry is on or off. ``trace --trace-out PATH`` additionally
exports the span tree as Chrome-trace/Perfetto JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
import tempfile
import time

from repro import __version__, obs
from repro.analysis.longitudinal import compliance_timeline, paper_anchor
from repro.core.guidance import GUIDANCE
from repro.core.report import StudyAggregates
from repro.dns.rcode import Rcode
from repro.dns.types import RdataType
from repro.obs import render_span_tree
from repro.dnssec.costmodel import meter
from repro.resolver.guard import GUARD_PROFILES
from repro.resolver.policy import VENDOR_POLICIES
from repro.resolver.stub import StubClient
from repro.scanner.campaign import CampaignError
from repro.scanner.pipeline import CampaignPlan, FoldSink, World
from repro.scanner.supervisor import (
    Coverage,
    merge_in_process,
    run_shard,
    run_supervised,
    shard_checkpoint,
)
from repro.zone import build_cache


def _build_world(plan):
    """Build the world of *plan*; progress lines go to stderr."""
    started = time.perf_counter()
    world = World.build(plan)
    print(
        f"[testbed] {len(world.universe.population)} domains, "
        f"{len(world.universe.tld_specs)} TLDs "
        f"({time.perf_counter() - started:.1f}s)",
        file=sys.stderr,
    )
    if plan.faults:
        models = world.inet.network.faults.models
        kinds = ", ".join(type(m).__name__ for m in models) or "none"
        print(f"[chaos] fault plan active ({kinds})", file=sys.stderr)
    return world


def _metrics_requested(args):
    return args.metrics_out is not None


def _streaming_requested(args):
    """Per-kernel streaming telemetry: event journal, series, console."""
    return args.events_out is not None or args.series_out is not None or args.progress


def _telemetry_requested(args):
    """Any collection at all — a metrics snapshot or streaming telemetry
    needs the obs registry switched on."""
    return _metrics_requested(args) or _streaming_requested(args)


def _start_telemetry(args, inet, label):
    """Attach the streaming telemetry (journal, scraper, console) for one
    run; returns the LiveTelemetry handle (or None when nothing streams).

    Build this *after* the testbed so construction noise stays out of the
    journal, and *before* the campaign so heartbeats cover it.
    """
    if not _streaming_requested(args):
        return None
    from repro.obs.live import LiveTelemetry

    return LiveTelemetry(
        inet.network.kernel,
        events_out=args.events_out,
        series_out=args.series_out,
        progress=args.progress,
        scrape_interval_ms=args.scrape_interval,
        seed=args.seed,
        label=label,
    )


def _finish_telemetry(live):
    """Final scrape, file writes, console summary (stderr only)."""
    if live is not None:
        live.finish()


def _dump_metrics(args, inet=None):
    """Write the telemetry registry to ``--metrics-out`` (``-`` = stdout)."""
    if not _metrics_requested(args):
        return
    if inet is not None:
        obs.registry.gauge(
            "repro_sim_clock_ms",
            "Simulated clock at the time the metrics snapshot was taken.",
        ).set(inet.network.clock_ms)
    if args.metrics_format == "prometheus":
        text = obs.registry.render_prometheus()
    else:
        text = json.dumps(obs.registry.to_json(), indent=2, sort_keys=True) + "\n"
    if args.metrics_out == "-":
        sys.stdout.write(text)
    else:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"[obs] metrics written to {args.metrics_out}", file=sys.stderr)


def _start_mem_stats(args):
    """Begin tracemalloc tracking when ``--mem-stats`` asked for it.

    Call before the testbed build so construction allocations count
    toward the reported peak.
    """
    if not args.mem_stats:
        return
    import tracemalloc

    if not tracemalloc.is_tracing():
        tracemalloc.start()


def _peak_rss_bytes():
    """This process's lifetime peak RSS in bytes (ru_maxrss is KiB on
    Linux, bytes on macOS)."""
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform != "darwin":
        peak *= 1024
    return peak


def _mem_summary(args):
    """The ``--mem-stats`` fragment of the [sim] line, or ''.

    Also exports ``repro_peak_rss_bytes`` through the metrics registry
    so ``--metrics-out`` snapshots carry the memory ceiling.
    """
    if not args.mem_stats:
        return ""
    import tracemalloc

    peak_rss = _peak_rss_bytes()
    traced_peak = 0
    if tracemalloc.is_tracing():
        __, traced_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    if obs.enabled:
        obs.registry.gauge(
            "repro_peak_rss_bytes",
            "Lifetime peak resident set size of the measurement process.",
        ).set(peak_rss)
        obs.registry.gauge(
            "repro_tracemalloc_peak_bytes",
            "Peak python-heap bytes traced while --mem-stats was active.",
        ).set(traced_peak)
    return f" peak_rss_bytes={peak_rss} tracemalloc_peak_bytes={traced_peak}"


def _build_summary(inet):
    """Build-cache and lazy-host fragments of the [sim] line."""
    parts = ""
    cache = build_cache.active()
    if cache is not None and cache.events:
        parts += f" build_cache={cache.summary()}"
    lazy = inet.lazy_host
    return parts + f" lazy_zones=builds:{lazy.builds},evictions:{lazy.evictions}"


def _sim_summary(args, inet):
    """One stderr line about the kernel run (stdout stays diffable)."""
    kernel = inet.network.kernel
    print(
        f"[sim] concurrency={getattr(args, 'concurrency', 1)} "
        f"clock_ms={kernel.now:.0f} events={kernel.events_run}"
        f"{_build_summary(inet)}{_mem_summary(args)}",
        file=sys.stderr,
    )


def _print_report(role, aggregates, total_domains):
    if role != "survey":
        print(aggregates.render(total_domains))
        return
    print("validating resolver survey (paper §5.2):")
    for label, paper, measured in aggregates.resolver_headline.headline().rows():
        print(f"  {label:40s} paper={paper:>6}  measured={measured}")


def _spawn_fleet(args, plan, aggregates):
    """Shards 0..N-1 in supervised processes; fleet lines go to stderr.
    A state dir made here is removed when the run ends, however it ends."""
    if _streaming_requested(args):
        print(
            "[supervisor] streaming telemetry (--events-out/--series-out/"
            "--progress) is per-kernel and not available with --workers; "
            "the supervisor prints its own progress lines",
            file=sys.stderr,
        )
    with contextlib.ExitStack() as stack:
        if plan.state_dir is None:
            state_dir = stack.enter_context(tempfile.TemporaryDirectory(
                prefix="repro-fleet-", ignore_cleanup_errors=True
            ))
            print(f"[supervisor] state dir {state_dir}", file=sys.stderr)
            plan = dataclasses.replace(plan, state_dir=state_dir)
        outcome = run_supervised(plan, aggregates)
    return outcome.total_domains, outcome.coverage, None


def _measure_here(args, plan, aggregates):
    """Shard 0 of 1 in this process, through the fleet's shard shell;
    returns ``(domains, coverage, inet)``. Without a state dir units fold as
    they settle and nothing touches disk; with one they are journaled to
    ``shard-0.ckpt``, sealed and merged like a fleet's shards."""
    _start_mem_stats(args)
    started = time.perf_counter(), time.process_time()
    sink = FoldSink(aggregates) if plan.state_dir is None else shard_checkpoint(plan, 0)
    world = _build_world(plan)
    live = _start_telemetry(args, world.inet, label=plan.role)

    def progress(phase, units_done, executed):
        if executed is None and obs.console is not None:
            obs.console.phase(f"{plan.role}:{phase}")
            if phase == "survey":
                obs.console.expect(world.universe.n_resolver_units)

    try:
        resumed, executed = run_shard(world, 0, sink, progress, started)
    except KeyboardInterrupt:
        if plan.state_dir is not None:
            sink.flush()  # what was measured stays measured
        raise
    if plan.state_dir is None:
        coverage = Coverage(len(world.universe), len(world.universe))
    else:
        coverage = merge_in_process(world, aggregates)
        print(
            f"[campaign] shard 0 of 1: resumed={resumed} executed={executed} "
            f"coverage={coverage.units_merged}/{coverage.units_total}",
            file=sys.stderr,
        )
    _sim_summary(args, world.inet)
    _finish_telemetry(live)
    return len(world.universe.population), coverage, world.inet


def cmd_campaign(args):
    """Run ``study``, ``scan`` or ``survey`` and print its report.

    ``--workers 1`` measures shard 0 of 1 in this process; ``--workers
    N`` spawns a supervised fleet of N shards. Both drive the same shard
    shell over the same global unit list and fold into the same
    aggregates, so the report on stdout is byte-identical (clean network
    or ``kill:`` faults). A ``--state-dir`` journals every shard and
    merges the journals, whatever the worker count: the run resumes, and
    a partial merge exits 4 under ``--exit-code-on-partial``.
    """
    plan = CampaignPlan.from_args(args, args.command)
    if _telemetry_requested(args):
        obs.enable()
    aggregates = StudyAggregates()
    run = _spawn_fleet if plan.workers > 1 else _measure_here
    domains, coverage, inet = run(args, plan, aggregates)
    _print_report(plan.role, aggregates, domains)
    _dump_metrics(args, inet)
    if args.exit_code_on_partial and not coverage.complete:
        print(
            f"[campaign] partial coverage "
            f"{coverage.units_merged}/{coverage.units_total}; "
            "exiting 4 (--exit-code-on-partial)",
            file=sys.stderr,
        )
        return 4


def cmd_trace(args):
    """Trace one probe query end-to-end and print its span tree.

    The qname gets a unique cache-busting label prepended (as the real
    survey does), so a probe-zone name like ``it-150.rfc9276-in-the-wild
    .com`` produces the full NXDOMAIN path: network hops, cache misses,
    NSEC3 closest-encloser hashing, and signature verification.
    """
    obs.enable(tracing_spans=True)
    inet = _build_world(CampaignPlan.from_args(args, "trace")).inet
    resolver = inet.make_resolver(
        VENDOR_POLICIES[args.policy], name="trace-resolver"
    )
    obs.reset()  # drop build-time samples; keep only the traced query
    live = _start_telemetry(args, inet, label="trace")
    client = StubClient(inet.network, inet.allocator.next_v4())
    target = f"{args.label}.{args.qname}" if args.label else args.qname
    with obs.span("probe.query", qname=target, policy=args.policy) as root_span:
        answer = client.ask(resolver.ip, target, RdataType.A)
        root_span.set(rcode=Rcode.to_text(answer.rcode))
    print(f"qname  : {target}")
    print(f"policy : {args.policy} (resolver {resolver.ip})")
    print(
        f"answer : rcode={Rcode.to_text(answer.rcode)} ad={answer.ad} "
        f"ede={sorted(answer.ede_codes)}"
    )
    print()
    print(render_span_tree(obs.tracer.last_root()))
    if args.trace_out:
        from repro.obs.export import write_chrome_trace

        events = obs.journal.tail() if obs.journal is not None else ()
        write_chrome_trace(
            args.trace_out, roots=list(obs.tracer.roots), events=events
        )
        print(f"[obs] chrome trace written to {args.trace_out}", file=sys.stderr)
    _finish_telemetry(live)
    _dump_metrics(args, inet)


def cmd_attack(args):
    """Run the adversarial workloads against guarded and unguarded resolvers.

    For every attack zone, fire ``--queries`` unique (cache-busting)
    probes at a legacy-policy resolver without guards and at one running
    the ``--guard`` profile, and report the worst per-query simulated
    cost each saw. The guarded resolver is expected to SERVFAIL (with an
    Extended DNS Error) once a budget trips, capping its cost at the
    ceiling plus at most one metered operation; the unguarded one burns
    the full amplification — the CI smoke job asserts exactly that split
    from the exported metrics.
    """
    from repro.testbed.adversary import build_attack_zones

    if _telemetry_requested(args):
        obs.enable()
    inet = _build_world(CampaignPlan.from_args(args, "attack")).inet
    live = _start_telemetry(args, inet, label="attack")
    attack = build_attack_zones(inet, seed=args.seed + 50_861)
    profile = GUARD_PROFILES[args.guard]
    resolvers = (
        (
            "unguarded",
            inet.make_resolver(VENDOR_POLICIES["legacy"], name="attack-unguarded"),
        ),
        (
            args.guard,
            inet.make_resolver(
                VENDOR_POLICIES["legacy"], name="attack-guarded", guard=profile
            ),
        ),
    )
    print(f"adversarial workloads ({args.queries} unique queries per zone):")
    print(
        f"  {'zone':18s} {'profile':12s} {'rcodes':18s} "
        f"{'max sha1':>9s} {'max verify':>10s} {'servfail':>8s}"
    )
    for kind in attack.attack_kinds():
        for label, resolver in resolvers:
            max_sha1 = max_verify = servfails = 0
            rcodes = set()
            for index in range(args.queries):
                qname = attack.attack_name(kind, unique=f"q{index}")
                before = meter.snapshot()
                verdict = resolver.resolve_and_validate(qname, RdataType.A)
                delta = meter.snapshot() - before
                max_sha1 = max(max_sha1, delta.sha1_compressions)
                max_verify = max(max_verify, delta.signature_verifications)
                rcodes.add(Rcode.to_text(verdict.rcode))
                if verdict.rcode == Rcode.SERVFAIL:
                    servfails += 1
            print(
                f"  {kind:18s} {label:12s} {'/'.join(sorted(rcodes)):18s} "
                f"{max_sha1:9d} {max_verify:10d} {servfails:7d}/{args.queries}"
            )
            if obs.enabled:
                cost_gauge = obs.registry.gauge(
                    "repro_attack_cost_max",
                    "Worst per-query simulated cost observed per attack "
                    "zone and resolver profile.",
                    labelnames=("profile", "zone", "dimension"),
                )
                for dimension, cost in (
                    ("sha1_compressions", max_sha1), ("verifications", max_verify)
                ):
                    cost_gauge.labels(
                        profile=label, zone=kind, dimension=dimension
                    ).set(cost)
    guarded = resolvers[1][1]
    if guarded.guard_events:
        print(
            "guard events: "
            + ", ".join(f"{k}={v}" for k, v in sorted(guarded.guard_events.items()))
        )
    if obs.enabled:
        budget_gauge = obs.registry.gauge(
            "repro_attack_guard_budget",
            "Configured ceilings of the guard profile under test.",
            labelnames=("profile", "dimension"),
        )
        for dimension, value in (
            ("sha1_compressions", profile.max_hash_cost),
            ("verifications", profile.max_signature_verifications),
            ("upstream_queries", profile.max_upstream_queries),
        ):
            if value is not None:
                budget_gauge.labels(profile=args.guard, dimension=dimension).set(value)
    _sim_summary(args, inet)
    _finish_telemetry(live)
    _dump_metrics(args, inet)


def cmd_serve(args):
    """Put the simulated testbed on real sockets and serve until signal.

    Binds the guarded validating resolver (and, with ``--auth-port``, the
    probe-zone authoritative server) to UDP+TCP on the requested address,
    wire-compatible with ``dig``/``kdig``/zdns. SIGTERM/SIGINT (or
    ``--duration``) trigger a graceful drain — listeners close, every
    queued query is answered, and the final counter snapshot lands on
    stdout as JSON.
    """
    import asyncio

    from repro.service.engine import ServiceEngine
    from repro.service.frontend import Binding, DnsService
    from repro.service.world import build_service_world

    if _telemetry_requested(args):
        obs.enable()
    guard = None if args.guard == "none" else args.guard
    started = time.perf_counter()
    world = build_service_world(
        domains=args.domains,
        tlds=args.tlds,
        seed=args.seed,
        guard=guard,
        policy=args.policy,
        with_attack=not args.no_attack,
    )
    print(
        f"[serve] testbed ready: {args.domains} domains, {args.tlds} TLDs, "
        f"guard={args.guard}, policy={args.policy} "
        f"({time.perf_counter() - started:.1f}s)",
        file=sys.stderr,
    )
    bindings = [
        Binding(name, server, host=args.host, port=port, max_pending=args.max_pending)
        for name, server, port in (
            ("resolver", world.resolver, args.port),
            ("auth", world.auth_server, args.auth_port),
        )
        if port is not None
    ]
    engine = ServiceEngine(
        capacity=args.capacity, pending_timeout_s=args.pending_timeout
    )
    service = DnsService(
        bindings,
        engine=engine,
        tcp_max_connections=args.tcp_max_connections,
        tcp_idle_timeout_s=args.tcp_idle_timeout,
    )

    async def _serve():
        await service.start()
        for binding in service.bindings:
            print(
                f"[serve] {binding.name} listening on "
                f"{args.host}:{binding.bound_port} (udp+tcp)",
                file=sys.stderr,
            )
        print(
            f"[serve] try: dig @{args.host} -p "
            f"{service.bindings[0].bound_port} "
            "www.valid.rfc9276-in-the-wild.com A +dnssec",
            file=sys.stderr,
        )
        if args.duration:
            asyncio.get_running_loop().call_later(args.duration, service.shutdown)
        return await service.serve_until_signal()

    snapshot = asyncio.run(_serve())
    print("[serve] drained; final snapshot on stdout", file=sys.stderr)
    print(json.dumps(snapshot, indent=2, sort_keys=True))
    _dump_metrics(args)


def _print_service_report(args, report, command):
    """Print a loadgen/soak report, and write it to ``--json-out``."""
    print(report.render())
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(report.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"[{command}] report written to {args.json_out}", file=sys.stderr)


def cmd_loadgen(args):
    """Replay benign/attack traffic against a live service instance."""
    from repro.service.loadgen import benign_pool, run_loadgen

    report = run_loadgen(
        host=args.host,
        port=args.port,
        qps=args.qps,
        duration_s=args.duration,
        attack_ratio=args.attack_ratio,
        benign_names=benign_pool(args.domains, args.tlds),
        unique_ratio=args.unique_ratio,
        timeout_s=args.timeout,
        seed=args.seed,
    )
    _print_service_report(args, report, "loadgen")


def cmd_soak(args):
    """Run the chaos soak against a fresh service; exit 1 on violations."""
    from repro.service.soak import SoakConfig, run_soak

    config = SoakConfig(
        domains=args.domains,
        tlds=args.tlds,
        seed=args.seed,
        phase_s=args.phase_seconds,
        benign_qps=args.benign_qps,
        attack_qps=args.attack_qps,
        rss_growth_limit_mb=args.rss_limit_mb,
        benign_p99_limit_ms=args.p99_limit_ms,
    )
    report = run_soak(config)
    _print_service_report(args, report, "soak")
    return 0 if report.passed else 1


def cmd_timeline(args):
    """Print the modelled RFC 9276 adoption timeline."""
    states = compliance_timeline()
    print("modelled RFC 9276 adoption timeline (paper §6 future work):")
    print(f"{'year':>7s} {'0-iter share':>13s} {'NSEC3 share':>12s} "
          f"{'vendor limit':>13s} {'limit adoption':>15s}")
    for state in states:
        limit = state.vendor_limit if state.vendor_limit is not None else "-"
        print(
            f"{state.year:7.1f} {state.zero_iteration_share:12.1%} "
            f"{state.nsec3_share:11.1%} {str(limit):>13s} "
            f"{state.resolver_limit_adoption:14.1%}"
        )
        for event in state.events:
            print(f"        ← {event.actor}: {event.description}")
    anchor = paper_anchor(states)
    print(
        f"\nat the paper's measurement point ({anchor.year}): "
        f"{1 - anchor.zero_iteration_share:.1%} non-compliant "
        f"(paper measured 87.8 %)"
    )


def cmd_guidance(args):
    """Print the twelve guidance items (paper Table 1)."""
    print("RFC 9276 guidance (paper Table 1):")
    for item in GUIDANCE:
        print(f"  Item {item.number:2d} [{item.keyword.value:15s}] "
              f"({item.audience.value}) {item.summary}")


_CAMPAIGN = ("study", "scan", "survey")
_TELEMETRY = _CAMPAIGN + ("trace", "attack", "serve")
_SIZED = _TELEMETRY + ("loadgen", "soak")
_FLEET = "multi-process campaign"

#: Every subcommand option, written once: (flag, commands, help group,
#: argparse keywords). Each command adds its rows in this order, which
#: is its --help order; ``--domains``/``--tlds`` defaults are per command.
OPTIONS = (
    ("--domains", _SIZED, None, dict(type=int)),
    ("--tlds", _SIZED, None, dict(type=int)),
    ("--resolvers", _CAMPAIGN, None, dict(type=int, default=40)),
    ("--seed", _SIZED, None, dict(type=int, default=7)),
    ("--concurrency", _CAMPAIGN, None, dict(
        type=int, default=1,
        help="in-flight query sessions on the simulated clock "
        "(1 = serial, bit-for-bit the legacy behaviour; higher values "
        "overlap sessions like the paper's ~14.7K req/s scanner)")),
    ("--workers", _CAMPAIGN, _FLEET, dict(
        type=int, default=1, metavar="N",
        help="run the campaign across N supervised worker processes with "
        "crash-safe per-shard checkpoints (1 = in-process, the default); "
        "the merged report is byte-identical to the single-process run")),
    ("--state-dir", _CAMPAIGN, _FLEET, dict(
        metavar="DIR",
        help="directory for shard checkpoints/heartbeats and the shared "
        "signed-zone build cache (default: a fresh temp dir; pass the "
        "same DIR again to resume a killed campaign or reuse its cache)")),
    ("--discard-checkpoint", _CAMPAIGN, _FLEET, dict(
        action="store_true",
        help="archive unreadable/foreign checkpoint files (*.invalid) and "
        "start fresh instead of failing with CampaignError")),
    ("--stall-timeout", _CAMPAIGN, _FLEET, dict(
        type=float, default=60.0, metavar="S",
        help="wall-clock seconds without worker progress before the "
        "supervisor kills and restarts it (default: 60)")),
    ("--max-restarts", _CAMPAIGN, _FLEET, dict(
        type=int, default=3, metavar="N",
        help="restart budget per shard before it is quarantined as lame "
        "and the report degrades to partial coverage (default: 3)")),
    ("--exit-code-on-partial", _CAMPAIGN, _FLEET, dict(
        action="store_true",
        help="exit 4 when the merged report has partial coverage (lame or "
        "operator-stopped shards) instead of the default warn-and-exit-0")),
    ("--metrics-out", _TELEMETRY, "telemetry", dict(
        metavar="PATH",
        help="dump the telemetry registry here after the run ('-' = stdout)")),
    ("--metrics-format", _TELEMETRY, "telemetry", dict(
        choices=("json", "prometheus"), default="json",
        help="snapshot format for --metrics-out (default: json)")),
    ("--events-out", _TELEMETRY, "telemetry", dict(
        metavar="PATH",
        help="stream the structured event journal here as JSONL "
        "('-' = stderr); guard trips and stalls dump the flight recorder")),
    ("--series-out", _TELEMETRY, "telemetry", dict(
        metavar="PATH",
        help="write scraped metric time-series here ('.csv' = CSV, else JSON)")),
    ("--progress", _TELEMETRY, "telemetry", dict(
        action="store_true",
        help="print live heartbeat lines to stderr (sim vs wall clock, "
        "done/in-flight/quarantined, ETA) with a stall detector")),
    ("--scrape-interval", _TELEMETRY, "telemetry", dict(
        type=float, default=500.0, metavar="MS",
        help="time-series scrape interval in simulated ms (default: 500)")),
    ("--mem-stats", _TELEMETRY, "telemetry", dict(
        action="store_true",
        help="report peak RSS and tracemalloc peak in the [sim] summary "
        "and export repro_peak_rss_bytes via the metrics registry")),
    ("--faults", _TELEMETRY, "telemetry", dict(
        metavar="SPEC",
        help="inject network faults: a preset ('chaos') or a spec like "
        "'burst:0.05:0.35:0.5,jitter:20,corrupt:0.1' "
        "(see repro.net.faults.parse_fault_spec)")),
    ("qname", ("trace",), None, dict(
        nargs="?", default="it-150.rfc9276-in-the-wild.com",
        help="name to query (default: the 150-iteration probe zone)")),
    ("--policy", ("trace",), None, dict(
        choices=sorted(VENDOR_POLICIES), default="legacy",
        help="validating-resolver policy to trace through (default: legacy)")),
    ("--label", ("trace",), None, dict(
        default="trace1",
        help="unique cache-busting label prepended to qname ('' to disable)")),
    ("--trace-out", ("trace",), None, dict(
        metavar="PATH",
        help="write the span tree (plus journal events) as Chrome-trace/"
        "Perfetto JSON, loadable in ui.perfetto.dev")),
    ("--queries", ("attack",), None, dict(
        type=int, default=6,
        help="unique (cache-busting) probes per attack zone (default: 6)")),
    ("--guard", ("attack",), None, dict(
        choices=sorted(GUARD_PROFILES), default="guarded",
        help="guard profile for the protected resolver (default: guarded)")),
    ("--host", ("serve",), None, dict(default="127.0.0.1", help="bind address")),
    ("--port", ("serve",), None, dict(
        type=int, default=5300,
        help="resolver UDP+TCP port (0 = ephemeral; default: 5300)")),
    ("--auth-port", ("serve",), None, dict(
        type=int, default=None, metavar="PORT",
        help="also bind the probe-zone authoritative server here")),
    ("--guard", ("serve",), None, dict(
        choices=sorted(GUARD_PROFILES) + ["none"], default="guarded",
        help="resolver guard profile ('none' = unguarded; default: guarded)")),
    ("--policy", ("serve",), None, dict(
        choices=sorted(VENDOR_POLICIES), default="legacy",
        help="validating-resolver vendor policy (default: legacy)")),
    ("--no-attack", ("serve",), None, dict(
        action="store_true",
        help="skip building the adversarial NSEC3/KeyTrap lab zones")),
    ("--capacity", ("serve",), None, dict(
        type=int, default=64,
        help="global pending-query admission bound (default: 64)")),
    ("--max-pending", ("serve",), None, dict(
        type=int, default=128, help="per-socket pending-query bound (default: 128)")),
    ("--pending-timeout", ("serve",), None, dict(
        type=float, default=5.0, metavar="S",
        help="queued queries older than this are shed (default: 5)")),
    ("--tcp-max-connections", ("serve",), None, dict(
        type=int, default=64, help="global open TCP connection cap (default: 64)")),
    ("--tcp-idle-timeout", ("serve",), None, dict(
        type=float, default=10.0, metavar="S",
        help="idle/slow-loris TCP reap threshold (default: 10)")),
    ("--duration", ("serve",), None, dict(
        type=float, default=0.0, metavar="S",
        help="drain and exit after S seconds (0 = serve until signal)")),
    ("--host", ("loadgen",), None, dict(default="127.0.0.1", help="target address")),
    ("--port", ("loadgen",), None, dict(
        type=int, default=5300, help="target port (default: 5300)")),
    ("--qps", ("loadgen",), None, dict(
        type=float, default=200.0, help="offered load (default: 200)")),
    ("--duration", ("loadgen",), None, dict(
        type=float, default=5.0, metavar="S",
        help="send window in seconds (default: 5)")),
    ("--attack-ratio", ("loadgen",), None, dict(
        type=float, default=0.0,
        help="fraction of queries drawn from the CVE-2023-50868/KeyTrap "
        "streams (default: 0 = all benign)")),
    ("--unique-ratio", ("loadgen",), None, dict(
        type=float, default=0.3,
        help="fraction of benign queries with cache-busting labels "
        "(default: 0.3)")),
    ("--timeout", ("loadgen",), None, dict(
        type=float, default=3.0, metavar="S",
        help="per-query reply timeout (default: 3)")),
    ("--phase-seconds", ("soak",), None, dict(
        type=float, default=5.0, metavar="S",
        help="wall seconds per soak phase (default: 5)")),
    ("--benign-qps", ("soak",), None, dict(
        type=float, default=120.0, help="benign load (default: 120)")),
    ("--attack-qps", ("soak",), None, dict(
        type=float, default=250.0,
        help="mixed load during the attack phase (default: 250)")),
    ("--rss-limit-mb", ("soak",), None, dict(
        type=float, default=400.0,
        help="RSS growth ceiling over the whole soak (default: 400)")),
    ("--p99-limit-ms", ("soak",), None, dict(
        type=float, default=5000.0,
        help="benign p99 ceiling during the attack phase (default: 5000)")),
    ("--json-out", ("loadgen", "soak"), None, dict(
        metavar="PATH", help="also write the report as JSON")),
)


def main(argv=None):
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Zeros Are Heroes: NSEC3 Parameter "
        "Settings in the Wild' (IMC 2024)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, sizes in (
        ("study", "full study: domains + TLDs + resolvers", cmd_campaign, (400, 120)),
        ("scan", "domain pipeline only (§4.1/§5.1)", cmd_campaign, (400, 120)),
        ("survey", "resolver survey only (§4.2/§5.2)", cmd_campaign, (400, 120)),
        ("trace", "trace one probe query and print its span tree", cmd_trace,
         (60, 40)),
        ("attack", "adversarial NSEC3/DNSSEC workloads vs a resource-guarded "
         "resolver", cmd_attack, (60, 40)),
        ("serve", "serve the testbed on real UDP/TCP sockets (dig-compatible)",
         cmd_serve, (40, 12)),
        ("loadgen", "replay benign/attack traffic against a running 'repro "
         "serve'", cmd_loadgen, (40, 12)),
        ("soak", "chaos soak: benign → attack → fuzz → churn → recovery → "
         "drain", cmd_soak, (40, 12)),
        ("timeline", "modelled adoption timeline", cmd_timeline, None),
        ("guidance", "print the twelve items", cmd_guidance, None),
    ):
        command = sub.add_parser(name, help=help_text)
        groups = {None: command}
        for flag, commands, group, kwargs in OPTIONS:
            if name in commands:
                if group not in groups:
                    groups[group] = command.add_argument_group(group)
                groups[group].add_argument(flag, **kwargs)
        command.set_defaults(handler=handler)
        if sizes:
            command.set_defaults(domains=sizes[0], tlds=sizes[1])

    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
    except KeyboardInterrupt:
        print("repro: interrupted", file=sys.stderr)
        return 130
    except CampaignError as exc:
        # Operator-facing campaign failures (bad checkpoints, foreign
        # state dirs) get one line, not a traceback.
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    return int(code) if code else 0


if __name__ == "__main__":
    sys.exit(main())
