"""Crash-safe multi-process campaign supervision.

The kernel-equivalence guarantee (reports are byte-identical at any
concurrency) is exactly the property that lets a campaign shard across
OS processes: each worker builds the full deterministic world from the
plan and runs :func:`repro.scanner.campaign.run_units` — the same loop,
over the same :meth:`~repro.scanner.pipeline.World.measure`, that a
single-process run makes as shard 0 of 1 — on its own sub-stream of the
global unit list. The union of shard outputs, merged in global unit
order, is therefore byte-identical to the single-process report. What
this module adds is the processes, and surviving the part where they
die.

Pieces:

- :func:`plan_units` — the materialised global unit list. Only the
  supervisor, whose merge reads every record anyway, pays that O(N);
  workers walk their (start=shard, stride=workers) sub-stream of the
  :class:`~repro.scanner.pipeline.UnitUniverse` lazily.
- :func:`run_shard` — the shard shell every runner measures through,
  spawned or not: ``run_units`` over the shard's sub-stream into its
  sink and, with a state dir, the per-shard
  :class:`~repro.scanner.campaign.CampaignCheckpoint` sealed by a
  done-file (stats + metrics snapshot). The CLI's ``--workers 1`` is
  shard 0 of 1 through it in its own process, merged by
  :func:`merge_in_process` like a fleet's shards.
- :func:`worker_main` — the spawn entry point around :func:`run_shard`:
  heartbeat, a scoped build, operator-signal handling. A seeded
  :class:`~repro.net.faults.ProcessKill` directive makes it SIGKILL or
  hang itself mid-campaign — tearing its own journal tail on the way
  out, so restarts exercise the real recovery path.
- :func:`run_supervised` — the fleet loop: monotonic-clock watchdog
  over heartbeat files, woken at once by a worker's exit, bounded
  restart-with-backoff of crashed/hung/killed workers (each restart
  resumes from the shard journal with zero duplicate queries for every
  journaled unit), lame-shard quarantine past the restart budget, and
  the deterministic merge: reports from shard checkpoints in global
  unit order, metrics via ``MetricsRegistry.merge``/``from_json``, plus
  explicit coverage accounting when quarantine degraded the run. A
  shard that fails with a :class:`~repro.scanner.campaign.CampaignError`
  is not restarted; the fleet raises it once the other shards are
  through.

Byte-identity is guaranteed for clean-network runs (``kill:`` faults
included — they never touch a datagram). Network-weather chaos is
supported under ``--workers`` too, but each worker draws its own fault
streams, so those runs converge statistically rather than
byte-for-byte — same as any two chaos seeds.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import wait

from repro import durable, obs
from repro.net.procpool import (
    HeartbeatWriter,
    Watchdog,
    WorkerHandle,
    backoff_delay,
)
from repro.scanner.campaign import CampaignCheckpoint, CampaignError, run_units
from repro.scanner.pipeline import (
    CampaignPlan,
    UnitUniverse,
    World,
    fold_record,
    unit_key,
)
# Re-exported: the benchmark ledger imports it from this module.
from repro.scanner.pipeline import deployment_counts  # noqa: F401
from repro.testbed.internet import BuildScope
from repro.zone import build_cache, signing

#: Record-schema tag of the per-shard unit checkpoints.
WORKER_SCHEMA = "study-units/1"


# -- the unit partition -------------------------------------------------------


def plan_units(plan):
    """The campaign's global unit list, in canonical order.

    Returns ``(units, domain_specs, tld_specs)`` where each unit is a
    ``(kind, name)`` pair — ``("d", domain)``, ``("t", tld label)``,
    ``("r", global resolver index)``: the materialising front-end of
    :class:`UnitUniverse`.
    """
    universe = UnitUniverse(plan)
    return list(universe), list(universe.population), universe.tld_specs


def shard_units(units, shard, workers):
    """Round-robin deal: the units owned by *shard* of *workers*."""
    return [unit for index, unit in enumerate(units) if index % workers == shard]


# -- shard-local file layout -------------------------------------------------


def _checkpoint_path(state_dir, shard):
    return os.path.join(state_dir, f"shard-{shard}.ckpt")


def _heartbeat_path(state_dir, shard):
    return os.path.join(state_dir, f"shard-{shard}.hb")


def _done_path(state_dir, shard):
    return os.path.join(state_dir, f"shard-{shard}.done.json")


def _error_path(state_dir, shard):
    return os.path.join(state_dir, f"shard-{shard}.err")


def _error_tail(state_dir, shard):
    """The last line of a shard's error file, or ''."""
    try:
        with open(_error_path(state_dir, shard), encoding="utf-8") as handle:
            return handle.read().strip().splitlines()[-1]
    except (OSError, IndexError):
        return ""


# -- the worker --------------------------------------------------------------


class OperatorShutdown(Exception):
    """Raised at a unit boundary after a SIGTERM/SIGINT reached the worker.

    By the time this propagates, the checkpoint journal is flushed and a
    final ``phase="terminated"`` heartbeat is on disk — the supervisor
    reads that phase and treats the exit as an operator decision rather
    than a crash to restart.
    """

    def __init__(self, signum):
        super().__init__(f"operator shutdown (signal {signum})")
        self.signum = signum


class _ShutdownFlag:
    """Deferred SIGTERM/SIGINT handling for the worker's unit loop.

    The signal handler only records the signum — no journal writes from
    handler context, where a frame could be half-written. The unit loop
    calls :meth:`check` at unit boundaries: flush the journal, write the
    final heartbeat, and unwind via :class:`OperatorShutdown`, so an
    operator ``kill`` is indistinguishable from a clean finish as far as
    checkpoint integrity goes.
    """

    def __init__(self, checkpoint, heartbeat):
        self.checkpoint = checkpoint
        self.heartbeat = heartbeat
        self.signum = None

    def install(self):
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                signal.signal(signum, self._handle)
            except ValueError:
                return  # not the main thread (in-process tests drive us)

    def _handle(self, signum, frame):
        self.signum = signum

    def check(self):
        if self.signum is None:
            return
        self.checkpoint.flush()
        self.heartbeat.advance(phase="terminated")
        self.heartbeat.stop()
        raise OperatorShutdown(self.signum)


class _KillSwitch:
    """Worker-side seeded fault: SIGKILL/hang after N completed units.

    On a kill it first appends half a frame header to its own journal —
    the torn write a real mid-``write()`` SIGKILL produces — so every
    restart exercises truncate-to-last-good-frame recovery for real.
    """

    def __init__(self, directive, checkpoint):
        self.directive = directive
        self.checkpoint = checkpoint

    def after_unit(self, units_done):
        if self.directive is None:
            return
        if units_done <= self.directive["after_units"]:
            return
        if self.directive["action"] == "hang":
            while True:  # heartbeats continue; progress does not
                time.sleep(3600)
        self.checkpoint.flush()
        durable.append(self.checkpoint.journal_path, b"\x2a\x00\x00")  # torn header
        os.kill(os.getpid(), signal.SIGKILL)


def shard_checkpoint(plan, shard):
    """Shard *shard*'s crash-safe sink: its journaled checkpoint under
    ``plan.state_dir`` (created if missing)."""
    os.makedirs(plan.state_dir, exist_ok=True)
    return CampaignCheckpoint(
        _checkpoint_path(plan.state_dir, shard),
        flush_every=plan.flush_every,
        schema=WORKER_SCHEMA,
        discard=plan.discard_checkpoint,
    )


def run_shard(world, shard, sink, progress, started, heartbeat=None, attempt=0):
    """The shard shell every runner measures through: drive shard
    *shard* of the built *world* into *sink* with ``run_units``; returns
    ``(resumed, executed)``.

    With a state dir the sink is the shard's checkpoint, and the shell
    seals it: flush, compact, then the done-file — stats and metrics
    snapshot — whose existence marks the shard done. *started* is
    ``(perf_counter, process_time)`` from before the build. A spawned
    worker passes its *heartbeat*; a shard measured in the CLI's own
    process has none.
    """
    plan = world.plan
    measure_start = time.perf_counter()
    measure_start_cpu = time.process_time()
    resumed, executed = run_units(
        world, world.universe.iter_shard(shard, plan.workers), sink, progress
    )
    if plan.state_dir is None:
        return resumed, executed
    sink.flush()
    sink.compact()
    if heartbeat is not None:
        heartbeat.advance(phase="finalize")

    kernel = world.inet.network.kernel
    cache = build_cache.active()
    report = {
        "shard": shard,
        "attempt": attempt,
        "units": world.universe.shard_size(shard, plan.workers),
        "resumed": resumed,
        "executed": executed,
        "clock_ms": kernel.now,
        "events": kernel.events_run,
        "queries": world.engine.stats.queries if world.engine is not None else 0,
        "build_seconds": round(measure_start - started[0], 3),
        "measure_seconds": round(time.perf_counter() - measure_start, 3),
        # CPU time is immune to sibling-worker contention: the fleet's
        # wall-clock floor with one core per worker.
        "build_cpu_seconds": round(measure_start_cpu - started[1], 3),
        "measure_cpu_seconds": round(time.process_time() - measure_start_cpu, 3),
        "built": heartbeat.built if heartbeat is not None else None,
        "build_cache": dict(cache.events) if cache is not None else None,
        "metrics": obs.registry.to_json() if obs.enabled else None,
    }
    # The done-file's existence is what marks the shard done: it must
    # never be seen half-written, nor vanish after a power cut.
    durable.replace(
        _done_path(plan.state_dir, shard), json.dumps(report).encode("utf-8")
    )
    return resumed, executed


def worker_main(spec):
    """Spawn entry point for one shard attempt. Never returns: a sealed
    shard exits 0, a :class:`CampaignError` leaves its one line in the
    shard's ``.err`` file and exits 2, any other failure its traceback
    and exits 3."""
    try:
        _worker_run(spec)
    except OperatorShutdown as stop:
        # Clean operator-initiated exit: journal flushed and final
        # heartbeat written before the raise; no .err file, and the
        # conventional 128+signum exit code.
        os._exit(128 + stop.signum)
    except BaseException as exc:
        campaign = isinstance(exc, CampaignError)
        error_path = _error_path(spec["plan"]["state_dir"], spec["shard"])
        try:
            with open(error_path, "w", encoding="utf-8") as handle:
                handle.write(f"{exc}\n" if campaign else traceback.format_exc())
        except OSError:
            pass
        os._exit(2 if campaign else 3)
    # Sealed: the done-file is fsynced, the journal compacted and the
    # heartbeat thread joined. Tearing down the built world's heap would
    # only delay the exit the supervisor is waiting on.
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(0)


def _worker_run(spec):
    """One spawned shard attempt: heartbeat, kill switch and operator
    signals around a scoped build and :func:`run_shard`."""
    started = time.perf_counter(), time.process_time()
    plan = CampaignPlan(**spec["plan"])
    shard = spec["shard"]
    if plan.collect_metrics:
        obs.enable()

    heartbeat = HeartbeatWriter(_heartbeat_path(plan.state_dir, shard), spec["attempt"])
    heartbeat.start(phase="build")
    try:
        # Every completed sign_zone — eager infra, probe zones, lazy SLD
        # materialisations, warm-pass entries — ticks build progress so
        # the watchdog can tell a slow cold build from a hung one.
        signing.zone_signed_listener = lambda zone: heartbeat.tick_built()
        checkpoint = shard_checkpoint(plan, shard)
        killer = _KillSwitch(spec["directive"], checkpoint)
        shutdown = _ShutdownFlag(checkpoint, heartbeat)
        shutdown.install()

        def progress(phase, units_done, executed):
            # The seeded kill fires after executed units only; the
            # operator signal is checked last, so a stop lands on a
            # journaled unit.
            heartbeat.advance(units_done=units_done, phase=phase)
            if executed:
                killer.after_unit(units_done)
            shutdown.check()

        # Scoped construction: zone signing goes through the build cache
        # under the state dir, which every worker and restart shares, and
        # this shard's own SLD artifacts are pre-warmed into it during
        # the build phase.
        world = World.build(
            plan,
            scope=BuildScope(shard, plan.workers),
            progress=heartbeat.tick_built,
        )
        run_shard(
            world, shard, checkpoint, progress, started, heartbeat, spec["attempt"]
        )
        heartbeat.advance(phase="done")
    finally:
        # Join the beating thread before a failed attempt exits: a beat
        # cut off mid-write would leave its tmp file in the state dir.
        heartbeat.stop()
        signing.zone_signed_listener = None


# -- the supervisor ----------------------------------------------------------


@dataclass
class Coverage:
    """What fraction of the campaign the merged report actually covers."""

    units_total: int
    units_merged: int = 0
    #: Unit keys no surviving shard delivered (quarantined shards).
    missing: list = field(default_factory=list)
    #: Shards that exceeded their restart budget.
    lame_shards: list = field(default_factory=list)
    #: Shards stopped cleanly by an operator signal (journal flushed).
    stopped_shards: list = field(default_factory=list)

    @property
    def complete(self):
        return not self.missing and not self.lame_shards


@dataclass
class SupervisedOutcome:
    """Deterministically merged shard outputs plus fleet accounting."""

    domain_results: list
    total_domains: int
    tld_results: list
    entries: list
    coverage: Coverage
    restarts: int = 0
    heartbeat_timeouts: int = 0
    shard_reports: list = field(default_factory=list)

    # The fold target of the merge: results are kept, in unit order
    # (which lists open resolvers before closed ones).
    def update_domain(self, result):
        self.domain_results.append(result)

    def update_tld(self, result):
        self.tld_results.append(result)

    def update_survey(self, entry):
        self.entries.append(entry)


class _ShardState:
    def __init__(self, shard, units_assigned):
        self.shard = shard
        self.units_assigned = units_assigned
        self.attempt = 0
        self.status = "pending"  # pending | running | done | lame | stopped | failed
        self.error = ""
        self.handle = None
        self.next_start_t = 0.0
        self.watchdog = None


def _log(message):
    print(f"[supervisor] {message}", file=sys.stderr)


def _supervisor_counter(name, help_text, **labels):
    if not obs.enabled:
        return
    labelnames = tuple(sorted(labels))
    family = obs.registry.counter(name, help_text, labelnames=labelnames)
    (family.labels(**labels) if labelnames else family).inc()


def run_supervised(plan, target=None):
    """Run the campaign across a supervised worker fleet; returns a
    :class:`SupervisedOutcome` with deterministically merged results
    (folded into *target* instead of its lists when one is given)."""
    if plan.workers < 2:
        raise ValueError("run_supervised needs workers >= 2")
    os.makedirs(plan.state_dir, exist_ok=True)
    units, domain_specs, tld_specs = plan_units(plan)
    if plan.collect_metrics:
        obs.enable()

    kill_model = None
    if plan.kill is not None:
        from repro.net.faults import ProcessKill

        rate, max_kills, hang_rate, kill_seed = plan.kill
        kill_model = ProcessKill(
            rate=rate, max_kills=max_kills, hang_rate=hang_rate, seed=kill_seed
        )

    shards = [
        _ShardState(shard, len(shard_units(units, shard, plan.workers)))
        for shard in range(plan.workers)
    ]
    for state in shards:
        # Stale done/error files from an earlier run must not mask a
        # shard that still has work (its checkpoint holds the progress),
        # and a stale "terminated" heartbeat must not make a worker that
        # dies before its first beat look stopped by an operator.
        for path in (
            _done_path(plan.state_dir, state.shard),
            _error_path(plan.state_dir, state.shard),
            _heartbeat_path(plan.state_dir, state.shard),
        ):
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass

    restarts = heartbeat_timeouts = 0
    plan_dict = plan.to_dict()

    def launch(state):
        directive = None
        if kill_model is not None:
            action, after_units = kill_model.decide(
                state.shard, state.attempt, state.units_assigned
            )
            if action is not None:
                directive = {"action": action, "after_units": after_units}
        spec = {
            "plan": plan_dict,
            "shard": state.shard,
            "attempt": state.attempt,
            "directive": directive,
        }
        state.handle = WorkerHandle(
            worker_main, spec, _heartbeat_path(plan.state_dir, state.shard)
        )
        state.watchdog = Watchdog(plan.stall_timeout_s)
        state.status = "running"
        state.handle.start()
        _log(
            f"shard {state.shard} attempt {state.attempt} started "
            f"(pid {state.handle.pid}, {state.units_assigned} units"
            + (f", directive={directive['action']}" if directive else "")
            + ")"
        )

    def quarantine_or_restart(state, reason):
        nonlocal restarts
        if state.attempt + 1 > plan.max_restarts:
            state.status = "lame"
            _supervisor_counter(
                "repro_supervisor_lame_shards_total",
                "Shards quarantined after exhausting their restart budget.",
            )
            error_tail = _error_tail(plan.state_dir, state.shard)
            _log(
                f"shard {state.shard} quarantined after "
                f"{state.attempt + 1} attempts ({reason})"
                + (f": {error_tail}" if error_tail else "")
            )
            return
        state.attempt += 1
        restarts += 1
        _supervisor_counter(
            "repro_supervisor_restarts_total",
            "Worker restarts performed by the campaign supervisor.",
            shard=str(state.shard),
        )
        delay = backoff_delay(state.attempt, plan.restart_backoff_s)
        state.next_start_t = time.monotonic() + delay
        state.status = "pending"
        _log(
            f"shard {state.shard} died ({reason}); restart "
            f"attempt {state.attempt} in {delay:.2f}s "
            "(resuming from its journal)"
        )

    for state in shards:
        launch(state)
    if obs.enabled:
        obs.registry.gauge(
            "repro_supervisor_workers",
            "Worker shard count of the supervised campaign.",
        ).set(plan.workers)

    last_progress_line = (0, 0.0)
    while True:
        running = [s for s in shards if s.status == "running"]
        pending = [s for s in shards if s.status == "pending"]
        if not running and not pending:
            break
        now = time.monotonic()
        for state in pending:
            if now >= state.next_start_t:
                launch(state)
        units_live = 0
        for state in running:
            handle = state.handle
            if not handle.is_alive():
                handle.join()
                exitcode = handle.exitcode
                if os.path.exists(_done_path(plan.state_dir, state.shard)):
                    state.status = "done"
                    _log(
                        f"shard {state.shard} done "
                        f"(attempt {state.attempt}, exit {exitcode})"
                    )
                elif exitcode == 2:
                    # A CampaignError: a restart cannot empty a disk or
                    # make a foreign checkpoint valid.
                    state.status = "failed"
                    state.error = _error_tail(plan.state_dir, state.shard)
                    _log(f"shard {state.shard} failed, not restarting: {state.error}")
                else:
                    beat = handle.heartbeat()
                    if (
                        beat is not None
                        and beat.attempt == state.attempt
                        and beat.phase == "terminated"
                    ):
                        # Operator SIGTERM/SIGINT: the worker flushed its
                        # journal and said goodbye — an intentional stop,
                        # not a crash to restart.
                        state.status = "stopped"
                        _log(
                            f"shard {state.shard} stopped by operator "
                            f"signal (exit {exitcode}); journal flushed, "
                            "not restarting"
                        )
                    else:
                        quarantine_or_restart(state, f"exit {exitcode}")
                continue
            beat = handle.heartbeat()
            state.watchdog.observe(beat)
            if beat is not None and beat.attempt == state.attempt:
                units_live += beat.units_done
            if state.watchdog.stalled():
                heartbeat_timeouts += 1
                _supervisor_counter(
                    "repro_supervisor_heartbeat_timeouts_total",
                    "Workers killed by the supervisor's stall watchdog.",
                )
                handle.kill()
                handle.join()
                quarantine_or_restart(state, "heartbeat stalled")
        done_units = sum(
            s.units_assigned for s in shards if s.status == "done"
        )
        progress = done_units + units_live
        if (
            progress != last_progress_line[0]
            and now - last_progress_line[1] >= 1.0
        ):
            finished = sum(1 for s in shards if s.status == "done")
            _log(
                f"{finished}/{plan.workers} shards done, "
                f"units {min(progress, len(units))}/{len(units)}"
            )
            last_progress_line = (progress, now)
        # Wake on the first worker exit instead of sleeping through it.
        wait(
            [s.handle.sentinel for s in shards if s.status == "running"],
            timeout=plan.poll_interval_s,
        )

    failed = [s for s in shards if s.status == "failed"]
    if failed:
        shard_list = [s.shard for s in failed]
        _log(f"fleet failed: restarts={restarts}, failed shards {shard_list}")
        raise CampaignError(failed[0].error or f"shard {failed[0].shard} failed")
    outcome = merge_shards(plan, units, domain_specs, shards, target)
    outcome.restarts = restarts
    outcome.heartbeat_timeouts = heartbeat_timeouts
    if not outcome.coverage.complete:
        coverage = outcome.coverage
        _log(
            f"WARNING: partial coverage {coverage.units_merged}/"
            f"{coverage.units_total} units; lame shards "
            f"{coverage.lame_shards}; first missing "
            f"{coverage.missing[:5]}"
        )
    _log(
        f"fleet finished: workers={plan.workers} restarts={restarts} "
        f"heartbeat_timeouts={heartbeat_timeouts} "
        f"coverage={outcome.coverage.units_merged}/"
        f"{outcome.coverage.units_total}"
    )
    return outcome


def merge_shards(plan, units, domain_specs, shards, target=None):
    """Deterministic merge of shard checkpoints, in global unit order,
    into *target* (by default the outcome's result lists).

    Reports only need the per-unit records; shards that died keep
    whatever their journal salvaged, so quarantined shards degrade the
    merge to a partial report with explicit coverage accounting instead
    of sinking the campaign.
    """
    records = {}
    for state in shards:
        try:
            checkpoint = CampaignCheckpoint(
                _checkpoint_path(plan.state_dir, state.shard),
                schema=WORKER_SCHEMA,
            )
        except CampaignError:
            continue  # nothing salvageable from this shard
        for key in checkpoint.keys():
            records[key] = checkpoint.get(key)

    coverage = Coverage(
        units_total=len(units),
        lame_shards=[s.shard for s in shards if s.status == "lame"],
        stopped_shards=[s.shard for s in shards if s.status == "stopped"],
    )
    outcome = SupervisedOutcome(
        domain_results=[],
        total_domains=len(domain_specs),
        tld_results=[],
        entries=[],
        coverage=coverage,
    )
    for unit in units:
        key = unit_key(unit)
        record = records.get(key)
        if record is None:
            coverage.missing.append(key)
            continue
        coverage.units_merged += 1
        fold_record(outcome if target is None else target, unit, record)

    for state in shards:
        try:
            with open(
                _done_path(plan.state_dir, state.shard), encoding="utf-8"
            ) as handle:
                outcome.shard_reports.append(json.load(handle))
        except (OSError, ValueError):
            continue
    # Shard 0 of 1 ran in this process: its registry is the live one.
    if plan.collect_metrics and plan.workers > 1:
        _merge_metrics(outcome.shard_reports)
    return outcome


def merge_in_process(world, target):
    """Merge shard 0 of 1, measured and sealed in this process, the way
    a fleet's shards are merged; returns its :class:`Coverage`."""
    universe = world.universe
    state = _ShardState(0, len(universe))
    state.status = "done"
    outcome = merge_shards(
        world.plan, list(universe), universe.population, [state], target
    )
    return outcome.coverage


def _merge_metrics(shard_reports):
    """Fold worker metric snapshots into the live registry.

    Uses the PR 6 aggregation contract: counters add, gauges take the
    max, histograms add per-bucket. Metrics from *killed* attempts died
    with their process — the merged snapshot is best-effort telemetry;
    the report itself is exact.
    """
    from repro.obs.metrics import MetricsRegistry

    for report in shard_reports:
        snapshot = report.get("metrics")
        if not snapshot:
            continue
        obs.registry.merge(MetricsRegistry.from_json(snapshot))
