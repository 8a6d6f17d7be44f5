"""Tests for crash-safe multi-process campaign supervision.

Covers the deterministic unit partition, the ``kill`` fault-spec split,
the procpool heartbeat/watchdog machinery, the shard record codecs, the
partial-coverage merge for quarantined shards, and — under the ``slow``
marker — the headline acceptance property: a supervised fleet with
injected SIGKILLs/hangs produces a report byte-identical to the clean
single-process run, resuming every restart from the shard journal.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.core.zone_compliance import Nsec3Observation
from repro.net.faults import ProcessKill
from repro.net.procpool import (
    HEARTBEAT_INTERVAL_S,
    Heartbeat,
    HeartbeatWriter,
    Watchdog,
    WorkerHandle,
    backoff_delay,
    read_heartbeat,
    write_heartbeat,
)
from repro.scanner.campaign import CampaignCheckpoint, CampaignError
from repro.scanner.pipeline import (
    CampaignPlan,
    deployment_counts,
    observation_from_record,
    observation_to_record,
    split_fault_spec,
    unit_key,
)
from repro.scanner.supervisor import (
    WORKER_SCHEMA,
    Coverage,
    _ShardState,
    _checkpoint_path,
    _done_path,
    _heartbeat_path,
    merge_shards,
    plan_units,
    run_supervised,
    shard_units,
    worker_main,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def _plan(role="study", domains=8, tlds=8, resolvers=3, workers=2, **kw):
    return CampaignPlan(
        role=role,
        domains=domains,
        tlds=tlds,
        resolvers=resolvers,
        seed=5,
        workers=workers,
        state_dir=kw.pop("state_dir", "/nonexistent"),
        **kw,
    )


class TestPlanUnits:
    def test_round_robin_partition_is_exact(self):
        plan = _plan()
        units, __, __ = plan_units(plan)
        shards = [shard_units(units, s, plan.workers) for s in range(plan.workers)]
        # Disjoint, exhaustive, and order-preserving within each shard.
        flat = [unit for shard in shards for unit in shard]
        assert sorted(map(unit_key, flat)) == sorted(map(unit_key, units))
        assert len(set(map(unit_key, flat))) == len(units)
        for shard in shards:
            indices = [units.index(unit) for unit in shard]
            assert indices == sorted(indices)

    def test_unit_kinds_by_role(self):
        study_units, domains, tlds = plan_units(_plan("study"))
        kinds = {kind for kind, __ in study_units}
        assert kinds == {"d", "t", "r"}
        assert sum(1 for k, __ in study_units if k == "d") == len(domains)
        assert sum(1 for k, __ in study_units if k == "t") == len(tlds)
        scan_units, __, __ = plan_units(_plan("scan"))
        assert {kind for kind, __ in scan_units} == {"d"}
        survey_units, __, __ = plan_units(_plan("survey"))
        assert {kind for kind, __ in survey_units} == {"r"}
        expected = sum(deployment_counts(3).values())
        assert len(survey_units) == expected

    def test_same_plan_same_units(self):
        # Supervisor and workers derive the list independently; any drift
        # would silently corrupt the merge.
        first, __, __ = plan_units(_plan())
        second, __, __ = plan_units(_plan())
        assert first == second

    def test_unit_key(self):
        assert unit_key(("d", "example.com")) == "d/example.com"
        assert unit_key(("r", "12")) == "r/12"


class TestSplitFaultSpec:
    def test_kill_only_leaves_no_network_spec(self):
        network, kills = split_fault_spec("kill:1.0:2:0.5", seed=9)
        assert network is None
        assert len(kills) == 1
        assert kills[0].rate == 1.0 and kills[0].max_kills == 2
        assert kills[0].hang_rate == 0.5

    def test_mixed_spec_strips_kill_tokens(self):
        network, kills = split_fault_spec(
            "burst:0.1,kill:1.0:1,jitter:5", seed=9
        )
        assert network == "burst:0.1,jitter:5"
        assert len(kills) == 1

    def test_network_only_passes_through(self):
        network, kills = split_fault_spec("burst:0.1", seed=9)
        assert network == "burst:0.1" and kills == []

    def test_empty(self):
        assert split_fault_spec(None) == (None, [])
        assert split_fault_spec("") == (None, [])


class TestCampaignPlanFromArgs:
    def _args(self, **kw):
        defaults = dict(
            domains=100,
            tlds=10,
            resolvers=5,
            seed=7,
            workers=2,
            state_dir="/tmp/x",
            concurrency=1,
            faults=None,
            metrics_out=None,
            discard_checkpoint=False,
            stall_timeout=60.0,
            max_restarts=3,
        )
        defaults.update(kw)
        return SimpleNamespace(**defaults)

    def test_survey_clamps_domains(self):
        plan = CampaignPlan.from_args(self._args(), "survey")
        assert plan.domains == 20
        assert CampaignPlan.from_args(self._args(), "study").domains == 100

    def test_kill_tuple_extracted(self):
        plan = CampaignPlan.from_args(
            self._args(faults="kill:0.9:2:0.25"), "study"
        )
        assert plan.faults is None
        rate, max_kills, hang_rate, kill_seed = plan.kill
        assert (rate, max_kills, hang_rate) == (0.9, 2, 0.25)
        # The derived per-model seed just has to be stable across calls.
        assert CampaignPlan.from_args(
            self._args(faults="kill:0.9:2:0.25"), "study"
        ).kill[3] == kill_seed

    def test_roundtrips_through_dict(self):
        plan = CampaignPlan.from_args(self._args(), "study")
        assert CampaignPlan(**plan.to_dict()) == plan


class TestProcessKillDeterminism:
    def test_sentence_is_deterministic(self):
        model = ProcessKill(rate=1.0, max_kills=2, hang_rate=0.5, seed=3)
        for shard in range(4):
            for attempt in range(2):
                assert model.decide(shard, attempt, 20) == model.decide(
                    shard, attempt, 20
                )

    def test_max_kills_bounds_attempts(self):
        model = ProcessKill(rate=1.0, max_kills=1, seed=3)
        action, __ = model.decide(0, 0, 20)
        assert action in ("kill", "hang")
        assert model.decide(0, 1, 20) == (None, None)

    def test_after_units_within_shard(self):
        model = ProcessKill(rate=1.0, max_kills=1, seed=3)
        for shard in range(8):
            __, after = model.decide(shard, 0, 10)
            assert 0 <= after < 10


class TestProcpool:
    def test_backoff_delay_doubles_and_caps(self):
        assert backoff_delay(0, 0.25) == 0.0
        assert backoff_delay(1, 0.25) == 0.25
        assert backoff_delay(2, 0.25) == 0.5
        assert backoff_delay(3, 0.25) == 1.0
        assert backoff_delay(50, 0.25) == 30.0

    def test_heartbeat_roundtrip(self, tmp_path):
        path = tmp_path / "w.hb"
        beat = Heartbeat(
            t=12.5, pid=42, attempt=1, phase="scan", units_done=7, built=31
        )
        write_heartbeat(path, beat)
        assert read_heartbeat(path) == beat
        assert not list(tmp_path.glob("*.tmp"))

    def test_read_heartbeat_defaults_missing_built(self, tmp_path):
        # Beats written by an older worker carry no built counter.
        path = tmp_path / "old.hb"
        path.write_text(
            '{"t": 1.0, "pid": 9, "attempt": 0, "phase": "build", '
            '"units_done": 0}'
        )
        beat = read_heartbeat(path)
        assert beat is not None and beat.built == 0

    def test_read_heartbeat_tolerates_garbage(self, tmp_path):
        assert read_heartbeat(tmp_path / "missing.hb") is None
        bad = tmp_path / "bad.hb"
        bad.write_text("not json")
        assert read_heartbeat(bad) is None

    def test_heartbeat_writer_beats_and_advances(self, tmp_path):
        path = tmp_path / "w.hb"
        writer = HeartbeatWriter(path, attempt=2, interval_s=0.05)
        writer.start(phase="build")
        try:
            assert read_heartbeat(path).phase == "build"
            writer.advance(units_done=3, phase="scan")
            beat = read_heartbeat(path)
            assert beat.units_done == 3 and beat.phase == "scan"
            assert beat.attempt == 2 and beat.pid == os.getpid()
            first_t = beat.t
            deadline = time.time() + 2.0
            while time.time() < deadline:
                if read_heartbeat(path).t != first_t:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("heartbeat thread never beat on its own")
        finally:
            writer.stop()

    def test_units_publish_with_the_next_beat(self, tmp_path, monkeypatch):
        # A unit only bumps the counter; the beating thread writes it
        # within one interval. A phase change is written at once.
        from repro import durable

        path = tmp_path / "w.hb"
        writes = []
        replace = durable.replace

        def counting(target, data, **kwargs):
            writes.append(json.loads(data))
            return replace(target, data, **kwargs)

        monkeypatch.setattr(durable, "replace", counting)
        writer = HeartbeatWriter(path, attempt=0, interval_s=0.05)
        writer.start(phase="scan")
        try:
            before = len(writes)
            for units in range(1, 201):
                writer.advance(units_done=units, phase="scan")
            assert len(writes) - before < 100  # not one write per unit
            deadline = time.monotonic() + 2.0
            while read_heartbeat(path).units_done != 200:
                assert time.monotonic() < deadline, "units never published"
                time.sleep(0.01)
            writer.advance(phase="finalize")
            assert writes[-1]["phase"] == "finalize"
            assert writes[-1]["units_done"] == 200
        finally:
            writer.stop()

    def test_watchdog_ignores_wall_clock_steps(self, monkeypatch):
        # The default clock is monotonic: a wall clock stepped an hour
        # forward must not condemn a healthy worker, nor one stepped an
        # hour back make a hung one look fresh.
        beat = Heartbeat(t=0.0, pid=1, attempt=0, phase="scan", units_done=1)
        real = time.time
        healthy = Watchdog(stall_timeout_s=5.0)
        healthy.observe(beat)
        monkeypatch.setattr(time, "time", lambda: real() + 3600.0)
        assert not healthy.stalled()

        hung = Watchdog(stall_timeout_s=0.2)
        hung.observe(beat)
        monkeypatch.setattr(time, "time", lambda: real() - 3600.0)
        time.sleep(0.3)
        hung.observe(beat)
        assert hung.stalled()

    def test_watchdog_progress_resets_deadline(self):
        clock = [0.0]
        watchdog = Watchdog(stall_timeout_s=10.0, clock=lambda: clock[0])
        beat = Heartbeat(t=0.0, pid=1, attempt=0, phase="scan", units_done=0)
        watchdog.observe(beat)
        clock[0] = 9.0
        assert not watchdog.stalled()
        watchdog.observe(
            Heartbeat(t=9.0, pid=1, attempt=0, phase="scan", units_done=1)
        )
        clock[0] = 15.0
        assert not watchdog.stalled()  # progress at t=9 restarted the clock
        clock[0] = 19.5
        assert watchdog.stalled()

    def test_watchdog_frozen_units_stall(self):
        # The hang fault: heartbeats keep arriving but units never move.
        clock = [0.0]
        watchdog = Watchdog(stall_timeout_s=5.0, clock=lambda: clock[0])
        for step in range(1, 30):
            clock[0] = step * 0.5
            watchdog.observe(
                Heartbeat(
                    t=clock[0], pid=1, attempt=0, phase="scan", units_done=4
                )
            )
            if watchdog.stalled():
                break
        else:
            pytest.fail("a hung worker was never declared stalled")
        assert clock[0] > 5.0

    def test_watchdog_build_phase_exempt_while_built_advances(self):
        # A worker signing zones completes no units, but it reports every
        # signed zone through the ``built`` counter; the deadline extends
        # only while that count moves.
        clock = [0.0]
        watchdog = Watchdog(stall_timeout_s=5.0, clock=lambda: clock[0])
        for step in range(1, 40):
            clock[0] = step * 0.5
            watchdog.observe(
                Heartbeat(
                    t=clock[0],
                    pid=1,
                    attempt=0,
                    phase="build",
                    units_done=0,
                    built=step,
                )
            )
        assert not watchdog.stalled()

    def test_watchdog_frozen_built_stalls_build_phase(self):
        # The beating thread stays alive (t advances) but the main thread
        # hangs mid-zone (built freezes): condemned after the timeout —
        # a live heartbeat clock alone no longer buys an exemption.
        clock = [0.0]
        watchdog = Watchdog(stall_timeout_s=5.0, clock=lambda: clock[0])
        for step in range(1, 30):
            clock[0] = step * 0.5
            watchdog.observe(
                Heartbeat(
                    t=clock[0],
                    pid=1,
                    attempt=0,
                    phase="build",
                    units_done=0,
                    built=3,
                )
            )
            if watchdog.stalled():
                break
        else:
            pytest.fail("a build hung mid-zone was never declared stalled")
        assert clock[0] > 5.0


class TestObservationRecords:
    def test_roundtrip(self):
        observation = Nsec3Observation(
            domain="example.com",
            dnssec_enabled=True,
            nsec3param_records=((1, 0, b""),),
            nsec3_records=((1, 0, b"\xca\xfe"), (1, 5, b"")),
            opt_out_seen=True,
            delegation_count=42,
            zone_published_openly=False,
        )
        rebuilt = observation_from_record(observation_to_record(observation))
        assert rebuilt.domain == observation.domain
        assert rebuilt.nsec3param_records == observation.nsec3param_records
        assert rebuilt.nsec3_records == observation.nsec3_records
        assert rebuilt.opt_out_seen and rebuilt.delegation_count == 42
        assert not rebuilt.zone_published_openly

    def test_foreign_record_raises_campaign_error(self):
        with pytest.raises(CampaignError, match="discard-checkpoint"):
            observation_from_record({"not": "an observation"})


class TestMergePartialCoverage:
    def test_lame_shard_degrades_to_partial_report(self, tmp_path):
        # Scan role: units are domains only, records need no testbed.
        plan = _plan(
            "scan", domains=8, tlds=6, resolvers=0, state_dir=str(tmp_path)
        )
        units, domain_specs, __ = plan_units(plan)
        shard0 = _ShardState(0, len(shard_units(units, 0, 2)))
        shard0.status = "done"
        shard1 = _ShardState(1, len(shard_units(units, 1, 2)))
        shard1.status = "lame"

        # Shard 0 delivered everything; shard 1's journal salvaged only
        # its first unit before it went lame.
        checkpoint0 = CampaignCheckpoint(
            _checkpoint_path(str(tmp_path), 0), schema=WORKER_SCHEMA
        )
        for unit in shard_units(units, 0, 2):
            checkpoint0.record(unit_key(unit), {"enabled": False})
        checkpoint0.flush()
        salvaged = shard_units(units, 1, 2)[0]
        checkpoint1 = CampaignCheckpoint(
            _checkpoint_path(str(tmp_path), 1), schema=WORKER_SCHEMA
        )
        checkpoint1.record(unit_key(salvaged), {"enabled": False})
        checkpoint1.flush()

        outcome = merge_shards(plan, units, domain_specs, [shard0, shard1])
        coverage = outcome.coverage
        assert not coverage.complete
        assert coverage.lame_shards == [1]
        assert coverage.units_merged == len(shard_units(units, 0, 2)) + 1
        lost = [unit_key(u) for u in shard_units(units, 1, 2)[1:]]
        assert coverage.missing == lost
        assert outcome.total_domains == len(domain_specs)

    def test_unreadable_shard_checkpoint_is_skipped(self, tmp_path):
        plan = _plan(
            "scan", domains=4, tlds=4, resolvers=0, state_dir=str(tmp_path)
        )
        units, domain_specs, __ = plan_units(plan)
        Path(_checkpoint_path(str(tmp_path), 0)).write_text("corrupt")
        shard0 = _ShardState(0, len(shard_units(units, 0, 2)))
        shard0.status = "lame"
        shard1 = _ShardState(1, len(shard_units(units, 1, 2)))
        shard1.status = "lame"
        outcome = merge_shards(plan, units, domain_specs, [shard0, shard1])
        assert outcome.coverage.units_merged == 0
        assert len(outcome.coverage.missing) == len(units)

    def test_coverage_complete_property(self):
        assert Coverage(units_total=4, units_merged=4).complete
        assert not Coverage(units_total=4, missing=["d/x"]).complete
        assert not Coverage(units_total=4, lame_shards=[1]).complete


def _run_cli(argv, pythonpath=(), **kw):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([*map(str, pythonpath), str(REPO_ROOT / "src")])
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
        timeout=300,
        **kw,
    )


def _dies_before_first_beat(spec):
    """A spawn target standing in for a worker that crashes at once."""
    os._exit(9)


SMALL_STUDY = ["study", "--domains", "8", "--tlds", "8",
               "--resolvers", "3", "--seed", "5"]

#: Logs, beside each heartbeat file, every beat written and every unit
#: count reported, as ``[kind, monotonic time, phase, units_done]``.
HEARTBEAT_LOG = '''
import json
import time

from repro.net import procpool

def _log(path, *entry):
    with open(str(path) + ".log", "a", encoding="utf-8") as log:
        log.write(json.dumps([entry[0], time.monotonic(), *entry[1:]]) + "\\n")

write_heartbeat = procpool.write_heartbeat

def logged_write(path, beat):
    write_heartbeat(path, beat)
    _log(path, "write", beat.phase, beat.units_done)

advance = procpool.HeartbeatWriter.advance

def logged_advance(self, units_done=None, phase=None):
    advance(self, units_done, phase)
    if units_done is not None:
        _log(self.path, "unit", self.phase, units_done)

procpool.write_heartbeat = logged_write
procpool.HeartbeatWriter.advance = logged_advance
'''

#: Steps the wall clock an hour forward every second of real time.
CLOCK_STEPS = '''
import time

_real = time.time
_start = _real()

def stepped():
    now = _real()
    return now + 3600.0 * int(now - _start)

time.time = stepped
'''


def _site(tmp_path, source):
    site = tmp_path / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(source)
    return site


def _campaign_counters(metrics_path):
    """The ``repro_campaign_*_total`` samples of a ``--metrics-out`` file."""
    metrics = json.loads(Path(metrics_path).read_text())
    return {
        (family, sample["labels"]["campaign"]): sample["value"]
        for family in (
            "repro_campaign_completed_total",
            "repro_campaign_quarantined_total",
            "repro_campaign_requeued_total",
        )
        for sample in metrics.get(family, {}).get("samples", ())
    }


@pytest.fixture(scope="module")
def single_process_run(tmp_path_factory):
    """The clean single-process baseline: (stdout, campaign counters)."""
    metrics_path = tmp_path_factory.mktemp("single") / "metrics.json"
    proc = _run_cli(SMALL_STUDY + ["--metrics-out", str(metrics_path)])
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, _campaign_counters(metrics_path)


@pytest.fixture(scope="module")
def single_process_study(single_process_run):
    """The report every supervised run must match byte for byte."""
    return single_process_run[0]


def _forget_shards(state_dir):
    """What a finished fleet leaves besides its build cache: remove it,
    as the ledger's ``fleet-warm`` does between passes."""
    for path in Path(state_dir).glob("shard-*"):
        path.unlink()


def _build_cache_events(state_dir, workers=2):
    """The shards' done-file ``build_cache`` counts, summed; every shard
    must also have ticked build progress."""
    total = {}
    for shard in range(workers):
        report = json.loads(
            (Path(state_dir) / f"shard-{shard}.done.json").read_text()
        )
        assert report["built"] > 0, report
        for event, count in (report["build_cache"] or {}).items():
            total[event] = total.get(event, 0) + count
    return total


def _assert_warm_rerun(argv, state_dir, single_process_study):
    """Rerun *argv* over the finished fleet's build cache: the same
    report, from loads alone."""
    _forget_shards(state_dir)
    proc = _run_cli(argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == single_process_study
    warm = _build_cache_events(state_dir)
    assert warm.get("hit", 0) > 0 and warm.get("miss", 0) == 0, warm


@pytest.mark.slow
class TestSupervisedAcceptance:
    def test_clean_fleet_matches_single_process_bytes(
        self, tmp_path, single_process_run
    ):
        metrics_path = tmp_path / "metrics.json"
        argv = SMALL_STUDY + [
            "--workers", "2",
            "--state-dir", str(tmp_path / "state"),
            "--metrics-out", str(metrics_path),
        ]
        proc = _run_cli(argv)
        assert proc.returncode == 0, proc.stderr
        stdout, counters = single_process_run
        assert proc.stdout == stdout
        assert "coverage=30/30" in proc.stderr
        # Same pipeline, same telemetry: the fleet's merged campaign
        # counters are the single-process run's, survey included.
        assert ("repro_campaign_completed_total", "survey") in counters
        assert _campaign_counters(metrics_path) == counters
        # The cold pass filled the build cache (the single-process run
        # had none); a warm pass prints the same bytes from it.
        assert _build_cache_events(tmp_path / "state").get("store", 0) > 0
        _assert_warm_rerun(argv, tmp_path / "state", stdout)

    def test_killed_fleet_restarts_resumes_and_matches_bytes(
        self, tmp_path, single_process_study
    ):
        metrics_path = tmp_path / "metrics.json"
        argv = SMALL_STUDY + [
            "--workers", "2",
            "--state-dir", str(tmp_path / "state"),
            "--faults", "kill:1.0:1",
            "--metrics-out", str(metrics_path),
        ]
        proc = _run_cli(argv)
        assert proc.returncode == 0, proc.stderr
        # Both shards were SIGKILLed once and restarted, yet the report
        # is byte-identical to the clean single-process run.
        assert proc.stdout == single_process_study
        metrics = json.loads(metrics_path.read_text())
        restarts = sum(
            sample["value"]
            for sample in metrics["repro_supervisor_restarts_total"]["samples"]
        )
        assert restarts >= 2
        # Every restarted shard resumed its journaled prefix instead of
        # re-querying it: resumed + executed covers the shard exactly.
        resumed_total = 0
        for shard in (0, 1):
            report = json.loads(
                (tmp_path / "state" / f"shard-{shard}.done.json").read_text()
            )
            assert report["resumed"] + report["executed"] == report["units"]
            resumed_total += report["resumed"]
        assert resumed_total > 0
        # A done-file counts its shard's last attempt only: the restart
        # loaded what the killed attempt had signed and stored.
        assert list((tmp_path / "state" / "build-cache").glob("*.entry"))
        assert _build_cache_events(tmp_path / "state").get("hit", 0) > 0
        # Killed again at the same units, restarted, and every attempt
        # loads what the cold fleet signed.
        _assert_warm_rerun(argv, tmp_path / "state", single_process_study)

    def test_hung_worker_is_killed_by_watchdog(
        self, tmp_path, single_process_study
    ):
        proc = _run_cli(
            SMALL_STUDY
            + [
                "--workers", "2",
                "--state-dir", str(tmp_path),
                "--faults", "kill:1.0:1:1.0",  # hang_rate=1.0: all hangs
                "--stall-timeout", "3",
            ]
        )
        assert proc.returncode == 0, proc.stderr
        assert "heartbeat stalled" in proc.stderr
        assert proc.stdout == single_process_study

    def test_foreign_checkpoint_fails_the_fleet_in_one_line(self, tmp_path):
        # A restart cannot make a foreign checkpoint valid: shard 0 fails
        # once, shard 1 finishes, and the CLI exits 2 without a report.
        (tmp_path / "shard-0.ckpt").write_text("not json")
        proc = _run_cli(
            SMALL_STUDY + ["--workers", "2", "--state-dir", str(tmp_path)]
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        (line,) = [
            line for line in proc.stderr.splitlines() if line.startswith("repro:")
        ]
        assert "shard-0.ckpt" in line and "--discard-checkpoint" in line
        assert "restarts=0" in proc.stderr
        assert (tmp_path / "shard-1.done.json").exists()  # shard 1 finished

    def test_discard_checkpoint_archives_the_foreign_one(
        self, tmp_path, single_process_study
    ):
        (tmp_path / "shard-0.ckpt").write_text("not json")
        proc = _run_cli(
            SMALL_STUDY
            + ["--workers", "2", "--state-dir", str(tmp_path),
               "--discard-checkpoint"]
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == single_process_study
        assert (tmp_path / "shard-0.ckpt.invalid").read_text() == "not json"

    def test_lame_shards_yield_partial_coverage(self, tmp_path):
        # No restart budget + guaranteed kills: both shards go lame, the
        # merge salvages their journals instead of sinking the campaign.
        plan = _plan(
            "scan",
            domains=8,
            tlds=6,
            resolvers=0,
            state_dir=str(tmp_path),
            kill=(1.0, 99, 0.0, 5),
            max_restarts=0,
            flush_every=1,
        )
        outcome = run_supervised(plan)
        assert sorted(outcome.coverage.lame_shards) == [0, 1]
        assert not outcome.coverage.complete
        assert 0 < outcome.coverage.units_merged < outcome.coverage.units_total

    def test_fleet_without_state_dir_leaves_no_temp_dir(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        proc = _run_cli(
            ["scan", "--domains", "4", "--tlds", "4", "--seed", "5",
             "--workers", "2"]
        )
        assert proc.returncode == 0, proc.stderr
        assert f"state dir {tmp_path / 'repro-fleet-'}" in proc.stderr
        assert not list(tmp_path.glob("repro-fleet-*"))

    def test_sealed_worker_exits_zero_without_tmp_files(self, tmp_path):
        # The success path leaves through os._exit(0) once its done-file
        # is on disk: no interpreter teardown, and nothing half-written.
        plan = _plan("scan", domains=4, tlds=4, resolvers=0, state_dir=str(tmp_path))
        spec = {"plan": plan.to_dict(), "shard": 0, "attempt": 0, "directive": None}
        handle = WorkerHandle(worker_main, spec, _heartbeat_path(str(tmp_path), 0))
        handle.start()
        handle.join(timeout=120)
        assert handle.exitcode == 0
        done = json.loads(Path(_done_path(str(tmp_path), 0)).read_text())
        assert done["shard"] == 0 and done["executed"] == done["units"]
        assert read_heartbeat(handle.heartbeat_path).phase == "done"
        assert not list(tmp_path.rglob("*.tmp"))
        handle.close()

    def test_spawned_worker_publishes_units_on_its_beat(
        self, tmp_path, monkeypatch
    ):
        # Each unit's count reaches shard-N.hb within one beat, and the
        # file is rewritten once per phase change or beat — not per unit.
        site = _site(tmp_path, HEARTBEAT_LOG)
        monkeypatch.setenv(
            "PYTHONPATH", os.pathsep.join([str(site), str(REPO_ROOT / "src")])
        )
        state = tmp_path / "state"
        plan = _plan("scan", domains=60, tlds=6, resolvers=0, state_dir=str(state))
        outcome = run_supervised(plan)
        assert outcome.coverage.complete and outcome.restarts == 0
        for shard in range(plan.workers):
            entries = [
                json.loads(line)
                for line in Path(f"{_heartbeat_path(str(state), shard)}.log")
                .read_text()
                .splitlines()
            ]
            writes = [e for e in entries if e[0] == "write"]
            units = [e for e in entries if e[0] == "unit"]
            assert len(units) > 20
            for __, reported_t, __, count in units:
                published_t = min(
                    t for kind, t, __, done in writes if done >= count
                )
                assert published_t - reported_t < HEARTBEAT_INTERVAL_S + 0.5
            phase_changes = sum(
                1 for a, b in zip(writes, writes[1:]) if a[2] != b[2]
            )
            beats = (writes[-1][1] - writes[0][1]) / HEARTBEAT_INTERVAL_S
            assert len(writes) <= 1 + phase_changes + beats + 2, len(writes)

    def test_wall_clock_steps_stall_no_worker(self, tmp_path):
        # Watchdog deadlines and restart backoff run on the monotonic
        # clock: a wall clock leaping an hour every second changes nothing.
        site = _site(tmp_path, CLOCK_STEPS)
        proc = _run_cli(
            ["scan", "--domains", "8", "--tlds", "6", "--seed", "5",
             "--workers", "2", "--state-dir", str(tmp_path / "state")],
            pythonpath=[site],
        )
        assert proc.returncode == 0, proc.stderr
        assert "heartbeat stalled" not in proc.stderr
        assert "restarts=0 heartbeat_timeouts=0" in proc.stderr

    def test_requires_at_least_two_workers(self, tmp_path):
        with pytest.raises(ValueError):
            run_supervised(_plan(workers=1, state_dir=str(tmp_path)))

    def test_stale_terminated_heartbeat_is_not_an_operator_stop(
        self, tmp_path, monkeypatch
    ):
        # The state dir of a fleet that was SIGTERMed keeps its final
        # attempt-0 "terminated" beats. A new attempt-0 worker that dies
        # before its first beat must be restarted, not read as stopped.
        import repro.scanner.supervisor as supervisor_module

        plan = _plan(
            "scan",
            domains=4,
            tlds=4,
            resolvers=0,
            state_dir=str(tmp_path),
            max_restarts=1,
            restart_backoff_s=0.0,
        )
        for shard in range(plan.workers):
            write_heartbeat(
                _heartbeat_path(str(tmp_path), shard),
                Heartbeat(
                    t=time.time(), pid=1, attempt=0, phase="terminated",
                    units_done=1,
                ),
            )
        monkeypatch.setattr(
            supervisor_module, "worker_main", _dies_before_first_beat
        )
        outcome = run_supervised(plan)
        assert outcome.restarts == plan.workers
        assert outcome.coverage.stopped_shards == []
        assert sorted(outcome.coverage.lame_shards) == [0, 1]


class TestOperatorShutdown:
    """Graceful SIGTERM/SIGINT: journal flushed, no restart storm."""

    class _FakeCheckpoint:
        def __init__(self, log):
            self.log = log

        def flush(self):
            self.log.append("flush")

    class _FakeHeartbeat:
        def __init__(self, log):
            self.log = log

        def advance(self, **kwargs):
            self.log.append(("advance", kwargs))

        def stop(self):
            self.log.append("stop")

    def _flag(self):
        import signal as signal_module

        from repro.scanner.supervisor import _ShutdownFlag

        log = []
        flag = _ShutdownFlag(
            self._FakeCheckpoint(log), self._FakeHeartbeat(log)
        )
        return flag, log, signal_module

    def test_inert_until_a_signal_arrives(self):
        flag, log, __ = self._flag()
        flag.check()
        flag.check()
        assert log == []

    def test_check_flushes_says_goodbye_and_raises(self):
        from repro.scanner.supervisor import OperatorShutdown

        flag, log, signal_module = self._flag()
        flag._handle(signal_module.SIGTERM, None)  # what the handler does
        with pytest.raises(OperatorShutdown) as info:
            flag.check()
        assert info.value.signum == signal_module.SIGTERM
        # Journal first (nothing resumable may be lost), then the final
        # "terminated" heartbeat the supervisor recognises, then stop.
        assert log == [
            "flush",
            ("advance", {"phase": "terminated"}),
            "stop",
        ]

    def test_exit_code_encodes_the_signal(self):
        import signal as signal_module

        from repro.scanner.supervisor import OperatorShutdown

        stop = OperatorShutdown(signal_module.SIGTERM)
        assert 128 + stop.signum == 143
        assert "signal" in str(stop)

    def test_failed_attempt_stops_its_heartbeat(self, tmp_path, monkeypatch):
        # A failed attempt leaves through os._exit: a heartbeat thread
        # still beating then can leave a half-written tmp file behind.
        import threading

        import repro.scanner.supervisor as supervisor_module
        from repro.zone import signing

        def failing(cls, *args, **kwargs):
            raise CampaignError("cannot write: disk full")

        monkeypatch.setattr(supervisor_module._ShutdownFlag, "install", lambda self: None)
        monkeypatch.setattr(supervisor_module.World, "build", classmethod(failing))
        plan = _plan("scan", domains=4, tlds=4, resolvers=0, state_dir=str(tmp_path))
        spec = {"plan": plan.to_dict(), "shard": 0, "attempt": 0, "directive": None}
        before = set(threading.enumerate())
        with pytest.raises(CampaignError):
            supervisor_module._worker_run(spec)
        assert [t for t in threading.enumerate() if t not in before] == []
        assert signing.zone_signed_listener is None
        assert not list(tmp_path.glob("*.tmp"))

    def test_stopped_shard_merges_its_journal(self, tmp_path):
        plan = _plan(
            "scan", domains=8, tlds=6, resolvers=0, state_dir=str(tmp_path)
        )
        units, domain_specs, __ = plan_units(plan)
        shard0 = _ShardState(0, len(shard_units(units, 0, 2)))
        shard0.status = "done"
        shard1 = _ShardState(1, len(shard_units(units, 1, 2)))
        shard1.status = "stopped"

        checkpoint0 = CampaignCheckpoint(
            _checkpoint_path(str(tmp_path), 0), schema=WORKER_SCHEMA
        )
        for unit in shard_units(units, 0, 2):
            checkpoint0.record(unit_key(unit), {"enabled": False})
        checkpoint0.flush()
        # The operator's SIGTERM landed after shard 1 journaled one unit.
        salvaged = shard_units(units, 1, 2)[0]
        checkpoint1 = CampaignCheckpoint(
            _checkpoint_path(str(tmp_path), 1), schema=WORKER_SCHEMA
        )
        checkpoint1.record(unit_key(salvaged), {"enabled": False})
        checkpoint1.flush()

        outcome = merge_shards(plan, units, domain_specs, [shard0, shard1])
        coverage = outcome.coverage
        assert coverage.stopped_shards == [1]
        assert coverage.lame_shards == []
        # The flushed prefix made it into the merged report...
        assert coverage.units_merged == len(shard_units(units, 0, 2)) + 1
        # ...and the un-scanned tail is reported as missing, so a stop
        # mid-campaign still reads as partial coverage.
        assert not coverage.complete


class TestCliExitCodes:
    """Operator-facing CLI failures: one line on stderr, typed exit codes."""

    def test_keyboard_interrupt_exits_130(self, monkeypatch, capsys):
        import repro.__main__ as cli

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "cmd_guidance", interrupted)
        assert cli.main(["guidance"]) == 130
        captured = capsys.readouterr()
        assert "repro: interrupted" in captured.err
        assert "Traceback" not in captured.err

    def test_campaign_error_exits_2_with_one_line(self, monkeypatch, capsys):
        import repro.__main__ as cli

        def failing(args):
            raise CampaignError("state dir belongs to another campaign")

        monkeypatch.setattr(cli, "cmd_guidance", failing)
        assert cli.main(["guidance"]) == 2
        captured = capsys.readouterr()
        assert "repro: state dir belongs to another campaign" in captured.err
        assert "Traceback" not in captured.err

    def _fleet_scan(self, monkeypatch, tmp_path, coverage):
        """``scan --workers 2 --exit-code-on-partial`` over a canned merge."""
        import repro.__main__ as cli

        outcome = SimpleNamespace(
            domain_results=[],
            tld_results=[],
            entries=[],
            total_domains=2,
            coverage=coverage,
        )
        monkeypatch.setattr(cli, "run_supervised", lambda plan, target: outcome)
        return cli.main(
            ["scan", "--workers", "2", "--state-dir", str(tmp_path),
             "--exit-code-on-partial"]
        )

    def test_exit_code_on_partial_returns_4(self, monkeypatch, tmp_path, capsys):
        coverage = Coverage(units_total=4, units_merged=3, missing=["d/x"])
        assert self._fleet_scan(monkeypatch, tmp_path, coverage) == 4
        assert "exiting 4" in capsys.readouterr().err

    def test_complete_coverage_returns_none(self, monkeypatch, tmp_path):
        coverage = Coverage(units_total=4, units_merged=4)
        assert self._fleet_scan(monkeypatch, tmp_path, coverage) == 0

    def test_kill_faults_need_a_fleet(self, capsys):
        # Nothing in one process restarts a SIGKILLed shard or un-hangs a
        # hung one, so a kill: token without a supervisor is refused.
        import repro.__main__ as cli

        assert cli.main(["scan", "--faults", "burst:0.1,kill:1.0:1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("repro: --faults kill: needs --workers 2"), line

    def test_failed_fleet_removes_the_state_dir_it_made(
        self, monkeypatch, tmp_path, capsys
    ):
        import tempfile

        import repro.__main__ as cli

        made = []

        def failing(plan, target):
            made.append(plan.state_dir)
            assert os.path.isdir(plan.state_dir)
            raise CampaignError("shard 0 failed")

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(cli, "run_supervised", failing)
        assert cli.main(["scan", "--workers", "2"]) == 2
        assert "repro: shard 0 failed" in capsys.readouterr().err
        assert made and made[0].startswith(str(tmp_path / "repro-fleet-"))
        assert not list(tmp_path.glob("repro-fleet-*"))
