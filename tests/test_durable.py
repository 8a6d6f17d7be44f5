"""Campaign state on disk: how often it is fsynced, what happens when
writing it fails, and how a killed single process resumes from it.

The fsync census pins the durability level of every operation through
its public entry point: a change there moves the ledger's ``fleet-warm``
(journal fsyncs and done-files in its window, build-cache stores in its
cold set-up). The failure matrix breaks the state directory on purpose —
a ``sitecustomize`` on ``PYTHONPATH`` (which spawned fleet workers
inherit) patches ``repro.durable`` alone — and holds every run, one
process or a fleet, to the one failure rule: a campaign write that fails
ends in one ``repro:`` line and exit 2, a build-cache write that fails is
counted and the report does not change; never a traceback, a hang or a
stray tmp file.
"""

import errno
import json
import os
import re
import time

import pytest

from repro.net.procpool import Heartbeat, write_heartbeat
from repro.scanner import supervisor
from repro.scanner.campaign import CampaignCheckpoint
from repro.scanner.pipeline import CampaignPlan
from repro.zone import build_cache
from repro.zone.build_cache import ZoneBuildCache
from tests.test_supervisor import SMALL_STUDY, _run_cli

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)


def _fd_path(fd):
    return os.readlink(f"/proc/self/fd/{fd}")


@pytest.fixture
def fsyncs(monkeypatch):
    """The path of every ``os.fsync`` call, in order."""
    calls = []
    real = os.fsync

    def recording(fd):
        calls.append(_fd_path(fd))
        return real(fd)

    monkeypatch.setattr(os, "fsync", recording)
    return calls


def _count(calls, action):
    before = len(calls)
    action()
    return len(calls) - before


def _done_file_fsyncs(state_dir, fsyncs, monkeypatch):
    """A one-shard worker run in-process; the done-file is its last
    durable write, so its fsyncs are the tail from the done tmp file."""
    monkeypatch.setattr(supervisor._ShutdownFlag, "install", lambda self: None)
    plan = CampaignPlan(
        role="scan", domains=4, tlds=4, resolvers=0, seed=5,
        state_dir=str(state_dir),
    )
    spec = {"plan": plan.to_dict(), "shard": 0, "attempt": 0, "directive": None}
    before = len(fsyncs)
    try:
        supervisor._worker_run(spec)
    finally:
        build_cache.deactivate()
    calls = fsyncs[before:]
    (first,) = [i for i, path in enumerate(calls) if ".done.json" in path]
    tail = calls[first:]
    assert set(tail[1:]) <= {os.path.realpath(state_dir)}, tail
    return len(tail)


def test_fsync_census(tmp_path, fsyncs, monkeypatch):
    path = tmp_path / "ck.json"
    checkpoint = CampaignCheckpoint(path, flush_every=1000)
    census = {}
    checkpoint.record("a/1", {})
    census["first journal flush"] = _count(fsyncs, checkpoint.flush)
    checkpoint.record("b/1", {})
    census["each later flush"] = _count(fsyncs, checkpoint.flush)
    census["compact()"] = _count(fsyncs, checkpoint.compact)

    checkpoint.record("c/1", {})
    checkpoint.flush()
    with open(f"{path}.journal", "ab") as handle:
        handle.write(b"\x2a\x00\x00")  # a torn frame header
    census["torn-tail recovery"] = _count(fsyncs, lambda: CampaignCheckpoint(path))

    foreign = tmp_path / "foreign.json"
    foreign.write_text("not json")
    census["--discard-checkpoint archive"] = _count(
        fsyncs, lambda: CampaignCheckpoint(foreign, discard=True)
    )

    cache = ZoneBuildCache(str(tmp_path / "build-cache"))
    census["build-cache store"] = _count(
        fsyncs, lambda: cache.store("zone", "f" * 64, {"rrsigs": []})
    )
    beat = Heartbeat(t=1.0, pid=1, attempt=0, phase="scan", units_done=2)
    census["heartbeat"] = _count(
        fsyncs, lambda: write_heartbeat(tmp_path / "w.hb", beat)
    )
    (tmp_path / "fleet").mkdir()
    census["done-file write"] = _done_file_fsyncs(
        tmp_path / "fleet", fsyncs, monkeypatch
    )

    assert census == {
        "first journal flush": 2,  # file + directory
        "each later flush": 1,
        "compact()": 4,  # snapshot + dir, journal reset + dir
        "torn-tail recovery": 1,
        "--discard-checkpoint archive": 1,
        "build-cache store": 1,
        "heartbeat": 0,
        "done-file write": 2,
    }


# -- the failure matrix ----------------------------------------------------------

STALL_TIMEOUT_S = 30

#: Replaces ``repro.durable``'s ``os`` with one whose ``fsync`` and
#: ``replace`` raise for matching paths — where a full disk, a failing
#: device or a read-only remount would raise.
SITECUSTOMIZE = '''
import os
import re
import types

from repro import durable

FAULTS = {faults!r}
ERRNO = {errno}

def _check(syscall, path):
    pattern = FAULTS.get(syscall)
    if pattern is not None and re.search(pattern, path):
        raise OSError(ERRNO, os.strerror(ERRNO), path)

def fsync(fd):
    _check("fsync", os.readlink(f"/proc/self/fd/{{fd}}"))
    return os.fsync(fd)

def replace(src, dst):
    _check("replace", os.fspath(dst))
    return os.replace(src, dst)

shim = types.ModuleType("os")
shim.__dict__.update(vars(os))
shim.fsync = fsync
shim.replace = replace
durable.os = shim
'''

#: case: (failing syscalls and path patterns, errno, what the run's one
#: ``repro:`` line names — None when the run finishes — with one process
#: and with a fleet). Only a fleet writes heartbeats, so when every write
#: fails a single process first fails on its journal.
CASES = {
    "journal-append-ENOSPC": (
        {"fsync": r"\.journal$"}, "ENOSPC", (r"shard-\d\.ckpt\.journal",) * 2,
    ),
    "compaction-EIO": (
        {"fsync": r"\.ckpt\.\d+\.tmp$"}, "EIO", (r"shard-\d\.ckpt:",) * 2,
    ),
    "done-file-EROFS": (
        {"replace": r"\.done\.json$"}, "EROFS", (r"shard-\d\.done\.json",) * 2,
    ),
    "build-cache-store-ENOSPC": (
        {"fsync": r"\.entry\.\d+\.tmp$"}, "ENOSPC", (None, None),
    ),
    "every-write-ENOSPC": (
        {"fsync": "", "replace": ""}, "ENOSPC",
        (r"shard-0\.ckpt\.journal", r"shard-\d\.hb"),
    ),
}


def _scan_queries(metrics_path):
    metrics = json.loads(metrics_path.read_text())
    return sum(
        sample["value"]
        for sample in metrics["repro_scan_queries_total"]["samples"]
    )


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    """The uninterrupted single-process study without a state dir:
    (stdout, scan queries sent)."""
    metrics = tmp_path_factory.mktemp("clean") / "metrics.json"
    proc = _run_cli(SMALL_STUDY + ["--metrics-out", str(metrics)])
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, _scan_queries(metrics)


@pytest.mark.slow
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_failing_state_dir(tmp_path, case, workers, clean_run):
    """One process and a fleet both write journals, snapshots, done-files
    and the build cache under ``--state-dir`` (a fleet also heartbeats),
    and a failure anywhere but the build cache stops the run."""
    faults, code, names = CASES[case]
    names = names[workers - 1]
    site = tmp_path / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(
        SITECUSTOMIZE.format(faults=faults, errno=getattr(errno, code))
    )
    state = tmp_path / "state"
    started = time.monotonic()
    proc = _run_cli(
        SMALL_STUDY
        + ["--state-dir", str(state), "--workers", str(workers),
           "--stall-timeout", str(STALL_TIMEOUT_S)],
        pythonpath=[site],
    )
    elapsed = time.monotonic() - started

    assert "Traceback" not in proc.stderr, proc.stderr
    assert not list(state.rglob("*.tmp"))
    assert elapsed < STALL_TIMEOUT_S / 2
    if names is not None:
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        (line,) = [
            line for line in proc.stderr.splitlines() if line.startswith("repro:")
        ]
        assert str(state) in line and f"({code})" in line, line
        assert re.search(names, line), line
        return
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == clean_run[0]
    errors = sum(
        (json.loads(done.read_text())["build_cache"] or {}).get("error", 0)
        for done in state.glob("shard-*.done.json")
    )
    assert errors > 0


#: SIGKILLs the process right after its first journal append.
KILL_AFTER_FIRST_APPEND = '''
import os
import signal

from repro import durable

append = durable.append

def killing_append(path, *args, **kwargs):
    append(path, *args, **kwargs)
    if str(path).endswith(".journal"):
        os.kill(os.getpid(), signal.SIGKILL)

durable.append = killing_append
'''


@pytest.mark.slow
def test_single_process_resumes_after_sigkill(tmp_path, clean_run):
    """``--workers 1 --state-dir`` journals like a fleet shard: killed
    after its first flush (``flush_every`` 20 of 30 units), the rerun
    prints the clean report and measures only the other 10 units."""
    site = tmp_path / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(KILL_AFTER_FIRST_APPEND)
    state = tmp_path / "state"
    argv = SMALL_STUDY + ["--workers", "1", "--state-dir", str(state)]
    killed = _run_cli(argv, pythonpath=[site])
    assert killed.returncode == -9, killed.stderr
    assert killed.stdout == ""
    assert not (state / "shard-0.done.json").exists()

    metrics = tmp_path / "metrics.json"
    resumed = _run_cli(argv + ["--metrics-out", str(metrics)])
    assert resumed.returncode == 0, resumed.stderr
    stdout, clean_queries = clean_run
    assert resumed.stdout == stdout
    assert "resumed=20 executed=10 coverage=30/30" in resumed.stderr
    done = json.loads((state / "shard-0.done.json").read_text())
    assert (done["units"], done["resumed"], done["executed"]) == (30, 20, 10)
    # The journaled 20 units cost no query the second time.
    assert 0 < _scan_queries(metrics) < clean_queries
