"""Campaign state on disk: how often it is fsynced, and what happens when
writing it fails.

The fsync census pins the durability level of every operation through
its public entry point: a change there moves the ledger's ``fleet-warm``
(journal fsyncs and done-files in its window, build-cache stores in its
cold set-up). The failure matrix breaks the state directory on purpose —
a ``sitecustomize`` on ``PYTHONPATH`` (which spawned fleet workers
inherit) patches ``repro.durable`` alone — and holds every run to the
one failure rule: a campaign write that fails ends in one ``repro:``
line and exit 2, a build-cache write that fails is counted and the
report does not change; never a traceback, a hang or a stray tmp file.
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
    spec = {
        "plan": plan.to_dict(),
        "shard": 0,
        "attempt": 0,
        "checkpoint_path": str(state_dir / "shard-0.ckpt"),
        "heartbeat_path": str(state_dir / "shard-0.hb"),
        "done_path": str(state_dir / "shard-0.done.json"),
        "error_path": str(state_dir / "shard-0.err"),
        "directive": None,
    }
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

#: case: (failing syscalls and path patterns, errno, what a fleet's one
#: ``repro:`` line names — None when the fleet finishes —, whether
#: build-cache stores fail)
CASES = {
    "journal-append-ENOSPC": (
        {"fsync": r"\.journal$"}, "ENOSPC", r"shard-\d\.ckpt\.journal", False,
    ),
    "compaction-EIO": (
        {"fsync": r"\.ckpt\.\d+\.tmp$"}, "EIO", r"shard-\d\.ckpt:", False,
    ),
    "done-file-EROFS": (
        {"replace": r"\.done\.json$"}, "EROFS", r"shard-\d\.done\.json", False,
    ),
    "build-cache-store-ENOSPC": (
        {"fsync": r"\.entry\.\d+\.tmp$"}, "ENOSPC", None, True,
    ),
    "every-write-ENOSPC": (
        {"fsync": "", "replace": ""}, "ENOSPC", r"shard-\d\.hb", True,
    ),
}


@pytest.fixture(scope="module")
def cache_free_report():
    proc = _run_cli(SMALL_STUDY)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.slow
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_failing_state_dir(tmp_path, case, workers, cache_free_report):
    """A single-process run writes only the build cache under
    ``--state-dir``, so there every case is a counted cache error or
    nothing at all; a fleet also writes journals, snapshots, done-files
    and heartbeats, and a failure there stops the fleet."""
    faults, code, names, cache_fails = CASES[case]
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
    if workers == 2 and names is not None:
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        (line,) = [
            line for line in proc.stderr.splitlines() if line.startswith("repro:")
        ]
        assert str(state) in line and f"({code})" in line, line
        assert re.search(names, line), line
        return
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == cache_free_report
    if workers == 1:
        (sim,) = [line for line in proc.stderr.splitlines() if line.startswith("[sim]")]
        assert ("error:" in sim) == cache_fails, sim
    else:
        errors = sum(
            (json.loads(done.read_text())["build_cache"] or {}).get("error", 0)
            for done in state.glob("shard-*.done.json")
        )
        assert errors > 0
