"""Worker-fleet plumbing for multi-process campaigns.

The campaign supervisor (:mod:`repro.scanner.supervisor`) shards a
measurement across OS processes; this module owns the process-level
machinery, which knows nothing about DNS:

- :class:`WorkerHandle` — one subprocess from a ``multiprocessing``
  **spawn** context (fork would duplicate the parent's signed testbed
  and any open journal file descriptors; spawn gives every worker a
  clean interpreter that rebuilds its world deterministically);
- the **heartbeat file protocol** — each worker atomically rewrites a
  small JSON file (wall-clock time, phase, units completed) from a
  daemon thread, so supervision needs no pipes that a SIGKILL could
  leave half-read. A phase change is written at once; completed units
  and build progress only bump counters, which the next beat publishes,
  so the unit loop pays no file write. Heartbeats are ephemeral
  coordination state: a :func:`repro.durable.replace` that is never
  fsynced;
- :class:`Watchdog` — classifies a worker as making progress or stalled
  by watching ``(phase, units, built)`` transitions on the monotonic
  clock (a wall-clock step must neither condemn a healthy fleet nor
  blind the watchdog).
  Build phases complete no units but report a monotonically increasing
  ``built`` count (zones signed, construction milestones); the startup
  exemption is granted only while that count advances, so a slow cold
  build survives and a build hung mid-zone is condemned;
- :func:`backoff_delay` — bounded exponential restart backoff.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time
from contextlib import suppress
from dataclasses import asdict, dataclass

from repro import durable

#: How often a worker's heartbeat thread rewrites its file.
HEARTBEAT_INTERVAL_S = 0.2

#: Phases in which unit progress is legitimately zero; the watchdog
#: instead demands that the ``built`` counter keeps advancing there.
STARTUP_PHASES = ("init", "build")


@dataclass
class Heartbeat:
    """One worker's last sign of life."""

    t: float          # wall-clock time of the write; never read by the watchdog
    pid: int
    attempt: int
    phase: str
    units_done: int
    #: Monotonic build-phase progress: zones signed / construction
    #: milestones passed. Lets the watchdog tell a slow cold build
    #: (count advances) from a hung one (count freezes).
    built: int = 0


def write_heartbeat(path, beat):
    """Atomically replace the heartbeat file (a reader never sees a torn
    write — it sees the previous beat)."""
    durable.replace(path, json.dumps(asdict(beat)).encode(), sync=None)


def read_heartbeat(path):
    """The last heartbeat, or None (missing file, or a beat from a
    foreign/older format — both mean "no signal")."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        return Heartbeat(
            t=float(doc["t"]),
            pid=int(doc["pid"]),
            attempt=int(doc["attempt"]),
            phase=str(doc["phase"]),
            units_done=int(doc["units_done"]),
            # Tolerated as absent: beats written by an older worker.
            built=int(doc.get("built", 0)),
        )
    except (OSError, ValueError, KeyError, TypeError):
        return None


class HeartbeatWriter:
    """Worker-side heartbeat: a daemon thread beating every interval.

    The thread proves liveness (the ``t`` field advances); *progress* is
    whatever the worker reports through :meth:`advance`. A SIGKILL takes
    the thread down with the process — exactly the silence the
    supervisor's watchdog is listening for, so a beat that fails on the
    thread is dropped; one the worker writes itself raises.
    """

    def __init__(self, path, attempt, interval_s=HEARTBEAT_INTERVAL_S):
        self.path = str(path)
        self.attempt = attempt
        self.interval_s = interval_s
        self.phase = "init"
        self.units_done = 0
        self.built = 0
        self._stop = threading.Event()
        self._thread = None
        # The beating thread and the worker's advance() calls share one
        # tmp path; without the lock two concurrent writes can race the
        # rename (a tmp file the other beat just renamed).
        self._lock = threading.Lock()

    def _beat(self):
        with self._lock:
            write_heartbeat(
                self.path,
                Heartbeat(
                    t=time.time(),
                    pid=os.getpid(),
                    attempt=self.attempt,
                    phase=self.phase,
                    units_done=self.units_done,
                    built=self.built,
                ),
            )

    def start(self, phase="init"):
        self.phase = phase
        self._beat()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        while not self._stop.wait(self.interval_s):
            with suppress(durable.CampaignError):
                self._beat()

    def advance(self, units_done=None, phase=None):
        """Report progress. A phase change is written at once (the
        supervisor reads ``terminated``/``done`` as soon as the worker
        exits); a unit count alone publishes with the next beat, within
        one interval — far inside the watchdog's stall deadline, and it
        keeps a file rename out of every unit."""
        if units_done is not None:
            self.units_done = units_done
        if phase is not None and phase != self.phase:
            self.phase = phase
            self._beat()

    def tick_built(self, n=1):
        """Bump the build-progress counter without forcing a write.

        Fired once per signed zone / construction milestone — far too
        often to rewrite the file each time; the daemon beat publishes
        the latest count within one interval, which is all the
        watchdog's stall deadline needs.
        """
        self.built += n

    def stop(self):
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)


class WorkerHandle:
    """One spawned worker process plus its heartbeat channel."""

    def __init__(self, target, spec, heartbeat_path):
        self.heartbeat_path = str(heartbeat_path)
        ctx = multiprocessing.get_context("spawn")
        self.process = ctx.Process(target=target, args=(spec,), daemon=True)

    def start(self):
        self.process.start()

    def is_alive(self):
        return self.process.is_alive()

    @property
    def exitcode(self):
        return self.process.exitcode

    @property
    def pid(self):
        return self.process.pid

    @property
    def sentinel(self):
        """A handle that turns ready when the process ends, for
        :func:`multiprocessing.connection.wait`."""
        return self.process.sentinel

    def kill(self):
        """SIGKILL — for workers the watchdog has given up on."""
        if self.process.is_alive():
            self.process.kill()

    def join(self, timeout=None):
        self.process.join(timeout)

    def close(self):
        try:
            self.process.close()
        except ValueError:
            pass  # still running (caller kept it alive deliberately)

    def heartbeat(self):
        return read_heartbeat(self.heartbeat_path)


class Watchdog:
    """Progress tracking for one worker on the monotonic clock.

    ``observe`` feeds it the latest heartbeat; ``stalled`` is True when
    no progress transition has been seen for *stall_timeout_s*. Progress
    means the ``(attempt, phase, units_done, built)`` tuple changed.
    During startup phases units legitimately stay at zero, but the
    worker reports every signed zone through ``built`` — the deadline is
    extended only while that count advances, so a merely *beating* but
    hung build (alive heartbeat thread, frozen main thread) is condemned
    once the timeout elapses.
    """

    def __init__(self, stall_timeout_s, clock=time.monotonic):
        self.stall_timeout_s = stall_timeout_s
        self._clock = clock
        self.reset()

    def reset(self):
        self._last_progress = None
        self._last_change = self._clock()

    def observe(self, beat):
        now = self._clock()
        if beat is None:
            return  # no file yet: the spawn itself is covered by the deadline
        progress = (beat.attempt, beat.phase, beat.units_done, beat.built)
        if progress != self._last_progress:
            self._last_progress = progress
            self._last_change = now

    def stalled(self):
        return self._clock() - self._last_change > self.stall_timeout_s


def backoff_delay(attempt, base_s, cap_s=30.0):
    """Exponential restart backoff: base * 2^(attempt-1), capped."""
    if attempt <= 0:
        return 0.0
    return min(cap_s, base_s * (2 ** (attempt - 1)))
