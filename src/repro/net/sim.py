"""Discrete-event simulation kernel: one virtual clock, many in-flight queries.

The fabric used to be strictly serial: every exchange advanced
``Network.clock_ms`` inline, so a campaign's simulated duration was the sum
of every path latency. This module owns the clock instead and turns delays
into *events*:

- :class:`SimKernel` holds an event heap ``(at_ms, seq, fn)`` and the
  :class:`SimClock`. Delivery and transport code are written as
  *delay-yielding generators* — every ``yield delay_ms`` is a point where
  simulated time passes. :meth:`SimKernel.execute` drives such a generator
  either by scheduling each delay as a timer event on the heap (the serial
  top level: retries, backoff waits, path latencies all become kernel
  events) or inline (nested resolution inside a server's
  ``handle_datagram``, and anything running inside a session frame).

- :class:`SimClock` layers *session frames* over the committed clock. A
  frame gives one in-flight query session its own local view of time:
  code inside the frame reads and advances the frame clock through the
  same ``Network.clock_ms`` property it always used, while the committed
  clock stays put. When the frame pops, the elapsed frame time is the
  session's simulated cost.

- :class:`CampaignExecutor` is the concurrency window. Sessions are
  *executed* synchronously in submission order (so RNG draw order — and
  therefore every answer — is byte-identical at any window size), but each
  runs in its own frame and its *completion* is scheduled on the kernel
  heap at ``start + elapsed``. With window ``N``, admission of session
  ``N+1`` waits for the earliest completion event, so the committed clock
  advances like ``N`` overlapping scanners: the makespan approaches
  ``sum(session costs) / N`` instead of the serial sum. That is the
  paper's measurement posture — ~14.7K requests/s of concurrent traffic —
  on a clock that stays deterministic per seed.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager


class SimClock:
    """Committed virtual time plus a stack of session-frame clocks.

    ``read``/``write``/``advance`` operate on the innermost frame when one
    is active, else on the committed clock — so existing code that does
    ``network.clock_ms += delay`` transparently charges the session it is
    running inside.
    """

    __slots__ = ("now", "_frames", "on_commit")

    def __init__(self, now=0.0):
        #: Committed simulated time in milliseconds.
        self.now = float(now)
        self._frames = []
        #: Optional hook fired *before* the committed clock advances
        #: (``on_commit(new_now)``) — the kernel installs it while
        #: periodic tasks are registered so scrape/heartbeat ticks fire
        #: at their due times even across direct clock writes (pacing,
        #: requeue delays). ``None`` keeps the write path one branch.
        self.on_commit = None

    @property
    def in_frame(self):
        """True while a session frame is active."""
        return bool(self._frames)

    def read(self):
        """Current time as seen by running code (frame-local if framed)."""
        return self._frames[-1] if self._frames else self.now

    def write(self, value):
        """Set the current time (frame-local if framed)."""
        if self._frames:
            self._frames[-1] = float(value)
        else:
            value = float(value)
            if self.on_commit is not None and value > self.now:
                self.on_commit(value)
            self.now = value

    def advance(self, delta):
        self.write(self.read() + delta)

    def push_frame(self, start_ms=None):
        """Open a session frame starting at *start_ms* (default: now)."""
        self._frames.append(self.read() if start_ms is None else float(start_ms))

    def pop_frame(self):
        """Close the innermost frame; returns its final local time."""
        return self._frames.pop()


class PeriodicTask:
    """One recurring kernel task: fires every ``interval_ms`` of committed
    simulated time, at its due times, in registration order among equals.

    The callback receives the *due* time (not the post-jump clock), so a
    scraper sampling every 500 ms records samples at 500/1000/1500 even
    when the clock jumps 2 s at once (requeue delays, QPS pacing).
    Callbacks observe only — they must not schedule kernel events,
    advance the clock, or draw from any RNG, so a run with telemetry
    attached stays byte-identical to one without.
    """

    __slots__ = ("next_due", "interval_ms", "fn", "name", "cancelled")

    def __init__(self, next_due, interval_ms, fn, name):
        self.next_due = next_due
        self.interval_ms = interval_ms
        self.fn = fn
        self.name = name
        self.cancelled = False


class _Stepper:
    """One top-level generator driven through the heap, a step per event.

    The heap holds its bound :meth:`step`, not a closure over itself: a
    self-referencing closure would keep each finished query's whole
    response graph alive until the cyclic collector ran.
    """

    __slots__ = ("kernel", "gen", "outcome")

    def __init__(self, kernel, gen):
        self.kernel = kernel
        self.gen = gen
        #: ``("return", value)`` or ``("raise", exc)`` once the
        #: generator is done; None while it runs.
        self.outcome = None

    def step(self):
        kernel = self.kernel
        kernel._dispatching += 1
        try:
            delay = next(self.gen)
        except StopIteration as stop:
            self.outcome = ("return", stop.value)
            return
        except BaseException as exc:  # surfaced to the caller
            self.outcome = ("raise", exc)
            return
        finally:
            kernel._dispatching -= 1
        kernel.schedule(delay, self.step)


class SimKernel:
    """The event heap and the single owned virtual clock of one run."""

    def __init__(self, start_ms=0.0):
        self.clock = SimClock(start_ms)
        self._heap = []
        self._seq = 0
        #: Depth of generator steps currently being dispatched from the
        #: heap; nested sends issued during a step run inline so the
        #: serial ordering (and RNG draw order) is exactly the legacy one.
        self._dispatching = 0
        self.events_scheduled = 0
        self.events_run = 0
        #: First-class periodic tasks (scrapers, heartbeats); they live
        #: outside the heap so ``run_until_idle`` still terminates.
        self._periodic = []
        self.periodic_runs = 0

    # -- time ---------------------------------------------------------------

    @property
    def now(self):
        """Committed kernel time (ignores any active session frame)."""
        return self.clock.now

    # -- event heap ---------------------------------------------------------

    def schedule(self, delay_ms, fn):
        """Schedule *fn* to run *delay_ms* after the current clock reading."""
        return self.schedule_at(self.clock.read() + delay_ms, fn)

    def schedule_at(self, at_ms, fn):
        """Schedule *fn* at absolute time *at_ms*; FIFO among equal times."""
        self._seq += 1
        heapq.heappush(self._heap, (float(at_ms), self._seq, fn))
        self.events_scheduled += 1
        return (float(at_ms), self._seq)

    def pending(self):
        """Number of events waiting on the heap."""
        return len(self._heap)

    def run_next(self):
        """Pop and run the earliest event, committing the clock to its time.

        Must be called from the top level (no active frame): the heap is
        the committed-time schedule, not any session's local one.
        """
        at_ms, __, fn = heapq.heappop(self._heap)
        if at_ms > self.clock.now:
            if self._periodic:
                self._fire_periodic(at_ms)
            self.clock.now = at_ms
        self.events_run += 1
        fn()
        return at_ms

    def run_until_idle(self):
        """Drain the heap; returns the number of events run."""
        count = 0
        while self._heap:
            self.run_next()
            count += 1
        return count

    # -- generator drivers ---------------------------------------------------

    def execute(self, gen):
        """Run a delay-yielding generator to completion; returns its value.

        Inside a session frame, or while already dispatching a heap event
        (nested resolution), the generator runs inline with each yielded
        delay charged to the active clock. At the top level every yielded
        delay becomes a timer event on the heap — the schedule/complete
        halves of the exchange. Both drivers apply delays at the same
        points, so clock arithmetic and RNG draw order are identical.
        """
        if self.clock.in_frame or self._dispatching:
            return self._run_inline(gen)
        return self._run_scheduled(gen)

    def _run_inline(self, gen):
        try:
            delay = next(gen)
            while True:
                if delay:
                    self.clock.advance(delay)
                delay = gen.send(None)
        except StopIteration as stop:
            return stop.value

    def _run_scheduled(self, gen):
        stepper = _Stepper(self, gen)
        stepper.step()
        while stepper.outcome is None:
            self.run_next()
        kind, value = stepper.outcome
        if kind == "raise":
            raise value
        return value

    @contextmanager
    def frame(self, start_ms=None):
        """A session frame: code inside sees (and advances) its own clock."""
        self.clock.push_frame(start_ms)
        try:
            yield self.clock
        finally:
            self.clock.pop_frame()

    # -- periodic tasks ------------------------------------------------------

    def every(self, interval_ms, fn, name="periodic", start_delay_ms=None):
        """Register ``fn(due_ms)`` to fire every *interval_ms* of committed
        simulated time; returns a :class:`PeriodicTask` handle for
        :meth:`cancel`.

        Tasks fire whenever the committed clock crosses their due time —
        between heap events and across direct top-level clock writes —
        at the due time itself, catching up one firing per elapsed
        interval after a large jump. Callbacks are observers only (see
        :class:`PeriodicTask`).
        """
        interval_ms = float(interval_ms)
        if interval_ms <= 0:
            raise ValueError("periodic interval must be positive")
        first = (
            self.clock.now + interval_ms
            if start_delay_ms is None
            else self.clock.now + float(start_delay_ms)
        )
        task = PeriodicTask(first, interval_ms, fn, name)
        self._periodic.append(task)
        self.clock.on_commit = self._fire_periodic
        return task

    def cancel(self, task):
        """Deregister a periodic task (idempotent)."""
        task.cancelled = True
        self._periodic = [t for t in self._periodic if not t.cancelled]
        if not self._periodic:
            self.clock.on_commit = None

    def _fire_periodic(self, to_ms):
        """Fire every task due at or before *to_ms*, in due-time order."""
        while True:
            due = None
            for task in self._periodic:
                if task.next_due <= to_ms and (
                    due is None or task.next_due < due.next_due
                ):
                    due = task
            if due is None:
                return
            at = due.next_due
            due.next_due = at + due.interval_ms
            self.periodic_runs += 1
            due.fn(at)

    # -- observability -------------------------------------------------------

    def bind_obs(self, exclusive=True):
        """Point the tracer clock at this kernel.

        ``exclusive=True`` *claims* the run: later implicit binds (every
        ``Network.__init__``) no longer steal the clock. Implicit binds
        pass ``exclusive=False`` and keep the legacy last-wins behaviour
        among themselves until something claims.
        """
        from repro import obs

        return obs.bind_clock(self.clock.read, owner=self, exclusive=exclusive)


class CampaignExecutor:
    """A sliding in-flight window of query sessions over one kernel.

    ``submit(thunk)`` runs *thunk* immediately (synchronously, in
    submission order — determinism) inside a session frame and schedules
    its completion at ``start + elapsed`` on the kernel heap. When the
    window is full, admission first waits for the earliest completion,
    advancing the committed clock. ``concurrency <= 1`` bypasses the
    machinery entirely: the thunk runs on the committed clock, preserving
    exact legacy serial behaviour. Nested submits (a session submitting
    from inside a frame) also run inline.
    """

    def __init__(self, kernel, concurrency=1):
        self.kernel = kernel
        self.concurrency = max(1, int(concurrency))
        self._in_flight = 0
        #: Sessions run through a frame (bypassed serial calls excluded).
        self.sessions = 0
        #: Total simulated time spent inside sessions (the serial cost).
        self.busy_ms = 0.0

    def submit(self, thunk):
        """Run one session; returns the thunk's result."""
        if self.concurrency <= 1 or self.kernel.clock.in_frame:
            return thunk()
        while self._in_flight >= self.concurrency:
            self.kernel.run_next()
        start = self.kernel.now
        self.kernel.clock.push_frame(start)
        try:
            result = thunk()
        finally:
            end = self.kernel.clock.pop_frame()
        self._in_flight += 1
        self.sessions += 1
        self.busy_ms += max(0.0, end - start)
        from repro import obs

        if obs.enabled:
            gauge = obs.registry.gauge(
                "repro_inflight_sessions",
                "Sessions currently occupying the campaign window.",
            )
            gauge.inc()
        else:
            gauge = None

        def complete():
            self._in_flight -= 1
            if gauge is not None:
                gauge.dec()

        self.kernel.schedule_at(max(end, start), complete)
        return result

    def drain(self):
        """Wait for every in-flight session; commits the clock to the
        campaign makespan."""
        while self._in_flight:
            self.kernel.run_next()
