"""The service query core: one worker thread owning the simulated world.

Everything behind a frontend — the :class:`SimKernel` clock, the guard
budget stack in :mod:`repro.resolver.guard`, the process-global cost
meter — is single-threaded state designed for the deterministic sim
rail. Real sockets deliver datagrams concurrently, so the engine
serializes: the asyncio event loop only answers repeat questions from
the backend's packet cache, admits, sheds, and enqueues; ONE worker
thread drains the queue and calls ``handle_datagram``, which keeps
every sim-rail invariant intact while the frontends stay responsive
under flood.

Backpressure is explicit and real-time. The pending queue is bounded by
a :class:`~repro.resolver.guard.ConcurrencyGate`; an arrival that finds
no slot is shed *on the event loop* — RFC 8767 serve-stale through the
resolver's :meth:`shed_datagram` when possible, else a header-only
REFUSED built by :func:`wire_rcode_reply` (12 bytes of work per flood
packet, no parsing). Queued queries carry a deadline; ones that go
stale before the worker reaches them are answered REFUSED rather than
silently dropped. A backend exception becomes a SERVFAIL plus an error
record — the soak harness asserts that record stays empty.
"""

from __future__ import annotations

import queue
import threading
import time
import traceback
from dataclasses import dataclass, field

from repro import obs
from repro.dns.rcode import Rcode
from repro.resolver.guard import ConcurrencyGate

#: QR bit plus the opcode field of the DNS header flags word.
_QR = 0x8000
_OPCODE_MASK = 0x7800
_RD = 0x0100


def wire_rcode_reply(query_wire, rcode):
    """A header-only reply to *query_wire* with *rcode* (None on garbage).

    Echoes the query id and opcode, sets QR, preserves RD, zeroes every
    section count. This is the cheapest legal DNS answer — the shed path
    under flood must not pay a parse per packet.
    """
    if len(query_wire) < 4:
        return None
    flags_in = int.from_bytes(query_wire[2:4], "big")
    if flags_in & _QR:
        return None  # a response: never answer answers (reflection hygiene)
    flags_out = _QR | (flags_in & _OPCODE_MASK) | (flags_in & _RD) | (int(rcode) & 0xF)
    return query_wire[:2] + flags_out.to_bytes(2, "big") + b"\x00" * 8


@dataclass
class ServiceStats:
    """Aggregate engine counters (monotonic; read without locking)."""

    received: int = 0
    answered: int = 0
    packed: int = 0  # answered on the event loop from the packet cache
    no_answer: int = 0  # backend returned None (garbage in, silence out)
    shed_refused: int = 0
    shed_stale: int = 0
    expired: int = 0  # queued past deadline before the worker reached it
    errors: int = 0  # backend raised; client got SERVFAIL
    error_samples: list = field(default_factory=list)

    def shed_total(self):
        return self.shed_refused + self.shed_stale

    def snapshot(self):
        return {
            "received": self.received,
            "answered": self.answered,
            "packed": self.packed,
            "no_answer": self.no_answer,
            "shed_refused": self.shed_refused,
            "shed_stale": self.shed_stale,
            "expired": self.expired,
            "errors": self.errors,
        }


class _Reservoir:
    """Bounded latency sample (ms): overwrite-oldest, percentile reads."""

    __slots__ = ("_samples", "_capacity", "_head", "count")

    def __init__(self, capacity=8192):
        self._samples = []
        self._capacity = capacity
        self._head = 0
        self.count = 0

    def add(self, value):
        self.count += 1
        if len(self._samples) < self._capacity:
            self._samples.append(value)
        else:
            self._samples[self._head] = value
            self._head = (self._head + 1) % self._capacity

    def percentile(self, q):
        """The q-th percentile (0-100) of retained samples, or None."""
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        index = min(len(ordered) - 1, int(len(ordered) * q / 100.0))
        return ordered[index]


@dataclass
class _Job:
    __slots__ = ("backend_name", "backend", "wire", "src_ip", "via_tcp", "reply", "deadline", "t_in")
    backend_name: str
    backend: object
    wire: bytes
    src_ip: str
    via_tcp: bool
    reply: object
    deadline: float
    t_in: float


class ServiceEngine:
    """Bounded-queue, single-worker execution core for the DNS service.

    *capacity* bounds pending + in-service queries (the backpressure
    depth); *pending_timeout_s* bounds how stale a queued query may go
    before it is answered REFUSED instead of resolved. ``submit`` is
    called from the event loop (or any thread); ``reply`` callbacks fire
    on the worker thread — frontends hop them back to the loop with
    ``call_soon_threadsafe``.
    """

    def __init__(self, capacity=64, pending_timeout_s=5.0):
        self.gate = ConcurrencyGate(capacity)
        self.pending_timeout_s = pending_timeout_s
        self.stats = ServiceStats()
        self.latency = _Reservoir()
        self._queue = queue.SimpleQueue()
        self._thread = None
        self._drained = threading.Event()
        self._accepting = False

    # -- lifecycle -----------------------------------------------------------

    def start(self):
        if self._thread is None:
            self._accepting = True
            self._drained.clear()
            self._thread = threading.Thread(
                target=self._run, name="service-engine", daemon=True
            )
            self._thread.start()
        return self

    def drain(self, timeout=30.0):
        """Stop accepting, flush every queued query, stop the worker.

        The sentinel sits behind all previously queued jobs in FIFO
        order, so every admitted query is answered before the worker
        exits — the "no in-flight query lost" half of graceful drain.
        Returns True when the flush completed within *timeout*.
        """
        self._accepting = False
        if self._thread is None:
            return True
        self._queue.put(None)
        finished = self._drained.wait(timeout)
        self._thread.join(timeout=1.0)
        self._thread = None
        return finished

    @property
    def running(self):
        return self._thread is not None and self._thread.is_alive()

    # -- event-loop side -----------------------------------------------------

    def submit(self, backend_name, backend, wire, src_ip, reply, via_tcp=False):
        """Admit one datagram; sheds (answering via *reply*) when full.

        Returns True when the query was queued for the worker. *reply*
        is always eventually invoked with wire bytes or None.
        """
        self.stats.received += 1
        if not self._accepting or not self.gate.admit():
            reply(self.shed_reply(backend_name, backend, wire, via_tcp))
            return False
        now = time.monotonic()
        self._queue.put(
            _Job(
                backend_name,
                backend,
                wire,
                src_ip,
                via_tcp,
                reply,
                now + self.pending_timeout_s,
                now,
            )
        )
        return True

    def packed_reply(self, backend_name, backend, wire, via_tcp):
        """A repeat question's stored reply, or None (see
        ``ValidatingResolver.packed_answer``); read-only, loop-safe.

        A hit is counted as received and packed, never reaches a gate or
        the worker, and stays out of the latency reservoir.
        """
        packed = getattr(backend, "packed_answer", None)
        if packed is None:
            return None
        answer = packed(wire, via_tcp)
        if answer is not None:
            self.stats.received += 1
            self.stats.packed += 1
            self._count(backend_name, "packed")
        return answer

    def shed_reply(self, backend_name, backend, wire, via_tcp):
        """The overload answer, built without touching the worker's state.

        Also used directly by frontends shedding at their *per-socket*
        gate, before the query ever reaches the engine's global one.
        """
        shed = getattr(backend, "shed_datagram", None)
        if shed is not None:
            answer = shed(wire, via_tcp=via_tcp)
            if answer is not None:
                # shed_datagram already counted refused-vs-stale in the
                # guard metric; classify locally by the rcode for stats.
                if len(answer) >= 4 and (answer[3] & 0xF) == int(Rcode.REFUSED):
                    self.stats.shed_refused += 1
                else:
                    self.stats.shed_stale += 1
                self._count(backend_name, "shed")
                return answer
        self.stats.shed_refused += 1
        self._count(backend_name, "shed")
        return wire_rcode_reply(wire, Rcode.REFUSED)

    # -- worker side ---------------------------------------------------------

    def _run(self):
        while True:
            job = self._queue.get()
            if job is None:
                break
            try:
                self._serve(job)
            finally:
                self.gate.release()
        self._drained.set()

    def _serve(self, job):
        now = time.monotonic()
        if now > job.deadline:
            self.stats.expired += 1
            self._count(job.backend_name, "expired")
            job.reply(wire_rcode_reply(job.wire, Rcode.REFUSED))
            return
        try:
            answer = job.backend.handle_datagram(
                job.wire, job.src_ip, via_tcp=job.via_tcp
            )
        except Exception as exc:  # noqa: BLE001 — the service must not die
            self.stats.errors += 1
            if len(self.stats.error_samples) < 32:
                self.stats.error_samples.append(
                    "".join(
                        traceback.format_exception_only(type(exc), exc)
                    ).strip()
                )
            self._count(job.backend_name, "error")
            job.reply(wire_rcode_reply(job.wire, Rcode.SERVFAIL))
            return
        self.latency.add((time.monotonic() - job.t_in) * 1000.0)
        if answer is None:
            self.stats.no_answer += 1
            self._count(job.backend_name, "no_answer")
        else:
            self.stats.answered += 1
            self._count(job.backend_name, "answered")
        job.reply(answer)

    # -- metrics -------------------------------------------------------------

    def _count(self, backend_name, outcome):
        if not obs.enabled:
            return
        obs.registry.counter(
            "repro_service_queries_total",
            "Queries through the socket service, by backend and outcome.",
            labelnames=("backend", "outcome"),
        ).labels(backend=backend_name, outcome=outcome).inc()

    def snapshot(self):
        """Engine state for the final metrics snapshot and the soak report.

        ``latency_p50_ms`` / ``latency_p99_ms`` cover the queries that
        reached the worker (admission to reply); ``packed`` answers are
        not in them.
        """
        out = self.stats.snapshot()
        out["inflight"] = self.gate.inflight
        out["peak_inflight"] = self.gate.peak
        out["gate_shed"] = self.gate.shed
        out["latency_p50_ms"] = self.latency.percentile(50)
        out["latency_p99_ms"] = self.latency.percentile(99)
        return out
