"""Wire-compatible asyncio UDP/TCP frontends over the service engine.

Each :class:`Binding` puts one simulated backend (an
``AuthoritativeServer`` or a ``ValidatingResolver``) on a real
``host:port``, answering anything that speaks RFC 1035 — ``dig``,
``kdig``, zdns, unbound as a forwarder. UDP answers come back truncated
to the client's EDNS payload size with TC set (the backend's encoder
does that); TCP uses 2-byte length framing and serves the fallback.

The hardening lives here:

- **packet cache first** — a repeat question the resolver answered
  before is answered on the event loop from its packet cache
  (``packed_answer``, read-only like ``shed_datagram``), ahead of every
  gate and the worker queue;
- **per-socket backpressure** — every binding carries its own
  :class:`~repro.resolver.guard.ConcurrencyGate`; arrivals past its
  depth are shed at the socket before touching the engine's global gate;
- **TCP limits** — a global connection cap (over-cap connections are
  closed immediately), a handshake timeout on the first length-prefixed
  frame, an idle timeout between frames, and a periodic reaper that
  closes connections making no progress (slow-loris: a client dribbling
  one byte per ``tcp_idle_timeout_s`` would otherwise hold a slot
  forever — the reaper watches *frame completion*, not socket reads);
  every accepted connection ends with one counted close reason
  (``tcp_closed`` in the snapshot);
- **graceful drain** — SIGTERM/SIGINT stop the listeners, flush every
  queued query through the engine, answer late arrivals with the shed
  path, then emit a final metrics snapshot;
- **crash-only restart** — sockets bind with ``SO_REUSEPORT`` where the
  platform has it, so a replacement process binds while the dying one's
  sockets linger.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import signal
import socket
import time
from dataclasses import dataclass, field

from repro.resolver.guard import ConcurrencyGate
from repro.service.engine import ServiceEngine

#: Largest UDP datagram worth handing to a backend.
MAX_UDP_DATAGRAM = 65535

#: The most datagrams one delivery takes off a UDP socket (a
#: default-sized receive buffer holds about this many small queries).
UDP_READ_BATCH = 256


@dataclass
class Binding:
    """One backend exposed on one real socket address."""

    name: str
    backend: object
    host: str = "127.0.0.1"
    port: int = 0
    #: Per-socket pending-query bound (the backpressure depth for this
    #: binding alone; None = only the engine's global gate applies).
    max_pending: int = 128
    bound_port: int = field(default=None, init=False)
    gate: ConcurrencyGate = field(default=None, init=False)

    def __post_init__(self):
        self.gate = ConcurrencyGate(self.max_pending)


class _UdpProtocol(asyncio.DatagramProtocol):
    """One UDP socket: admit → enqueue; replies hop back via the loop.

    asyncio delivers one datagram per loop iteration, and the first one
    dispatched wakes the engine worker, which then takes the GIL at every
    system call the loop makes. Taken one at a time, a flood would be
    paced by the very worker it overloads and pile up in the kernel
    buffer, never reaching the gates. So each delivery first reads the
    rest of the socket's backlog, then dispatches all of it: a burst
    meets the gates at the rate it arrived.
    """

    def __init__(self, service, binding):
        self.service = service
        self.binding = binding
        self.transport = None
        self._sock = None

    def connection_made(self, transport):
        self.transport = transport
        # A second handle on the same socket, for reading the backlog.
        self._sock = transport.get_extra_info("socket").dup()

    def connection_lost(self, exc):
        self._sock.close()

    def datagram_received(self, data, addr):
        backlog = [(data, addr)]
        while len(backlog) < UDP_READ_BATCH:
            try:
                backlog.append(self._sock.recvfrom(MAX_UDP_DATAGRAM))
            except OSError:  # drained (EAGAIN), or an error_received() case
                break
        for data, addr in backlog:
            if len(data) > MAX_UDP_DATAGRAM:
                continue
            self.service._dispatch(
                self.binding,
                data,
                addr[0],
                via_tcp=False,
                send=lambda wire, addr=addr: self._send(wire, addr),
            )

    def _send(self, wire, addr):
        if wire is not None and self.transport is not None and not self.transport.is_closing():
            self.transport.sendto(wire, addr)

    def error_received(self, exc):
        # ICMP port-unreachable from clients that gave up: not our error.
        pass


class DnsService:
    """The bound service: one engine, one event loop, many sockets."""

    def __init__(
        self,
        bindings,
        engine=None,
        tcp_max_connections=64,
        tcp_handshake_timeout_s=5.0,
        tcp_idle_timeout_s=10.0,
        reaper_interval_s=1.0,
        reuse_port=True,
    ):
        self.bindings = list(bindings)
        self.engine = engine if engine is not None else ServiceEngine()
        self.tcp_max_connections = tcp_max_connections
        self.tcp_handshake_timeout_s = tcp_handshake_timeout_s
        self.tcp_idle_timeout_s = tcp_idle_timeout_s
        self.reaper_interval_s = reaper_interval_s
        self.reuse_port = reuse_port and hasattr(socket, "SO_REUSEPORT")
        #: Close reason -> connections (rejected, eof, truncated,
        #: empty_frame, idle, reaped, reset, dropped, drain).
        self.tcp_closed = collections.Counter()
        self._loop = None
        self._udp_transports = []
        self._tcp_servers = []
        #: writer -> last frame-completion monotonic time (reaper state).
        self._tcp_progress = {}
        self._reaper_task = None
        self._stop_event = None
        self._started = False
        self._epoch = time.time()

    # -- lifecycle -----------------------------------------------------------

    @property
    def started(self):
        return self._started

    async def start(self):
        """Bind every binding's UDP+TCP sockets and start the engine."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self.engine.start()
        for binding in self.bindings:
            await self._bind(binding)
            self._wire_wall_clock(binding.backend)
        self._reaper_task = self._loop.create_task(self._reap_loop())
        self._started = True
        return self

    async def _bind(self, binding):
        """Bind UDP then TCP on the same port (retrying ephemeral picks)."""
        last_error = None
        for __ in range(5):
            transport, __proto = await self._loop.create_datagram_endpoint(
                lambda b=binding: _UdpProtocol(self, b),
                local_addr=(binding.host, binding.port),
                reuse_port=self.reuse_port or None,
            )
            port = transport.get_extra_info("sockname")[1]
            try:
                server = await asyncio.start_server(
                    lambda r, w, b=binding: self._tcp_session(b, r, w),
                    binding.host,
                    port,
                    reuse_port=self.reuse_port or None,
                )
            except OSError as exc:
                # Ephemeral UDP port already taken on TCP: redraw.
                transport.close()
                last_error = exc
                if binding.port != 0:
                    raise
                continue
            binding.bound_port = port
            self._udp_transports.append(transport)
            self._tcp_servers.append(server)
            return
        raise last_error

    def _wire_wall_clock(self, backend):
        # Query-log timestamps on the sim clock are meaningless for a
        # live service; point backends that expose the hook at wall time.
        if hasattr(backend, "clock") and backend.clock is None:
            backend.clock = lambda: (time.time() - self._epoch) * 1000.0

    def install_signal_handlers(self):
        """SIGTERM/SIGINT → graceful drain (idempotent, loop-native)."""
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, ValueError):
                self._loop.add_signal_handler(signum, self._stop_event.set)

    async def serve_until_signal(self):
        """Block until SIGTERM/SIGINT (or :meth:`shutdown`), then drain."""
        self.install_signal_handlers()
        await self._stop_event.wait()
        return await self.drain_and_stop()

    def shutdown(self):
        """Request a graceful drain from any thread."""
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)

    async def drain_and_stop(self):
        """Stop accepting, flush in-flight queries, close, and snapshot.

        Order matters: listeners close first (no new TCP), the engine
        drains with UDP transports still open (every queued reply must
        reach its socket), then transports and connections close. The
        returned snapshot is the service's final word — callers persist
        or print it.
        """
        for server in self._tcp_servers:
            server.close()
        if self._reaper_task is not None:
            self._reaper_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._reaper_task
            self._reaper_task = None
        flushed = await self._loop.run_in_executor(None, self.engine.drain)
        for server in self._tcp_servers:
            await server.wait_closed()
        for writer in list(self._tcp_progress):
            self._close_tcp(writer, "drain")
        for transport in self._udp_transports:
            transport.close()
        self._udp_transports.clear()
        self._tcp_servers.clear()
        self._started = False
        snapshot = self.snapshot()
        snapshot["drain_flushed"] = flushed
        return snapshot

    def snapshot(self):
        """Engine counters plus the frontend's own (TCP caps, bindings)."""
        out = self.engine.snapshot()
        out["tcp_closed"] = dict(sorted(self.tcp_closed.items()))
        out["tcp_open"] = len(self._tcp_progress)
        out["bindings"] = {
            binding.name: {
                "port": binding.bound_port,
                "socket_shed": binding.gate.shed,
                "socket_peak_pending": binding.gate.peak,
            }
            for binding in self.bindings
        }
        return out

    # -- dispatch ------------------------------------------------------------

    def _dispatch(self, binding, wire, src_ip, via_tcp, send):
        """Answer a repeat question from the packet cache; else admit at
        the socket gate, then the engine; shed where refused.

        *send* runs on the event loop; engine replies arrive on the
        worker thread and hop back with ``call_soon_threadsafe``.
        """
        packed = self.engine.packed_reply(binding.name, binding.backend, wire, via_tcp)
        if packed is not None:
            send(packed)
            return
        if not binding.gate.admit():
            self.engine.stats.received += 1
            send(self.engine.shed_reply(binding.name, binding.backend, wire, via_tcp))
            return

        def reply(wire_out, _released=[False]):
            if not _released[0]:
                _released[0] = True
                binding.gate.release()
            self._loop.call_soon_threadsafe(send, wire_out)

        self.engine.submit(
            binding.name, binding.backend, wire, src_ip, reply, via_tcp=via_tcp
        )

    # -- TCP -----------------------------------------------------------------

    def _close_tcp(self, writer, reason):
        """Close *writer* once, counting why (no-op if already closed)."""
        if self._tcp_progress.pop(writer, None) is not None:
            self.tcp_closed[reason] += 1
        writer.close()

    async def _tcp_session(self, binding, reader, writer):
        """One TCP connection: length-framed queries until EOF or timeout."""
        if len(self._tcp_progress) >= self.tcp_max_connections:
            self.tcp_closed["rejected"] += 1
            writer.close()
            return
        self._tcp_progress[writer] = time.monotonic()
        peer = writer.get_extra_info("peername") or ("?", 0)
        reason = "eof"
        try:
            timeout = self.tcp_handshake_timeout_s
            while True:
                length = 0
                try:
                    header = await asyncio.wait_for(
                        reader.readexactly(2), timeout=timeout
                    )
                    length = int.from_bytes(header, "big")
                    if length == 0:
                        reason = "empty_frame"
                        break
                    wire = await asyncio.wait_for(
                        reader.readexactly(length), timeout=self.tcp_idle_timeout_s
                    )
                except asyncio.IncompleteReadError as exc:
                    # A clean close falls between frames; anything else
                    # was cut mid-frame.
                    reason = "truncated" if exc.partial or length else "eof"
                    break
                except asyncio.TimeoutError:
                    # Idle or dribbling (slow-loris): reaped like a
                    # connection the reaper closes.
                    reason = "idle"
                    break
                self._tcp_progress[writer] = time.monotonic()
                answered = self._loop.create_future()
                self._dispatch(
                    binding,
                    wire,
                    peer[0],
                    via_tcp=True,
                    send=lambda out, fut=answered: fut.done() or fut.set_result(out),
                )
                out = await answered
                if out is None:
                    reason = "dropped"  # backend dropped it: close, like a real server
                    break
                writer.write(len(out).to_bytes(2, "big") + out)
                await writer.drain()
                self._tcp_progress[writer] = time.monotonic()
                timeout = self.tcp_idle_timeout_s
        except OSError:  # reset by the peer, broken pipe
            reason = "reset"
        finally:
            self._close_tcp(writer, reason)
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _reap_loop(self):
        """Close TCP connections with no completed frame for too long."""
        while True:
            await asyncio.sleep(self.reaper_interval_s)
            now = time.monotonic()
            for writer, last in list(self._tcp_progress.items()):
                if now - last > self.tcp_idle_timeout_s:
                    self._close_tcp(writer, "reaped")
