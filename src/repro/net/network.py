"""The datagram fabric connecting simulated hosts.

Delivery is synchronous from the caller's point of view (a query returns
its response), but time is owned by a :class:`~repro.net.sim.SimKernel`:
every exchange is a delay-yielding generator whose waits — path latency,
injected fault delays — become events on the kernel clock, so resolvers
and scanners experience timeouts and retries exactly as their real
counterparts do, and a campaign executor can overlap many sessions on the
same clock.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields

from repro import obs
from repro.memo import Memo
from repro.net.address import is_ipv6, normalize
from repro.net.faults import FaultContext
from repro.net.sim import SimKernel

#: The public network id: hosts here are reachable from anywhere.
PUBLIC = "public"

#: Resolved per-transport metric children for the exchange hot path.
_EXCHANGE_CHILDREN = obs.ChildCache()


class Host:
    """Interface for anything with an IP address.

    Subclasses implement :meth:`handle_datagram`, returning response wire
    bytes (or ``None`` to drop). ``via_tcp`` distinguishes the retry path
    after truncation. :meth:`forget` drops what the host has cached: the
    resolver survey calls it when a host's probe session is over.
    """

    def handle_datagram(self, wire, src_ip, via_tcp=False):
        raise NotImplementedError

    def forget(self):
        """Drop every cache this host keeps; a host that caches nothing
        has nothing to drop."""


@dataclass
class NetworkStats:
    """Aggregate counters for traffic observation and the ethics ablation.

    ``bytes_sent`` counts bytes that actually went onto a path: datagrams
    the loss model discards before delivery contribute nothing.
    """

    datagrams: int = 0
    tcp_queries: int = 0
    dropped: int = 0
    refused_closed: int = 0
    bytes_sent: int = 0

    def reset(self):
        for spec in fields(self):
            setattr(self, spec.name, spec.default)


class Network:
    """IP registry plus delivery with loss, latency, and closed networks."""

    def __init__(
        self, loss_rate=0.0, base_latency_ms=10.0, seed=0, faults=None, kernel=None
    ):
        self._hosts = {}
        #: host ip -> network id; queries to a non-public network id are
        #: only delivered when the source is in the same network.
        self._network_of = {}
        #: address spelling -> canonical text, so a datagram between
        #: known endpoints costs two dict hits instead of two parses.
        self._canonical = Memo("addresses", 65536)
        self._rng = random.Random(seed)
        self.loss_rate = loss_rate
        self.base_latency_ms = base_latency_ms
        #: The simulation kernel owning this network's clock. Networks can
        #: share one kernel (one run, one clock); by default each gets its
        #: own.
        self.kernel = kernel if kernel is not None else SimKernel()
        self.stats = NetworkStats()
        #: Optional :class:`repro.net.faults.FaultPlan` judging every datagram.
        self.faults = faults
        # Span durations measure simulated time. This bind is implicit
        # (non-exclusive): it keeps the legacy last-network-wins behaviour
        # until a run claims the tracer clock via ``kernel.bind_obs()``.
        self.kernel.bind_obs(exclusive=False)

    @property
    def clock_ms(self):
        """Simulated time, read through the kernel (frame-aware)."""
        return self.kernel.clock.read()

    @clock_ms.setter
    def clock_ms(self, value):
        self.kernel.clock.write(value)

    # -- registration -------------------------------------------------------

    def canonical(self, ip):
        """Canonical text of *ip*, parsed once per distinct spelling.

        A non-address raises ``ValueError`` every time: only successful
        parses are remembered.
        """
        known = self._canonical.get(ip)
        if known is None:
            known = normalize(ip)
            self._canonical.put(ip, known)
        return known

    def attach(self, ip, host, network_id=PUBLIC):
        """Register *host* at *ip*; non-public network ids are closed."""
        ip = self.canonical(ip)
        if ip in self._hosts:
            raise ValueError(f"address {ip} already attached")
        self._hosts[ip] = host
        self._network_of[ip] = network_id
        return ip

    def detach(self, ip):
        ip = self.canonical(ip)
        self._hosts.pop(ip, None)
        self._network_of.pop(ip, None)

    def set_faults(self, plan):
        """Install (or clear, with ``None``) a fault-injection plan."""
        self.faults = plan

    def host_at(self, ip):
        """The host attached at *ip*, or None."""
        return self._hosts.get(self.canonical(ip))

    def network_of(self, ip):
        """The network segment an address belongs to (default: public)."""
        return self._network_of.get(self.canonical(ip), PUBLIC)

    def addresses(self, ipv6=None):
        """All attached addresses, optionally filtered by family."""
        result = []
        for ip in self._hosts:
            if ipv6 is None or is_ipv6(ip) == ipv6:
                result.append(ip)
        return sorted(result)

    # -- delivery -------------------------------------------------------------

    def send(self, src_ip, dst_ip, wire, via_tcp=False):
        """Deliver *wire* from *src_ip* to *dst_ip*; returns response bytes.

        ``None`` models packet loss or an unreachable / refusing host.
        The exchange runs on the kernel: at the top level each wait is a
        heap event; nested sends (a resolver recursing inside
        ``handle_datagram``) and sends inside a session frame run inline.
        """
        return self.kernel.execute(self.exchange(src_ip, dst_ip, wire, via_tcp))

    def exchange(self, src_ip, dst_ip, wire, via_tcp=False):
        """Generator form of :meth:`send`: yields delays, returns response."""
        src_ip = self.canonical(src_ip)
        dst_ip = self.canonical(dst_ip)
        self.stats.datagrams += 1
        if via_tcp:
            self.stats.tcp_queries += 1
        if not obs.enabled:
            response, __ = yield from self._exchange_steps(
                src_ip, dst_ip, wire, via_tcp
            )
            return response

        transport = "tcp" if via_tcp else "udp"
        span = (
            obs.tracer.start("net.hop", dst=dst_ip, transport=transport)
            if obs.tracing
            else None
        )
        response, drop = yield from self._exchange_steps(src_ip, dst_ip, wire, via_tcp)
        if span is not None:
            span.set(delivered=response is not None)
            if drop:
                span.set(drop=drop)
            obs.tracer.finish(span)
        children = _EXCHANGE_CHILDREN.get(obs.registry, transport)
        if children is None:
            children = _EXCHANGE_CHILDREN.put(
                transport,
                (
                    obs.registry.counter(
                        "repro_net_datagrams_total",
                        "Datagrams entering the simulated network, "
                        "by transport.",
                        labelnames=("transport",),
                    ).labels(transport=transport),
                    obs.registry.counter(
                        "repro_net_bytes_total",
                        "Wire bytes moved, by direction (loss-dropped "
                        "queries excluded).",
                        labelnames=("direction",),
                    ).labels(direction="query"),
                    obs.registry.counter(
                        "repro_net_bytes_total", labelnames=("direction",)
                    ).labels(direction="response"),
                ),
            )
        datagrams, query_bytes, response_bytes = children
        datagrams.inc()
        if drop:
            obs.registry.counter(
                "repro_net_drops_total",
                "Datagrams not delivered, by reason.",
                labelnames=("reason",),
            ).labels(reason=drop).inc()
        if drop != "loss":
            query_bytes.inc(len(wire))
        if response is not None:
            response_bytes.inc(len(response))
        return response

    def _exchange_steps(self, src_ip, dst_ip, wire, via_tcp):
        """Move one datagram; yields waits, returns ``(response, drop_reason)``.

        The yield points are exactly where the serial fabric used to do
        ``clock_ms +=``, in the same order relative to every RNG draw, so
        driving this generator inline reproduces the legacy clock and
        randomness trajectories bit for bit.
        """
        yield self._path_latency()
        ctx = None
        if self.faults is not None:
            ctx = FaultContext(src_ip, dst_ip, wire, via_tcp, self)
            delay, verdict = self.faults.on_send(ctx)
            if delay:
                yield delay
            if verdict is not None:
                if verdict.drop_reason:
                    self.stats.dropped += 1
                    return None, verdict.drop_reason
                # A synthesized response (e.g. rate-limited REFUSED): the
                # query crossed the path and a real answer came back.
                self.stats.bytes_sent += len(wire) + len(verdict.response)
                yield self._path_latency()
                return verdict.response, ""
        host = self._hosts.get(dst_ip)
        if host is None:
            self.stats.dropped += 1
            self.stats.bytes_sent += len(wire)
            return None, "unreachable"
        network_of = self._network_of
        dst_network = network_of.get(dst_ip, PUBLIC)
        if dst_network != PUBLIC and network_of.get(src_ip, PUBLIC) != dst_network:
            # Closed resolver: silently unreachable from the outside, the
            # reason the paper needed RIPE Atlas probes.
            self.stats.refused_closed += 1
            self.stats.bytes_sent += len(wire)
            return None, "closed"
        if not via_tcp and self.loss_rate and self._rng.random() < self.loss_rate:
            # Lost before delivery: the datagram never crossed a path, so
            # it contributes no bytes.
            self.stats.dropped += 1
            return None, "loss"
        self.stats.bytes_sent += len(wire)
        response = host.handle_datagram(wire, src_ip, via_tcp=via_tcp)
        if response is not None and ctx is not None:
            mutated = self.faults.on_response(ctx, response)
            if mutated is None:
                # The response was eaten on the return path.
                self.stats.dropped += 1
                return None, "fault-response"
            response = mutated
        if response is not None:
            yield self._path_latency()
            self.stats.bytes_sent += len(response)
        return response, ""

    def _path_latency(self):
        jitter = self._rng.random() * self.base_latency_ms * 0.2
        return self.base_latency_ms + jitter
