"""Real-socket service mode: frontends, engine, loadgen, soak.

Everything here exercises the live asyncio frontends over actual OS
sockets on the loopback, with a pure-python wire client standing in for
``dig`` (the CI workflow runs the real ``dig`` compatibility check).
The event loops are per-test via ``asyncio.run`` — the container has no
pytest-asyncio and must not need it.
"""

import asyncio
import random
import socket
import struct
import sys
import threading
import time

import pytest

from repro import obs
from repro.dns.edns import EDE_STALE_ANSWER, EdnsOption
from repro.dns.flags import Flag
from repro.dns.message import Message, make_query
from repro.dns.rcode import Rcode
from repro.dns.types import RdataType
from repro.obs.timeseries import family_sum
from repro.resolver.validating import Verdict
from repro.service.engine import ServiceEngine, wire_rcode_reply
from repro.service.frontend import Binding, DnsService
from repro.service.loadgen import LoadGenerator, benign_pool
from repro.service.soak import SoakConfig, _fuzz_corpus, run_soak
from repro.service.world import build_service_world
from repro.testbed import adversary

DOMAINS, TLDS = 6, 4
PROBE_VALID = "www.valid.rfc9276-in-the-wild.com"


@pytest.fixture(scope="module")
def world():
    return build_service_world(domains=DOMAINS, tlds=TLDS, seed=3)


async def _start(world, **kwargs):
    engine_kwargs = kwargs.pop("engine_kwargs", {})
    service = DnsService(
        [Binding("resolver", world.resolver, port=0, **kwargs.pop("binding", {}))],
        engine=ServiceEngine(**engine_kwargs),
        **kwargs,
    )
    await service.start()
    return service, service.bindings[0].bound_port


async def _udp_query(port, wire, timeout=5.0, host="127.0.0.1"):
    """One datagram out, first datagram back (no id demux needed here)."""
    loop = asyncio.get_running_loop()
    reply = loop.create_future()

    class _Probe(asyncio.DatagramProtocol):
        def connection_made(self, transport):
            transport.sendto(wire)

        def datagram_received(self, data, addr):
            if not reply.done():
                reply.set_result(data)

    transport, __ = await loop.create_datagram_endpoint(
        _Probe, remote_addr=(host, port)
    )
    try:
        return await asyncio.wait_for(reply, timeout)
    finally:
        transport.close()


async def _tcp_query(port, wire, timeout=5.0, host="127.0.0.1"):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(len(wire).to_bytes(2, "big") + wire)
        await writer.drain()
        header = await asyncio.wait_for(reader.readexactly(2), timeout)
        return await asyncio.wait_for(
            reader.readexactly(int.from_bytes(header, "big")), timeout
        )
    finally:
        writer.close()


class TestWireRcodeReply:
    def test_header_only_refused(self):
        query = make_query(PROBE_VALID, RdataType.A, msg_id=0x1234)
        out = wire_rcode_reply(query.to_wire(), Rcode.REFUSED)
        assert len(out) == 12
        response = Message.from_wire(out)
        assert response.id == 0x1234
        assert response.is_response
        assert response.rcode == Rcode.REFUSED
        assert not response.question

    def test_never_answers_responses_or_runts(self):
        query = make_query(PROBE_VALID, RdataType.A)
        response_wire = bytearray(query.to_wire())
        response_wire[2] |= 0x80  # QR set: already a response
        assert wire_rcode_reply(bytes(response_wire), Rcode.REFUSED) is None
        assert wire_rcode_reply(b"\x12\x34\x01", Rcode.REFUSED) is None


class TestShedDatagram:
    def test_cold_name_refused_warm_name_stale(self, world):
        fresh = make_query(PROBE_VALID, RdataType.A, want_dnssec=True)
        answered = world.resolver.handle_datagram(fresh.to_wire(), "10.9.9.9")
        assert Message.from_wire(answered).rcode == Rcode.NOERROR

        shed = world.resolver.shed_datagram(fresh.to_wire())
        stale = Message.from_wire(shed)
        assert stale.rcode == Rcode.NOERROR
        assert any(
            ede.info_code == EDE_STALE_ANSWER for ede in stale.extended_errors()
        )

        cold = make_query(f"never-queried.{PROBE_VALID}", RdataType.A)
        refused = Message.from_wire(world.resolver.shed_datagram(cold.to_wire()))
        assert refused.rcode == Rcode.REFUSED

    def test_garbage_and_responses_dropped(self, world):
        assert world.resolver.shed_datagram(b"\x00\x01junk") is None
        response_wire = bytearray(make_query(PROBE_VALID, RdataType.A).to_wire())
        response_wire[2] |= 0x80
        assert world.resolver.shed_datagram(bytes(response_wire)) is None


def _ask(resolver, wire, via_tcp=False):
    """(packed reply or None, full-path reply) for one datagram, in that
    order: the packed read first, then the worker's path on the same
    state (a packed read mutates nothing the full path reads)."""
    packed = resolver.packed_answer(wire, via_tcp)
    return packed, resolver.handle_datagram(wire, "10.9.9.9", via_tcp=via_tcp)


def _mixed_case(rng, name):
    return "".join(c.upper() if rng.random() < 0.5 else c for c in name)


class TestPacketCache:
    def test_packed_reply_is_the_full_path_reply(self, world):
        """Over a seeded hot/unique/attack mix, on UDP and TCP, DO on and
        off, CD, a 512-octet payload and 0x20 case variants: every packed
        reply equals the full path's reply to the same bytes, id
        included (the packed id is the asker's, spliced in)."""
        resolver = world.resolver
        rng = random.Random(29)
        hot = benign_pool(DOMAINS, TLDS) + ["does-not-exist.rfc9276-in-the-wild.com"]
        variants = {name: [name] + [_mixed_case(rng, name) for __ in range(2)] for name in hot}
        kinds = adversary.default_attack_kinds()
        covered = set()
        hits = 0
        for index in range(600):
            draw = rng.random()
            if draw < 0.05:
                qname = adversary.attack_qname(rng.choice(kinds), unique=f"eq{index % 3}")
            elif draw < 0.35:
                qname = f"eq-u{index}.{rng.choice(hot)}"
            else:
                qname = rng.choice(variants[rng.choice(hot)])
            features = {
                "tcp": rng.random() < 0.3,
                "do": rng.random() < 0.7,
                "cd": rng.random() < 0.2,
                "small": rng.random() < 0.3,
            }
            query = make_query(
                qname,
                RdataType.A,
                want_dnssec=features["do"],
                payload_size=512 if features["small"] else 1232,
                msg_id=rng.randrange(65536),
            )
            if features["cd"]:
                query.set_flag(Flag.CD)
            wire = query.to_wire()
            packed, full = _ask(resolver, wire, via_tcp=features["tcp"])
            if packed is None:
                continue
            hits += 1
            assert packed == full, qname
            reply = Message.from_wire(packed)
            covered |= {feature for feature, on in features.items() if on}
            covered |= {"tc"} if reply.has_flag(Flag.TC) else set()
            covered |= {"case"} if qname not in hot else set()
            covered |= {Rcode.to_text(reply.rcode)}
        assert hits > 100
        assert covered >= {"tcp", "do", "cd", "small", "tc", "case", "NOERROR", "NXDOMAIN"}
        assert "SERVFAIL" not in covered  # guard-tripped attacks are never stored

    def test_no_stale_hits(self, world, monkeypatch):
        """An expired verdict, a verdict the SERVFAIL second chance
        replaced, and a guard-tripped attack are never served packed."""
        resolver = world.resolver
        wire = make_query(f"stale.{PROBE_VALID}", RdataType.A, want_dnssec=True).to_wire()
        for __ in range(2):
            _ask(resolver, wire)
        packed, full = _ask(resolver, wire)
        assert packed == full

        # Replaced: with the verdict gone (evicted), re-resolution takes
        # the SERVFAIL second chance, whose _flush_chain and retry cache a
        # new entry under the same key. The old entry has not expired.
        stored = resolver.packets.get((wire[2:], False))
        assert resolver.cache.drop(stored.key)
        validated = resolver._validated_verdict
        calls = []

        def bogus_once(*args):
            calls.append(args)
            if len(calls) == 1:
                return Verdict(Rcode.SERVFAIL, [], [])
            return validated(*args)

        monkeypatch.setattr(resolver, "_validated_verdict", bogus_once)
        packed, full = _ask(resolver, wire)
        monkeypatch.undo()
        assert packed is None and len(calls) == 2
        assert Message.from_wire(full).rcode == Rcode.NXDOMAIN  # the retry held
        assert stored.entry.expires_ms > resolver.network.kernel.now
        assert resolver.cache.peek(stored.key) is not stored.entry
        assert resolver.packed_answer(wire) is None  # live entry, not its own
        __, full = _ask(resolver, wire)  # a repeat again: stored afresh
        assert resolver.packed_answer(wire) == full

        # Expired: the entry the reply was built from is past its TTL.
        resolver.packets.get((wire[2:], False)).entry.expires_ms = (
            resolver.network.kernel.now
        )
        assert resolver.packed_answer(wire) is None

        # Guard-tripped: the attack verdict is never cached, so never packed.
        attack = make_query(
            adversary.attack_qname("keytrap", unique="stale"), RdataType.A, want_dnssec=True
        ).to_wire()
        for __ in range(3):
            packed, full = _ask(resolver, attack)
            assert packed is None
            assert Message.from_wire(full).rcode == Rcode.SERVFAIL
        assert (attack[2:], False) not in resolver.packets.entries

    def test_loop_reads_race_worker_writes(self, world, monkeypatch):
        """The event loop reads the packet cache while the worker fills
        and evicts it. With the interpreter switching threads every
        100 µs (fifty times the default rate), every packed reply is
        still the expected one. A 1 µs interval, even restored
        afterwards, left the process slow enough that the soak's burst
        stopped filling the engine gate in the same pytest run."""
        resolver = world.resolver
        monkeypatch.setattr(resolver.packets, "limit", 3)  # eviction on every put
        hot = [
            make_query(name, RdataType.A, want_dnssec=True, msg_id=7).to_wire()
            for name in benign_pool(DOMAINS, TLDS)
        ]
        expected = {}
        for wire in hot:
            resolver.handle_datagram(wire, "10.9.9.9")
            expected[wire] = resolver.handle_datagram(wire, "10.9.9.9")
        stop = threading.Event()
        errors = []

        def worker():
            try:
                while not stop.is_set():
                    for wire in hot:
                        resolver.handle_datagram(wire, "10.9.9.9")
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        thread = threading.Thread(target=worker)
        thread.start()
        hits = 0
        try:
            deadline = time.monotonic() + 1.0
            while time.monotonic() < deadline:
                for wire in hot:
                    packed = resolver.packed_answer(wire)
                    if packed is not None:
                        hits += 1
                        assert packed == expected[wire]
        finally:
            stop.set()
            thread.join(timeout=10.0)
            sys.setswitchinterval(interval)
        assert not thread.is_alive() and not errors
        assert hits > 0

    def test_repeat_answered_on_the_loop_and_counted(self, world):
        obs.enable()
        try:
            async def scenario():
                service, port = await _start(world)
                try:
                    wire = make_query(
                        f"loop-{random.randrange(1 << 30)}.{PROBE_VALID}",
                        RdataType.A,
                        want_dnssec=True,
                    ).to_wire()
                    # Cold, then a repeat (stores the reply), then two hits.
                    replies = [await _udp_query(port, wire) for __ in range(3)]
                    replies.append(await _tcp_query(port, wire))
                    replies.append(await _tcp_query(port, wire))
                finally:
                    snapshot = await service.drain_and_stop()
                return replies, snapshot, service.engine.latency.count

            replies, snapshot, timed = asyncio.run(scenario())
            assert len(set(replies[:3])) == 1 and len(set(replies[3:])) == 1
            assert snapshot["packed"] == 2
            assert snapshot["received"] == 5 == snapshot["answered"] + snapshot["packed"]
            assert timed == snapshot["answered"]  # latency covers the worker only
            family = obs.registry.get("repro_service_queries_total")
            assert family.labels(backend="resolver", outcome="packed").value == 2
        finally:
            obs.disable()
            obs.reset()


class TestUdpFrontend:
    def test_validated_answer_over_real_socket(self, world):
        async def scenario():
            service, port = await _start(world)
            try:
                query = make_query(PROBE_VALID, RdataType.A, want_dnssec=True)
                raw = await _udp_query(port, query.to_wire())
            finally:
                await service.drain_and_stop()
            return query, Message.from_wire(raw)

        query, response = asyncio.run(scenario())
        assert response.id == query.id
        assert response.rcode == Rcode.NOERROR
        assert response.answer

    def test_nsec3_nxdomain_end_to_end(self, world):
        async def scenario():
            service, port = await _start(world)
            try:
                query = make_query(
                    "does-not-exist.rfc9276-in-the-wild.com",
                    RdataType.A,
                    want_dnssec=True,
                )
                raw = await _udp_query(port, query.to_wire())
            finally:
                await service.drain_and_stop()
            return Message.from_wire(raw)

        response = asyncio.run(scenario())
        assert response.rcode == Rcode.NXDOMAIN
        authority_types = {int(rrset.rrtype) for rrset in response.authority}
        assert int(RdataType.NSEC3) in authority_types
        assert int(RdataType.SOA) in authority_types

    def test_truncation_then_tcp_fallback(self, world):
        async def scenario():
            service, port = await _start(world)
            try:
                # The NSEC3 NXDOMAIN proof (~830 bytes signed) cannot fit
                # a 512-byte EDNS payload: TC over UDP, full over TCP.
                query = make_query(
                    "truncate-me.rfc9276-in-the-wild.com",
                    RdataType.A,
                    want_dnssec=True,
                    payload_size=512,
                )
                udp_raw = await _udp_query(port, query.to_wire())
                tcp_raw = await _tcp_query(port, query.to_wire())
            finally:
                await service.drain_and_stop()
            return udp_raw, tcp_raw

        udp_raw, tcp_raw = asyncio.run(scenario())
        udp_response = Message.from_wire(udp_raw)
        assert len(udp_raw) <= 512
        assert udp_response.has_flag(Flag.TC)
        tcp_response = Message.from_wire(tcp_raw)
        assert not tcp_response.has_flag(Flag.TC)
        assert tcp_response.rcode == Rcode.NXDOMAIN
        assert len(tcp_raw) > len(udp_raw)
        authority_types = {int(rrset.rrtype) for rrset in tcp_response.authority}
        assert int(RdataType.NSEC3) in authority_types

    def test_malformed_datagrams_survive(self, world):
        async def scenario():
            service, port = await _start(world)
            try:
                for chunk in _fuzz_corpus(random.Random(5), 80):
                    with pytest.raises(asyncio.TimeoutError):
                        await _udp_query(port, chunk, timeout=0.02)
                query = make_query(PROBE_VALID, RdataType.A)
                raw = await _udp_query(port, query.to_wire())
            finally:
                snapshot = await service.drain_and_stop()
            return Message.from_wire(raw), snapshot

        response, snapshot = asyncio.run(scenario())
        assert response.rcode == Rcode.NOERROR
        assert snapshot["errors"] == 0


class TestAdmissionControl:
    def test_overload_sheds_refused_and_counts_guard_metric(self, world):
        obs.enable()
        try:
            before = family_sum(obs.registry, "repro_guard_shed_total")

            async def scenario():
                # Capacity 0: every arrival sheds on the event loop —
                # the worker thread never sees them.
                service, port = await _start(
                    world, engine_kwargs={"capacity": 0}
                )
                try:
                    query = make_query(
                        f"shedme-{random.randrange(1 << 30)}.{PROBE_VALID}",
                        RdataType.A,
                    )
                    raw = await _udp_query(port, query.to_wire())
                finally:
                    snapshot = await service.drain_and_stop()
                return Message.from_wire(raw), snapshot

            response, snapshot = asyncio.run(scenario())
            assert response.rcode == Rcode.REFUSED
            assert snapshot["gate_shed"] >= 1
            assert snapshot["shed_refused"] >= 1
            assert family_sum(obs.registry, "repro_guard_shed_total") > before
        finally:
            obs.disable()
            obs.reset()

    def test_socket_gate_sheds_before_engine(self, world):
        """A never-asked name: a repeat question is answered from the
        packet cache before the socket gate by design, so it would never
        reach the gate this test closes."""

        async def scenario():
            service, port = await _start(
                world, binding={"max_pending": 0}
            )
            try:
                query = make_query(
                    f"gated-{random.randrange(1 << 30)}.{PROBE_VALID}", RdataType.A
                )
                raw = await _udp_query(port, query.to_wire())
            finally:
                snapshot = await service.drain_and_stop()
            return Message.from_wire(raw), snapshot

        response, snapshot = asyncio.run(scenario())
        assert response.rcode == Rcode.REFUSED
        assert snapshot["packed"] == 0
        binding = snapshot["bindings"]["resolver"]
        assert binding["socket_shed"] >= 1
        assert snapshot["gate_shed"] == 0


class TestGracefulDrain:
    def test_drain_answers_every_queued_query(self, world):
        count = 15

        async def scenario():
            service, port = await _start(world)
            loop = asyncio.get_running_loop()
            replies = []
            done = loop.create_future()

            class _Collector(asyncio.DatagramProtocol):
                def connection_made(self, transport):
                    self.transport = transport

                def datagram_received(self, data, addr):
                    replies.append(data)
                    if len(replies) >= count and not done.done():
                        done.set_result(None)

            transport, protocol = await loop.create_datagram_endpoint(
                _Collector, remote_addr=("127.0.0.1", port)
            )
            try:
                for index in range(count):
                    # Unique labels force full resolutions, so the worker
                    # still owes answers when the drain begins.
                    query = make_query(
                        f"drain{index}.{PROBE_VALID}", RdataType.A, msg_id=index
                    )
                    protocol.transport.sendto(query.to_wire())
                # Wait for admission (not completion): the drain promise
                # covers queries the engine has accepted.
                while service.engine.stats.received < count:
                    await asyncio.sleep(0.005)
                snapshot = await service.drain_and_stop()
                await asyncio.wait_for(done, timeout=5.0)
            finally:
                transport.close()
            return snapshot, replies

        snapshot, replies = asyncio.run(scenario())
        assert snapshot["drain_flushed"] is True
        assert len(replies) == count
        assert {Message.from_wire(raw).id for raw in replies} == set(range(count))
        assert snapshot["answered"] >= count

    def test_queries_after_drain_are_shed_not_lost(self, world):
        async def scenario():
            service, port = await _start(world)
            await service.drain_and_stop()
            # Engine still up but not accepting: submit sheds instantly.
            outcome = []
            query = make_query(f"late.{PROBE_VALID}", RdataType.A)
            service.engine.submit(
                "resolver",
                world.resolver,
                query.to_wire(),
                "127.0.0.1",
                outcome.append,
            )
            return outcome

        outcome = asyncio.run(scenario())
        assert len(outcome) == 1
        assert Message.from_wire(outcome[0]).rcode == Rcode.REFUSED


class TestTcpHardening:
    def test_slow_loris_is_reaped(self, world):
        async def scenario():
            service, port = await _start(
                world,
                tcp_idle_timeout_s=0.3,
                tcp_handshake_timeout_s=0.3,
                reaper_interval_s=0.1,
            )
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(b"\x00")  # half a length header, then stall
                await writer.drain()
                eof = await asyncio.wait_for(reader.read(1), timeout=3.0)
                writer.close()
            finally:
                snapshot = await service.drain_and_stop()
            return eof, snapshot

        eof, snapshot = asyncio.run(scenario())
        assert eof == b""  # server closed on us
        assert snapshot["tcp_closed"] in ({"idle": 1}, {"reaped": 1})
        assert snapshot["tcp_open"] == 0  # nothing leaks past drain

    def test_connection_cap_rejects_excess(self, world):
        async def scenario():
            service, port = await _start(world, tcp_max_connections=0)
            try:
                reader, __writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                eof = await asyncio.wait_for(reader.read(1), timeout=3.0)
            finally:
                snapshot = await service.drain_and_stop()
            return eof, snapshot

        eof, snapshot = asyncio.run(scenario())
        assert eof == b""
        assert snapshot["tcp_closed"] == {"rejected": 1}


    def test_hostile_framing_ends_in_counted_closes(self, world):
        """Length prefix 0, 65 535 complete (a padded query, answered;
        then zeros, dropped), 65 535 cut short, and a reset mid-frame:
        each connection ends in one counted close reason, nothing raises
        and the service still answers over UDP and TCP afterwards."""
        padded = make_query(f"frame.{PROBE_VALID}", RdataType.A, want_dnssec=True)
        padded.edns.options.append(EdnsOption(12, b""))
        fill = 65_535 - len(padded.to_wire())
        padded.edns.options[-1] = EdnsOption(12, bytes(fill))
        padded_wire = padded.to_wire()
        assert len(padded_wire) == 65_535

        async def connect(port):
            return await asyncio.open_connection("127.0.0.1", port)

        async def closed_by_server(reader):
            return await asyncio.wait_for(reader.read(), timeout=5.0) == b""

        async def scenario():
            service, port = await _start(world)
            outcomes = {}
            try:
                reader, writer = await connect(port)
                writer.write(b"\x00\x00")
                outcomes["empty_frame"] = await closed_by_server(reader)
                writer.close()

                reader, writer = await connect(port)
                writer.write(b"\xff\xff" + padded_wire)
                header = await asyncio.wait_for(reader.readexactly(2), 5.0)
                reply = await reader.readexactly(int.from_bytes(header, "big"))
                outcomes["answered"] = Message.from_wire(reply).id == padded.id
                writer.write(b"\xff\xff" + bytes(65_535))
                outcomes["dropped"] = await closed_by_server(reader)
                writer.close()

                reader, writer = await connect(port)
                writer.write(b"\xff\xff" + bytes(1_000))
                await writer.drain()
                writer.write_eof()
                outcomes["truncated"] = await closed_by_server(reader)
                writer.close()

                reader, writer = await connect(port)
                writer.write(b"\xff\xff" + bytes(1_000))
                await writer.drain()
                await asyncio.sleep(0.05)
                # Linger on with a zero timeout: close sends RST, not FIN.
                writer.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
                writer.transport.abort()
                for __ in range(100):
                    if service.tcp_closed.get("reset"):
                        break
                    await asyncio.sleep(0.02)

                after = make_query(PROBE_VALID, RdataType.A)
                udp = Message.from_wire(await _udp_query(port, after.to_wire()))
                tcp = Message.from_wire(await _tcp_query(port, after.to_wire()))
                outcomes["still_answering"] = udp.rcode == tcp.rcode == Rcode.NOERROR
                for __ in range(100):  # the last client's close reaches the server
                    if not service._tcp_progress:
                        break
                    await asyncio.sleep(0.02)
            finally:
                snapshot = await service.drain_and_stop()
            return outcomes, snapshot

        outcomes, snapshot = asyncio.run(scenario())
        assert all(outcomes.values()), outcomes
        assert snapshot["tcp_closed"] == {
            "dropped": 1,
            "empty_frame": 1,
            "eof": 1,
            "reset": 1,
            "truncated": 1,
        }
        assert snapshot["errors"] == 0
        assert snapshot["tcp_open"] == 0


@pytest.mark.skipif(
    not hasattr(socket, "SO_REUSEPORT"), reason="no SO_REUSEPORT here"
)
class TestCrashOnlyRestart:
    def test_replacement_binds_while_predecessor_lives(self, world):
        async def scenario():
            first, port = await _start(world)
            second = DnsService(
                [Binding("resolver", world.resolver, port=port)],
                engine=ServiceEngine(),
            )
            await second.start()  # same port, first still bound
            await first.drain_and_stop()
            query = make_query(PROBE_VALID, RdataType.A)
            raw = await _udp_query(port, query.to_wire())
            await second.drain_and_stop()
            return Message.from_wire(raw)

        response = asyncio.run(scenario())
        assert response.rcode == Rcode.NOERROR


class TestLoadGenerator:
    def test_mixed_traffic_reports_by_class(self, world):
        async def scenario():
            service, port = await _start(world)
            try:
                report = await LoadGenerator(
                    "127.0.0.1",
                    port,
                    qps=60,
                    duration_s=1.0,
                    attack_ratio=0.3,
                    benign_names=benign_pool(DOMAINS, TLDS),
                    timeout_s=5.0,
                    seed=11,
                ).run()
            finally:
                await service.drain_and_stop()
            return report

        report = asyncio.run(scenario())
        benign = report.stats("benign")
        attack = report.stats("attack")
        assert benign.answered == benign.sent > 0
        assert set(benign.rcodes) <= {"NOERROR", "NXDOMAIN"}
        assert attack.answered == attack.sent > 0
        # Guard budgets turn the amplification attacks into SERVFAILs.
        assert set(attack.rcodes) == {"SERVFAIL"}
        assert benign.percentile(99) is not None


@pytest.mark.slow
class TestMiniSoak:
    def test_short_soak_passes(self):
        report = run_soak(
            SoakConfig(
                domains=DOMAINS,
                tlds=TLDS,
                phase_s=0.6,
                benign_qps=40,
                attack_qps=80,
                burst_queries=250,
                fuzz_datagrams=60,
                churn_connections=8,
                loris_connections=2,
                tcp_idle_timeout_s=0.4,
                drain_queries=10,
                query_timeout_s=5.0,
            )
        )
        assert report.violations == []
        assert report.passed
        assert report.shed_after_attack > report.shed_before_attack
        assert report.snapshot["drain_flushed"] is True
