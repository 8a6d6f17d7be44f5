"""Tests for the simulated network: delivery, loss, closed segments."""

import pytest

from repro.net.address import AddressAllocator, is_ipv6, normalize
from repro.net.network import Host, Network
from repro.net.resilience import BackoffPolicy, CircuitBreaker
from repro.net.transport import CircuitOpenError, QueryFailure, Transport
from repro.dns.flags import Flag
from repro.dns.message import Message, make_query, make_response
from repro.dns.rcode import Rcode
from repro.dns.types import RdataType


class Echo(Host):
    """Answers every query with an empty NOERROR response."""

    def __init__(self):
        self.received = []

    def handle_datagram(self, wire, src_ip, via_tcp=False):
        query = Message.from_wire(wire)
        self.received.append((src_ip, via_tcp))
        return make_response(query).to_wire()


class Mute(Host):
    def handle_datagram(self, wire, src_ip, via_tcp=False):
        return None


class TestAddressing:
    def test_allocator_unique(self):
        allocator = AddressAllocator()
        v4s = allocator.next_v4_block(100)
        assert len(set(v4s)) == 100
        v6s = allocator.next_v6_block(10)
        assert all(is_ipv6(a) for a in v6s)
        assert not any(is_ipv6(a) for a in v4s)

    def test_normalize(self):
        assert normalize("2001:DB8:0:0:0:0:0:1") == "2001:db8::1"
        assert normalize("192.0.2.1") == "192.0.2.1"

    def test_allocator_deterministic(self):
        assert AddressAllocator().next_v4() == AddressAllocator().next_v4()


class TestDelivery:
    def test_round_trip(self):
        net = Network()
        echo = Echo()
        net.attach("192.0.2.1", echo)
        raw = net.send("198.51.100.1", "192.0.2.1", make_query("x.test", 1).to_wire())
        assert raw is not None
        assert echo.received == [("198.51.100.1", False)]

    def test_unattached_destination_drops(self):
        net = Network()
        assert net.send("1.1.1.1", "2.2.2.2", b"\x00" * 12) is None
        assert net.stats.dropped == 1

    def test_double_attach_rejected(self):
        net = Network()
        net.attach("192.0.2.1", Echo())
        with pytest.raises(ValueError):
            net.attach("192.0.2.1", Echo())

    def test_detach(self):
        net = Network()
        net.attach("192.0.2.1", Echo())
        net.detach("192.0.2.1")
        assert net.host_at("192.0.2.1") is None

    def test_clock_advances(self):
        net = Network(base_latency_ms=10)
        net.attach("192.0.2.1", Echo())
        before = net.clock_ms
        net.send("198.51.100.7", "192.0.2.1", make_query("x.test", 1).to_wire())
        assert net.clock_ms > before

    def test_loss(self):
        net = Network(loss_rate=1.0)
        net.attach("192.0.2.1", Echo())
        assert net.send("1.2.3.4", "192.0.2.1", make_query("x.test", 1).to_wire()) is None

    def test_loss_does_not_affect_tcp(self):
        net = Network(loss_rate=1.0)
        net.attach("192.0.2.1", Echo())
        raw = net.send(
            "1.2.3.4", "192.0.2.1", make_query("x.test", 1).to_wire(), via_tcp=True
        )
        assert raw is not None

    def test_addresses_filter_by_family(self):
        net = Network()
        net.attach("192.0.2.1", Echo())
        net.attach("2001:db8::1", Echo())
        assert net.addresses(ipv6=False) == ["192.0.2.1"]
        assert net.addresses(ipv6=True) == ["2001:db8::1"]
        assert len(net.addresses()) == 2


class TestCanonicalAddresses:
    """Addresses are parsed where they enter, not once per datagram."""

    def test_each_spelling_is_parsed_at_most_once(self, monkeypatch):
        import ipaddress

        parsed = []
        real = ipaddress.ip_address

        def counting(address):
            parsed.append(address)
            return real(address)

        monkeypatch.setattr(ipaddress, "ip_address", counting)
        net = Network()
        hosts = ["192.0.2.1", "192.0.2.2", "2001:db8::1", "2001:db8::2"]
        sources = ["198.51.100.1", "198.51.100.2", "2001:DB8:0:0:0:0:0:9"]
        for ip in hosts:
            net.attach(ip, Echo())
        wire = make_query("x.test", 1).to_wire()
        for index in range(500):
            src = sources[index % len(sources)]
            dst = hosts[index % len(hosts)]
            assert net.send(src, dst, wire) is not None
        assert net.stats.datagrams == 500
        assert len(parsed) == len(set(parsed)) <= len(hosts) + len(sources)

    def test_non_canonical_spelling_reaches_the_host(self):
        net = Network()
        echo = Echo()
        net.attach("2001:db8::1", echo, network_id="corp")
        net.attach("10.0.0.2", Mute(), network_id="corp")
        wire = make_query("x.test", 1).to_wire()
        for __ in range(2):  # first parse, then the remembered spelling
            assert net.send("10.0.0.2", "2001:DB8:0:0:0:0:0:1", wire)
        assert net.host_at("2001:0db8::0001") is echo
        assert net.network_of("2001:DB8::1") == "corp"
        assert echo.received == [("10.0.0.2", False)] * 2
        net.detach("2001:DB8:0:0:0:0:0:1")
        assert net.host_at("2001:db8::1") is None

    def test_non_address_raises_every_time(self):
        net = Network()
        net.attach("192.0.2.1", Echo())
        for __ in range(3):
            with pytest.raises(ValueError):
                net.send("not-an-address", "192.0.2.1", b"\x00" * 12)
            with pytest.raises(ValueError):
                net.send("192.0.2.1", "192.0.2.999", b"\x00" * 12)
            with pytest.raises(ValueError):
                net.host_at("")
        assert net.stats.datagrams == 0

    def test_spelling_table_is_bounded(self):
        net = Network()
        net._canonical.limit = 8
        net.attach("192.0.2.1", Echo())
        wire = make_query("x.test", 1).to_wire()
        for index in range(40):
            assert net.send(f"198.51.100.{index}", "192.0.2.1", wire) is not None
        assert len(net._canonical) <= 8


class TestClosedNetworks:
    def test_closed_host_unreachable_from_public(self):
        net = Network()
        net.attach("10.0.0.1", Echo(), network_id="corp")
        assert net.send("1.2.3.4", "10.0.0.1", b"x" * 12) is None
        assert net.stats.refused_closed == 1

    def test_closed_host_reachable_from_same_network(self):
        net = Network()
        echo = Echo()
        net.attach("10.0.0.1", echo, network_id="corp")
        net.attach("10.0.0.2", Mute(), network_id="corp")
        raw = net.send("10.0.0.2", "10.0.0.1", make_query("x.test", 1).to_wire())
        assert raw is not None

    def test_closed_host_can_reach_public(self):
        net = Network()
        echo = Echo()
        net.attach("192.0.2.1", echo)  # public
        net.attach("10.0.0.1", Mute(), network_id="corp")
        raw = net.send("10.0.0.1", "192.0.2.1", make_query("x.test", 1).to_wire())
        assert raw is not None


class TestTransport:
    def test_query_response(self):
        net = Network()
        net.attach("192.0.2.1", Echo())
        transport = Transport(net, "198.51.100.1")
        response = transport.query("192.0.2.1", make_query("x.test", RdataType.A))
        assert response.rcode == Rcode.NOERROR

    def test_timeout_raises(self):
        net = Network()
        net.attach("192.0.2.1", Mute())
        transport = Transport(net, "198.51.100.1", retries=1)
        with pytest.raises(QueryFailure):
            transport.query("192.0.2.1", make_query("x.test", RdataType.A))

    def test_retry_recovers_from_loss(self):
        net = Network(loss_rate=0.5, seed=3)
        net.attach("192.0.2.1", Echo())
        transport = Transport(net, "198.51.100.1", retries=10)
        response = transport.query("192.0.2.1", make_query("x.test", RdataType.A))
        assert response is not None

    def test_id_mismatch_treated_as_drop(self):
        class WrongId(Host):
            def handle_datagram(self, wire, src_ip, via_tcp=False):
                query = Message.from_wire(wire)
                response = make_response(query)
                response.id = (query.id + 1) & 0xFFFF
                return response.to_wire()

        net = Network()
        net.attach("192.0.2.1", WrongId())
        transport = Transport(net, "198.51.100.1", retries=1)
        with pytest.raises(QueryFailure):
            transport.query("192.0.2.1", make_query("x.test", RdataType.A))

    def test_tcp_fallback_on_truncation(self):
        from repro.dns.flags import Flag
        from repro.dns.rdata import TXT
        from repro.dns.rrset import RRset

        class BigAnswer(Host):
            def handle_datagram(self, wire, src_ip, via_tcp=False):
                query = Message.from_wire(wire)
                response = make_response(query)
                for index in range(40):
                    response.add_rrset(
                        response.answer,
                        RRset("x.test", RdataType.TXT, 60, [TXT(f"{index} " + "y" * 80)]),
                    )
                max_size = None if via_tcp else 512
                return response.to_wire(max_size=max_size)

        net = Network()
        net.attach("192.0.2.1", BigAnswer())
        transport = Transport(net, "198.51.100.1")
        response = transport.query("192.0.2.1", make_query("x.test", RdataType.TXT))
        assert not response.has_flag(Flag.TC)
        assert len(response.answer) == 1
        assert net.stats.tcp_queries == 1


class Truncating(Host):
    """Always answers TC=1 on UDP; TCP behaviour is pluggable per test."""

    def __init__(self, tcp_behaviour):
        self.tcp_behaviour = tcp_behaviour
        self.tcp_attempts = 0

    def handle_datagram(self, wire, src_ip, via_tcp=False):
        query = Message.from_wire(wire)
        if not via_tcp:
            response = make_response(query)
            response.set_flag(Flag.TC)
            return response.to_wire()
        self.tcp_attempts += 1
        return self.tcp_behaviour(query, self.tcp_attempts)


class TestTransportEdgePaths:
    """The hostile-response paths a scanner meets on the real Internet."""

    def test_tcp_failure_carries_qname_and_dst(self):
        net = Network()
        net.attach("192.0.2.1", Truncating(lambda query, attempt: None))
        transport = Transport(net, "198.51.100.1", tcp_retries=1)
        with pytest.raises(QueryFailure) as excinfo:
            transport.query("192.0.2.1", make_query("edge.test", RdataType.A))
        assert str(excinfo.value.qname).rstrip(".") == "edge.test"
        assert excinfo.value.dst_ip == "192.0.2.1"

    def test_tcp_wrong_id_rejected(self):
        def wrong_id(query, attempt):
            response = make_response(query)
            response.id = (query.id + 1) & 0xFFFF
            return response.to_wire()

        net = Network()
        net.attach("192.0.2.1", Truncating(wrong_id))
        transport = Transport(net, "198.51.100.1", tcp_retries=0)
        with pytest.raises(QueryFailure, match="id mismatch"):
            transport.query("192.0.2.1", make_query("x.test", RdataType.A))

    def test_tcp_malformed_wire_rejected(self):
        net = Network()
        net.attach(
            "192.0.2.1", Truncating(lambda query, attempt: b"\xff\xee\xdd")
        )
        transport = Transport(net, "198.51.100.1", tcp_retries=0)
        with pytest.raises(QueryFailure, match="malformed"):
            transport.query("192.0.2.1", make_query("x.test", RdataType.A))

    def test_tcp_retry_recovers_single_loss(self):
        def flaky_then_fine(query, attempt):
            if attempt == 1:
                return None
            return make_response(query).to_wire()

        net = Network()
        host = Truncating(flaky_then_fine)
        net.attach("192.0.2.1", host)
        transport = Transport(net, "198.51.100.1", tcp_retries=1)
        response = transport.query("192.0.2.1", make_query("x.test", RdataType.A))
        assert response.rcode == Rcode.NOERROR
        assert host.tcp_attempts == 2

    def test_udp_malformed_wire_retried_then_fails(self):
        class Garbage(Host):
            def __init__(self):
                self.attempts = 0

            def handle_datagram(self, wire, src_ip, via_tcp=False):
                self.attempts += 1
                return b"\x00\x01garbage"

        net = Network()
        host = Garbage()
        net.attach("192.0.2.1", host)
        transport = Transport(net, "198.51.100.1", retries=2)
        with pytest.raises(QueryFailure):
            transport.query("192.0.2.1", make_query("x.test", RdataType.A))
        assert host.attempts == 3  # garbage burned every attempt

    def test_backoff_advances_simulated_clock(self):
        net = Network()
        net.attach("192.0.2.1", Mute())
        policy = BackoffPolicy(base_ms=100.0, factor=2.0, max_ms=1000.0, jitter=0.0)
        transport = Transport(net, "198.51.100.1", retries=2, backoff=policy)
        before = net.clock_ms
        with pytest.raises(QueryFailure):
            transport.query("192.0.2.1", make_query("x.test", RdataType.A))
        assert net.clock_ms - before >= 100.0 + 200.0

    def test_no_backoff_keeps_clock_cheap(self):
        net = Network(base_latency_ms=0.0)
        net.attach("192.0.2.1", Mute())
        transport = Transport(net, "198.51.100.1", retries=2, backoff=None)
        before = net.clock_ms
        with pytest.raises(QueryFailure):
            transport.query("192.0.2.1", make_query("x.test", RdataType.A))
        assert net.clock_ms == before

    def test_timeout_budget_bounds_retries(self):
        net = Network()
        net.attach("192.0.2.1", Mute())
        policy = BackoffPolicy(base_ms=500.0, factor=1.0, max_ms=500.0, jitter=0.0)
        transport = Transport(
            net, "198.51.100.1", retries=10, backoff=policy, timeout_budget_ms=600.0
        )
        with pytest.raises(QueryFailure, match="budget"):
            transport.query("192.0.2.1", make_query("x.test", RdataType.A))
        # 10 retries were allowed but the budget cut the schedule short.
        assert net.stats.datagrams <= 3

    def test_circuit_breaker_opens_and_fails_fast(self):
        net = Network()
        net.attach("192.0.2.1", Mute())
        breaker = CircuitBreaker(
            clock=lambda: net.clock_ms, failure_threshold=2, recovery_ms=5000.0
        )
        transport = Transport(
            net, "198.51.100.1", retries=0, backoff=None, breaker=breaker
        )
        for __ in range(2):
            with pytest.raises(QueryFailure):
                transport.query("192.0.2.1", make_query("x.test", RdataType.A))
        assert breaker.state("192.0.2.1") == "open"
        sent_before = net.stats.datagrams
        with pytest.raises(CircuitOpenError):
            transport.query("192.0.2.1", make_query("x.test", RdataType.A))
        assert net.stats.datagrams == sent_before  # failed fast, no traffic

    def test_circuit_recovers_through_half_open(self):
        net = Network()
        echo = Echo()
        mute = Mute()
        current = {"host": mute}

        class Switch(Host):
            def handle_datagram(self, wire, src_ip, via_tcp=False):
                return current["host"].handle_datagram(wire, src_ip, via_tcp=via_tcp)

        net.attach("192.0.2.1", Switch())
        breaker = CircuitBreaker(
            clock=lambda: net.clock_ms, failure_threshold=1, recovery_ms=50.0
        )
        transport = Transport(
            net, "198.51.100.1", retries=0, backoff=None, breaker=breaker
        )
        with pytest.raises(QueryFailure):
            transport.query("192.0.2.1", make_query("x.test", RdataType.A))
        assert breaker.state("192.0.2.1") == "open"

        net.clock_ms += 60.0  # outage clears, recovery window elapses
        current["host"] = echo
        response = transport.query("192.0.2.1", make_query("x.test", RdataType.A))
        assert response.rcode == Rcode.NOERROR
        assert breaker.state("192.0.2.1") == "closed"
