"""Real-socket DNS service mode.

Puts the synthetic internet behind actual asyncio UDP/TCP listeners so
real clients (``dig``, unbound, zdns) can query the authoritative
servers and the validating resolver as a live service — the bridge from
"simulation" to "system serving heavy traffic". The stack:

- :mod:`repro.service.engine` — the single-threaded query core: a
  bounded pending queue feeding one worker thread that owns the
  simulated world, with real-time admission control and load shedding;
- :mod:`repro.service.frontend` — wire-compatible UDP and TCP
  frontends (EDNS, TC-bit truncation with TCP fallback, 2-byte length
  framing) with overload hardening: per-socket backpressure, connection
  limits, idle/handshake timeouts, slow-loris reaping, graceful drain
  on SIGTERM, and SO_REUSEPORT crash-only restart;
- :mod:`repro.service.loadgen` — a traffic-replay load generator mixing
  benign population queries with adversarial NSEC3/KeyTrap streams at
  configurable QPS;
- :mod:`repro.service.soak` — the chaos soak harness driving the
  service under sustained mixed load plus real-world stressors and
  asserting bounded RSS, bounded benign p99, and zero unhandled
  exceptions.
"""
