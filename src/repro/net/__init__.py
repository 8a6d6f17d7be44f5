"""A simulated Internet: IP registry, datagram delivery, access control.

Hosts are Python objects registered against IP addresses; "packets" are
real DNS wire bytes. The network enforces the property the paper's
methodology hinges on: *closed* resolvers only accept queries from inside
their own network, so measuring them requires a vantage point within
(the RIPE-Atlas substitute in :mod:`repro.scanner.atlas`).
"""
