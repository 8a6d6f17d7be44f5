"""DNS wire-format substrate.

A from-scratch implementation of the DNS message format (RFC 1035) with the
record types and EDNS machinery needed by DNSSEC (RFC 4034/4035), NSEC3
(RFC 5155), and Extended DNS Errors (RFC 8914).

Public surface:

- :class:`repro.dns.name.Name` — domain names, canonical form and ordering
- :class:`repro.dns.message.Message` — full message encode/decode
- :class:`repro.dns.rrset.RRset` — an owner/type/class/TTL grouping of rdata
- :mod:`repro.dns.rdata` — one class per supported RR type
- :mod:`repro.dns.edns` — OPT pseudo-RR and Extended DNS Error codes
"""
