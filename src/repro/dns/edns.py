"""EDNS(0) support (RFC 6891) and Extended DNS Errors (RFC 8914).

The paper measures how resolvers signal NSEC3-related failures. RFC 8914
defines INFO-CODE 27 (*Unsupported NSEC3 Iterations Value*) and RFC 9276
Items 10/11 say when a resolver SHOULD attach it. This module models the
OPT pseudo-record's header fields and the EDE option payload.
"""

from __future__ import annotations

import struct

from repro.dns.rdata.opt import OPT, EdnsOption

#: EDNS option code for Extended DNS Errors.
OPTION_EDE = 15

# -- Extended DNS Error INFO-CODEs relevant to the study (RFC 8914 §4) ----
EDE_OTHER = 0
EDE_STALE_ANSWER = 3
EDE_DNSSEC_INDETERMINATE = 5
EDE_DNSSEC_BOGUS = 6
EDE_SIGNATURE_EXPIRED = 7
EDE_NSEC_MISSING = 12
EDE_UNSUPPORTED_NSEC3_ITERATIONS = 27

EDE_NAMES = {
    EDE_OTHER: "Other",
    EDE_STALE_ANSWER: "Stale Answer",
    EDE_DNSSEC_INDETERMINATE: "DNSSEC Indeterminate",
    EDE_DNSSEC_BOGUS: "DNSSEC Bogus",
    EDE_SIGNATURE_EXPIRED: "Signature Expired",
    EDE_NSEC_MISSING: "NSEC Missing",
    EDE_UNSUPPORTED_NSEC3_ITERATIONS: "Unsupported NSEC3 Iterations Value",
}


class ExtendedError:
    """An Extended DNS Error: INFO-CODE plus optional EXTRA-TEXT."""

    __slots__ = ("info_code", "extra_text")

    def __init__(self, info_code, extra_text=""):
        object.__setattr__(self, "info_code", int(info_code))
        object.__setattr__(self, "extra_text", str(extra_text))

    def __setattr__(self, name, value):
        raise AttributeError("ExtendedError is immutable")

    def to_option(self):
        payload = struct.pack("!H", self.info_code) + self.extra_text.encode("utf-8")
        return EdnsOption(OPTION_EDE, payload)

    @classmethod
    def from_option(cls, option):
        if option.code != OPTION_EDE:
            raise ValueError(f"not an EDE option (code {option.code})")
        if len(option.data) < 2:
            raise ValueError("EDE option payload too short")
        (info_code,) = struct.unpack("!H", option.data[:2])
        extra = option.data[2:].decode("utf-8", "replace")
        return cls(info_code, extra)

    def __eq__(self, other):
        if not isinstance(other, ExtendedError):
            return NotImplemented
        return self.info_code == other.info_code and self.extra_text == other.extra_text

    def __hash__(self):
        return hash((self.info_code, self.extra_text))

    def __repr__(self):
        name = EDE_NAMES.get(self.info_code, "?")
        return f"ExtendedError({self.info_code} {name!r}, {self.extra_text!r})"


class Edns:
    """The EDNS state attached to a message (decoded OPT pseudo-record)."""

    __slots__ = ("payload_size", "version", "dnssec_ok", "ext_rcode_high", "options")

    def __init__(self, payload_size=1232, version=0, dnssec_ok=False, options=()):
        self.payload_size = int(payload_size)
        self.version = int(version)
        self.dnssec_ok = bool(dnssec_ok)
        self.ext_rcode_high = 0
        self.options = list(options)

    def add_extended_error(self, info_code, extra_text=""):
        self.options.append(ExtendedError(info_code, extra_text).to_option())

    def extended_errors(self):
        """All EDE payloads carried in this OPT record."""
        found = []
        for option in self.options:
            if option.code == OPTION_EDE and len(option.data) >= 2:
                found.append(ExtendedError.from_option(option))
        return found

    def ttl_field(self, rcode):
        """Pack extended-RCODE-high/version/DO into the OPT TTL."""
        high = (int(rcode) >> 4) & 0xFF
        flags = 0x8000 if self.dnssec_ok else 0
        return (high << 24) | (self.version << 16) | flags

    def to_opt_rdata(self):
        return OPT(tuple(self.options))

    @classmethod
    def from_opt(cls, options, klass, ttl):
        """Rebuild EDNS state from a parsed OPT record's fields."""
        edns = cls(
            payload_size=klass,
            version=(ttl >> 16) & 0xFF,
            dnssec_ok=bool(ttl & 0x8000),
            options=options,
        )
        edns.ext_rcode_high = (ttl >> 24) & 0xFF
        return edns
