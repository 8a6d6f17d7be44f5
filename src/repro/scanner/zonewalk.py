"""Zone enumeration tooling: NSEC walking and NSEC3 dictionary attacks.

The reconnaissance techniques the paper's background discusses (§2.2 and
the Wander et al. / Wang et al. citations in §3):

- :func:`walk_nsec_zone` — enumerate an NSEC-signed zone through a
  resolver by querying just-past names and following the ``next`` field;
- :class:`Nsec3Walker` — collect NSEC3 hashes from negative responses,
  then run an offline dictionary attack against them, demonstrating why
  extra hash iterations "protect" nothing an attacker wants (RFC 9276's
  rationale).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dns.name import Name
from repro.dns.types import RdataType
from repro.dnssec.costmodel import meter
from repro.dnssec.denial import DenialError, owner_hash_of
from repro.dnssec.nsec3hash import nsec3_hash

#: Labels most zones contain — the paper's point: subdomains are guessable.
DEFAULT_DICTIONARY = (
    "www", "mail", "ftp", "api", "ns1", "ns2", "smtp", "imap", "pop",
    "webmail", "admin", "portal", "vpn", "dev", "test", "staging", "blog",
    "shop", "cdn", "static", "db", "mx", "git", "wiki", "intranet",
)


def _just_past(name):
    """The lexically-next name after *name*: prepend a minimal label.

    ``\\000.<name>`` sorts immediately after ``<name>`` in canonical order,
    so the denial for it reveals the NSEC record starting at *name* (or
    the span containing it).
    """
    return Name.from_text(name).prepend(b"\x00")


@dataclass
class NsecWalkResult:
    """Outcome of an NSEC walk."""

    zone: Name
    names: list = field(default_factory=list)
    queries: int = 0
    complete: bool = False


def walk_nsec_zone(client, resolver_ip, zone, max_queries=500):
    """Enumerate an NSEC-signed zone via a resolver.

    *client* is a :class:`~repro.resolver.stub.StubClient`. Queries names
    just past each discovered owner and reads the NSEC ``next`` field from
    the denial. Stops when the chain wraps back to the apex.
    """
    zone = Name.from_text(zone)
    result = NsecWalkResult(zone=zone)
    current = zone
    seen = set()
    while result.queries < max_queries:
        probe = _just_past(current)
        answer = client.ask(
            resolver_ip, probe, RdataType.A, want_dnssec=True, checking_disabled=True
        )
        result.queries += 1
        if not answer.answered:
            break
        nsec_rrsets = [
            rrset
            for rrset in answer.authority
            if int(rrset.rrtype) == int(RdataType.NSEC)
        ]
        if not nsec_rrsets:
            break
        hop = None
        for rrset in nsec_rrsets:
            if rrset.name not in seen:
                seen.add(rrset.name)
                result.names.append(rrset.name)
            candidate = rrset[0].next_name
            if rrset.name == current or current.is_subdomain_of(rrset.name):
                hop = candidate
        if hop is None:
            hop = nsec_rrsets[0][0].next_name
        if hop == zone or hop in seen:
            result.complete = True
            break
        current = hop
    result.names.sort()
    return result


@dataclass
class Nsec3CrackResult:
    """Outcome of an offline dictionary attack on collected NSEC3 hashes."""

    zone: Name
    iterations: int
    salt: bytes
    hashes_collected: int = 0
    recovered: dict = field(default_factory=dict)
    #: SHA-1 compressions :data:`~repro.dnssec.costmodel.meter` charged
    #: for the attack — the same unit a validating resolver's proofs cost.
    hash_operations: int = 0

    @property
    def recovery_rate(self):
        if not self.hashes_collected:
            return 0.0
        return len(self.recovered) / self.hashes_collected


class Nsec3Walker:
    """Collects NSEC3 hashes from denials, then cracks them offline."""

    def __init__(self, client, resolver_ip, zone):
        self.client = client
        self.resolver_ip = resolver_ip
        self.zone = Name.from_text(zone)
        self.hashes = set()
        self.params = None
        self.queries = 0
        #: NSEC3 RRsets left unharvested: the owner was no hash of this
        #: zone (another zone's chain, or a label that is not base32hex).
        self.skipped = 0

    def collect(self, probe_labels):
        """Query random names to harvest NSEC3 records from denials."""
        for label in probe_labels:
            answer = self.client.ask(
                self.resolver_ip,
                self.zone.prepend(label.encode("ascii")),
                RdataType.A,
                want_dnssec=True,
                checking_disabled=True,
            )
            self.queries += 1
            for rrset in answer.authority:
                if int(rrset.rrtype) != int(RdataType.NSEC3):
                    continue
                try:
                    owner_hash = owner_hash_of(rrset.name, self.zone)
                except DenialError:
                    self.skipped += 1
                    continue
                self.hashes.add(owner_hash)
                for rdata in rrset:
                    self.params = (rdata.hash_algorithm, rdata.iterations, rdata.salt)
                    self.hashes.add(rdata.next_hash)
        return len(self.hashes)

    def crack(self, dictionary=DEFAULT_DICTIONARY):
        """Offline dictionary attack against the collected hashes."""
        if self.params is None:
            raise ValueError("no NSEC3 parameters collected yet")
        hash_algorithm, iterations, salt = self.params
        result = Nsec3CrackResult(
            zone=self.zone,
            iterations=iterations,
            salt=salt,
            hashes_collected=len(self.hashes),
        )
        candidates = [
            (word, self.zone.prepend(word.encode("ascii"))) for word in dictionary
        ]
        candidates.append(("@", self.zone))  # the apex always hashes into the chain
        before = meter.sha1_compressions
        for label, candidate in candidates:
            digest = nsec3_hash(
                candidate.canonical_wire(), salt, iterations, hash_algorithm
            )
            if digest in self.hashes:
                result.recovered[label] = candidate
        result.hash_operations = meter.sha1_compressions - before
        return result
