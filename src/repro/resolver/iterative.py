"""Iterative (recursive-resolver-side) resolution: walking delegations.

Starting from root hints, follows referrals down the tree and caches each
zone cut as where to ask next: the child zone and its name-server
addresses. DNSSEC chain validation asks its own DS and DNSKEY questions
in the validating layer (:mod:`repro.resolver.validating`), which wraps
this engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dns.flags import Flag
from repro.dns.message import make_query
from repro.dns.name import Name, root
from repro.dns.rcode import Rcode
from repro.dns.types import RdataType
from repro.net.transport import QueryFailure, Transport
from repro.resolver import guard as resource_guard
from repro.resolver.cache import Cache, delegation_key

#: Maximum delegations followed for one query (sanity bound).
MAX_REFERRALS = 24
#: Maximum nested resolutions (glueless NS, CNAME restarts).
MAX_RECURSION = 8


@dataclass(slots=True)
class ZoneCut:
    """One delegation on the path to the answer: the child zone and the
    addresses of its name servers, all a later query reads from the
    delegation cache."""

    zone: Name
    addresses: list


@dataclass(slots=True)
class ResolutionOutcome:
    """Everything learned while resolving one question."""

    qname: Name
    qtype: int
    response: object = None
    #: The zone the final (authoritative) response came from.
    auth_zone: Name = None
    #: Zone cuts crossed, in root-to-leaf order (excluding the root itself).
    cuts: list = field(default_factory=list)
    failure: str = ""

    @property
    def ok(self):
        """True when some authoritative response was obtained."""
        return self.response is not None


class IterativeResolver:
    """A non-validating iterative resolution engine with an infra cache."""

    def __init__(self, network, source_ip, root_addresses, cache=None, retries=1):
        self.network = network
        self.transport = Transport(network, source_ip, retries=retries)
        self.root_addresses = list(root_addresses)
        self.cache = cache if cache is not None else Cache(clock=lambda: network.clock_ms)
        self.queries_sent = 0

    # -- public API ------------------------------------------------------------

    def resolve(self, qname, qtype, want_dnssec=True, _depth=0):
        """Iteratively resolve (qname, qtype) from the root hints down."""
        qname = Name.from_text(qname)
        outcome = ResolutionOutcome(qname=qname, qtype=int(qtype))
        if _depth > MAX_RECURSION:
            outcome.failure = "recursion depth exceeded"
            return outcome

        current_zone = root
        servers = list(self.root_addresses)
        cuts, start_zone = self._cached_start(qname, qtype)
        if cuts is not None:
            outcome.cuts = list(cuts)
            current_zone = start_zone
            servers = list(outcome.cuts[-1].addresses) if outcome.cuts else servers

        for __ in range(MAX_REFERRALS):
            response = self._query_any(servers, qname, qtype, want_dnssec)
            if response is None:
                outcome.failure = f"no servers for {current_zone} answered"
                return outcome
            if response.rcode not in (Rcode.NOERROR, Rcode.NXDOMAIN):
                outcome.failure = f"upstream rcode {Rcode.to_text(response.rcode)}"
                outcome.response = response
                outcome.auth_zone = current_zone
                return outcome

            if self._is_referral(response):
                cut = self._extract_cut(response, _depth)
                if cut is None:
                    outcome.failure = "referral without usable name servers"
                    return outcome
                outcome.cuts.append(cut)
                self._cache_cut(cut)
                current_zone = cut.zone
                servers = cut.addresses
                continue

            outcome.response = response
            outcome.auth_zone = self._zone_of_answer(response, current_zone)
            return outcome

        outcome.failure = "referral loop"
        return outcome

    # -- internals ---------------------------------------------------------------

    def _cached_start(self, qname, qtype):
        """Find the deepest cached delegation that is an ancestor of qname.

        DS records live in the *parent* zone, so a DS query must not start
        at (or below) the queried name's own zone cut.
        """
        best = None
        chain = []
        candidate = qname
        ancestors = []
        while True:
            ancestors.append(candidate)
            if candidate.is_root():
                break
            candidate = candidate.parent()
        # ancestors: qname ... root; walk from root downward.
        for name in reversed(ancestors):
            if name.is_root():
                continue
            if int(qtype) == int(RdataType.DS) and name == qname:
                break
            entry = self.cache.get(delegation_key(name))
            if entry is None:
                break
            chain.append(entry.value)
            best = name
        if not chain:
            return None, root
        return chain, best

    def _cache_cut(self, cut):
        self.cache.put(delegation_key(cut.zone), cut, ttl_seconds=3600)

    def _query_any(self, servers, qname, qtype, want_dnssec):
        budget = resource_guard.current()
        for server in servers:
            if budget is not None:
                # Fan-out ceiling plus a watchdog check before each
                # exchange (transport retries advance the sim clock);
                # ResourceGuardError unwinds to the validating layer.
                budget.charge_upstream()
            self.queries_sent += 1
            try:
                message = make_query(
                    qname, qtype, want_dnssec=want_dnssec, recursion_desired=False
                )
                return self.transport.query(server, message)
            except QueryFailure:
                continue
        return None

    @staticmethod
    def _is_referral(response):
        if response.has_flag(Flag.AA):
            return False
        if response.answer:
            return False
        return any(
            int(rrset.rrtype) == int(RdataType.NS) for rrset in response.authority
        )

    def _extract_cut(self, response, depth):
        ns_rrset = None
        for rrset in response.authority:
            if int(rrset.rrtype) == int(RdataType.NS):
                ns_rrset = rrset
                break
        if ns_rrset is None:
            return None
        # One string per server address, shared by every cut it serves.
        canonical = self.network.canonical
        addresses = []
        for rrset in response.additional:
            if int(rrset.rrtype) in (int(RdataType.A), int(RdataType.AAAA)):
                addresses.extend(canonical(r.to_text()) for r in rrset)
        if not addresses:
            addresses = self._resolve_glueless(ns_rrset, depth)
        return ZoneCut(ns_rrset.name, addresses)

    def _resolve_glueless(self, ns_rrset, depth):
        """Resolve NS target addresses when the referral carried no glue."""
        canonical = self.network.canonical
        addresses = []
        for ns in list(ns_rrset)[:3]:
            for rrtype in (RdataType.A, RdataType.AAAA):
                sub = self.resolve(ns.target, rrtype, want_dnssec=False, _depth=depth + 1)
                if sub.ok and sub.response.rcode == Rcode.NOERROR:
                    for rrset in sub.response.answer:
                        if int(rrset.rrtype) == int(rrtype):
                            addresses.extend(canonical(r.to_text()) for r in rrset)
            if addresses:
                break
        return addresses

    @staticmethod
    def _zone_of_answer(response, current_zone):
        """Infer the answering zone: SOA owner, else the RRSIG signer.

        A server hosting both sides of a cut answers child data without a
        referral, so the walk's notion of the current zone can be an
        ancestor of the zone that actually signed the answer.
        """
        for rrset in response.authority:
            if int(rrset.rrtype) == int(RdataType.SOA):
                return rrset.name
        for rrset in response.answer:
            if int(rrset.rrtype) == int(RdataType.RRSIG) and rrset.rdatas:
                return rrset.rdatas[0].signer
        return current_zone
