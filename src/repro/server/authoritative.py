"""The authoritative name server.

Serves one or more (possibly signed) zones over the simulated network:
positive answers, CNAME chains, wildcard synthesis, referrals with glue,
and DNSSEC-complete negative responses — the closest-encloser NSEC3 proofs
whose verification cost the paper's resolver experiments measure.
"""

from __future__ import annotations

from repro import obs
from repro.dns.flags import Flag
from repro.dns.message import Message, make_response
from repro.dns.name import Name
from repro.dns.packed import MAX_CACHEABLE_QUERY, packed_memo
from repro.dns.rcode import Rcode
from repro.dns.rrset import RRset
from repro.dns.types import Opcode, RdataType
from repro.dns.wire import WireError
from repro.dnssec.costmodel import meter
from repro.dnssec.nsec3hash import nsec3_hash
from repro.net.network import Host
from repro.zone.zone import LookupStatus

#: Hard cap on CNAME chain chasing within one response.
MAX_CNAME_CHAIN = 8

#: Resolved metric children for the per-query serving hot paths.
_SERVER_CHILDREN = obs.ChildCache()


def _count_response(server, rcode_text):
    key = ("response", server, rcode_text)
    child = _SERVER_CHILDREN.get(obs.registry, key)
    if child is None:
        child = _SERVER_CHILDREN.put(
            key,
            obs.registry.counter(
                "repro_auth_responses_total",
                "Authoritative responses, by server and rcode.",
                labelnames=("server", "rcode"),
            ).labels(server=server, rcode=rcode_text),
        )
    child.inc()


class _CachedAnswer:
    """One packed response: the encoded wire after the id, its recorded
    cost charges, and the question name (rendered only for a traced hit's
    span).

    A hit :meth:`CostMeter.replay`\\ s the charges recorded when the
    response was first built, so the cost model and guard budgets behave
    exactly as if the server had recomputed it. The server invalidates
    its cache whenever any of its zones mutates (the zone-serial part of
    the key, realised as invalidate-on-mutation: serial bumps go through
    :meth:`Zone.replace_rrset`, which fires the mutation listeners).
    """

    __slots__ = ("tail", "rcode_text", "charges", "qname")

    def __init__(self, tail, rcode_text, charges, qname):
        self.tail = tail
        self.rcode_text = rcode_text
        self.charges = charges
        self.qname = qname


class AuthoritativeServer(Host):
    """A name server authoritative for a set of zones."""

    def __init__(self, name="auth"):
        self.name = name
        self.zones = {}
        self.answer_cache = packed_memo("auth")
        #: Longest-prefix index over zone origins (canonical label keys).
        self._zone_index = {}
        #: Optional hook: called with a qname that matched no hosted
        #: zone; may materialise and host one on the spot (lazy SLDs).
        self.zone_factory = None

    def add_zone(self, zone):
        """Host *zone* (keyed by origin) on this server."""
        self.zones[zone.origin] = zone
        self._zone_index[zone.origin._key()] = zone
        zone.add_mutation_listener(self.answer_cache.invalidate)
        # A new zone can change the answer to anything previously REFUSED
        # or referred; start from a clean slate.
        self.answer_cache.invalidate()
        return self

    def host_lazily(self, zone):
        """Host *zone* without invalidating the packed-answer cache.

        Only sound when the zone is a deterministic materialisation —
        any answer the cache could already hold for its names was
        computed from an identical earlier materialisation, so nothing
        cached can be stale.
        """
        self.zones[zone.origin] = zone
        self._zone_index[zone.origin._key()] = zone
        zone.add_mutation_listener(self.answer_cache.invalidate)
        return self

    def evict_zone(self, origin):
        """Forget a lazily hosted zone (cached answers stay valid)."""
        zone = self.zones.pop(origin, None)
        if zone is not None:
            self._zone_index.pop(origin._key(), None)
        return zone

    def zone_for(self, qname):
        """The most specific zone containing *qname*, or None.

        Longest-suffix match over the origin index: walk the question's
        canonical key from most to least specific instead of scanning
        every hosted zone (registry servers host hundreds). On a miss,
        the :attr:`zone_factory` hook gets one chance to materialise the
        zone lazily.
        """
        qkey = Name.from_text(qname)._key()
        index = self._zone_index
        for depth in range(len(qkey), -1, -1):
            zone = index.get(qkey[:depth])
            if zone is not None:
                return zone
        if self.zone_factory is not None:
            return self.zone_factory(qname)
        return None

    # -- datagram entry point ------------------------------------------------

    def handle_datagram(self, wire, src_ip, via_tcp=False):
        """Serve bytes answered before from the packed-answer cache; else
        parse, dispatch AXFR or a normal query, and encode the reply."""
        cache_key = None
        if len(wire) <= MAX_CACHEABLE_QUERY:
            # Everything after the id, plus the transport that drives UDP
            # truncation: a strict refinement of "same question shape",
            # so a hit needs no decode. Nothing is stored without a
            # successful decode, so unparseable bytes can never hit.
            cache_key = (bytes(wire[2:]), via_tcp)
            entry = self.answer_cache.peek(cache_key)
            if entry is not None:
                return self._serve_cached(bytes(wire[:2]), entry)
        try:
            query = Message.from_wire(wire)
        except WireError:
            return None
        if cache_key is not None and not self._cacheable(query):
            cache_key = None
        if cache_key is not None:
            self.answer_cache.count(False)
            recorder_charges = []
            previous_recorder = meter.recorder
            meter.recorder = recorder_charges
        try:
            if not obs.enabled:
                response = self._dispatch(query)
            else:
                if obs.tracing:
                    # qname rendering is span decoration only — skip it
                    # (and the span) when no tracer is recording.
                    qname = (
                        query.question[0].name.to_text()
                        if query.question
                        else "?"
                    )
                    with obs.span(
                        "auth.query", server=self.name, qname=qname
                    ) as span:
                        response = self._dispatch(query)
                        if response is not None:
                            span.set(rcode=Rcode.to_text(response.rcode))
                else:
                    response = self._dispatch(query)
                if response is not None:
                    _count_response(self.name, Rcode.to_text(response.rcode))
            if response is None:
                return None
            max_size = None
            if not via_tcp:
                max_size = query.edns.payload_size if query.edns else 512
            encoded = response.to_wire(max_size=max_size)
        finally:
            if cache_key is not None:
                meter.recorder = previous_recorder
        if cache_key is not None:
            self.answer_cache.put(
                cache_key,
                _CachedAnswer(
                    encoded[2:],
                    Rcode.to_text(response.rcode),
                    tuple(recorder_charges),
                    query.question[0].name,
                ),
            )
        return encoded

    @staticmethod
    def _cacheable(query):
        """Only plain single-question QUERY opcodes are cached, never AXFR."""
        return (
            not query.is_response
            and query.opcode == Opcode.QUERY
            and len(query.question) == 1
            and query.question[0].rrtype != int(RdataType.AXFR)
        )

    def _serve_cached(self, id_bytes, entry):
        """Re-charge the cost model and splice the query id in."""
        self.answer_cache.count(True)
        if not obs.enabled:
            meter.replay(entry.charges)
        else:
            if obs.tracing:
                with obs.span(
                    "auth.query", server=self.name, qname=entry.qname.to_text()
                ) as span:
                    span.set(rcode=entry.rcode_text, cached=True)
                    meter.replay(entry.charges)
            else:
                meter.replay(entry.charges)
            _count_response(self.name, entry.rcode_text)
        return id_bytes + entry.tail

    def _dispatch(self, query):
        if (
            query.question
            and int(query.question[0].rrtype) == int(RdataType.AXFR)
        ):
            return self.handle_axfr(query)
        return self.handle_query(query)

    def handle_axfr(self, query):
        """Decline a zone transfer (RFC 5936): NOTAUTH for a zone not
        hosted here, REFUSED for one that is — no zone is transferable,
        as at almost every registry in practice."""
        response = make_response(query)
        hosted = query.question[0].name in self.zones
        response.rcode = Rcode.REFUSED if hosted else Rcode.NOTAUTH
        return response

    # -- query processing -------------------------------------------------------

    def handle_query(self, query):
        """Answer one parsed query message authoritatively."""
        if query.is_response or query.opcode != Opcode.QUERY or not query.question:
            response = make_response(query)
            response.rcode = Rcode.FORMERR
            return response
        question = query.question[0]
        response = make_response(query)
        zone = self.zone_for(question.name)
        if (
            zone is not None
            and int(question.rrtype) == int(RdataType.DS)
            and zone.origin == question.name
            and not question.name.is_root()
        ):
            # DS lives in the parent: when this server hosts both sides of
            # the cut, answer from the delegating zone (as BIND does).
            parent_zone = self.zone_for(question.name.parent())
            if parent_zone is not None:
                zone = parent_zone
        if zone is None:
            response.rcode = Rcode.REFUSED
            return response
        response.set_flag(Flag.AA)
        dnssec = query.dnssec_ok
        self._answer_from_zone(response, zone, question.name, question.rrtype, dnssec)
        return response

    def _answer_from_zone(self, response, zone, qname, qtype, dnssec, depth=0):
        result = zone.lookup(qname, qtype)

        if result.status is LookupStatus.ANSWER:
            self._add_with_sigs(response, response.answer, zone, result.rrset)
            if int(qtype) == int(RdataType.NS) and qname == zone.origin:
                self._add_glue(response, zone, result.rrset)
        elif result.status is LookupStatus.CNAME:
            self._add_with_sigs(response, response.answer, zone, result.cname)
            if depth < MAX_CNAME_CHAIN:
                target = result.cname[0].target
                target_zone = self.zone_for(target)
                if target_zone is not None:
                    self._answer_from_zone(
                        response, target_zone, target, qtype, dnssec, depth + 1
                    )
        elif result.status is LookupStatus.WILDCARD:
            rrset = result.rrset or result.cname
            response.answer.append(rrset)
            if dnssec:
                wildcard_sigs = zone.get_rrsigs(result.wildcard_owner, rrset.rrtype)
                if wildcard_sigs is not None:
                    retargeted = RRset(
                        qname, RdataType.RRSIG, wildcard_sigs.ttl, list(wildcard_sigs.rdatas)
                    )
                    response.answer.append(retargeted)
                self._add_wildcard_proof(response, zone, qname)
        elif result.status is LookupStatus.DELEGATION:
            self._add_referral(response, zone, result.delegation, dnssec)
        elif result.status is LookupStatus.NODATA:
            response.rcode = Rcode.NOERROR
            self._add_negative(response, zone, qname, dnssec, nxdomain=False)
        elif result.status is LookupStatus.NXDOMAIN:
            response.rcode = Rcode.NXDOMAIN
            self._add_negative(response, zone, qname, dnssec, nxdomain=True)
        else:  # NOT_IN_ZONE — zone selection bug or stale config
            response.rcode = Rcode.SERVFAIL

    # -- response assembly helpers ---------------------------------------------

    def _add_with_sigs(self, response, section, zone, rrset):
        section.append(rrset)
        if response.dnssec_ok:
            # Read only when sent: a deferred signature is computed here.
            sigs = zone.get_rrsigs(rrset.name, rrset.rrtype)
            if sigs is not None:
                section.append(sigs)

    def _add_glue(self, response, zone, ns_rrset):
        for ns in ns_rrset:
            for glue_type in (RdataType.A, RdataType.AAAA):
                glue = zone.get_rrset(ns.target, glue_type) if ns.target.is_subdomain_of(zone.origin) else None
                if glue is not None:
                    response.add_rrset(response.additional, glue)

    def _add_referral(self, response, zone, ns_rrset, dnssec):
        response.set_flag(Flag.AA, False)
        response.authority.append(ns_rrset)
        cut = ns_rrset.name
        if dnssec and zone.signed:
            ds = zone.get_rrset(cut, RdataType.DS)
            if ds is not None:
                self._add_with_sigs(response, response.authority, zone, ds)
            elif zone.nsec3_chain is not None:
                # Prove the absence of DS: matching NSEC3 (or opt-out cover).
                self._add_nsec3_for(response, zone, cut, prove_no_ds=True)
            elif zone.nsec_chain is not None:
                self._add_nsec_for(response, zone, cut)
        self._add_glue(response, zone, ns_rrset)

    def _add_soa(self, response, zone):
        soa = zone.soa
        if soa is not None:
            self._add_with_sigs(response, response.authority, zone, soa)

    def _add_negative(self, response, zone, qname, dnssec, nxdomain):
        self._add_soa(response, zone)
        if not (dnssec and zone.signed):
            return
        if zone.nsec3_chain is not None:
            if nxdomain:
                self._add_nsec3_closest_encloser_proof(response, zone, qname)
            else:
                self._add_nsec3_for(response, zone, qname)
        elif zone.nsec_chain is not None:
            if nxdomain:
                self._add_nsec_proof(response, zone, qname)
            else:
                self._add_nsec_for(response, zone, qname)

    # -- NSEC3 proofs -----------------------------------------------------------

    def _chain_hash(self, zone, name):
        params = zone.nsec3_chain.params
        return nsec3_hash(
            Name.from_text(name).canonical_wire(),
            params.salt,
            params.iterations,
            params.hash_algorithm,
        )

    def _append_chain_entry(self, response, zone, entry):
        if entry is None:
            return
        rrset = RRset(entry.owner_name, RdataType.NSEC3, 3600, [entry.rdata])
        existing = response.find_rrset(response.authority, entry.owner_name, RdataType.NSEC3)
        if existing is not None:
            return
        response.authority.append(rrset)
        sigs = zone.get_rrsigs(entry.owner_name, RdataType.NSEC3)
        if sigs is not None:
            response.authority.append(sigs)

    def _add_nsec3_for(self, response, zone, qname, prove_no_ds=False):
        """Matching NSEC3 for an existing name (NODATA / no-DS proofs)."""
        chain = zone.nsec3_chain
        digest = self._chain_hash(zone, qname)
        entry = chain.find_matching(digest)
        if entry is not None:
            self._append_chain_entry(response, zone, entry)
        else:
            # Opt-out zones carry no record for insecure delegations: send
            # the closest-provable-encloser proof (RFC 5155 §7.2.4).
            self._add_nsec3_closest_encloser_proof(response, zone, qname)

    def _add_nsec3_closest_encloser_proof(self, response, zone, qname):
        """RFC 5155 §7.2.1: CE match + next-closer cover + wildcard cover."""
        chain = zone.nsec3_chain
        qname = Name.from_text(qname)
        closest = None
        next_closer = qname
        candidate = qname
        while candidate.label_count > zone.origin.label_count:
            parent = candidate.parent()
            if zone._name_exists(parent) or parent == zone.origin:
                closest = parent
                next_closer = candidate
                break
            candidate = parent
        if closest is None:
            closest = zone.origin
        self._append_chain_entry(
            response, zone, chain.find_matching(self._chain_hash(zone, closest))
        )
        self._append_chain_entry(
            response, zone, chain.find_covering(self._chain_hash(zone, next_closer))
        )
        wildcard = closest.prepend(b"*")
        self._append_chain_entry(
            response, zone, chain.find_covering(self._chain_hash(zone, wildcard))
        )

    def _add_wildcard_proof(self, response, zone, qname):
        """For wildcard expansions: prove the query name does not exist."""
        if zone.nsec3_chain is not None:
            self._append_chain_entry(
                response,
                zone,
                zone.nsec3_chain.find_covering(self._chain_hash(zone, qname)),
            )
        elif zone.nsec_chain is not None:
            entry = zone.nsec_chain.find_covering(Name.from_text(qname))
            self._append_nsec_entry(response, zone, entry)

    # -- NSEC proofs ----------------------------------------------------------

    def _append_nsec_entry(self, response, zone, entry):
        if entry is None:
            return
        if response.find_rrset(response.authority, entry.owner_name, RdataType.NSEC):
            return
        response.authority.append(
            RRset(entry.owner_name, RdataType.NSEC, 3600, [entry.rdata])
        )
        sigs = zone.get_rrsigs(entry.owner_name, RdataType.NSEC)
        if sigs is not None:
            response.authority.append(sigs)

    def _add_nsec_for(self, response, zone, qname):
        entry = zone.nsec_chain.find_matching(Name.from_text(qname))
        if entry is None:
            entry = zone.nsec_chain.find_covering(Name.from_text(qname))
        self._append_nsec_entry(response, zone, entry)

    def _add_nsec_proof(self, response, zone, qname):
        qname = Name.from_text(qname)
        self._append_nsec_entry(response, zone, zone.nsec_chain.find_covering(qname))
        # Deny the wildcard at the closest encloser.
        candidate = qname
        closest = zone.origin
        while candidate.label_count > zone.origin.label_count:
            parent = candidate.parent()
            if zone._name_exists(parent):
                closest = parent
                break
            candidate = parent
        wildcard = closest.prepend(b"*")
        self._append_nsec_entry(response, zone, zone.nsec_chain.find_covering(wildcard))
