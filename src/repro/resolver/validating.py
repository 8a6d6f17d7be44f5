"""The validating recursive resolver.

Composes the iterative engine, the DNSSEC validation primitives, and an
:class:`~repro.resolver.policy.Nsec3Policy`. This is the system under
measurement in the paper's §5.2: depending on the policy thresholds it
answers the ``it-N`` probes with NXDOMAIN+AD, NXDOMAIN (insecure), or
SERVFAIL — optionally with Extended DNS Error 27.

Chain of trust is established per zone and memoised: the root DNSKEY RRset
is checked against the configured trust anchor (a DS-style digest), each
child zone via the parent's DS RRset. Negative answers from signed zones
are accepted only with a verified NSEC/NSEC3 proof — and verifying an
NSEC3 proof is exactly where high iteration counts burn CPU
(CVE-2023-50868); the work is charged to :data:`repro.dnssec.costmodel.meter`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.dns.edns import (
    EDE_DNSSEC_BOGUS,
    EDE_SIGNATURE_EXPIRED,
    EDE_STALE_ANSWER,
)
from repro.dns.flags import Flag
from repro.dns.message import Message, make_response
from repro.dns.name import Name, root
from repro.dns.packed import MAX_CACHEABLE_QUERY, packed_memo
from repro.dns.rcode import Rcode
from repro.dns.types import Opcode, RdataType
from repro.dns.wire import WireError
from repro.dnssec.denial import (
    DenialError,
    collect_proof_records,
    verify_nodata,
    verify_nxdomain,
)
from repro.dnssec.costmodel import meter
from repro.dnssec.signer import SIMULATION_NOW
from repro.dnssec.validator import (
    SecurityStatus,
    validate_dnskey_with_ds,
    validate_rrset,
)
from repro.net.network import Host
from repro.resolver import guard as resource_guard
from repro.resolver.cache import Cache, delegation_key, negative_key
from repro.resolver.iterative import IterativeResolver
from repro.resolver.policy import Nsec3Policy

#: Fallback cache TTL for client-facing verdicts (seconds); actual TTLs
#: follow the records (RFC 2308: negative entries use the SOA minimum).
VERDICT_TTL = 300
VERDICT_TTL_CAP = 86_400

#: Ceiling on :meth:`ValidatingResolver.zone_security` recursion — a
#: pathological delegation chain (or a loop the memo misses) turns into
#: BOGUS + EDE instead of unbounded recursion.
MAX_CHAIN_DEPTH = 32
#: Ceiling on the parent walk in :meth:`ValidatingResolver._flush_chain`
#: (names cap at 127 labels; the explicit bound documents the invariant).
MAX_FLUSH_WALK = 128


@dataclass(slots=True)
class Verdict:
    """The resolver's conclusion for one client question.

    The verdict cache keeps :meth:`packed` copies, whose *sections* hold
    the answer and authority RRsets encoded as one message (about a sixth
    of the memory of the decoded RRsets) and whose *answer* and
    *authority* are empty. :meth:`unpacked` decodes new RRsets from
    *sections* for every reader.
    """

    rcode: int
    answer: list
    authority: list
    ad: bool = False
    ede: tuple = ()
    sections: bytes = b""

    def apply(self, response):
        """Hand this verdict's sections, flags, and EDE to *response*.

        The RRsets move, uncopied: a fresh verdict is applied once, and a
        cached one is :meth:`unpacked` afresh for every reply.
        """
        response.rcode = self.rcode
        response.answer = self.answer
        response.authority = self.authority
        response.set_flag(Flag.AD, self.ad)
        if response.edns is not None:
            for code, text in self.ede:
                response.edns.add_extended_error(code, text)
        return response

    def packed(self):
        """This verdict as the cache keeps it, its sections encoded."""
        sections = b""
        if self.answer or self.authority:
            message = Message(0)
            message.answer = self.answer
            message.authority = self.authority
            sections = message.to_wire()
        return Verdict(self.rcode, (), (), self.ad, self.ede, sections)

    def unpacked(self, ede=()):
        """A servable copy of a :meth:`packed` verdict, *ede* appended."""
        if not self.sections:
            return Verdict(self.rcode, [], [], self.ad, self.ede + ede)
        message = Message.from_wire(self.sections)
        return Verdict(
            self.rcode, message.answer, message.authority, self.ad, self.ede + ede
        )


class _PackedVerdict:
    """A repeat question's encoded reply and the verdict it was built from.

    *entry* is the verdict cache's :class:`CacheEntry` under *key* when
    the reply was encoded; the reply is servable only while the cache
    still holds that very entry, live.
    """

    __slots__ = ("key", "entry", "tail")

    def __init__(self, key, entry, tail):
        self.key = key
        self.entry = entry
        self.tail = tail


def _verdict_ttl(verdict):
    """Cache lifetime for a verdict (RFC 2308 semantics).

    Positive answers live as long as their shortest RRset TTL; negative
    answers as long as the SOA ``minimum`` field (the negative-caching
    TTL), capped; SERVFAILs only briefly.
    """
    if verdict.rcode == Rcode.SERVFAIL:
        return 30
    if verdict.answer:
        return min(
            min(rrset.ttl for rrset in verdict.answer), VERDICT_TTL_CAP
        )
    for rrset in verdict.authority:
        if int(rrset.rrtype) == int(RdataType.SOA) and rrset.rdatas:
            return min(rrset.rdatas[0].minimum, rrset.ttl, VERDICT_TTL_CAP)
    return VERDICT_TTL


class ValidatingResolver(Host):
    """A recursive resolver with DNSSEC validation and an NSEC3 policy."""

    def __init__(
        self,
        network,
        ip,
        root_addresses,
        trust_anchor_ds,
        policy=None,
        validate=True,
        name="resolver",
        now=SIMULATION_NOW,
        guard=None,
    ):
        self.network = network
        self.ip = ip
        self.name = name
        self.policy = policy or Nsec3Policy()
        self.validate = validate
        self.now = now
        self.trust_anchor_ds = trust_anchor_ds
        self.cache = Cache(clock=lambda: network.clock_ms, name="resolver")
        self.engine = IterativeResolver(network, ip, root_addresses, cache=self.cache)
        #: zone Name -> (SecurityStatus, dnskey_rrset or None)
        self._zone_security = {}
        #: Optional :class:`repro.resolver.guard.GuardConfig`; None (the
        #: default everywhere) keeps the legacy unbounded behaviour, so
        #: survey classifications are untouched by the guard subsystem.
        self.guard = guard
        self.admission = (
            resource_guard.AdmissionController(guard.max_inflight)
            if guard is not None and guard.max_inflight is not None
            else None
        )
        #: Per-ceiling abort counts (kind -> n), kept even with obs off.
        self.guard_events = {}
        #: Replies to repeat questions, for :meth:`packed_answer`.
        self.packets = packed_memo("packet")

    def forget(self):
        """Empty the verdict and zone-cut cache, the packet cache and the
        zone-security memo, so the next question finds the resolver cold.

        The resolver survey calls this when a resolver's probe session is
        over: nothing asks it again, so nothing it cached can change an
        output. Every hit, miss and eviction counter keeps its count.
        """
        self.cache.clear()
        self.packets.clear()
        self._zone_security.clear()

    # -- datagram entry point ---------------------------------------------------

    def handle_datagram(self, wire, src_ip, via_tcp=False):
        """Serve one client query arriving as wire bytes."""
        try:
            query = Message.from_wire(wire)
        except WireError:
            return None
        if query.is_response or query.opcode != Opcode.QUERY or not query.question:
            return None
        response = make_response(query, recursion_available=True)
        if not query.has_flag(Flag.RD):
            response.rcode = Rcode.REFUSED
            return response.to_wire()
        question = query.question[0]
        checking_disabled = query.has_flag(Flag.CD)
        key = negative_key(question.name, question.rrtype, checking_disabled)
        live = self.cache.peek(key)
        verdict = self._admission_shed(question, checking_disabled)
        repeat = False
        if verdict is None:
            start_ms = self.network.clock_ms
            try:
                verdict = self.resolve_and_validate(
                    question.name,
                    question.rrtype,
                    checking_disabled=checking_disabled,
                )
            finally:
                if self.admission is not None:
                    self.admission.complete(start_ms, self.network.clock_ms)
            # Resolving leaves the verdict cache holding the entry it held
            # on arrival only when it served that entry: a miss drops an
            # expired entry and stores a new one.
            repeat = live is not None and self.cache.peek(key) is live
        reply = self._finish_response(query, response, verdict, via_tcp)
        if repeat and len(wire) <= MAX_CACHEABLE_QUERY:
            # A repeat question, so keep the reply for packed_answer.
            # One-shot questions store nothing.
            self.packets.put(
                (bytes(wire[2:]), via_tcp), _PackedVerdict(key, live, reply[2:])
            )
        return reply

    def _finish_response(self, query, response, verdict, via_tcp):
        """Apply *verdict* and encode, honouring DO filtering and EDNS size."""
        verdict.apply(response)
        if not query.dnssec_ok:
            response.answer = [
                r for r in response.answer if int(r.rrtype) != int(RdataType.RRSIG)
            ]
            response.authority = [
                r
                for r in response.authority
                if int(r.rrtype)
                not in (int(RdataType.RRSIG), int(RdataType.NSEC), int(RdataType.NSEC3))
            ]
        max_size = query.edns.payload_size if query.edns else 512
        return response.to_wire(max_size=None if via_tcp else max_size)

    def packed_answer(self, wire, via_tcp=False):
        """The stored reply to a repeat question, with *wire*'s id; or None.

        The socket service calls this on its event loop before any gate,
        like :meth:`shed_datagram`, while the worker thread owns the
        resolution state. So it only reads: a packet-cache entry filled
        by :meth:`handle_datagram`, the verdict cache's current entry
        (which must be the one the reply was built from) and the
        committed sim clock (which must not have passed its expiry). It
        mutates nothing but the packet cache's hit and miss counters. A
        hit skips the guard and the cost meter, which a verdict-cache hit
        does not charge either, and also the admission controller, which
        :meth:`handle_datagram` does charge for every RD query: hot
        repeats are no longer subject to sim-clock admission shedding.
        """
        if len(wire) > MAX_CACHEABLE_QUERY:
            return None
        packed = self.packets.peek((bytes(wire[2:]), via_tcp))
        live = (
            packed is not None
            and self.cache.peek(packed.key) is packed.entry
            and packed.entry.expires_ms > self.network.kernel.now
        )
        self.packets.count(live)
        return bytes(wire[:2]) + packed.tail if live else None

    def shed_datagram(self, wire, via_tcp=False):
        """A complete wire reply for one shed arrival, without resolving.

        The socket service calls this from its event loop when the
        real-time :class:`~repro.resolver.guard.ConcurrencyGate` refuses
        an arrival: it parses the query and answers from
        :meth:`shed_verdict` — a cache peek at most, never the iterative
        engine — so it is safe to run concurrently with the worker
        thread that owns the resolution state. Returns None on garbage
        (the frontend stays silent, like the sim fabric does).
        """
        try:
            query = Message.from_wire(wire)
        except WireError:
            return None
        if query.is_response or query.opcode != Opcode.QUERY or not query.question:
            return None
        response = make_response(query, recursion_available=True)
        question = query.question[0]
        verdict = self.shed_verdict(
            question.name, question.rrtype, query.has_flag(Flag.CD)
        )
        return self._finish_response(query, response, verdict, via_tcp)

    # -- load shedding ----------------------------------------------------------

    def _admission_shed(self, question, checking_disabled):
        """Shed this arrival when too much work is in flight; None = admit.

        Overload answers follow RFC 8767 where possible: an expired cached
        verdict for the same question is served with EDE 3 (Stale Answer);
        otherwise the query is REFUSED outright.
        """
        if self.admission is None:
            return None
        if self.admission.admit(self.network.clock_ms):
            return None
        return self.shed_verdict(question.name, question.rrtype, checking_disabled)

    def stale_verdict(self, qname, qtype, checking_disabled=False):
        """An RFC 8767 stale answer for ``(qname, qtype)``, or None.

        Shared by the sim-clock admission path and the socket service's
        real-time overload path: reads the verdict cache without
        mutating it, so the service event loop may call it while the
        worker thread is resolving. A CD=0 question is never served a
        verdict obtained under CD=1.
        """
        stale = self.cache.peek(negative_key(qname, qtype, checking_disabled))
        if stale is None:
            return None
        return stale.value.unpacked(
            ede=((EDE_STALE_ANSWER, "served stale under load"),)
        )

    def shed_verdict(self, qname, qtype, checking_disabled=False):
        """The overload answer for one shed arrival (RFC 8767 where possible).

        An expired cached verdict for the same question is served with
        EDE 3 (Stale Answer); otherwise the query is REFUSED outright.
        Also counts the shed in ``repro_guard_shed_total``.
        """
        if self.guard is not None and self.guard.serve_stale:
            verdict = self.stale_verdict(qname, qtype, checking_disabled)
            if verdict is not None:
                resource_guard.count_shed(self.name, "stale")
                if obs.events:
                    obs.emit(
                        "guard.shed",
                        resolver=self.name,
                        action="stale",
                        qname=str(qname),
                    )
                return verdict
        resource_guard.count_shed(self.name, "refused")
        if obs.events:
            obs.emit(
                "guard.shed",
                resolver=self.name,
                action="refused",
                qname=str(qname),
            )
        return Verdict(Rcode.REFUSED, [], [])

    # -- main resolution path ------------------------------------------------------

    def resolve_and_validate(self, qname, qtype, checking_disabled=False):
        """Resolve one question and return the validated :class:`Verdict`.

        With a :class:`~repro.resolver.guard.GuardConfig` attached, all
        metered work this query causes (NSEC3 hashing, signature
        verification — including work performed by upstream servers during
        nested exchanges — plus upstream fan-out and elapsed simulated
        time) is charged to a per-query budget; breaching any ceiling
        aborts the query with SERVFAIL and an Extended DNS Error.
        """
        if self.guard is None:
            return self._resolve_observed(qname, qtype, checking_disabled)
        budget = resource_guard.WorkBudget(
            self.guard, clock=lambda: self.network.clock_ms
        )
        try:
            with resource_guard.activate(budget):
                return self._resolve_observed(qname, qtype, checking_disabled)
        except resource_guard.ResourceGuardError as exc:
            self.guard_events[exc.kind] = self.guard_events.get(exc.kind, 0) + 1
            resource_guard.count_budget_exceeded(self.name, exc.kind)
            if obs.events:
                # guard.trip is in the journal's dump_on set: this also
                # flushes the flight-recorder ring for the post-mortem.
                obs.emit(
                    "guard.trip",
                    resolver=self.name,
                    ceiling=exc.kind,
                    qname=str(qname),
                )
            return Verdict(
                Rcode.SERVFAIL, [], [], ede=((exc.ede_code, exc.detail[:80]),)
            )

    def _resolve_observed(self, qname, qtype, checking_disabled=False):
        if not obs.enabled:
            return self._resolve_and_validate(qname, qtype, checking_disabled)
        cost_start = meter.snapshot()
        if obs.tracing:
            with obs.span(
                "resolver.validate",
                resolver=self.name,
                policy=self.policy.name,
                qname=str(qname),
            ) as span:
                verdict = self._resolve_and_validate(
                    qname, qtype, checking_disabled
                )
                span.set(rcode=Rcode.to_text(verdict.rcode), ad=verdict.ad)
        else:
            verdict = self._resolve_and_validate(qname, qtype, checking_disabled)
        obs.profiler.record_validation(
            self.policy.name, meter.snapshot() - cost_start, verdict.rcode
        )
        return verdict

    def _resolve_and_validate(self, qname, qtype, checking_disabled):
        qname = Name.from_text(qname)
        qtype = int(qtype)
        key = negative_key(qname, qtype, checking_disabled)
        cached = self.cache.get(key)
        if cached is not None:
            return cached.value.unpacked()

        outcome = self.engine.resolve(qname, qtype, want_dnssec=True)
        if not outcome.ok:
            verdict = Verdict(Rcode.SERVFAIL, [], [])
            return verdict
        response = outcome.response
        if response.rcode not in (Rcode.NOERROR, Rcode.NXDOMAIN):
            verdict = Verdict(response.rcode, [], list(response.authority))
            return verdict

        if not self.validate or checking_disabled:
            verdict = Verdict(
                response.rcode, list(response.answer), list(response.authority)
            )
            self._cache_verdict(key, verdict)
            return verdict

        verdict = self._validated_verdict(qname, qtype, outcome)
        if verdict.rcode == Rcode.SERVFAIL:
            # Second chance before concluding bogus (RFC 4035 §4.7 spirit):
            # flush the delegation chain so a damaged cached DS or glue
            # record cannot keep failing validation, then re-fetch. A zone
            # that is genuinely broken fails again — deterministically.
            self._flush_chain(qname)
            retry = self.engine.resolve(qname, qtype, want_dnssec=True)
            if retry.ok and retry.response.rcode in (Rcode.NOERROR, Rcode.NXDOMAIN):
                verdict = self._validated_verdict(qname, qtype, retry)
        self._cache_verdict(key, verdict)
        return verdict

    def _flush_chain(self, qname):
        """Drop cached delegation evidence on the path to *qname*.

        The walk is explicitly bounded by :data:`MAX_FLUSH_WALK`: a name
        can never carry more labels than that, so hitting the bound means
        a broken ``parent()`` chain — stop rather than loop forever.
        """
        name = Name.from_text(qname)
        for __ in range(MAX_FLUSH_WALK):
            self.cache.drop(delegation_key(name))
            if name.is_root():
                return
            name = name.parent()

    def _cache_verdict(self, key, verdict):
        ttl = _verdict_ttl(verdict)
        self.cache.put(key, verdict.packed(), ttl)

    # -- chain of trust --------------------------------------------------------------

    def zone_security(self, zone, _depth=0):
        """Security status of *zone*: (SecurityStatus, validated DNSKEY RRset).

        Memoised. INSECURE propagates downward from the first unsigned
        delegation; BOGUS from the first broken link.
        """
        zone = Name.from_text(zone)
        if zone in self._zone_security:
            return self._zone_security[zone]
        budget = resource_guard.current()
        if budget is not None:
            budget.charge_depth(_depth)
        if _depth > MAX_CHAIN_DEPTH:
            # The BOGUS propagates into a SERVFAIL verdict carrying
            # EDE 6 (DNSSEC Bogus) via _validated_verdict.
            return SecurityStatus.BOGUS, None
        if zone == root:
            result = self._root_security()
        else:
            result = self._child_security(zone, _depth)
        # Memoise only verdicts backed by cryptographic evidence (a chain
        # that verified, or a validated proof of no DS). BOGUS and
        # INDETERMINATE can be transient — one lost or damaged upstream
        # exchange — and latching them would poison every later answer.
        if result[0] in (SecurityStatus.SECURE, SecurityStatus.INSECURE):
            self._zone_security[zone] = result
        return result

    def _root_security(self):
        keys, rrsigs = self._fetch_dnskey(root)
        if keys is None:
            return SecurityStatus.BOGUS, None
        result = validate_dnskey_with_ds(
            root, keys, rrsigs, self.trust_anchor_ds, now=self.now
        )
        if result.secure:
            return SecurityStatus.SECURE, keys
        return SecurityStatus.BOGUS, None

    def _child_security(self, zone, _depth):
        ds_outcome = self.engine.resolve(zone, RdataType.DS, want_dnssec=True)
        if not ds_outcome.ok:
            return SecurityStatus.INDETERMINATE, None
        response = ds_outcome.response

        ds_rrset = response.find_rrset(response.answer, zone, RdataType.DS)
        if ds_rrset is not None:
            ds_sigs = self._covering_sigs(response.answer, zone, RdataType.DS)
            parent = ds_sigs[0].signer if ds_sigs else ds_outcome.auth_zone
            parent_status, parent_keys = self.zone_security(parent, _depth + 1)
            if parent_status is not SecurityStatus.SECURE:
                return parent_status, None
            ds_valid = validate_rrset(
                ds_rrset,
                self._sig_rrset(response.answer, zone, RdataType.DS),
                parent_keys,
                now=self.now,
            )
            if not ds_valid.secure:
                return SecurityStatus.BOGUS, None
            keys, rrsigs = self._fetch_dnskey(zone)
            if keys is None:
                return SecurityStatus.BOGUS, None
            result = validate_dnskey_with_ds(zone, keys, rrsigs, ds_rrset, now=self.now)
            if result.secure:
                return SecurityStatus.SECURE, keys
            return SecurityStatus.BOGUS, None

        # No DS in the answer: the delegation may be insecure, but a signed
        # parent must prove it (otherwise an attacker could strip DS records).
        parent = ds_outcome.auth_zone or zone.parent()
        parent_status, parent_keys = self.zone_security(parent, _depth + 1)
        if parent_status is not SecurityStatus.SECURE:
            return parent_status, None
        proof_status = self._check_no_ds_proof(zone, parent, response, parent_keys)
        return proof_status, None

    def _check_no_ds_proof(self, zone, parent, response, parent_keys):
        """Verify the parent's proof that no DS exists (insecure delegation)."""
        try:
            records, params = collect_proof_records(response.authority, parent)
        except DenialError:
            return SecurityStatus.BOGUS
        if params is not None:
            iterations = params[1]
            if self.policy.exceeds_servfail(iterations) or self.policy.exceeds_insecure(iterations):
                # Parent proof unusable under the policy: treat the child as
                # insecure (the RFC 9276 Item 6 downgrade).
                return SecurityStatus.INSECURE
            if not self._nsec3_sigs_valid(response.authority, parent, parent_keys):
                return SecurityStatus.BOGUS
            proof = verify_nodata(zone, RdataType.DS, parent, records, params)
            if proof.valid:
                if not proof.opt_out and not self._matching_nsec3_has_ns_bit(
                    zone, records, params
                ):
                    # A no-DS proof must describe a real delegation (NS bit
                    # set); otherwise stripping signatures from ordinary
                    # names would downgrade them to insecure.
                    return SecurityStatus.BOGUS
                return SecurityStatus.INSECURE
            return SecurityStatus.BOGUS
        # Plain NSEC parent (or no proof at all).
        nsec = [
            rrset
            for rrset in response.authority
            if int(rrset.rrtype) == int(RdataType.NSEC)
        ]
        for rrset in nsec:
            sigs = self._sig_rrset(response.authority, rrset.name, RdataType.NSEC)
            result = validate_rrset(rrset, sigs, parent_keys, now=self.now)
            if not result.secure:
                return SecurityStatus.BOGUS
            if rrset.name == zone and not rrset[0].covers_type(RdataType.DS):
                return SecurityStatus.INSECURE
            if rrset.name != zone:
                return SecurityStatus.INSECURE  # covering NSEC (opt-out style)
        return SecurityStatus.BOGUS

    def _fetch_dnskey(self, zone):
        outcome = self.engine.resolve(zone, RdataType.DNSKEY, want_dnssec=True)
        if not outcome.ok or outcome.response.rcode != Rcode.NOERROR:
            return None, None
        keys = outcome.response.find_rrset(
            outcome.response.answer, zone, RdataType.DNSKEY
        )
        sigs = self._sig_rrset(outcome.response.answer, zone, RdataType.DNSKEY)
        if keys is None:
            return None, None
        return keys, sigs

    # -- helpers over message sections ---------------------------------------------

    @staticmethod
    def _sig_rrset(section, name, covered):
        for rrset in section:
            if rrset.name == name and int(rrset.rrtype) == int(RdataType.RRSIG):
                matching = [r for r in rrset if r.type_covered == int(covered)]
                if matching:
                    clone = rrset.copy()
                    clone.rdatas = matching
                    return clone
        return None

    @staticmethod
    def _covering_sigs(section, name, covered):
        sigs = []
        for rrset in section:
            if rrset.name == name and int(rrset.rrtype) == int(RdataType.RRSIG):
                sigs.extend(r for r in rrset if r.type_covered == int(covered))
        return sigs

    @staticmethod
    def _matching_nsec3_has_ns_bit(zone, records, params):
        """True if the NSEC3 matching *zone* asserts a delegation (NS set)."""
        from repro.dnssec.nsec3hash import nsec3_hash

        hash_algorithm, iterations, salt = params
        digest = nsec3_hash(
            Name.from_text(zone).canonical_wire(), salt, iterations, hash_algorithm
        )
        for record in records:
            if record.matches(digest):
                return record.rdata.covers_type(RdataType.NS)
        return False

    def _nsec3_sigs_valid(self, section, zone, keys):
        """Validate the RRSIGs over every NSEC3 RRset in *section* (Item 7)."""
        for rrset in section:
            if int(rrset.rrtype) != int(RdataType.NSEC3):
                continue
            sigs = self._sig_rrset(section, rrset.name, RdataType.NSEC3)
            result = validate_rrset(rrset, sigs, keys, now=self.now)
            if not result.secure:
                return False
        return True

    # -- answer validation --------------------------------------------------------------

    def _validated_verdict(self, qname, qtype, outcome):
        response = outcome.response
        zone = outcome.auth_zone or root
        status, keys = self.zone_security(zone)

        if status is SecurityStatus.INDETERMINATE:
            return Verdict(Rcode.SERVFAIL, [], [])
        if status is SecurityStatus.BOGUS:
            return Verdict(
                Rcode.SERVFAIL, [], [], ede=((EDE_DNSSEC_BOGUS, ""),)
            )
        if status is SecurityStatus.INSECURE:
            return Verdict(
                response.rcode, list(response.answer), list(response.authority)
            )

        # SECURE zone: every assertion must verify.
        if response.rcode == Rcode.NXDOMAIN:
            return self._validate_negative(
                qname, qtype, zone, keys, response, nxdomain=True
            )
        if not response.answer:
            return self._validate_negative(
                qname, qtype, zone, keys, response, nxdomain=False
            )
        return self._validate_positive(qname, qtype, zone, keys, response)

    def _validate_positive(self, qname, qtype, zone, keys, response):
        wildcard_expanded = False
        any_insecure = False
        for rrset in response.answer:
            if int(rrset.rrtype) == int(RdataType.RRSIG):
                continue
            sigs = self._sig_rrset(response.answer, rrset.name, rrset.rrtype)
            if sigs is None:
                # Unsigned data (e.g. a CNAME target in an unsigned zone):
                # acceptable only if the name provably sits below an
                # insecure delegation.
                status, __ = self.zone_security(rrset.name)
                if status is SecurityStatus.INSECURE:
                    any_insecure = True
                    continue
                return Verdict(
                    Rcode.SERVFAIL, [], [],
                    ede=((EDE_DNSSEC_BOGUS, "unsigned RRset in a secure zone"),),
                )
            signer_keys = keys
            if sigs[0].signer != zone:
                signer_status, signer_keys = self.zone_security(sigs[0].signer)
                if signer_status is not SecurityStatus.SECURE:
                    return Verdict(Rcode.SERVFAIL, [], [], ede=((EDE_DNSSEC_BOGUS, ""),))
            result = validate_rrset(rrset, sigs, signer_keys, now=self.now)
            if not result.secure:
                ede = (
                    (EDE_SIGNATURE_EXPIRED, "")
                    if "validity window" in result.reason
                    else (EDE_DNSSEC_BOGUS, result.reason[:80])
                )
                return Verdict(Rcode.SERVFAIL, [], [], ede=(ede,))
            if result.rrsig is not None and result.rrsig.labels < rrset.name.label_count:
                wildcard_expanded = True

        if wildcard_expanded:
            # Must prove the concrete name does not exist (RFC 5155 §8.8).
            verdict = self._check_wildcard_proof(qname, zone, keys, response)
            if verdict is not None:
                return verdict
        return Verdict(
            Rcode.NOERROR,
            list(response.answer),
            list(response.authority),
            ad=not any_insecure,
        )

    def _check_wildcard_proof(self, qname, zone, keys, response):
        """Returns a failure/downgrade Verdict, or None when the proof holds."""
        try:
            records, params = collect_proof_records(response.authority, zone)
        except DenialError:
            return Verdict(Rcode.SERVFAIL, [], [], ede=((EDE_DNSSEC_BOGUS, ""),))
        if params is None:
            if any(int(r.rrtype) == int(RdataType.NSEC) for r in response.authority):
                return None  # NSEC wildcard proof accepted structurally
            return Verdict(Rcode.SERVFAIL, [], [], ede=((EDE_DNSSEC_BOGUS, ""),))
        iterations = params[1]
        policy_verdict = self._policy_gate(
            iterations, zone, keys, response, Rcode.NOERROR,
            list(response.answer), list(response.authority),
        )
        if policy_verdict is not None:
            return policy_verdict
        if not self._nsec3_sigs_valid(response.authority, zone, keys):
            return Verdict(Rcode.SERVFAIL, [], [], ede=((EDE_DNSSEC_BOGUS, ""),))
        return None

    def _policy_gate(self, iterations, zone, keys, response, rcode, answer, authority):
        """Apply the NSEC3 iteration policy. None → proceed with validation."""
        if self.policy.exceeds_servfail(iterations):
            if self.policy.verify_before_limit and not self._nsec3_sigs_valid(
                response.authority, zone, keys
            ):
                return Verdict(Rcode.SERVFAIL, [], [], ede=((EDE_DNSSEC_BOGUS, ""),))
            return Verdict(
                Rcode.SERVFAIL, [], [], ede=self.policy.limit_ede_options()
            )
        if self.policy.exceeds_insecure(iterations):
            if self.policy.verify_before_limit and not self._nsec3_sigs_valid(
                response.authority, zone, keys
            ):
                return Verdict(Rcode.SERVFAIL, [], [], ede=((EDE_DNSSEC_BOGUS, ""),))
            return Verdict(
                rcode, answer, authority, ad=False, ede=self.policy.limit_ede_options()
            )
        return None

    def _validate_negative(self, qname, qtype, zone, keys, response, nxdomain):
        rcode = Rcode.NXDOMAIN if nxdomain else Rcode.NOERROR
        soa = None
        for rrset in response.authority:
            if int(rrset.rrtype) == int(RdataType.SOA):
                soa = rrset
                break
        try:
            records, params = collect_proof_records(response.authority, zone)
        except DenialError:
            return Verdict(Rcode.SERVFAIL, [], [], ede=((EDE_DNSSEC_BOGUS, ""),))

        if params is not None:
            iterations = params[1]
            gated = self._policy_gate(
                iterations, zone, keys, response, rcode, [], list(response.authority)
            )
            if gated is not None:
                return gated
            if not self._nsec3_sigs_valid(response.authority, zone, keys):
                return Verdict(Rcode.SERVFAIL, [], [], ede=((EDE_DNSSEC_BOGUS, ""),))
            if soa is not None:
                soa_result = validate_rrset(
                    soa,
                    self._sig_rrset(response.authority, soa.name, RdataType.SOA),
                    keys,
                    now=self.now,
                )
                if not soa_result.secure:
                    return Verdict(Rcode.SERVFAIL, [], [], ede=((EDE_DNSSEC_BOGUS, ""),))
            if nxdomain:
                proof = verify_nxdomain(qname, zone, records, params)
            else:
                proof = verify_nodata(qname, qtype, zone, records, params)
            if not proof.valid:
                return Verdict(Rcode.SERVFAIL, [], [], ede=((EDE_DNSSEC_BOGUS, proof.reason[:80]),))
            ad = not proof.opt_out  # opt-out proofs are insecure by definition
            return Verdict(rcode, [], list(response.authority), ad=ad)

        # NSEC-based denial.
        nsec_rrsets = [
            r for r in response.authority if int(r.rrtype) == int(RdataType.NSEC)
        ]
        if not nsec_rrsets:
            # A signed zone answering negatively without proof is bogus.
            return Verdict(Rcode.SERVFAIL, [], [], ede=((EDE_DNSSEC_BOGUS, "no denial proof"),))
        for rrset in nsec_rrsets:
            sigs = self._sig_rrset(response.authority, rrset.name, RdataType.NSEC)
            result = validate_rrset(rrset, sigs, keys, now=self.now)
            if not result.secure:
                return Verdict(Rcode.SERVFAIL, [], [], ede=((EDE_DNSSEC_BOGUS, ""),))
        if not self._nsec_denies(qname, qtype, nsec_rrsets, nxdomain):
            return Verdict(Rcode.SERVFAIL, [], [], ede=((EDE_DNSSEC_BOGUS, "NSEC proof mismatch"),))
        return Verdict(rcode, [], list(response.authority), ad=True)

    @staticmethod
    def _nsec_denies(qname, qtype, nsec_rrsets, nxdomain):
        """Structural NSEC denial check (RFC 4035 §5.4)."""
        qname = Name.from_text(qname)
        for rrset in nsec_rrsets:
            nsec = rrset[0]
            if rrset.name == qname:
                if nxdomain:
                    return False  # name exists, cannot be NXDOMAIN
                return not nsec.covers_type(qtype)
        if not nxdomain:
            # NODATA via covering NSEC only valid for opt-out-like cases.
            return False
        for rrset in nsec_rrsets:
            nsec = rrset[0]
            owner, nxt = rrset.name, nsec.next_name
            if (owner < qname < nxt) or (nxt <= owner and (qname > owner or qname < nxt)):
                return True
        return False
