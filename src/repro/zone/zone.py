"""The zone container and its lookup semantics (RFC 1034 §4.3.2).

A :class:`Zone` maps owner names to per-type RRsets and knows how to answer
the four questions an authoritative server asks: exact answer, NODATA,
delegation, or NXDOMAIN (with wildcard synthesis). DNSSEC material —
signatures and the NSEC/NSEC3 chain — is attached by
:mod:`repro.zone.signing`.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass

from repro.dns.name import Name
from repro.dns.rrset import RRset
from repro.dns.types import RdataType


class LookupStatus(enum.Enum):
    """Outcome category of a zone lookup."""

    ANSWER = "answer"
    NODATA = "nodata"
    NXDOMAIN = "nxdomain"
    DELEGATION = "delegation"
    CNAME = "cname"
    WILDCARD = "wildcard"
    NOT_IN_ZONE = "not-in-zone"


@dataclass
class LookupResult:
    """What the zone found for a (name, type) question."""

    status: LookupStatus
    rrset: RRset | None = None
    #: For DELEGATION: the delegation point's NS RRset.
    delegation: RRset | None = None
    #: For WILDCARD: the wildcard owner that was expanded.
    wildcard_owner: Name | None = None
    #: For CNAME: the alias RRset to chase.
    cname: RRset | None = None


class Zone:
    """An authoritative zone: origin plus a name → type → RRset map."""

    def __init__(self, origin):
        self.origin = Name.from_text(origin)
        self.nodes = {}
        #: Set by repro.zone.signing once the zone is DNSSEC-signed.
        self.signed = False
        self.nsec3_chain = None
        self.nsec_chain = None
        self.keys = []
        #: RRSIGs keyed like RRsets: (name, type) -> RRset of RRSIGs.
        self.rrsigs = {}
        #: Signatures fixed at signing time but not yet computed:
        #: (name, type) -> zero-arg callable returning the RRSIG RRset.
        #: :meth:`get_rrsigs` runs one on first read.
        self.pending_rrsigs = {}
        #: Bumped on every mutation; derived caches key their freshness on
        #: it (the sorted existence index below, the authoritative
        #: server's packed-answer cache).
        self.generation = 0
        #: Zero-arg callbacks fired on :meth:`touch`.
        self._mutation_listeners = []
        self._existence_index = None
        self._existence_generation = -1

    # -- mutation tracking --------------------------------------------------

    def touch(self):
        """Record a mutation: bump the generation and notify listeners.

        :meth:`add_rrset` calls this; code that edits :attr:`nodes` or
        :attr:`rrsigs` directly (zone signing does) must call it once the
        edit is complete.
        """
        self.generation += 1
        for listener in self._mutation_listeners:
            listener()

    def add_mutation_listener(self, listener):
        """Register a zero-arg callback invoked after every mutation."""
        self._mutation_listeners.append(listener)

    # -- construction ------------------------------------------------------

    def add_rrset(self, rrset):
        """Insert (or merge) an RRset; owner must be inside the zone."""
        if not rrset.name.is_subdomain_of(self.origin):
            raise ValueError(f"{rrset.name} is outside zone {self.origin}")
        node = self.nodes.setdefault(rrset.name, {})
        existing = node.get(int(rrset.rrtype))
        if existing is None:
            node[int(rrset.rrtype)] = rrset.copy()
        else:
            for rdata in rrset:
                existing.add(rdata)
        self.touch()
        return self

    def replace_rrset(self, rrset):
        """Replace (not merge) the RRset at ``(name, type)``.

        SOA serial bumps come through here: the whole RRset is swapped so
        the old serial does not linger as a second rdata.
        """
        if not rrset.name.is_subdomain_of(self.origin):
            raise ValueError(f"{rrset.name} is outside zone {self.origin}")
        node = self.nodes.setdefault(rrset.name, {})
        node[int(rrset.rrtype)] = rrset.copy()
        self.touch()
        return self

    def add(self, name, rrtype, ttl, *rdatas):
        """Convenience: add rdatas under (name, type)."""
        rrset = RRset(name, rrtype, ttl, list(rdatas))
        return self.add_rrset(rrset)

    # -- introspection ------------------------------------------------------

    def get_rrset(self, name, rrtype):
        """The RRset at (name, type), or None."""
        node = self.nodes.get(Name.from_text(name))
        if node is None:
            return None
        return node.get(int(rrtype))

    def get_rrsigs(self, name, rrtype):
        """The RRSIG RRset covering (name, type), or None.

        A pending signature is computed here and kept in :attr:`rrsigs`.
        That is no mutation (no :meth:`touch`): its content was fixed
        when the zone was signed.
        """
        key = (Name.from_text(name), int(rrtype))
        rrsigs = self.rrsigs.get(key)
        if rrsigs is None and self.pending_rrsigs:
            pending = self.pending_rrsigs.pop(key, None)
            if pending is not None:
                rrsigs = self.rrsigs[key] = pending()
        return rrsigs

    def complete_rrsigs(self):
        """Compute every pending signature, in signing order."""
        for name, rrtype in list(self.pending_rrsigs):
            self.get_rrsigs(name, rrtype)

    @property
    def soa(self):
        """The apex SOA RRset (None on un-built zones)."""
        rrset = self.get_rrset(self.origin, RdataType.SOA)
        return rrset

    def names(self):
        """All owner names, canonically sorted."""
        return sorted(self.nodes)

    def all_rrsets(self):
        """Every RRset, in canonical owner/type order."""
        for name in sorted(self.nodes):
            for rrtype in sorted(self.nodes[name]):
                yield self.nodes[name][rrtype]

    def record_count(self):
        """Total RR count (rdatas, not RRsets)."""
        return sum(len(rrset) for rrset in self.all_rrsets())

    def is_delegation_point(self, name):
        """True when *name* owns a non-apex NS RRset (a zone cut)."""
        name = Name.from_text(name)
        return name != self.origin and int(RdataType.NS) in self.nodes.get(name, {})

    def delegation_for(self, name):
        """The deepest delegation point at or above *name*, if any."""
        name = Name.from_text(name)
        candidate = name
        while candidate.label_count > self.origin.label_count:
            if self.is_delegation_point(candidate):
                return candidate
            candidate = candidate.parent()
        return None

    def authoritative_names(self):
        """Names this zone is authoritative for: in-zone, not below a cut.

        Delegation points themselves are included (the parent side of the
        cut owns the NS and optional DS RRsets); glue below them is not.
        """
        result = []
        for name in self.nodes:
            cut = self.delegation_for(name)
            if cut is not None and cut != name:
                continue
            result.append(name)
        return sorted(result)

    def empty_nonterminals(self):
        """Names with no RRsets that sit between a node and the apex.

        NSEC3 chains must include these (RFC 5155 §7.1).
        """
        present = set(self.nodes)
        empties = set()
        for name in self.authoritative_names():
            candidate = name
            while candidate.label_count > self.origin.label_count + 1:
                candidate = candidate.parent()
                if candidate not in present:
                    empties.add(candidate)
        return sorted(empties)

    # -- lookup --------------------------------------------------------------

    def lookup(self, qname, qtype):
        """Authoritative lookup per RFC 1034 §4.3.2 (plus wildcard synthesis)."""
        qname = Name.from_text(qname)
        if not qname.is_subdomain_of(self.origin):
            return LookupResult(LookupStatus.NOT_IN_ZONE)

        # Delegation check first: anything at or below a zone cut is referred,
        # except queries for DS at the cut itself (answered by the parent).
        cut = self.delegation_for(qname)
        if cut is not None:
            at_cut_for_parent_types = qname == cut and int(qtype) in (
                int(RdataType.DS),
            )
            if not at_cut_for_parent_types:
                return LookupResult(
                    LookupStatus.DELEGATION,
                    delegation=self.nodes[cut][int(RdataType.NS)],
                )

        node = self.nodes.get(qname)
        if node is not None:
            rrset = node.get(int(qtype))
            if rrset is not None:
                return LookupResult(LookupStatus.ANSWER, rrset=rrset)
            cname = node.get(int(RdataType.CNAME))
            if cname is not None and int(qtype) != int(RdataType.CNAME):
                return LookupResult(LookupStatus.CNAME, cname=cname)
            return LookupResult(LookupStatus.NODATA)

        if self._name_exists(qname):
            # Empty non-terminal: the name "exists" but owns nothing.
            return LookupResult(LookupStatus.NODATA)

        wildcard_result = self._try_wildcard(qname, qtype)
        if wildcard_result is not None:
            return wildcard_result
        return LookupResult(LookupStatus.NXDOMAIN)

    def _name_exists(self, qname):
        """True if *qname* exists as a node or an empty non-terminal.

        An empty non-terminal exists iff some node sorts immediately
        after ``qname`` in canonical order within its subtree, so after
        the exact-match check one bisect over the sorted canonical keys
        answers it — the linear subtree scan this replaces dominated the
        NXDOMAIN, wildcard, and closest-encloser hot paths.
        """
        if qname in self.nodes:
            return True
        index = self._existence_index
        if index is None or self._existence_generation != self.generation:
            index = sorted(name._key() for name in self.nodes)
            self._existence_index = index
            self._existence_generation = self.generation
        qkey = qname._key()
        at = bisect_right(index, qkey)
        return at < len(index) and index[at][: len(qkey)] == qkey

    def _try_wildcard(self, qname, qtype):
        """RFC 4592 wildcard synthesis for the closest encloser."""
        candidate = qname
        while candidate.label_count > self.origin.label_count:
            candidate = candidate.parent()
            if not self._name_exists(candidate):
                continue
            wildcard = candidate.prepend(b"*")
            node = self.nodes.get(wildcard)
            if node is None:
                return None
            rrset = node.get(int(qtype))
            if rrset is not None:
                synthesized = RRset(qname, rrset.rrtype, rrset.ttl, list(rrset.rdatas))
                return LookupResult(
                    LookupStatus.WILDCARD,
                    rrset=synthesized,
                    wildcard_owner=wildcard,
                )
            cname = node.get(int(RdataType.CNAME))
            if cname is not None:
                synthesized = RRset(qname, cname.rrtype, cname.ttl, list(cname.rdatas))
                return LookupResult(
                    LookupStatus.WILDCARD,
                    cname=synthesized,
                    wildcard_owner=wildcard,
                )
            return LookupResult(LookupStatus.NODATA)
        return None

    def __repr__(self):
        return (
            f"<Zone {self.origin} nodes={len(self.nodes)} "
            f"signed={self.signed}>"
        )
