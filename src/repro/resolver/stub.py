"""Stub client: what the scanners and Atlas-style probes use to ask resolvers."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dns.message import make_query
from repro.dns.rcode import Rcode
from repro.dns.types import RdataType
from repro.dns.flags import Flag
from repro.net.transport import DEFAULT_BACKOFF, QueryFailure, Transport


@dataclass
class StubAnswer:
    """A client-side view of one resolver response."""

    rcode: int
    ad: bool
    ra: bool
    answer: list
    ede_codes: tuple
    answered: bool = True
    authority: list = field(default_factory=list)

    @classmethod
    def timeout(cls):
        """The answer used when every retry went unanswered."""
        return cls(Rcode.SERVFAIL, False, False, [], (), answered=False)


class StubClient:
    """Sends recursive queries to a resolver and summarises the replies.

    The resilience knobs (*backoff*, *timeout_budget_ms*, *breaker*) pass
    straight through to :class:`~repro.net.transport.Transport`; a shared
    breaker lets a scan campaign quarantine dead resolvers across all its
    clients.
    """

    def __init__(
        self,
        network,
        source_ip,
        retries=1,
        backoff=DEFAULT_BACKOFF,
        timeout_budget_ms=None,
        breaker=None,
    ):
        self.transport = Transport(
            network,
            source_ip,
            retries=retries,
            backoff=backoff,
            timeout_budget_ms=timeout_budget_ms,
            breaker=breaker,
        )
        self.source_ip = source_ip

    def ask(
        self,
        resolver_ip,
        qname,
        qtype=RdataType.A,
        want_dnssec=True,
        set_rd=True,
        checking_disabled=False,
    ):
        """Send one recursive query to *resolver_ip* and summarise the reply."""
        query = make_query(
            qname, qtype, want_dnssec=want_dnssec, recursion_desired=set_rd
        )
        if checking_disabled:
            query.set_flag(Flag.CD)
        try:
            response = self.transport.query(resolver_ip, query)
        except QueryFailure:
            return StubAnswer.timeout()
        ede = tuple(err.info_code for err in response.extended_errors())
        return StubAnswer(
            rcode=int(response.rcode),
            ad=response.has_flag(Flag.AD),
            ra=response.has_flag(Flag.RA),
            answer=response.answer,
            ede_codes=ede,
            authority=response.authority,
        )
