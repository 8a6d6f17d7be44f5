"""Resolver-side RFC 9276 compliance: Items 6–12 classification.

The paper probes each resolver with the 49 subdomains of
``rfc9276-in-the-wild.com`` and classifies it from the response matrix:

- *validating*: NOERROR + AD for ``valid``, SERVFAIL for ``expired``;
- *Item 6* (insecure above a limit): a delimiting value N such that
  ``it-n`` yields NXDOMAIN **with** AD for n ≤ N and NXDOMAIN **without**
  AD for n > N;
- *Item 8* (SERVFAIL above a limit): a threshold from which SERVFAIL is
  returned;
- *Item 10* (EDE 27) on those insecure/SERVFAIL responses;
- *Item 7* (integrity): a resolver implementing Item 6 must still
  SERVFAIL on ``it-2501-expired`` (expired signature over the NSEC3);
  answering NXDOMAIN means it skipped signature verification;
- *Item 12*: an insecure band followed by a SERVFAIL band at a higher
  threshold leaves a downgrade-attack window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dns.edns import EDE_UNSUPPORTED_NSEC3_ITERATIONS
from repro.dns.rcode import Rcode

#: The iteration counts probed by the paper (§4.2): 1–25 densely, then
#: steps of 25 up to 500, plus the vendor-threshold successors 51/101/151.
PROBE_ITERATIONS = tuple(
    sorted(set(range(0, 26)) | set(range(50, 501, 25)) | {51, 101, 151})
)


@dataclass(frozen=True)
class ProbeResult:
    """One response observed from a resolver for one probe zone."""

    rcode: int
    ad: bool = False
    ede_codes: tuple = ()
    ra: bool = True
    answered: bool = True

    @property
    def is_servfail(self):
        return self.answered and self.rcode == Rcode.SERVFAIL

    @property
    def is_nxdomain(self):
        return self.answered and self.rcode == Rcode.NXDOMAIN

    @property
    def is_secure_nxdomain(self):
        return self.is_nxdomain and self.ad

    @property
    def has_ede27(self):
        return EDE_UNSUPPORTED_NSEC3_ITERATIONS in self.ede_codes


@dataclass
class ResolverClassification:
    """The verdicts derived from one resolver's probe matrix."""

    resolver: str = ""
    is_validating: bool = False
    limits_iterations: bool = False
    implements_item6: bool = False
    insecure_threshold: int | None = None
    implements_item8: bool = False
    servfail_threshold: int | None = None
    ede27_support: bool = False
    item7_violation: bool = False
    item12_gap: bool = False
    notes: list = field(default_factory=list)

    @property
    def strict_servfail_at_one(self):
        """Resolvers that SERVFAIL for any non-zero iteration count.

        The paper found 418 of these; they render 87.8 % of NSEC3-enabled
        domains unreachable for negative answers.
        """
        return self.implements_item8 and self.servfail_threshold == 0


def _is_validating(matrix):
    valid = matrix.get("valid")
    expired = matrix.get("expired")
    if valid is None or expired is None:
        return False
    return (
        valid.answered
        and valid.rcode == Rcode.NOERROR
        and valid.ad
        and expired.is_servfail
    )


def _iteration_series(matrix):
    """The (iterations, ProbeResult) series present in the matrix, sorted."""
    series = []
    for key, result in matrix.items():
        if isinstance(key, int):
            series.append((key, result))
    series.sort()
    return series


def classify_resolver(matrix, resolver=""):
    """Classify one resolver from its probe response matrix.

    *matrix* maps probe identifiers to :class:`ProbeResult`: integer keys
    are ``it-N`` zones (0 denotes the compliant ``valid`` zone re-probed as
    an iteration point when present), and the string keys ``"valid"``,
    ``"expired"``, ``"it-2501-expired"`` are the control zones.
    """
    cls = ResolverClassification(resolver=resolver)
    cls.is_validating = _is_validating(matrix)
    if not cls.is_validating:
        cls.notes.append("not a validating resolver; Items 6-12 not applicable")
        return cls

    series = _iteration_series(matrix)
    if not series:
        cls.notes.append("no it-N probes present")
        return cls

    # --- Item 6: secure (AD) band followed by an insecure (no-AD) band.
    insecure_threshold = None
    saw_secure = False
    consistent_item6 = True
    for iterations, result in series:
        if result.is_secure_nxdomain:
            if insecure_threshold is not None:
                consistent_item6 = False  # AD reappeared above the limit
            saw_secure = True
        elif result.is_nxdomain:
            if insecure_threshold is None:
                insecure_threshold = iterations
        elif result.is_servfail:
            continue
    last_secure = max(
        (i for i, r in series if r.is_secure_nxdomain), default=None
    )
    if saw_secure and insecure_threshold is not None and consistent_item6:
        cls.implements_item6 = True
        cls.insecure_threshold = last_secure
    elif saw_secure and insecure_threshold is None:
        cls.notes.append("all probed iteration counts answered securely")

    # --- Item 8: SERVFAIL from some iteration count upward.
    servfail_points = [i for i, r in series if r.is_servfail]
    if servfail_points:
        first_servfail = min(servfail_points)
        # All probes at or above the first SERVFAIL must also SERVFAIL for
        # this to be a threshold rather than flakiness.
        tail = [r for i, r in series if i >= first_servfail]
        if all(r.is_servfail for r in tail):
            cls.implements_item8 = True
            below = [i for i, __ in series if i < first_servfail]
            cls.servfail_threshold = max(below) if below else 0
        else:
            cls.notes.append("non-monotonic SERVFAIL pattern; unstable resolver")

    cls.limits_iterations = cls.implements_item6 or cls.implements_item8

    # --- Item 10: EDE 27 on limiting responses.
    limiting = [
        r
        for i, r in series
        if (cls.implements_item6 and cls.insecure_threshold is not None and i > cls.insecure_threshold and r.is_nxdomain and not r.ad)
        or (cls.implements_item8 and cls.servfail_threshold is not None and i > cls.servfail_threshold and r.is_servfail)
    ]
    cls.ede27_support = bool(limiting) and any(r.has_ede27 for r in limiting)

    # --- Item 7: it-2501-expired must SERVFAIL when Item 6 is implemented.
    control = matrix.get("it-2501-expired")
    if cls.implements_item6 and control is not None and control.is_nxdomain:
        cls.item7_violation = True
        cls.notes.append(
            "Item 7 violated: accepted NSEC3 with expired RRSIG at 2501 iterations"
        )

    # --- Item 12: insecure band strictly below the SERVFAIL band.
    if (
        cls.implements_item6
        and cls.implements_item8
        and cls.insecure_threshold is not None
        and cls.servfail_threshold is not None
        and cls.servfail_threshold > cls.insecure_threshold
    ):
        # Verify an actual insecure (no-AD NXDOMAIN) response exists in the gap.
        gap = [
            r
            for i, r in series
            if cls.insecure_threshold < i <= cls.servfail_threshold
        ]
        if any(r.is_nxdomain and not r.ad for r in gap):
            cls.item12_gap = True
            cls.notes.append(
                f"Item 12: downgrade window between {cls.insecure_threshold} "
                f"and {cls.servfail_threshold} iterations"
            )
    return cls

