"""Zone model: containers, NSEC/NSEC3 chains, whole-zone signing."""

from repro.zone.zone import Zone, LookupResult, LookupStatus
from repro.zone.builder import ZoneBuilder
from repro.zone.nsec3chain import Nsec3Chain, Nsec3Params
from repro.zone.signing import SigningPolicy, sign_zone

__all__ = [
    "Zone",
    "LookupResult",
    "LookupStatus",
    "ZoneBuilder",
    "Nsec3Chain",
    "Nsec3Params",
    "SigningPolicy",
    "sign_zone",
]
