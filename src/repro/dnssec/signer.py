"""RRSIG generation over canonical RRsets (RFC 4034 §3.1.8).

The signed data is::

    RRSIG_RDATA (sans signature) | RR(1) | RR(2) | ...

where each RR is ``owner | type | class | original-TTL | RDLENGTH | RDATA``
in canonical form (names lowercased, rdata in canonical order, no
compression).
"""

from __future__ import annotations

import struct

from repro.dns.name import Name
from repro.dns.rdata.dnssec import RRSIG
from repro.dns.rrset import RRset
from repro.dns.types import RdataType

#: Default validity window for freshly produced signatures (30 days).
DEFAULT_LIFETIME = 30 * 24 * 3600

#: A stable epoch used as "now" across the simulation so that signatures
#: remain comparable between runs. Benchmarks and zones may override it.
SIMULATION_NOW = 1_700_000_000


def canonical_rrset_wire(rrset, original_ttl=None, owner=None):
    """The canonical ``RR(1)..RR(n)`` concatenation for signing.

    Computed afresh on every call; a validator that needs it for several
    keys or signatures keeps it for the one call
    (:func:`repro.dnssec.validator._signed_payload`).
    """
    owner_wire = (owner or rrset.name).canonical_wire()
    ttl = rrset.ttl if original_ttl is None else original_ttl
    header_fixed = struct.pack(
        "!HHI", int(rrset.rrtype), int(rrset.rdclass), ttl
    )
    chunks = []
    for rdata in sorted(rrset.rdatas, key=lambda r: r.canonical_wire()):
        body = rdata.canonical_wire()
        chunks.append(owner_wire + header_fixed + struct.pack("!H", len(body)) + body)
    return b"".join(chunks)


def rrsig_signed_owner(rrsig, rrset):
    """The owner name the signature covers.

    When the RRSIG ``labels`` field is smaller than the owner's label
    count, the RRset was synthesised from a wildcard: the signed owner is
    reconstructed as ``*.<rightmost labels>`` (RFC 4035 §5.3.2).
    """
    owner = rrset.name
    if rrsig.labels < owner.label_count:
        __, suffix = owner.split(rrsig.labels)
        owner = suffix.prepend(b"*")
    return owner


def rrsig_signed_data(rrsig, rrset):
    """The exact byte string an RRSIG's signature covers."""
    return rrsig.rdata_prefix() + canonical_rrset_wire(
        rrset, rrsig.original_ttl, owner=rrsig_signed_owner(rrsig, rrset)
    )


def _owner_labels_for_rrsig(name):
    """The RRSIG ``labels`` field: label count ignoring a leading wildcard."""
    labels = name.labels
    if labels and labels[0] == b"*":
        return len(labels) - 1
    return len(labels)


def sign_rrset(
    rrset,
    keypair,
    signer,
    inception=None,
    expiration=None,
    now=SIMULATION_NOW,
    sign=None,
):
    """Produce an :class:`RRSIG` rdata over *rrset* with *keypair*.

    *signer* is the zone apex name owning the DNSKEY. By default the
    validity window is centred on the simulation clock; pass explicit
    *inception*/*expiration* to create expired or future signatures (the
    ``expired`` control zones of the paper are made this way). *sign*
    optionally overrides the signing primitive with a pre-bound closure
    (``KeyPair.bulk_signer``) so whole-zone loops skip the per-call
    algorithm dispatch and RSA setup; it must produce byte-identical
    signatures to ``keypair.sign``.
    """
    signer = Name.from_text(signer)
    if inception is None:
        inception = now - 3600
    if expiration is None:
        expiration = now + DEFAULT_LIFETIME
    template = RRSIG(
        type_covered=int(rrset.rrtype),
        algorithm=keypair.algorithm,
        labels=_owner_labels_for_rrsig(rrset.name),
        original_ttl=rrset.ttl,
        expiration=expiration,
        inception=inception,
        key_tag=keypair.key_tag,
        signer=signer,
        signature=b"",
    )
    signed = rrsig_signed_data(template, rrset)
    signature = (sign or keypair.sign)(signed)
    return RRSIG(
        template.type_covered,
        template.algorithm,
        template.labels,
        template.original_ttl,
        template.expiration,
        template.inception,
        template.key_tag,
        signer,
        signature,
    )


def make_rrsig_rrset(rrset, rrsigs):
    """Wrap RRSIG rdatas in an RRset parallel to the covered *rrset*."""
    return RRset(rrset.name, RdataType.RRSIG, rrset.ttl, list(rrsigs), rrset.rdclass)
