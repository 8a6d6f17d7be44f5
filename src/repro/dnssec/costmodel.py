"""CPU cost accounting for DNSSEC operations.

CVE-2023-50868 exploits the fact that validating one negative answer can
require hashing several names with thousands of SHA-1 iterations each.
Gruza et al. measured up to a 72× increase in resolver CPU instructions;
our reproduction counts the primitive operations directly and the
``bench_cve_cost`` benchmark reports the same amplification shape.

A single process-global :data:`meter` is used; benchmarks snapshot and
reset it around measured regions. Counters:

- ``sha1_compressions`` — SHA-1 block-compression invocations, the unit
  that actually scales with NSEC3 iterations (one hash call over a short
  input costs one compression);
- ``nsec3_hashes`` — complete NSEC3 hash computations (name → digest);
- ``signature_verifications`` — public-key verifications performed.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class CostSnapshot:
    """An immutable view of the meter at one point in time."""

    sha1_compressions: int = 0
    nsec3_hashes: int = 0
    signature_verifications: int = 0

    def __sub__(self, other):
        return CostSnapshot(
            self.sha1_compressions - other.sha1_compressions,
            self.nsec3_hashes - other.nsec3_hashes,
            self.signature_verifications - other.signature_verifications,
        )


@dataclass
class CostMeter:
    """Accumulates DNSSEC operation counts."""

    sha1_compressions: int = 0
    nsec3_hashes: int = 0
    signature_verifications: int = 0
    #: Optional zero-arg callback fired after every charge. The resolver
    #: resource guard (:mod:`repro.resolver.guard`) installs its per-query
    #: budget check here while a budget is active; it stays None otherwise
    #: so the uninstrumented hot path pays one attribute test per charge.
    listener: object = None
    #: Optional list capturing each charge as three ints in a flat run,
    #: its ``sha1, nsec3, verify`` deltas. The authoritative answer cache
    #: records the charge sequence of a response build here and
    #: :meth:`replay`\ s it on a cache hit, so budgets trip at exactly the
    #: same points whether the response was computed or served from cache.
    recorder: object = None

    def charge_nsec3(self, iterations, input_length, salt_length):
        """Account one full NSEC3 hash of a name.

        Each of the ``iterations + 1`` SHA-1 invocations hashes at most
        ``name + salt`` (≤ 255 + 255) bytes; we charge one compression per
        64-byte block including padding, mirroring real CPU cost.
        """
        first_blocks = _sha1_blocks(input_length + salt_length)
        later_blocks = _sha1_blocks(20 + salt_length)
        blocks = first_blocks + iterations * later_blocks
        self.sha1_compressions += blocks
        self.nsec3_hashes += 1
        if self.recorder is not None:
            self.recorder.extend((blocks, 1, 0))
        if self.listener is not None:
            self.listener()

    def charge_verification(self):
        self.signature_verifications += 1
        if self.recorder is not None:
            self.recorder.extend((0, 0, 1))
        if self.listener is not None:
            self.listener()

    def replay(self, charges):
        """Re-apply a recorded charge sequence, op by op (three ints each).

        A cache hit charges the model exactly as the original computation
        did — same per-operation deltas, same order, listener fired after
        each — so guard overshoot bounds and trip points are preserved.
        Replayed charges are themselves recorded when a recorder is
        active (a cached answer nested inside another recorded build).
        """
        recorder = self.recorder
        listener_active = self.listener is not None
        ops = iter(charges)
        for sha1, nsec3, verify in zip(ops, ops, ops):
            self.sha1_compressions += sha1
            self.nsec3_hashes += nsec3
            self.signature_verifications += verify
            if recorder is not None:
                recorder.extend((sha1, nsec3, verify))
            if listener_active:
                self.listener()

    def snapshot(self):
        return CostSnapshot(
            self.sha1_compressions, self.nsec3_hashes, self.signature_verifications
        )

    @contextmanager
    def suspended(self):
        """Charges inside the block leave no trace on the meter.

        Used by the build-cache warm pass: it pre-computes signing work
        the campaign will charge at query time (cold materialisation or
        cache load — identical either way), so charging it at build time
        too would double-count. Listener and recorder are detached for
        the duration and the counters are restored on exit.
        """
        saved = (
            self.sha1_compressions,
            self.nsec3_hashes,
            self.signature_verifications,
            self.listener,
            self.recorder,
        )
        self.listener = None
        self.recorder = None
        try:
            yield self
        finally:
            (
                self.sha1_compressions,
                self.nsec3_hashes,
                self.signature_verifications,
                self.listener,
                self.recorder,
            ) = saved

    def reset(self):
        self.sha1_compressions = 0
        self.nsec3_hashes = 0
        self.signature_verifications = 0


def _sha1_blocks(message_length):
    """Number of 64-byte compression blocks to hash *message_length* bytes."""
    # Padding adds 1 byte of 0x80 plus an 8-byte length field.
    return (message_length + 1 + 8 + 63) // 64


#: The process-global meter charged by nsec3hash and the validator.
meter = CostMeter()
