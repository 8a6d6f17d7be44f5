"""Cross-process signed-zone build cache.

At fleet scale every spawn worker used to rebuild and re-sign the
*identical* testbed before measuring a single unit (~4.6 s of duplicated
RSA work per worker at bench scale).  This module turns signing into a
fleet-wide once-per-zone cost: a content-addressed on-disk cache under
``<state-dir>/build-cache/`` stores the DNSSEC artifacts a
:func:`repro.zone.signing.sign_zone` run produces (RRSIG wire forms,
NSEC3/NSEC chain order and rdata, NSEC3PARAM), keyed by a fingerprint of
the unsigned zone content, the signing policy, the key material, and the
cache schema version.  The first process to need a zone signs it and
stores the entry; every other process (and every post-crash restart)
loads the bytes instead of redoing the bignum work.

Integrity and concurrency reuse the PR 7 journal discipline:

* entries are CRC32-framed (magic | length | crc | payload) and written
  via a pid-suffixed temp file + ``os.replace`` so a torn write is
  detected and rebuilt, never trusted;
* racing processes serialise on a per-entry ``fcntl.flock`` file so the
  loser waits for the winner's store and then loads it, instead of
  duplicating the signing work.

The cache is *observably transparent*: loads must charge the
:class:`~repro.dnssec.costmodel.CostMeter` exactly as the cold chain
build would (see ``signing._install_entry``), so reports, guard trips,
and packed-answer caches stay byte-identical whether the cache hit,
missed, or was never activated (a run without ``--state-dir``).
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import zlib
from contextlib import contextmanager

from repro import obs
from repro.obs.metrics import ChildCache

try:  # pragma: no cover - absent on non-POSIX platforms
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None

#: Bump whenever the entry payload layout or the fingerprint recipe
#: changes; old entries become unreachable (different fingerprints) and
#: are simply never loaded again. 2: the RSA prime search changed, so a
#: key pool's ``size|algorithm|rsa_bits|seed`` names different keys.
SCHEMA_VERSION = 2

#: Frame header: magic, payload length, CRC32 of the payload.
ENTRY_MAGIC = b"RPROBC1\n"
_FRAME_HEAD = struct.Struct("<II")

_EVENTS = ("hit", "miss", "load", "store", "corrupt", "wait")

_event_counter = ChildCache()


def _count_event(event):
    if not obs.enabled:
        return
    child = _event_counter.get(obs.registry, event)
    if child is None:
        child = _event_counter.put(
            event,
            obs.registry.counter(
                "repro_build_cache_events_total",
                "Signed-zone build cache events by outcome.",
                labelnames=("event",),
            ).labels(event=event),
        )
    child.inc()


class ZoneBuildCache:
    """Content-addressed store for signed-zone build artifacts.

    One instance per process, rooted at ``<state-dir>/build-cache/``.
    Entries are small JSON documents; *kind* namespaces the fingerprint
    space (``"zone"`` for signed-zone artifacts, ``"keypool"`` for the
    testbed's shared RSA key pool).
    """

    def __init__(self, directory):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        #: Per-process event counts (also exported as
        #: ``repro_build_cache_events_total`` when metrics are enabled).
        self.events = {}

    # -- accounting ---------------------------------------------------

    def count(self, event):
        self.events[event] = self.events.get(event, 0) + 1
        _count_event(event)

    def summary(self):
        """``hit:3,miss:1,...`` fragment for the ``[sim]`` stderr line."""
        return ",".join(f"{k}:{self.events[k]}" for k in _EVENTS if k in self.events)

    # -- fingerprints -------------------------------------------------

    @staticmethod
    def fingerprint(kind, material):
        """Hex fingerprint of *material* (bytes) under the cache schema."""
        digest = hashlib.sha256()
        digest.update(b"repro-build-cache/%d/" % SCHEMA_VERSION)
        digest.update(kind.encode("ascii") + b"/")
        digest.update(material)
        return digest.hexdigest()

    def _path(self, kind, fp):
        return os.path.join(self.directory, f"{kind}-{fp}.entry")

    # -- entry IO -----------------------------------------------------

    def load(self, kind, fp):
        """The decoded payload for *fp*, or ``None`` on miss/corruption.

        A torn or bit-flipped entry (bad magic, short frame, CRC
        mismatch, undecodable JSON) counts as ``corrupt``, is unlinked
        best-effort, and reads as a miss — the caller rebuilds and
        rewrites it.
        """
        path = self._path(kind, fp)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError:
            return None
        head = len(ENTRY_MAGIC) + _FRAME_HEAD.size
        if len(blob) >= head and blob[: len(ENTRY_MAGIC)] == ENTRY_MAGIC:
            length, crc = _FRAME_HEAD.unpack_from(blob, len(ENTRY_MAGIC))
            payload = blob[head : head + length]
            if len(payload) == length and zlib.crc32(payload) == crc:
                try:
                    doc = json.loads(payload.decode("utf-8"))
                except ValueError:
                    doc = None
                if doc is not None:
                    self.count("load")
                    return doc
        self.count("corrupt")
        try:
            os.unlink(path)
        except OSError:
            pass
        return None

    def store(self, kind, fp, payload):
        """Atomically persist *payload* (a JSON-serialisable dict)."""
        path = self._path(kind, fp)
        body = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("utf-8")
        blob = ENTRY_MAGIC + _FRAME_HEAD.pack(len(body), zlib.crc32(body)) + body
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        self.count("store")

    # -- cross-process coordination -----------------------------------

    @contextmanager
    def lock(self, kind, fp):
        """Exclusive per-entry advisory lock (no-op without ``fcntl``).

        A blocked acquisition counts as ``wait`` — the usual sign that a
        sibling worker is signing this very zone and we are about to
        load its result instead of duplicating the work.
        """
        if fcntl is None:  # pragma: no cover
            yield
            return
        path = os.path.join(self.directory, f"{kind}-{fp}.lock")
        handle = open(path, "wb")
        try:
            try:
                fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                self.count("wait")
                fcntl.flock(handle, fcntl.LOCK_EX)
            yield
        finally:
            try:
                fcntl.flock(handle, fcntl.LOCK_UN)
            except OSError:  # pragma: no cover
                pass
            handle.close()


# -- process-global activation ----------------------------------------
#
# The cache is opt-in: it activates only when a run has a --state-dir
# (supervised fleets always do; single-process runs may pass one).

_active = None


def activate(directory):
    """Open (or create) the cache rooted at *directory* and make it the
    process-global instance. Returns the handle."""
    global _active
    _active = ZoneBuildCache(directory)
    return _active


def deactivate():
    global _active
    _active = None


def active():
    """The process-global cache, or ``None`` when none was activated."""
    return _active
