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

An entry is one :mod:`repro.durable` frame behind :data:`ENTRY_MAGIC`;
a damaged one reads as ``corrupt`` and is rebuilt, never trusted, and a
write that fails counts ``error`` and the run carries on uncached.
Racing processes serialise on a per-entry ``fcntl.flock`` file, so the
loser waits for the winner's store and then loads it.

The cache is *observably transparent*: loads must charge the
:class:`~repro.dnssec.costmodel.CostMeter` exactly as the cold chain
build would (see ``signing._install_entry``), so reports, guard trips,
and packed-answer caches stay byte-identical whether the cache hit,
missed, or was never activated (a run without ``--state-dir``).
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager

from repro import durable, obs
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

#: First bytes of every entry file, ahead of its one frame.
ENTRY_MAGIC = b"RPROBC1\n"

_EVENTS = ("hit", "miss", "load", "store", "corrupt", "wait", "error")

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
        #: Per-process event counts (also exported as
        #: ``repro_build_cache_events_total`` when metrics are enabled).
        self.events = {}
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError:
            self.count("error")  # every store will fail and count too

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

        Anything but exactly one good frame under :data:`ENTRY_MAGIC`
        counts as ``corrupt``, is unlinked best-effort, and reads as a
        miss — the caller rebuilds and rewrites it.
        """
        path = self._path(kind, fp)
        try:
            blob = durable.read(path)
        except durable.CampaignError:
            self.count("error")
            return None
        if blob is None:
            return None
        walked = list(durable.frames(blob, ENTRY_MAGIC))
        if len(walked) == 1 and walked[0][1] == len(blob):
            self.count("load")
            return walked[0][0]
        self.count("corrupt")
        try:
            os.unlink(path)
        except OSError:
            pass
        return None

    def store(self, kind, fp, payload):
        """Atomically persist *payload* (a JSON-serialisable dict); a
        failed write counts as ``error`` and leaves the entry missing."""
        blob = ENTRY_MAGIC + durable.frame(payload, sort_keys=True)
        try:
            durable.replace(self._path(kind, fp), blob, sync="file")
            self.count("store")
        except durable.CampaignError:
            self.count("error")

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
        try:
            handle = open(path, "wb")
        except OSError:
            self.count("error")  # unwritable cache: sign without the lock
            yield
            return
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
