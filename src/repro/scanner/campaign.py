"""Resumable scan campaigns: durable journaled checkpoints.

A multi-hour scan of 302 M domains dies to reboots, rate-limit bans, and
operator opt-outs; the paper's ethics appendix promises minimal load, so
a restarted campaign must not re-query what it already measured. A
:class:`CampaignCheckpoint` persists per-target outcomes durably so an
interrupted campaign resumes with **zero duplicate queries** — even when
the interruption is a SIGKILL that lands mid-write.

Two files, written through :mod:`repro.durable`: ``path``, the JSON
**snapshot**, and ``path + ".journal"``, the frames appended since. The
journal is *expected* to be damaged by crashes and self-heals (a torn
tail is cut back to the last good frame on load); the snapshot is
atomically replaced, so an unparseable, foreign, or future-versioned one
raises :class:`CampaignError` instead of being silently discarded (pass
``discard=True`` — the CLI's ``--discard-checkpoint`` — to archive it
and start fresh), and one that cannot be *read* is never archived. Past
``compact_every`` frames the journal is folded into the snapshot.

Checkpoint records are plain JSON dicts; whoever measures a unit defines
its record codec (the ``study-units/1`` codecs live in
:mod:`repro.scanner.pipeline`, the probe-matrix codec in
:mod:`repro.scanner.resolver_scan`).

Besides records, the checkpoint stores idempotent **notes**: flags keyed
by (tag, job key) used to count per-job events like requeues exactly
once across resume boundaries (see :meth:`CampaignCheckpoint.note`).
"""

from __future__ import annotations

import json
import os

from repro import durable, obs
from repro.durable import CampaignError

CHECKPOINT_VERSION = 2

#: First bytes of every journal file; a journal that does not start with
#: this is treated as having no recoverable frames.
JOURNAL_MAGIC = b"RPROJRN2"


#: Help texts of the ``repro_campaign_<event>_total{campaign=...}`` counters.
_CAMPAIGN_EVENTS = {
    "completed": "Campaign jobs settled (scan targets / surveyed resolvers).",
    "quarantined": "Targets set aside as unhealthy during the main pass.",
    "requeued": "Targets quarantined for an end-of-campaign requeue pass "
    "(counted once per job key across resumes).",
}


def count_campaign(event, campaign, n=1):
    """Bump ``repro_campaign_<event>_total`` for *campaign* by *n*."""
    if obs.enabled and n:
        obs.registry.counter(
            f"repro_campaign_{event}_total",
            _CAMPAIGN_EVENTS[event],
            labelnames=("campaign",),
        ).labels(campaign=campaign).inc(n)


class CampaignCheckpoint:
    """Keyed checkpoint: durable JSON snapshot + framed journal.

    ``flush_every`` bounds how much progress an interruption can lose:
    that many records are buffered before they are appended (and
    fsynced) to the journal. ``compact_every`` bounds journal growth:
    once that many frames accumulate they are folded into the snapshot.
    A missing checkpoint starts the campaign from scratch.

    *schema* names the record codec (e.g. ``"scan-answer/1"``); a
    snapshot recording a different schema is rejected rather than fed to
    the wrong ``*_from_record`` decoder.
    """

    def __init__(self, path, flush_every=50, schema=None,
                 discard=False, compact_every=4096):
        self.path = str(path)
        self.journal_path = f"{self.path}.journal"
        self.flush_every = flush_every
        self.schema = schema
        self.compact_every = compact_every
        self._records = {}
        self._notes = {}
        self._pending = []
        self._journal_frames = 0
        self._load(discard=discard)

    # -- load & recovery -----------------------------------------------------

    def _load(self, discard=False):
        # Outside the discard guard: a snapshot that cannot be read now
        # may be readable later, and archiving it would throw it away.
        blob = durable.read(self.path)
        try:
            self._adopt_snapshot(blob)
        except CampaignError:
            if not discard:
                raise
            durable.set_aside([self.path, self.journal_path], ".invalid")
            self._records = {}
            self._notes = {}
            return
        self._journal_frames = self._replay_journal()
        if self._journal_frames >= self.compact_every:
            self.compact()

    def _untrusted(self, why):
        return CampaignError(
            f"checkpoint {self.path} {why}; re-run with --discard-checkpoint "
            "to archive it and start fresh"
        )

    def _adopt_snapshot(self, blob):
        if blob is None:
            return
        try:
            payload = json.loads(blob.decode("utf-8"))
        except ValueError as exc:
            # The snapshot is written atomically, so a crash cannot tear
            # it: an unparseable file is foreign or damaged at rest.
            raise self._untrusted(f"is not a campaign snapshot ({exc})") from None
        if not isinstance(payload, dict) or not isinstance(
            payload.get("records"), dict
        ):
            raise self._untrusted("has no record map — not a campaign snapshot")
        version = payload.get("version")
        if version not in (1, CHECKPOINT_VERSION):
            raise self._untrusted(
                f"has version {version!r} (this build reads {CHECKPOINT_VERSION})"
            )
        stored_schema = payload.get("schema")
        if (
            self.schema is not None
            and stored_schema is not None
            and stored_schema != self.schema
        ):
            raise self._untrusted(
                f"holds {stored_schema!r} records, this campaign expects "
                f"{self.schema!r}"
            )
        self._records = payload["records"]
        notes = payload.get("notes")
        if isinstance(notes, dict):
            self._notes = {
                tag: set(keys) for tag, keys in notes.items()
                if isinstance(keys, list)
            }

    def _replay_journal(self):
        """Apply journal frames; truncate a torn/corrupt tail in place.

        Returns the number of good frames. Every failure mode a crash
        can produce — short header, short payload, bit-flipped bytes,
        garbage length — lands after the last fully-fsynced frame, so
        recovery is: keep the prefix, cut the rest.
        """
        blob = durable.read(self.journal_path)
        if blob is None:
            return 0
        # A damaged header leaves no frame boundary to trust: cut to zero.
        good_end = len(JOURNAL_MAGIC) if blob.startswith(JOURNAL_MAGIC) else 0
        frames = 0
        for payload, end in durable.frames(blob, JOURNAL_MAGIC):
            try:
                self._apply_frame(payload)
            except (TypeError, KeyError):
                break
            good_end = end
            frames += 1
        if good_end < len(blob):
            dropped = len(blob) - good_end
            durable.truncate(self.journal_path, good_end)
            if obs.enabled:
                obs.registry.counter(
                    "repro_checkpoint_recoveries_total",
                    "Journal loads that truncated a torn or corrupt tail.",
                ).inc()
            if obs.events:
                obs.emit(
                    "checkpoint.recover", frames=frames, dropped_bytes=dropped
                )
        return frames

    def _apply_frame(self, payload):
        if "r" in payload:
            self._records[payload["k"]] = payload["r"]
        elif "n" in payload:
            self._notes.setdefault(payload["n"], set()).add(payload["k"])
        else:
            raise KeyError("unknown frame")

    # -- the checkpoint protocol ---------------------------------------------

    def done(self, key):
        return key in self._records

    def get(self, key):
        return self._records[key]

    def keys(self):
        """The checkpointed job keys (used by the supervisor's merge)."""
        return self._records.keys()

    def record(self, key, record):
        self._records[key] = record
        self._pending.append(durable.frame({"k": key, "r": record}))
        if len(self._pending) >= self.flush_every:
            self.flush()

    def note(self, key, tag="requeued"):
        """Set an idempotent per-job flag; True only the *first* time.

        The flag is journaled, so counting events by fresh notes — "this
        job entered the requeue" — cannot double-count a job whose
        requeue straddles a crash/resume boundary.
        """
        seen = self._notes.setdefault(tag, set())
        if key in seen:
            return False
        seen.add(key)
        self._pending.append(durable.frame({"n": tag, "k": key}))
        if len(self._pending) >= self.flush_every:
            self.flush()
        return True

    def noted(self, key, tag="requeued"):
        return key in self._notes.get(tag, ())

    def notes(self, tag="requeued"):
        return frozenset(self._notes.get(tag, ()))

    def flush(self):
        """Append pending frames to the journal, durably."""
        if not self._pending:
            if not os.path.exists(self.path) and not os.path.exists(
                self.journal_path
            ):
                self.compact()  # materialise an empty-but-valid checkpoint
            return
        durable.append(
            self.journal_path, b"".join(self._pending), magic=JOURNAL_MAGIC
        )
        self._journal_frames += len(self._pending)
        flushed = len(self._pending)
        self._pending = []
        if obs.events:
            obs.emit(
                "checkpoint.flush", records=len(self._records), pending=flushed
            )
        if self._journal_frames >= self.compact_every:
            self.compact()

    def compact(self):
        """Fold the journal into the snapshot and reset it."""
        payload = {
            "version": CHECKPOINT_VERSION,
            "schema": self.schema,
            "records": self._records,
            "notes": {tag: sorted(keys) for tag, keys in self._notes.items()},
        }
        durable.replace(self.path, json.dumps(payload).encode("utf-8"))
        durable.replace(self.journal_path, JOURNAL_MAGIC)
        self._pending = []
        self._journal_frames = 0
        if obs.events:
            obs.emit("checkpoint.compact", records=len(self._records))

    def __len__(self):
        return len(self._records)


def run_units(campaign, units, sink, progress=lambda phase, done, executed: None):
    """Drive *units* of *campaign* into *sink*: the one skip-done →
    measure → quarantine → requeue → settle loop.

    *campaign* says what a unit is — ``key(unit)``, ``phase_of(unit)``,
    ``measure(unit, requeue_round=None)`` returning ``(record, settled)``
    with a dict record, ``drain()``, ``network`` and (consulted only
    once a unit comes back unsettled) ``retry_policy``. *sink* keeps the
    results — ``done(key)``, ``note(key, tag)`` (True the first time)
    and ``record(key, record)``; a :class:`CampaignCheckpoint` is one.

    Units the sink already holds are skipped; unsettled ones are set
    aside and get ``requeue_attempts`` more passes once the stream
    leaves their phase, and what still fails settles marked
    ``degraded``. Every phase boundary drains the in-flight window.
    ``progress(phase, units_done, executed)`` is called on entering a
    phase (*executed* None) and after each unit (True when a measurement
    settled it, False when the sink already held it). Returns
    ``(resumed, executed)`` unit counts.
    """
    resumed = executed = 0
    phase = None
    deferred = []

    def settle(unit, record):
        nonlocal executed
        sink.record(campaign.key(unit), record)
        if phase == "survey":
            count_campaign("completed", "survey")
        executed += 1
        progress(phase, resumed + executed, True)

    def close_phase():
        """The end-of-phase second chance for the deferred units: up to
        ``requeue_attempts`` more passes, each after every earlier
        session has completed on the kernel clock and
        ``requeue_delay_ms`` of simulated time has passed, so transient
        outages can clear."""
        if deferred:
            policy = campaign.retry_policy
            fresh = [sink.note(campaign.key(unit), "requeued") for unit, __ in deferred]
            count_campaign("requeued", "survey", sum(fresh))
            for attempt in range(policy.requeue_attempts):
                if not deferred:
                    break
                campaign.drain()
                if policy.requeue_delay_ms:
                    campaign.network.clock_ms += policy.requeue_delay_ms
                retried = deferred[:]
                deferred.clear()
                for unit, __ in retried:
                    record, settled = campaign.measure(unit, requeue_round=attempt)
                    record["requeued"] = True
                    if settled:
                        settle(unit, record)
                    else:
                        deferred.append((unit, record))
            for unit, record in deferred:
                # Out of attempts: keep the evidence, but say it is
                # damaged rather than let a dead resolver masquerade as
                # non-validating.
                record["requeued"] = record["degraded"] = True
                settle(unit, record)
            deferred.clear()
        campaign.drain()

    for unit in units:
        unit_phase = campaign.phase_of(unit)
        if unit_phase != phase:
            close_phase()
            phase = unit_phase
            progress(phase, resumed + executed, None)
        key = campaign.key(unit)
        if sink.done(key):
            resumed += 1
            progress(phase, resumed + executed, False)
            continue
        record, settled = campaign.measure(unit)
        if settled:
            settle(unit, record)
            continue
        # Counted once per unit key: the journaled note survives a
        # resume, so a resolver quarantined again after a crash does
        # not inflate the stats.
        if sink.note(key, "quarantined"):
            count_campaign("quarantined", "survey")
        if obs.events:
            obs.emit("campaign.quarantine", resolver=record["ip"])
        deferred.append((unit, record))
    close_phase()
    return resumed, executed
