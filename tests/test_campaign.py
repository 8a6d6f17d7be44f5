"""Tests for resumable campaigns and chaos-run convergence.

Covers the durable checkpoint protocol (framed journal with
truncate-to-last-good-frame recovery, atomic fsynced snapshots, strict
version/schema validation with the ``--discard-checkpoint`` escape
hatch), fuzzing of both durable framings — the journal and a build-cache
entry — at every byte offset, ``run_units``' requeue/recover path, the
zero-duplicate-queries resume of a survey, and the headline acceptance
scenario: a survey run under burst loss, a
flapping resolver, and a garbage-emitting authoritative classifies every
resolver exactly as a clean run does.
"""

import json
import struct
import zlib

import pytest

from repro import durable
from repro.dns.message import Message, make_response
from repro.dns.rcode import Rcode
from repro.dns.types import RdataType
from repro.net.faults import Blackout, Corruption, FaultPlan, Flapping, GilbertElliott
from repro.net.network import Host, Network
from repro.scanner.campaign import (
    JOURNAL_MAGIC,
    CampaignCheckpoint,
    CampaignError,
    run_units,
)
from repro.scanner.engine import ScanEngine
from repro.scanner.resolver_scan import (
    SurveyRetryPolicy,
    matrix_from_record,
    matrix_to_record,
)
from repro.testbed.internet import build_internet
from repro.testbed.population import (
    PopulationConfig,
    generate_population,
    generate_tlds,
)
from repro.testbed.resolvers import deploy_resolvers
from repro.testbed.rfc9276_wild import build_probe_zones
from repro.zone.build_cache import ENTRY_MAGIC, ZoneBuildCache

from tests.conftest import run_survey, survey_entries, survey_units, survey_world


class Answering(Host):
    """A stand-in resolver that answers every query and counts qnames."""

    def __init__(self):
        self.seen = []

    def handle_datagram(self, wire, src_ip, via_tcp=False):
        query = Message.from_wire(wire)
        self.seen.append(str(query.question[0].name))
        return make_response(query, recursion_available=True).to_wire()


class QueryCampaign:
    """What ``run_units`` asks of a campaign, over one scan engine: a
    unit is a qname, measured by one A query, unsettled while unanswered."""

    def __init__(self, engine, requeue_delay_ms=1000.0):
        self.engine = engine
        self.network = engine.network
        self.drain = engine.drain
        self.retry_policy = SurveyRetryPolicy(
            requeue_attempts=1, requeue_delay_ms=requeue_delay_ms
        )

    @staticmethod
    def key(unit):
        return unit.rstrip(".").lower()

    @staticmethod
    def phase_of(unit):
        return "scan"

    def measure(self, unit, requeue_round=None):
        answer = self.engine.query(unit, RdataType.A)
        return {"ip": unit, "rcode": int(answer.rcode)}, answer.answered


def _journal_payloads(path):
    return [payload for payload, __ in durable.frames(path.read_bytes(), JOURNAL_MAGIC)]


def _run(engine, units, checkpoint, **campaign_options):
    """One process's pass over *units* — run, then flush, as a fleet
    worker does; returns ``(resumed, executed)``."""
    counts = run_units(QueryCampaign(engine, **campaign_options), units, checkpoint)
    checkpoint.flush()
    return counts


class TestCheckpoint:
    def test_persists_and_reloads(self, tmp_path):
        path = tmp_path / "ck.json"
        checkpoint = CampaignCheckpoint(path)
        checkpoint.record("a/1", {"rcode": 0})
        checkpoint.flush()

        reloaded = CampaignCheckpoint(path)
        assert reloaded.done("a/1")
        assert reloaded.get("a/1") == {"rcode": 0}
        assert not reloaded.done("b/1")

    def test_incremental_flush_appends_to_journal(self, tmp_path):
        path = tmp_path / "ck.json"
        journal = tmp_path / "ck.json.journal"
        checkpoint = CampaignCheckpoint(path, flush_every=2)
        checkpoint.record("a/1", {})
        assert not journal.exists()  # below the flush threshold
        checkpoint.record("b/1", {})
        assert journal.exists()
        assert len(_journal_payloads(journal)) == 2
        assert len(CampaignCheckpoint(path)) == 2

    def test_compact_folds_journal_into_snapshot(self, tmp_path):
        path = tmp_path / "ck.json"
        checkpoint = CampaignCheckpoint(path, flush_every=1)
        checkpoint.record("a/1", {"rcode": 0})
        checkpoint.note("a/1", "requeued")
        checkpoint.flush()
        checkpoint.compact()
        # Snapshot holds everything; the journal is magic-only.
        assert (tmp_path / "ck.json.journal").read_bytes() == JOURNAL_MAGIC
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["records"] == {"a/1": {"rcode": 0}}
        assert payload["notes"] == {"requeued": ["a/1"]}
        reloaded = CampaignCheckpoint(path)
        assert reloaded.done("a/1") and reloaded.noted("a/1", "requeued")

    def test_auto_compaction_bounds_journal(self, tmp_path):
        path = tmp_path / "ck.json"
        checkpoint = CampaignCheckpoint(path, flush_every=1, compact_every=4)
        for index in range(10):
            checkpoint.record(f"k{index}/1", {})
        assert len(_journal_payloads(tmp_path / "ck.json.journal")) < 4
        assert len(CampaignCheckpoint(path)) == 10

    def test_corrupt_snapshot_raises_campaign_error(self, tmp_path):
        # The snapshot is written atomically, so an unparseable file is
        # foreign or damaged at rest — never silently discarded.
        path = tmp_path / "ck.json"
        path.write_text("{truncated by a crash", encoding="utf-8")
        with pytest.raises(CampaignError, match="discard-checkpoint"):
            CampaignCheckpoint(path)

    def test_version_mismatch_raises_campaign_error(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(
            json.dumps({"version": 999, "records": {"a/1": {}}}), encoding="utf-8"
        )
        with pytest.raises(CampaignError, match="version"):
            CampaignCheckpoint(path)

    def test_schema_mismatch_raises_campaign_error(self, tmp_path):
        path = tmp_path / "ck.json"
        checkpoint = CampaignCheckpoint(path, schema="scan-answer/1")
        checkpoint.record("a/1", {})
        checkpoint.compact()
        with pytest.raises(CampaignError, match="scan-answer/1"):
            CampaignCheckpoint(path, schema="study-units/1")
        # Same schema (and schema-less readers) load fine.
        assert len(CampaignCheckpoint(path, schema="scan-answer/1")) == 1
        assert len(CampaignCheckpoint(path)) == 1

    def test_discard_archives_and_starts_fresh(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("not a checkpoint", encoding="utf-8")
        (tmp_path / "ck.json.journal").write_bytes(b"junk")
        checkpoint = CampaignCheckpoint(path, discard=True)
        assert len(checkpoint) == 0
        # The evidence is archived, not destroyed.
        assert (tmp_path / "ck.json.invalid").read_text(
            encoding="utf-8"
        ) == "not a checkpoint"
        assert (tmp_path / "ck.json.journal.invalid").exists()
        checkpoint.record("a/1", {})
        checkpoint.flush()
        assert CampaignCheckpoint(path).done("a/1")

    def test_unreadable_snapshot_is_never_archived(self, tmp_path):
        # A read error (here EISDIR; EIO and EACCES alike) says nothing
        # about the snapshot: name the errno, keep the file, and do not
        # advise --discard-checkpoint — not even under discard=True.
        path = tmp_path / "ck.json"
        path.mkdir()
        for discard in (False, True):
            with pytest.raises(CampaignError) as info:
                CampaignCheckpoint(path, discard=discard)
            assert "EISDIR" in str(info.value) and str(path) in str(info.value)
            assert "discard-checkpoint" not in str(info.value)
        assert path.is_dir() and not (tmp_path / "ck.json.invalid").exists()

    def test_atomic_replace_leaves_no_tmp(self, tmp_path):
        path = tmp_path / "ck.json"
        checkpoint = CampaignCheckpoint(path)
        checkpoint.record("a/1", {})
        checkpoint.flush()
        checkpoint.compact()
        assert not list(tmp_path.glob("*.tmp"))

    def test_notes_are_idempotent_across_reloads(self, tmp_path):
        path = tmp_path / "ck.json"
        checkpoint = CampaignCheckpoint(path, flush_every=1)
        assert checkpoint.note("job/1", "requeued") is True
        assert checkpoint.note("job/1", "requeued") is False
        reloaded = CampaignCheckpoint(path)
        assert reloaded.note("job/1", "requeued") is False
        assert reloaded.noted("job/1", "requeued")
        assert reloaded.notes("requeued") == frozenset({"job/1"})


def _journal_with_frames(tmp_path, n_frames, flush_every=1):
    """A checkpoint whose journal holds *n_frames* record frames."""
    path = tmp_path / "ck.json"
    checkpoint = CampaignCheckpoint(path, flush_every=flush_every)
    for index in range(n_frames):
        checkpoint.record(f"k{index}/1", {"rcode": 0, "i": index})
    checkpoint.flush()
    return path, tmp_path / "ck.json.journal"


def _good_prefix(blob, magic):
    """The payloads of *blob*'s good-frame prefix and where it ends: an
    independent reference for :func:`repro.durable.frames`."""
    payloads = []
    if not blob.startswith(magic):
        return payloads, 0
    offset = len(magic)
    header = struct.Struct("<II")
    while offset + header.size <= len(blob):
        length, crc = header.unpack_from(blob, offset)
        start = offset + header.size
        if length > (1 << 24) or start + length > len(blob):
            break
        body = blob[start:start + length]
        if zlib.crc32(body) != crc:
            break
        try:
            payloads.append(json.loads(body.decode("utf-8")))
        except (ValueError, UnicodeDecodeError):
            break
        offset = start + length
    return payloads, offset


def _good_prefix_keys(blob):
    """The record keys recoverable from a damaged journal blob."""
    return [payload["k"] for payload in _good_prefix(blob, JOURNAL_MAGIC)[0]]


class _Journal:
    """The journal framing: N frames, read back through a checkpoint."""

    N_FRAMES = 6
    magic = JOURNAL_MAGIC

    def __init__(self, tmp_path):
        __, journal_path = _journal_with_frames(tmp_path, self.N_FRAMES)
        self.blob = journal_path.read_bytes()

    def check(self, damaged, sub, what):
        (sub / "ck.json.journal").write_bytes(damaged)
        expected = sorted(_good_prefix_keys(damaged))
        got = sorted(CampaignCheckpoint(sub / "ck.json").keys())
        assert got == expected, f"journal: {what}"
        # Recovery truncated the file back to the good prefix, so a
        # second load sees a clean journal.
        assert sorted(CampaignCheckpoint(sub / "ck.json").keys()) == expected
        return len(got)


class _Entry:
    """The build-cache framing: one frame under ENTRY_MAGIC, read back
    through the cache. Damage anywhere reads as corrupt and is unlinked
    (so the caller rebuilds), never as a different payload."""

    magic = ENTRY_MAGIC
    PAYLOAD = {"rrsigs": [["a.example.", 46, "0a" * 24]], "nsec3": ["b" * 32]}

    def __init__(self, tmp_path):
        cache = ZoneBuildCache(str(tmp_path / "build-cache"))
        cache.store("zone", "f" * 64, self.PAYLOAD)
        self.blob = (tmp_path / "build-cache" / f"zone-{'f' * 64}.entry").read_bytes()

    def check(self, damaged, sub, what):
        cache = ZoneBuildCache(str(sub))
        entry = sub / f"zone-{'f' * 64}.entry"
        entry.write_bytes(damaged)
        payloads, end = _good_prefix(damaged, ENTRY_MAGIC)
        intact = len(payloads) == 1 and end == len(damaged)
        assert intact == (damaged == self.blob), f"entry: reference walker at {what}"
        got = cache.load("zone", "f" * 64)
        if intact:
            assert got == self.PAYLOAD and cache.events == {"load": 1}, what
        else:
            assert got is None, f"entry: {what} read as {got!r}"
            assert cache.events == {"corrupt": 1}, f"entry: {what}"
            assert not entry.exists(), f"entry: {what} was not unlinked"
        return int(intact)


class TestJournalFuzz:
    """Satellite: seeded fuzzing of both durable framings at every byte
    offset — the checkpoint journal (N frames) and a build-cache entry
    (one frame).

    Every truncation point and every single-bit flip must recover to
    exactly the last good frame prefix — never crash, never resurrect
    damaged data, never lose an intact earlier frame.
    """

    N_FRAMES = _Journal.N_FRAMES
    FRAMINGS = (_Journal, _Entry)

    def test_truncation_at_every_byte_offset(self, tmp_path):
        for framing in self.FRAMINGS:
            root = tmp_path / framing.__name__
            root.mkdir()
            subject = framing(root)
            blob = subject.blob
            for cut in range(len(blob) + 1):
                sub = root / f"cut{cut}"
                sub.mkdir()
                subject.check(blob[:cut], sub, f"truncation at byte {cut}")

    def test_bitflip_at_every_byte_offset(self, tmp_path):
        for framing in self.FRAMINGS:
            root = tmp_path / framing.__name__
            root.mkdir()
            subject = framing(root)
            blob = subject.blob
            for offset in range(len(blob)):
                flipped = bytearray(blob)
                flipped[offset] ^= 0x40
                sub = root / f"flip{offset}"
                sub.mkdir()
                kept = subject.check(bytes(flipped), sub, f"bit flip at byte {offset}")
                # A flip inside the magic drops everything; a flip in
                # journal frame i's bytes keeps frames < i (CRC catches
                # the damage); a damaged entry keeps nothing.
                if framing is _Journal and offset >= len(JOURNAL_MAGIC):
                    frame_span = (len(blob) - len(JOURNAL_MAGIC)) // self.N_FRAMES
                    damaged_frame = (offset - len(JOURNAL_MAGIC)) // frame_span
                    assert kept >= min(damaged_frame, self.N_FRAMES)
                elif framing is _Entry:
                    assert kept == 0

    def test_torn_tail_recovery_then_zero_duplicate_resume(self, tmp_path):
        """The acceptance path: damage the tail, reload, resume — the
        journaled prefix is never re-queried."""
        net = Network()
        resolver = Answering()
        net.attach("192.0.2.53", resolver)
        engine = ScanEngine(net, "198.51.100.1", "192.0.2.53")
        path = tmp_path / "scan.json"
        units = [f"d{i}.test" for i in range(8)]
        _run(engine, units, CampaignCheckpoint(path, flush_every=1))
        assert len(resolver.seen) == 8

        journal_path = tmp_path / "scan.json.journal"
        blob = journal_path.read_bytes()
        # Tear mid-way through the last frame (a real SIGKILL tail).
        journal_path.write_bytes(blob[: len(blob) - 7])
        checkpoint = CampaignCheckpoint(path)
        assert len(checkpoint) == 7

        engine2 = ScanEngine(net, "198.51.100.2", "192.0.2.53")
        assert _run(engine2, units, checkpoint) == (7, 1)
        assert engine2.stats.queries == 1  # only the torn-off target
        assert sorted(resolver.seen) == sorted(
            [f"d{i}.test." for i in range(8)] + ["d7.test."]
        )


class TestMatrixRecords:
    def test_roundtrip_preserves_key_types(self):
        from repro.core.resolver_compliance import ProbeResult

        matrix = {
            "valid": ProbeResult(rcode=Rcode.NOERROR, ad=True),
            150: ProbeResult(rcode=Rcode.SERVFAIL, ede_codes=(27,)),
        }
        rebuilt = matrix_from_record(matrix_to_record(matrix))
        assert set(rebuilt) == {"valid", 150}
        assert rebuilt[150].rcode == Rcode.SERVFAIL
        assert rebuilt[150].ede_codes == (27,)
        assert rebuilt["valid"].ad


class TestRunCampaign:
    """``run_units`` over a journaled checkpoint, one query per unit."""

    def _engine(self):
        net = Network()
        resolver = Answering()
        net.attach("192.0.2.53", resolver)
        return net, resolver, ScanEngine(net, "198.51.100.1", "192.0.2.53")

    def test_plain_run_answers_all(self, tmp_path):
        __, __, engine = self._engine()
        units = [f"d{i}.test" for i in range(5)]
        checkpoint = CampaignCheckpoint(tmp_path / "scan.json")
        assert _run(engine, units, checkpoint) == (0, 5)
        assert sorted(checkpoint.keys()) == units
        assert all(checkpoint.get(unit) == {"ip": unit, "rcode": 0} for unit in units)
        assert not checkpoint.notes("quarantined") and not checkpoint.notes("requeued")

    def test_duplicate_jobs_answered_once(self, tmp_path):
        __, resolver, engine = self._engine()
        checkpoint = CampaignCheckpoint(tmp_path / "scan.json")
        assert _run(engine, ["dup.test", "DUP.test."], checkpoint) == (1, 1)
        assert len(resolver.seen) == 1

    def test_resume_issues_zero_duplicate_queries(self, tmp_path):
        net, resolver, engine = self._engine()
        path = tmp_path / "scan.json"
        units = [f"d{i}.test" for i in range(8)]
        _run(engine, units, CampaignCheckpoint(path))
        assert len(resolver.seen) == 8

        # A fresh engine (fresh process, conceptually) resumes the campaign.
        engine2 = ScanEngine(net, "198.51.100.2", "192.0.2.53")
        datagrams_before = net.stats.datagrams
        assert _run(engine2, units, CampaignCheckpoint(path)) == (8, 0)
        assert engine2.stats.queries == 0
        assert net.stats.datagrams == datagrams_before  # nothing hit the wire

    def test_interrupted_campaign_finishes_remainder_only(self, tmp_path):
        net, resolver, engine = self._engine()
        path = tmp_path / "scan.json"
        units = [f"d{i}.test" for i in range(10)]
        _run(engine, units[:4], CampaignCheckpoint(path))

        engine2 = ScanEngine(net, "198.51.100.2", "192.0.2.53")
        assert _run(engine2, units, CampaignCheckpoint(path)) == (4, 6)
        assert engine2.stats.queries == 6
        # Every target was queried exactly once across both sessions.
        assert sorted(resolver.seen) == sorted(
            f"d{i}.test." for i in range(10)
        )

    def test_requeue_recovers_after_outage(self, tmp_path):
        net, resolver, engine = self._engine()
        # The resolver is dark for the first five simulated seconds; the
        # requeue pass waits past the window and recovers every target.
        net.set_faults(FaultPlan([Blackout("192.0.2.53", 0.0, 5000.0)]))
        units = [f"d{i}.test" for i in range(3)]
        checkpoint = CampaignCheckpoint(tmp_path / "scan.json")
        assert _run(engine, units, checkpoint, requeue_delay_ms=10_000.0) == (0, 3)
        assert checkpoint.notes("quarantined") == checkpoint.notes("requeued") == set(units)
        for unit in units:
            assert checkpoint.get(unit) == {"ip": unit, "rcode": 0, "requeued": True}

    def test_exhausted_targets_recorded_as_failed(self, tmp_path):
        net, __, engine = self._engine()
        net.set_faults(FaultPlan([Blackout("192.0.2.53", 0.0, 1e12)]))
        path = tmp_path / "scan.json"
        checkpoint = CampaignCheckpoint(path)
        assert _run(engine, ["dead.test"], checkpoint, requeue_delay_ms=100.0) == (0, 1)
        record = checkpoint.get("dead.test")
        assert record["requeued"] and record["degraded"]

        # The failure is checkpointed: a resume does not re-burn budget.
        engine2 = ScanEngine(net, "198.51.100.2", "192.0.2.53")
        assert _run(engine2, ["dead.test"], CampaignCheckpoint(path)) == (1, 0)
        assert engine2.stats.queries == 0


#: Small-but-representative population for the acceptance scenario.
ACCEPTANCE_CONFIG = PopulationConfig(
    n_domains=20,
    n_tlds=20,
    tld_dnssec=18,
    tld_nsec3=16,
    tld_zero_iterations=8,
    tld_identity_digital=3,
    tld_saltless=8,
    tld_salt8=6,
    tld_salt10=1,
)

SURVEY_ITERATIONS = (1, 25, 50, 100, 150, 151, 500)


def _build_survey_world(seed=13):
    tlds = generate_tlds(ACCEPTANCE_CONFIG)
    domains = generate_population(ACCEPTANCE_CONFIG, tlds=tlds)
    inet = build_internet(domains, tlds, seed=seed)
    probes = build_probe_zones(inet)
    deployment = deploy_resolvers(
        inet, open_v4=6, open_v6=2, closed_v4=0, closed_v6=0, seed=seed
    )
    return inet, probes, deployment


def _classification_fields(classification):
    return (
        classification.is_validating,
        classification.limits_iterations,
        classification.implements_item6,
        classification.insecure_threshold,
        classification.implements_item8,
        classification.servfail_threshold,
        classification.ede27_support,
        classification.item7_violation,
    )


@pytest.mark.slow
class TestChaosSurveyAcceptance:
    def test_chaos_survey_matches_clean_classifications(self):
        """Burst loss + one flapping resolver + one garbage-spewing probe
        authoritative must not change a single resolver classification."""
        clean_inet, clean_probes, clean_deployment = _build_survey_world()
        clean_entries = run_survey(
            clean_inet, clean_probes, clean_deployment, SURVEY_ITERATIONS
        )

        chaos_inet, chaos_probes, chaos_deployment = _build_survey_world()
        flapped_ip = chaos_deployment[0].ip
        chaos_inet.network.set_faults(
            FaultPlan(
                [
                    GilbertElliott(p_enter=0.05, p_exit=0.35, loss_bad=0.5, seed=99),
                    Flapping(flapped_ip, period_ms=3000.0, down_fraction=0.4),
                    Corruption(
                        rate=0.3,
                        kinds=("garbage",),
                        dst_ip=chaos_probes.server_ips[0],
                        seed=99,
                    ),
                ]
            )
        )
        chaos_entries = run_survey(
            chaos_inet,
            chaos_probes,
            chaos_deployment,
            SURVEY_ITERATIONS,
            retry_policy=SurveyRetryPolicy(require_stable=True),
        )

        assert len(clean_entries) == len(chaos_entries)
        faults = chaos_inet.network.faults.injected
        assert sum(faults.values()) > 0, "the weather never fired"
        # Requeued resolvers land at the end of the chaos entry list, so
        # compare by resolver address, not by position.
        chaos_by_ip = {entry.resolver.ip: entry for entry in chaos_entries}
        assert set(chaos_by_ip) == {entry.resolver.ip for entry in clean_entries}
        for clean in clean_entries:
            chaos = chaos_by_ip[clean.resolver.ip]
            assert _classification_fields(clean.classification) == (
                _classification_fields(chaos.classification)
            ), f"classification drifted for {clean.resolver.ip}"

    def test_survey_resume_issues_zero_queries(self, tmp_path):
        """A survey journaled the way a shard journals resumes from its
        checkpoint without a datagram, and the resolvers it folds from
        disk classify exactly as they did when measured."""
        inet, probes, deployment = _build_survey_world(seed=17)
        world = survey_world(
            inet, probes, deployment, SURVEY_ITERATIONS,
            retry_policy=SurveyRetryPolicy(),
        )
        units = survey_units(deployment)
        path = tmp_path / "survey.ckpt"
        checkpoint = CampaignCheckpoint(path, schema="study-units/1")
        assert run_units(world, units, checkpoint) == (0, len(units))
        checkpoint.flush()
        measured = survey_entries(
            deployment, [(key, checkpoint.get(key)) for key in checkpoint.keys()]
        )
        assert len(measured) == len(units)

        datagrams_before = inet.network.stats.datagrams
        resumed = CampaignCheckpoint(path, schema="study-units/1")
        assert run_units(world, units, resumed) == (len(units), 0)
        assert inet.network.stats.datagrams == datagrams_before
        reloaded = survey_entries(
            deployment, [(key, resumed.get(key)) for key in resumed.keys()]
        )
        assert [_classification_fields(e.classification) for e in reloaded] == [
            _classification_fields(e.classification) for e in measured
        ]
