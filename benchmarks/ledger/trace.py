"""Span tracing from outside the program.

The ledger's traced run replaces the public entry points of each layer
(the ``TARGETS`` table) with timing wrappers, in the defining namespace
and in every already-imported ``repro.*`` module that holds the same
object under an imported name. Nothing in ``src/`` knows about this file.

Only plain-call boundaries are wrapped. The delay-yielding generator
halves (``Network.exchange``, ``Transport.session``) and the
``ZoneBuildCache.lock`` context manager return before their work is
done, so a wrapper around them would time nothing; their plain-call
forms (``Network.send``, ``Transport.query``) are wrapped instead.

A span is ``(layer, parent, start, end)`` on ``time.perf_counter``, which
is CLOCK_MONOTONIC on Linux and therefore comparable between the runner
and a traced server process. Spans are kept in per-thread arrays and
written by :meth:`Tracer.dump` when the run ends. A layer's self time is
its spans' duration minus the part their child spans cover.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from array import array

#: layer -> entry points, as ``module:attribute`` or ``module:Class.method``.
TARGETS = (
    ("dns.decode", "repro.dns.message:Message.from_wire"),
    ("dns.encode", "repro.dns.message:Message.to_wire"),
    ("crypto.sign", "repro.crypto.keys:KeyPair.sign"),
    ("crypto.verify", "repro.crypto.keys:verify_signature"),
    ("dnssec.nsec3hash", "repro.dnssec.nsec3hash:nsec3_hash"),
    ("dnssec.nsec3hash", "repro.dnssec.nsec3hash:nsec3_hash_batch"),
    ("dnssec.sign", "repro.dnssec.signer:sign_rrset"),
    ("dnssec.validate", "repro.dnssec.validator:validate_rrset"),
    ("dnssec.validate", "repro.dnssec.validator:validate_dnskey_with_ds"),
    ("dnssec.denial", "repro.dnssec.denial:verify_nxdomain"),
    ("dnssec.denial", "repro.dnssec.denial:verify_nodata"),
    ("zone.sign", "repro.zone.signing:sign_zone"),
    ("zone.build_cache", "repro.zone.build_cache:ZoneBuildCache.load"),
    ("zone.build_cache", "repro.zone.build_cache:ZoneBuildCache.store"),
    ("testbed.build", "repro.testbed.internet:build_internet"),
    ("testbed.build", "repro.testbed.internet:build_domain_zone"),
    ("testbed.build", "repro.testbed.rfc9276_wild:build_probe_zones"),
    ("testbed.build", "repro.testbed.resolvers:deploy_resolvers"),
    ("server.authoritative", "repro.server.authoritative:AuthoritativeServer.handle_datagram"),
    ("resolver.validating", "repro.resolver.validating:ValidatingResolver.handle_datagram"),
    ("resolver.iterative", "repro.resolver.iterative:IterativeResolver.resolve"),
    ("net.exchange", "repro.net.network:Network.send"),
    ("net.exchange", "repro.net.transport:Transport.query"),
    ("scanner.engine", "repro.scanner.engine:ScanEngine.query"),
    ("scanner.engine", "repro.scanner.nsec3_scan:scan_domain"),
    ("scanner.engine", "repro.scanner.resolver_scan:probe_resolver"),
    # __init__ is the journal load: the one journal call the supervisor
    # process itself makes (in merge_shards); the rest run in workers.
    ("scanner.journal", "repro.scanner.campaign:CampaignCheckpoint.__init__"),
    ("scanner.journal", "repro.scanner.campaign:CampaignCheckpoint.record"),
    ("scanner.journal", "repro.scanner.campaign:CampaignCheckpoint.flush"),
    ("scanner.journal", "repro.scanner.campaign:CampaignCheckpoint.compact"),
    ("analysis.fold", "repro.core.report:StudyAggregates.update_domain"),
    ("analysis.fold", "repro.core.report:StudyAggregates.update_tld"),
    ("analysis.fold", "repro.core.report:StudyAggregates.update_survey"),
    ("analysis.fold", "repro.core.report:StudyAggregates.render"),
    ("analysis.fold", "repro.core.resolver_compliance:classify_resolver"),
)

#: ``KeyPair.bulk_signer`` is not a span itself: the closure it returns
#: does the signing, so that closure is wrapped as ``crypto.sign``.
BULK_SIGNER = ("crypto.sign", "repro.crypto.keys:KeyPair.bulk_signer")

LAYERS = tuple(dict.fromkeys(layer for layer, __ in TARGETS))


class _Buffer:
    """One thread's spans, as parallel arrays."""

    __slots__ = ("layer", "parent", "start", "end", "current")

    def __init__(self):
        self.layer = array("B")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.current = -1


class Tracer:
    """Installs the wrappers, holds the spans, removes the wrappers."""

    def __init__(self):
        self.buffers = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []  # (namespace, name, original attribute)

    # -- recording ---------------------------------------------------------

    def _new_buffer(self):
        buffer = _Buffer()
        self._local.buffer = buffer
        with self._lock:
            self.buffers.append(buffer)
        return buffer

    def _span_wrapper(self, function, layer_id):
        local = self._local
        new_buffer = self._new_buffer
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            try:
                buffer = local.buffer
            except AttributeError:
                buffer = new_buffer()
            index = len(buffer.start)
            parent = buffer.current
            buffer.current = index
            buffer.layer.append(layer_id)
            buffer.parent.append(parent)
            buffer.end.append(0.0)
            buffer.start.append(clock())
            try:
                return function(*args, **kwargs)
            finally:
                buffer.end[index] = clock()
                buffer.current = parent

        wrapper.ledger_original = function
        return wrapper

    def _bulk_signer_wrapper(self, function, layer_id):
        def wrapper(keypair):
            signer = function(keypair)
            # ECDSA keys hand back their (already wrapped) bound ``sign``.
            if hasattr(getattr(signer, "__func__", None), "ledger_original"):
                return signer
            return self._span_wrapper(signer, layer_id)

        wrapper.ledger_original = function
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every target; import its module first if need be."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        layer_ids = {layer: index for index, layer in enumerate(LAYERS)}
        for layer, target in TARGETS:
            self._patch(target, layer_ids[layer], self._span_wrapper)
        layer, target = BULK_SIGNER
        self._patch(target, layer_ids[layer], self._bulk_signer_wrapper)

    def _patch(self, target, layer_id, make_wrapper):
        module_name, __, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *classes, name = path.split(".")
        for class_name in classes:
            owner = getattr(owner, class_name)
        raw = vars(owner)[name]
        if isinstance(raw, classmethod):
            replacement = classmethod(make_wrapper(raw.__func__, layer_id))
        else:
            replacement = make_wrapper(raw, layer_id)
        self._replace(owner, name, raw, replacement)
        if classes:
            return  # methods are reached through their class
        for other_name, other in list(sys.modules.items()):
            if other is owner or other is None:
                continue
            if other_name != "repro" and not other_name.startswith("repro."):
                continue
            for alias, value in list(vars(other).items()):
                if value is raw:
                    self._replace(other, alias, raw, replacement)

    def _replace(self, namespace, name, original, replacement):
        setattr(namespace, name, replacement)
        self._patched.append((namespace, name, original))

    def uninstall(self):
        """Put every original attribute back."""
        while self._patched:
            namespace, name, original = self._patched.pop()
            setattr(namespace, name, original)

    # -- output ------------------------------------------------------------

    def dump(self, path):
        """Write the spans: ``path`` (JSON header) and ``path + '.bin'``."""
        with open(path + ".bin", "wb") as handle:
            for buffer in self.buffers:
                for column in (buffer.layer, buffer.parent, buffer.start, buffer.end):
                    column.tofile(handle)
        header = {
            "layers": list(LAYERS),
            "buffers": [len(buffer.start) for buffer in self.buffers],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(header, handle)


def load_spans(path):
    """Read a :meth:`Tracer.dump` back as ``(layers, buffers)``."""
    with open(path, encoding="utf-8") as handle:
        header = json.load(handle)
    buffers = []
    with open(path + ".bin", "rb") as handle:
        for count in header["buffers"]:
            buffer = _Buffer()
            for column in (buffer.layer, buffer.parent, buffer.start, buffer.end):
                column.fromfile(handle, count)
            buffers.append(buffer)
    return header["layers"], buffers


def aggregate(layers, buffers, since, until):
    """Per-layer ``{"calls", "self_s"}`` over spans that ran entirely in
    ``[since, until]``."""
    calls = [0] * len(layers)
    self_s = [0.0] * len(layers)
    for buffer in buffers:
        layer, parent, start, end = (
            buffer.layer, buffer.parent, buffer.start, buffer.end
        )
        for index in range(len(start)):
            begun = start[index]
            ended = end[index]
            if begun < since or ended > until or ended == 0.0:
                continue
            duration = ended - begun
            calls[layer[index]] += 1
            self_s[layer[index]] += duration
            above = parent[index]
            if above >= 0 and start[above] >= since and 0.0 < end[above] <= until:
                self_s[layer[above]] -= duration
    return {
        name: {"calls": calls[index], "self_s": self_s[index]}
        for index, name in enumerate(layers)
    }
