"""Kill switches for the cost-model-preserving fast paths.

The hot paths of the study are memoised at three layers — the NSEC3
digest memo (:mod:`repro.dnssec.nsec3hash`), the RRSIG-verification memo
(:mod:`repro.dnssec.validator`), and the authoritative packed-answer
cache (:mod:`repro.server.authoritative`) — plus the RSA-CRT signing
path (:mod:`repro.crypto.rsa`). Every one of them is behaviourally
transparent: a hit charges the DNSSEC cost model exactly as the real
computation would, so reports and guard decisions are byte-identical
with the fast paths on or off. CI asserts exactly that, which requires
turning them off; this module is the single switchboard. (The
constant-memory pipeline — streamed population, lazily materialised SLD
zones, incremental report aggregates — is not a switch: it is the only
pipeline; ``tests/test_wire_golden.py`` holds the lazy testbed
wire-identical to the eager library build.)

Switches are named, default-on, and disabled either programmatically
(:func:`disable` / :func:`enabled_only_during_tests` helpers) or through
the environment::

    REPRO_FASTPATH_DISABLE=answer_cache,validator_memo  repro study ...
    REPRO_FASTPATH_DISABLE=all                          repro study ...

The CLI exposes the same knob as ``--disable-fastpath``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

#: Every switch this module knows about. ``build_cache`` covers the
#: cross-process signed-zone build cache plus the batched signing fast
#: paths it rides with (chain-batched NSEC3 hashing, hoisted per-zone
#: RSA signing setup); disabling it forces every process to
#: cold-rebuild and re-sign the full testbed.
KNOWN_SWITCHES = (
    "validator_memo",
    "answer_cache",
    "nsec3_memo",
    "rsa_crt",
    "build_cache",
)

_ENV_VAR = "REPRO_FASTPATH_DISABLE"

_disabled = set()


def _parse_spec(spec):
    names = set()
    for token in (spec or "").split(","):
        token = token.strip()
        if not token:
            continue
        if token == "all":
            names.update(KNOWN_SWITCHES)
            continue
        if token not in KNOWN_SWITCHES:
            raise ValueError(
                f"unknown fast-path switch {token!r} "
                f"(known: {', '.join(KNOWN_SWITCHES)}, or 'all')"
            )
        names.add(token)
    return names


def enabled(name):
    """True when the fast path *name* should be used."""
    return name not in _disabled


def disable(spec):
    """Disable switches named in *spec* (comma list, or ``all``)."""
    _disabled.update(_parse_spec(spec))


def enable(name):
    """Re-enable a single switch."""
    _disabled.discard(name)


def disabled_names():
    """The currently disabled switches, sorted — e.g. for shipping the
    parent's programmatic state across a spawn boundary."""
    return tuple(sorted(_disabled))


def reset():
    """Restore the environment-configured state (used by tests)."""
    _disabled.clear()
    _disabled.update(_parse_spec(os.environ.get(_ENV_VAR, "")))


@contextmanager
def disabled(spec):
    """Context manager disabling *spec* and restoring the prior state."""
    saved = set(_disabled)
    disable(spec)
    try:
        yield
    finally:
        _disabled.clear()
        _disabled.update(saved)


reset()
