"""Report pin: the bytes ``python -m repro study|scan|survey`` print.

The stdout of the three measurement commands at one small fixed size is
pinned as sha256 digests, recorded on the commit *before* the pipeline
was unified — so a refactor of how the commands build their world, walk
their units and fold their results is checked against a constant, not
against itself. ``--concurrency`` only overlaps sessions on the simulated
clock, so both widths share one digest per command — under the ``chaos``
fault preset too, where retries and timeouts interleave differently at
each width but no classification may move.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

SIZE = ["--domains", "300", "--tlds", "40", "--resolvers", "16", "--seed", "7"]

GOLDEN_SHA256 = {
    "study": "69e4e3461072cdfa6667c053a72e7bdc7ba667d97f3da23b5efedd691de17242",
    "scan": "4915e2db523d1d258fad26fdf887bd537fefdfb1cf9d42a8fe5a51a1ac5a1087",
    "survey": "50c7737a5c67d28ad18ce8eaa432af75f32ee3001a16c75e121a6bca0d69caa2",
    "study-chaos": "e5cb1e2be2ab8c2fd282cdc76e41d383857950497572e34c2d98aa4b2cf61c7d",
}


@pytest.mark.parametrize("concurrency", ["1", "32"])
@pytest.mark.parametrize("case", sorted(GOLDEN_SHA256))
def test_cli_stdout_matches_pinned_digest(case, concurrency, tmp_path):
    command, __, faults = case.partition("-")
    argv = [sys.executable, "-m", "repro", command, *SIZE, "--concurrency", concurrency]
    if faults:
        argv += ["--faults", faults]
    # One run also counts what its memos and caches did (which must not
    # move its report); the other seven stay bare.
    metrics_path = tmp_path / "metrics.json"
    counted = (case, concurrency) == ("study", "1")
    if counted:
        argv += ["--metrics-out", str(metrics_path)]
    proc = subprocess.run(
        argv,
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
        cwd=str(REPO_ROOT),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN_SHA256[case]
    if counted:
        # A memo or cache that silently never fires prints the same report,
        # only slower: hold the hit ratios this command has had since the
        # answer-cache key became the raw query bytes (2332 hits of 4825
        # lookups; the RRSIG memo hits 3823 of 4109).
        metrics = json.loads(metrics_path.read_text())
        caches = metrics["repro_cache_events_total"]
        assert _hit_ratio(caches, cache="verify") >= 0.5
        assert _hit_ratio(caches, cache="auth") >= 0.483


def _hit_ratio(family, **labels):
    events = {
        s["labels"]["event"]: s["value"]
        for s in family["samples"]
        if labels.items() <= s["labels"].items()
    }
    return events["hit"] / (events["hit"] + events["miss"])
