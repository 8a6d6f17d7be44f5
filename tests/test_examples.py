"""Smoke tests: every shipped example must run to completion.

Run as subprocesses at reduced scale so documentation code never rots.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *args, timeout=420):
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return completed.stdout


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "RFC 9276 audit" in out
        assert "Item 2 (MUST)" in out

    def test_zone_walking(self):
        out = run_example("zone_walking.py")
        assert "enumerated" in out
        assert "dictionary attack" in out

    def test_cve_demo(self):
        out = run_example("cve_2023_50868.py")
        assert "Unpatched resolver" in out
        assert "Patched resolver" in out

    def test_scan_domains_small(self):
        out = run_example("scan_domains.py", "120")
        assert "stage 1" in out
        assert "Table 2" in out

    def test_resolver_survey_small(self):
        out = run_example("resolver_survey.py", "12")
        assert "Figure 3" in out
        assert "validators limiting iterations" in out
