"""Self-test of the ledger at smoke size (about 40 s).

Not part of tier-1 (``testpaths`` is ``tests``); run it on demand:
``PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py``.
"""

import json
import os
import re
import sys

import pytest

from benchmarks.ledger import cli, metrics, trace

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


@pytest.fixture(scope="module")
def smoke():
    """One traced smoke measurement per workload (each includes the two
    untraced replicas the end-to-end metrics come from)."""
    return {
        workload: cli.measure(workload, seed=7, seconds=1, traced=True, replicas=2)
        for workload in metrics.WORKLOADS
    }


def test_compose_takes_the_median_replica_of_every_chunk():
    def document(chunks, latencies_ms, setup_s, rss_mb):
        return {"chunks": chunks, "latencies_ms": latencies_ms, "setup_s": setup_s,
                "peak_rss_mb": rss_mb, "attempted": 2, "failed": 0}

    e2e, tail_q = cli.compose([
        document([[1.0, 0.9], [4.0, 2.0]], [1000.0, 4000.0], 3.0, 50.0),
        document([[2.0, 0.5], [3.0, 3.0]], [2000.0, 3000.0], 5.0, 60.0),
        document([[5.0, 5.0], [5.0, 5.0]], [5000.0, 5000.0], 4.0, 55.0),
    ])
    assert e2e == {
        "setup_s": 4.0, "wall_s": 6.0, "cpu_s": 3.9, "peak_rss_mb": 60.0,
        "throughput_ops_s": 2 / 6.0, "latency_p50_ms": 3000.0, "latency_tail_ms": 4000.0,
    }
    assert tail_q == 75
    with pytest.raises(RuntimeError):
        cli.compose([document([[1.0, 1.0]], [1.0], 1.0, 1.0),
                     document([[1.0, 1.0], [1.0, 1.0]], [1.0], 1.0, 1.0)])


def test_update_golden_never_pins_a_wrong_output(monkeypatch, tmp_path, capsys):
    wrong = {
        "correct": False, "attempted": 1, "failed": 1, "mismatches": [],
        "problems": ["example.: denial 'nsec', population says 'nsec3'"],
        "e2e": dict.fromkeys(metrics.end_to_end_units(), 1.0), "tail_percentile": 75,
        "digests": {"report_sha256": "0" * 64},
        "host": {"cpu_count": 2, "affinity": 2, "python": "3", "spin_ms": 1.0},
    }
    monkeypatch.setattr(cli, "measure", lambda *args: wrong)
    monkeypatch.setattr(cli, "GOLDEN", str(tmp_path / "golden.json"))
    command, args = cli.parse(["run", "--workload", "scan-stream", "--update-golden"])
    assert cli.cmd_run(args) == 1
    assert cli.load_json(cli.GOLDEN, None) == {}


def test_names_and_manifest():
    declared = cli.manifest(cli.current_bounds())
    names = [w["name"] for w in declared["workloads"]]
    names += [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 for w in declared["workloads"])
    assert len(declared["per_layer"]) <= 128
    with open(cli.MANIFEST, encoding="utf-8") as handle:
        assert json.load(handle) == declared


def test_every_declared_metric_is_emitted_and_nothing_else(smoke):
    for workload, result in smoke.items():
        assert result["correct"], (workload, result["problems"])
        assert result["failed"] == 0
        for traced, units in ((False, metrics.end_to_end_units()),
                              (True, metrics.per_layer_units())):
            emitted = json.loads(cli.driver_line(result, traced))["metrics"]
            assert {n: m["unit"] for n, m in emitted.items()} == units, workload
        assert all(value > 0 for value in result["e2e"].values()), workload


def test_no_metric_is_a_copy_of_another(smoke):
    for workload, result in smoke.items():
        values = list(result["e2e"].values())
        assert len(set(values)) == len(values), (workload, result["e2e"])
        measured = [
            value for name, value in result["layers"].items()
            if value and metrics.per_layer_units()[name] != "count"
        ]
        assert len(set(measured)) == len(measured), workload


def test_span_self_times_fill_the_window(smoke):
    for workload, result in smoke.items():
        self_s = [result["layers"][f"{layer}.self_s"] for layer in trace.LAYERS]
        assert all(value >= 0 for value in self_s), workload
        if workload in ("scan-stream", "survey-probe"):
            window = result["traced_wall_s"]
            assert 0.85 * window <= sum(self_s) <= window, (workload, sum(self_s), window)


def test_every_span_layer_is_reached_somewhere(smoke):
    for layer in trace.LAYERS:
        assert any(r["layers"][f"{layer}.calls"] > 0 for r in smoke.values()), layer
    assert all(r["layers"]["trace.overhead_ratio"] > 0 for r in smoke.values())


def test_wrappers_are_fully_removed():
    sys.path.insert(0, os.path.join(cli.ROOT, "src"))

    def wrapped():
        found = []
        for name, module in list(sys.modules.items()):
            if name != "repro" and not name.startswith("repro."):
                continue
            for owner in [module, *(v for v in vars(module).values() if isinstance(v, type))]:
                for attribute, value in list(vars(owner).items()):
                    value = getattr(value, "__func__", value)
                    if hasattr(value, "ledger_original"):
                        found.append(f"{name}:{getattr(owner, '__name__', '')}.{attribute}")
        return found

    tracer = trace.Tracer()
    tracer.install()
    try:
        assert len(set(wrapped())) >= len(trace.TARGETS) + 1
    finally:
        tracer.uninstall()
    assert wrapped() == []
