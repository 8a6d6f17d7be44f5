"""The two measurements the benchmark ledger does not make yet.

``--perf-gate`` is CI's telemetry overhead gate: the §4.2 resolver survey
at bench scale, run bare and with the full streaming telemetry stack
attached in interleaved pairs of fresh interpreters, must stay within 5%.

``--scale-bench`` records ``BENCH_8.json``: wall-clock and peak RSS of
the streamed (constant-memory) study across population scales, asserting
the memory profile stays flat while the domain axis grows 10x.

Both wait for a ``benchmark`` PR to move them onto ``benchmarks/ledger/``
(an A/B with ``--events-out/--series-out`` attached; ``peak_rss_mb`` on a
long ``scan-stream``), after which this file goes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _measure(telemetry=False):
    """Worker mode: build the testbed, run the survey, dump JSON to stdout.

    With *telemetry*, the full streaming stack (metrics, event journal,
    time-series scraper, progress console) is attached around the survey
    — the configuration the CI perf gate compares against the bare run.
    """
    from benchmarks.conftest import (
        BENCH_CONFIG,
        RESOLVER_COUNTS,
        TRANCO_SIZE,
        survey_entries,
    )
    from repro.testbed.internet import build_internet
    from repro.testbed.population import (
        generate_population,
        generate_tlds,
        inject_tail_domains,
    )
    from repro.testbed.resolvers import deploy_resolvers
    from repro.testbed.rfc9276_wild import build_probe_zones
    from repro.testbed.tranco import assign_tranco_ranks

    build_start = time.perf_counter()
    tlds = generate_tlds(BENCH_CONFIG)
    domains = inject_tail_domains(generate_population(BENCH_CONFIG, tlds=tlds))
    domains = assign_tranco_ranks(domains, list_size=TRANCO_SIZE)
    inet = build_internet(domains, tlds, seed=42)
    probes = build_probe_zones(inet)
    build_seconds = time.perf_counter() - build_start

    live = None
    if telemetry:
        from repro import obs
        from repro.obs.live import LiveTelemetry

        obs.enable()
        inet.network.kernel.bind_obs()
        live = LiveTelemetry(
            inet.network.kernel,
            events_out=os.path.join(REPO_ROOT, "bench-events.jsonl"),
            series_out=os.path.join(REPO_ROOT, "bench-series.json"),
            progress=True,
            seed=42,
            label="bench-survey",
            stream=open(os.devnull, "w"),
        )

    survey_start = time.perf_counter()
    deployment = deploy_resolvers(inet, seed=77, **RESOLVER_COUNTS)
    open_entries, closed_entries = survey_entries(inet, probes, deployment)
    survey_seconds = time.perf_counter() - survey_start
    if live is not None:
        live.finish()

    json.dump(
        {
            "build_seconds": round(build_seconds, 2),
            "survey_seconds": round(survey_seconds, 2),
            "resolvers_classified": len(open_entries) + len(closed_entries),
        },
        sys.stdout,
    )


def _run_worker(telemetry=False):
    pythonpath = os.pathsep.join([os.path.join(REPO_ROOT, "src"), REPO_ROOT])
    env = dict(os.environ, PYTHONPATH=pythonpath)
    argv = [sys.executable, os.path.abspath(__file__), "--measure"]
    if telemetry:
        argv.append("--telemetry")
    proc = subprocess.run(
        argv,
        env=env,
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def perf_gate(limit=1.05, runs=3):
    """CI perf smoke: the instrumented headline bench must stay within
    *limit* of the bare run's wall-clock, measured back-to-back on the
    same machine (interleaved best-of-*runs* pairs, survey phase only —
    the testbed build is identical and telemetry-free in both modes)."""
    bare = instrumented = float("inf")
    for index in range(runs):
        bare = min(bare, _run_worker()["survey_seconds"])
        instrumented = min(
            instrumented, _run_worker(telemetry=True)["survey_seconds"]
        )
        print(
            f"  pair {index + 1}/{runs}: best bare {bare}s, "
            f"best instrumented {instrumented}s",
            flush=True,
        )
    ratio = instrumented / bare
    print(f"telemetry perf gate: ratio {ratio:.3f} (limit {limit})")
    if ratio > limit:
        raise SystemExit(
            f"FATAL: instrumented bench {instrumented}s vs bare {bare}s "
            f"— ratio {ratio:.3f} exceeds {limit}"
        )


#: The memory-scaling bench workload: the headline study with the
#: survey and TLD axes pinned small (both are O(constant) across
#: population scales) so peak RSS tracks the domain axis alone.
SCALE_BENCH_ARGS = ["--tlds", "50", "--resolvers", "8", "--seed", "7"]

#: Default population scales for ``--scale-bench``. 5,000,000 runs with
#: the same flat profile but takes hours; opt in via the env override.
SCALE_BENCH_DEFAULT = "100000,1000000"


def _run_study_rss(n_domains, env):
    """Run one streamed study in a child process; return its wall-clock
    and true peak RSS from the kernel's per-child rusage (``os.wait4``
    — no tracemalloc tracing, which would multiply wall-clock ~5x)."""
    import tempfile

    argv = [
        sys.executable, "-m", "repro", "study",
        "--domains", str(n_domains), *SCALE_BENCH_ARGS,
    ]
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=env, cwd=REPO_ROOT, stdout=out, stderr=err
        )
        _, status, rusage = os.wait4(proc.pid, 0)
        wall = round(time.perf_counter() - start, 2)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            raise SystemExit(
                f"FATAL: study at {n_domains} domains exited "
                f"{proc.returncode}:\n{err.read().decode(errors='replace')}"
            )
    # ru_maxrss is KiB on Linux, bytes on macOS.
    rss = rusage.ru_maxrss * (1 if sys.platform == "darwin" else 1024)
    return wall, rss


def scale_bench(scales=None):
    """Record ``BENCH_8.json``: wall-clock and peak RSS of the streamed
    study across population scales, asserting sub-linear memory growth
    (the constant-memory pipeline's headline claim)."""
    if scales is None:
        spec = os.environ.get("REPRO_SCALE_BENCH_NS", SCALE_BENCH_DEFAULT)
        scales = sorted(int(token) for token in spec.split(",") if token.strip())
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    results = {}
    for n_domains in scales:
        print(
            f"measuring streamed study at {n_domains:,} domains ...",
            flush=True,
        )
        wall, rss = _run_study_rss(n_domains, env)
        results[str(n_domains)] = {
            "wall_seconds": wall,
            "peak_rss_bytes": rss,
        }
        print(f"  {wall}s, peak RSS {rss / 1e6:.1f} MB", flush=True)
    smallest, largest = min(scales), max(scales)
    rss_growth = (
        results[str(largest)]["peak_rss_bytes"]
        / results[str(smallest)]["peak_rss_bytes"]
    )
    domain_growth = largest / smallest
    record = {
        "bench": "streamed study memory scaling (constant-memory pipeline)",
        "workload": "study --domains N " + " ".join(SCALE_BENCH_ARGS),
        "scales": results,
        "domain_growth_max_over_min": round(domain_growth, 2),
        "rss_growth_max_over_min": round(rss_growth, 3),
        "sublinear_memory": rss_growth < domain_growth,
        "note": "peak RSS is the kernel's per-child ru_maxrss (os.wait4)."
                " 5,000,000 domains runs with the same flat profile (set"
                " REPRO_SCALE_BENCH_NS=100000,1000000,5000000 to record"
                " it; hours of wall-clock).",
    }
    output = os.path.join(REPO_ROOT, "BENCH_8.json")
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(
        f"peak-RSS growth {rss_growth:.2f}x over {domain_growth:.0f}x "
        f"domains; wrote {output}"
    )
    if rss_growth >= 4.0:
        raise SystemExit(
            f"FATAL: peak RSS grew {rss_growth:.2f}x from {smallest:,} to "
            f"{largest:,} domains — the streamed pipeline should stay flat"
        )


def main():
    if "--measure" in sys.argv:
        _measure(telemetry="--telemetry" in sys.argv)
    elif "--perf-gate" in sys.argv:
        perf_gate()
    elif "--scale-bench" in sys.argv:
        scale_bench()
    else:
        raise SystemExit("usage: record.py --perf-gate | --scale-bench")


if __name__ == "__main__":
    main()
