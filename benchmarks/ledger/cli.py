"""The ledger's command line.

``--workload W --seed N --seconds S --trace 0|1`` is the form the
benchmark driver calls: one workload, one JSON object on the last line.
``run`` prints every metric of every workload with its unit, ``spread``
calibrates the regression bounds from repeated sets. Every replica of a
workload runs in a fresh interpreter with ``PYTHONHASHSEED=0`` (the
``child`` form), so memos never leak between workloads and peak RSS is
the workload's own.

One measurement is ``metrics.REPLICAS`` replicas of the same work, one
after the other, folded by :func:`compose`. A traced measurement adds one
more child with the span wrappers of ``trace.py`` installed; the ratio of
its window to the first replica's is ``trace.overhead_ratio``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

from benchmarks.ledger import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".ledger-work")
GOLDEN = os.path.join(HERE, "golden.json")
SPREAD = os.path.join(HERE, "spread.json")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")


# -- one measurement -----------------------------------------------------------


def run_child(workload, seed, seconds, replicas=1, turn=0, spans=False, paced=False):
    """Run one workload in a fresh interpreter; returns its replica
    documents: up to *replicas*, at least one. *turn* picks its CPU."""
    os.makedirs(WORK, exist_ok=True)
    command = [
        sys.executable, os.path.join(HERE, "__main__.py"), "child",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--replicas", str(replicas), "--turn", str(turn),
    ]
    command += ["--spans"] if spans else []
    command += ["--paced"] if paced else []
    log_path = os.path.join(WORK, f"{workload}.stderr")
    with open(log_path, "wb") as log:
        done = subprocess.run(
            command, stdout=subprocess.PIPE, stderr=log, cwd=ROOT,
            env=dict(os.environ, PYTHONHASHSEED="0"), check=False,
        )
    if done.returncode != 0:
        with open(log_path, encoding="utf-8", errors="replace") as log:
            tail = log.read()[-4000:]
        raise RuntimeError(f"{workload} child exited {done.returncode}:\n{tail}")
    return json.loads(done.stdout.decode("utf-8").strip().splitlines()[-1])


def compose(replicas):
    """The end-to-end metrics of one measurement, from its replicas.

    The replicas did the same work chunk by chunk (a chunk is one domain,
    one resolver, 100 queries, one fleet pass), and every chunk's time
    comes scaled to the host's reference speed. The window's time is the
    sum over chunks of the median over replicas, an op's latency the
    median over replicas: what the scaling misses in one replica (the
    host's speed moves faster than it is sampled) is rarely missed in the
    same chunk of the others. Returns ``(metrics, tail percentile)``.
    """
    from benchmarks.ledger.workloads import percentile

    shapes = {(len(r["chunks"]), len(r["latencies_ms"])) for r in replicas}
    if len(shapes) != 1:
        raise RuntimeError(f"replicas of one seed did different work: {shapes}")
    median = statistics.median
    chunks = list(zip(*(r["chunks"] for r in replicas)))
    wall_s = sum(median(wall for wall, __ in chunk) for chunk in chunks)
    cpu_s = sum(median(cpu for __, cpu in chunk) for chunk in chunks)
    latencies = [median(op) for op in zip(*(r["latencies_ms"] for r in replicas))]
    # The tail is the highest of p99/p95/p90 with at least ten ops beyond
    # it, p75 under 100 ops.
    tail_q = next((q for q in (99, 95, 90) if len(latencies) * (100 - q) >= 1000), 75)
    succeeded = min(r["attempted"] - r["failed"] for r in replicas)
    return {
        "setup_s": median(r["setup_s"] for r in replicas),
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in replicas),
        "throughput_ops_s": succeeded / wall_s,
        "latency_p50_ms": median(latencies),
        "latency_tail_ms": percentile(latencies, tail_q),
    }, tail_q


def golden_mismatches(document, golden):
    """Pinned facts of this (workload, seed, size) that the run contradicts."""
    key = f"{document['seed']}/{document['seconds']}"
    pinned = golden.get(document["workload"], {}).get(key, {})
    return [
        f"golden mismatch on {name}: pinned {value!r}, got {document['digests'].get(name)!r}"
        for name, value in pinned.items()
        if document["digests"].get(name) != value
    ]


def load_json(path, default):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return default


def window_s(document):
    return sum(wall for wall, __ in document["chunks"])


def measure(workload, seed, seconds, traced, replicas=metrics.REPLICAS):
    """One measurement: the result in the driver's shape, plus ``e2e``,
    ``tail_percentile``, ``layers`` and ``traced_wall_s`` (traced only),
    ``problems`` (outputs that contradict what was built), ``mismatches``
    (outputs that contradict ``golden.json``), ``digests`` and ``host``."""
    golden = load_json(GOLDEN, {})
    documents = []
    while len(documents) < replicas:
        documents += run_child(
            workload, seed, seconds, replicas=replicas - len(documents),
            turn=len(documents), paced=traced and not documents,
        )
    e2e, tail_q = compose(documents)
    reference = documents[0]
    if traced:
        documents += run_child(workload, seed, seconds, spans=True)
    problems, mismatches = [], []
    for document in documents:
        problems += document["problems"]
        mismatches += golden_mismatches(document, golden)
        if document["digests"] != reference["digests"]:
            problems.append("two runs of one seed gave different outputs")
    problems = list(dict.fromkeys(problems))
    mismatches = list(dict.fromkeys(mismatches))
    attempted = sum(d["attempted"] for d in documents)
    failed = sum(d["failed"] for d in documents)
    if (problems or mismatches) and failed == 0:
        failed = attempted  # a wrong output fails every op that produced it
    result = {
        "correct": not (problems or mismatches),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "mismatches": mismatches,
        "e2e": e2e,
        "tail_percentile": tail_q,
        "digests": reference["digests"],
        "host": reference["host"],
    }
    if traced:
        # The untraced replica wins where both report a number; span layers
        # and server-side counters exist only in the traced child.
        layers = {**documents[-1]["layers"], **reference["layers"]}
        result["traced_wall_s"] = documents[-1]["raw_window_s"]
        layers["trace.overhead_ratio"] = window_s(documents[-1]) / window_s(reference)
        result["layers"] = {
            name: layers.get(name, 0) for name in metrics.per_layer_units()
        }
    return result


def driver_line(result, traced):
    """The one JSON object the benchmark driver reads."""
    units = metrics.per_layer_units() if traced else metrics.end_to_end_units()
    values = result["layers"] if traced else result["e2e"]
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    })


# -- commands ------------------------------------------------------------------


def cmd_child(args):
    from benchmarks.ledger import workloads

    documents = workloads.run(
        args.workload, args.seed, args.seconds, WORK, replicas=args.replicas,
        turn=args.turn, spans=args.spans, paced=args.paced,
    )
    print(json.dumps(documents))
    return 0


def cmd_driver(args):
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in result["problems"] + result["mismatches"]:
        print(f"[ledger] {args.workload}: {problem}", file=sys.stderr)
    print(driver_line(result, bool(args.trace)))
    return 0 if result["correct"] else 1


def cmd_run(args):
    """Every metric of every workload, by name, with its unit."""
    golden = load_json(GOLDEN, {})
    status = 0
    for workload in args.workload or list(metrics.WORKLOADS):
        result = measure(workload, args.seed, args.seconds, args.trace, args.replicas)
        host = result["host"]
        print(
            f"== {workload}  seed={args.seed} seconds={args.seconds} "
            f"replicas={args.replicas}  "
            f"host: {host['cpu_count']} cpus (affinity {host['affinity']}), "
            f"python {host['python']}, spin {host['spin_ms']:.1f} ms"
        )
        print(
            f"   correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']} latency_tail=p{result['tail_percentile']}"
        )
        for problem in result["problems"] + result["mismatches"]:
            print(f"   PROBLEM: {problem}")
        for name, unit in metrics.end_to_end_units().items():
            print(f"   {name:42s} {result['e2e'][name]:14.4f} {unit}")
        if args.trace:
            for name, unit in metrics.per_layer_units().items():
                print(f"   {name:42s} {result['layers'][name]:14.4f} {unit}")
        if args.update_golden and not result["problems"]:
            key = f"{args.seed}/{args.seconds}"
            golden.setdefault(workload, {})[key] = result["digests"]
        elif not result["correct"]:
            # Outputs that contradict what was built are never pinned.
            status = 1
    if args.update_golden:
        write_json(GOLDEN, golden)
        print(f"pinned seed {args.seed} at {args.seconds} s in {GOLDEN}")
    return status


def write_json(path, document):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def manifest(bounds):
    """The BENCHMARK.json document for the given ``{metric: bound}``."""
    return {
        "command": ["python3", "benchmarks/ledger/__main__.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": metrics.RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in metrics.WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bounds[name]}
            for name, unit, better, __ in metrics.END_TO_END
        ],
        "per_layer": [
            {
                "name": name,
                "unit": unit,
                "better": "higher" if name in metrics.HIGHER_IS_BETTER else "lower",
            }
            for name, unit in metrics.per_layer_units().items()
        ],
    }


def current_bounds():
    declared = load_json(MANIFEST, None)
    if declared is None:
        return {name: floor for name, __, __, floor in metrics.END_TO_END}
    return {entry["name"]: entry["bound"] for entry in declared["end_to_end"]}


def cmd_spread(args):
    """Run *sets* full sets back to back and report how far every
    end-to-end metric moves between them.

    Every set runs the pinned seed, so that only the host moves the
    numbers and the golden digests apply: this fails if any metric's
    (max - min) / median exceeds its bound. ``--vary-seed`` gives each set
    its own seed, which is how the benchmark driver measures spread, and
    fails by the driver's rule: IQR / median over the sets exceeds the
    bound, on any metric but ``setup_s``.
    """
    values = {}  # (workload, metric) -> [value per set]
    for index in range(args.sets):
        seed = args.seed + index if args.vary_seed else args.seed
        for workload in metrics.WORKLOADS:
            result = measure(workload, seed, args.seconds, False, args.replicas)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['problems'] + result['mismatches']}",
                      file=sys.stderr)
                return 1
            for name, value in result["e2e"].items():
                values.setdefault((workload, name), []).append(value)
            print(f"[spread] set {index + 1}/{args.sets} {workload} done", file=sys.stderr)

    observed = {}
    for (workload, name), series in values.items():
        first, median, third = statistics.quantiles(series, n=4)
        observed.setdefault(name, {})[workload] = {
            "min": min(series),
            "median": median,
            "max": max(series),
            "iqr": third - first,
            "spread": (third - first) / median,
            "range": (max(series) - min(series)) / median,
        }

    bounds = current_bounds()
    if args.write:
        for name, __, __, floor in metrics.END_TO_END:
            worst = max(entry["spread"] for entry in observed[name].values())
            bounds[name] = min(
                metrics.BOUND_CAP, max(floor, math.ceil(300 * worst) / 100.0)
            )
        bounds["setup_s"] = max(bounds.values())
        write_json(MANIFEST, manifest(bounds))
        write_json(SPREAD, {
            "sets": args.sets, "seed": args.seed, "vary_seed": args.vary_seed,
            "seconds": args.seconds, "bounds": bounds, "observed": observed,
        })

    status = 0
    print(f"{'metric':18s} {'workload':13s} {'min':>11s} {'median':>11s} {'max':>11s} "
          f"{'iqr':>10s} {'spread':>7s} {'range':>7s} {'bound':>6s}")
    for name, by_workload in observed.items():
        for workload, entry in by_workload.items():
            if args.vary_seed:
                over = name != "setup_s" and entry["spread"] > bounds[name]
            else:
                over = entry["range"] > bounds[name]
            status = 1 if over else status
            print(
                f"{name:18s} {workload:13s} {entry['min']:11.4f} {entry['median']:11.4f} "
                f"{entry['max']:11.4f} {entry['iqr']:10.4f} {entry['spread']:7.2%} "
                f"{entry['range']:7.2%} {bounds[name]:6.2f}"
                + ("  OVER BOUND" if over else "")
            )
    return status


# -- parsing -------------------------------------------------------------------


def _replica_arguments(parser):
    parser.add_argument("--replicas", type=int, default=metrics.REPLICAS,
                        help="replicas of the work folded into one measurement")
    parser.add_argument("--smoke", action="store_true",
                        help="--seconds 1 --replicas 2: 1/15 of the work")


def parse(argv):
    parser = argparse.ArgumentParser(prog="benchmarks.ledger", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    names = list(metrics.WORKLOADS)
    if argv and argv[0] in ("run", "spread", "child"):
        command, argv = argv[0], argv[1:]
    else:
        command = "driver"
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=metrics.RUN_SECONDS,
                        help="sizes every workload: seconds of measured work, "
                             "all replicas together")
    if command == "driver":
        parser.add_argument("--workload", choices=names, required=True)
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    elif command == "child":
        parser.add_argument("--workload", choices=names, required=True)
        parser.add_argument("--replicas", type=int, default=1,
                            help="how many replicas the caller still needs")
        parser.add_argument("--turn", type=int, default=0,
                            help="which of its CPUs this run takes")
        parser.add_argument("--spans", action="store_true")
        parser.add_argument("--paced", action="store_true")
    elif command == "run":
        _replica_arguments(parser)
        parser.add_argument("--workload", choices=names, action="append")
        parser.add_argument("--trace", action="store_true")
        parser.add_argument("--update-golden", action="store_true",
                            help="pin this seed and size in golden.json")
    else:
        _replica_arguments(parser)
        parser.add_argument("--sets", type=int, default=5)
        parser.add_argument("--vary-seed", action="store_true",
                            help="set i runs seed + i, as the benchmark driver does")
        parser.add_argument("--write", action="store_true",
                            help="write the bounds to BENCHMARK.json and spread.json")
    args = parser.parse_args(argv)
    if getattr(args, "smoke", False):
        args.seconds, args.replicas = 1, 2
    if args.seconds < 1 or getattr(args, "replicas", 1) < 1:
        parser.error("--seconds and --replicas must be at least 1")
    return command, args


def main(argv):
    command, args = parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("[ledger] no src/repro beside the benchmark: nothing to measure",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    handler = {"driver": cmd_driver, "child": cmd_child, "run": cmd_run,
               "spread": cmd_spread}[command]
    try:
        return handler(args)
    except RuntimeError as failure:
        print(f"[ledger] {failure}", file=sys.stderr)
        return 3
