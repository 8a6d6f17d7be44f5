"""Which functions in ``src/repro`` does no command reach?

``python tests/reach_sweep.py`` runs every subcommand at smoke sizes (a
2-worker fleet, chaos, soak, serve + loadgen) and the ledger's ``run
--smoke`` under a ``sys.setprofile`` hook that a ``sitecustomize``
installs in every process they start, spawned workers included, then
prints what no run entered, per module, and the totals. Stdlib only; it
takes minutes, so it is a tool, not a tier-1 test.
"""

import ast
import os
import re
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
HOOK = """import atexit, os, sys, threading
out, src, seen = os.environ["REACH_SWEEP_OUT"], os.environ["REACH_SWEEP_SRC"], set()
def hook(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(src):
        seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
def dump():
    sys.setprofile(None)
    with open(os.path.join(out, f"{os.getpid()}.txt"), "a") as handle:
        handle.writelines(f"{path}:{line}\\n" for path, line in seen)
def exit_now(code, _exit=os._exit):  # fleet workers leave through os._exit
    dump(); _exit(code)
sys.setprofile(hook); threading.setprofile(hook); atexit.register(dump); os._exit = exit_now
"""
SMALL = ["--domains", "30", "--tlds", "20", "--resolvers", "8"]
RUNS = [  # {out} is the sweep's scratch directory
    ["study", *SMALL], ["study", *SMALL, "--workers", "2", "--state-dir", "{out}/fleet"],
    ["study", *SMALL, "--faults", "chaos", "--concurrency", "8", "--progress", "--mem-stats",
     "--metrics-out", "-", "--events-out", "{out}/events.jsonl", "--series-out", "{out}/s.csv"],
    ["scan", "--domains", "30", "--tlds", "20", "--metrics-out", "-",
     "--metrics-format", "prometheus", "--state-dir", "{out}/scan"],
    ["survey", "--domains", "10", "--tlds", "20"], ["trace", "--trace-out", "{out}/trace.json"],
    ["attack", "--queries", "2"], ["timeline"], ["guidance"],
    ["soak", "--domains", "10", "--tlds", "6", "--phase-seconds", "1", "--attack-qps", "80"],
]


def functions():
    """``{(file, first line): (module, name, lines)}`` for every def in src."""
    found = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                found[(str(path), first)] = (module, node.name, node.end_lineno - node.lineno + 1)
    return found


def sweep(out):
    """Run everything under the hook; returns the ``(file, first line)`` reached."""
    (Path(out) / "site").mkdir()
    (Path(out) / "site" / "sitecustomize.py").write_text(HOOK)
    env = dict(os.environ, REACH_SWEEP_OUT=out, REACH_SWEEP_SRC=str(SRC),
               PYTHONPATH=os.pathsep.join([str(Path(out) / "site"), str(SRC)]))
    quiet = dict(env=env, cwd=out, stdout=subprocess.DEVNULL)
    repro = [sys.executable, "-m", "repro"]
    for args in RUNS:
        args = [arg.format(out=out) for arg in args]
        print("[sweep]", *args, file=sys.stderr)
        subprocess.run(repro + args, **quiet)
    print("[sweep] serve + loadgen, then the ledger's run --smoke", file=sys.stderr)
    serve = subprocess.Popen(repro + ["serve", "--port", "0", "--domains", "10", "--tlds", "6"],
                             stderr=subprocess.PIPE, text=True, **quiet)
    port = next(m[1] for line in serve.stderr if (m := re.search(r"listening on .*:(\d+)", line)))
    subprocess.run(repro + ["loadgen", "--port", port, "--qps", "100", "--duration", "1",
                            "--attack-ratio", "0.3"], **quiet)
    serve.send_signal(signal.SIGTERM)
    serve.communicate()
    ledger = [sys.executable, str(SRC.parent / "benchmarks" / "ledger" / "__main__.py")]
    subprocess.run(ledger + ["run", "--smoke"], **dict(quiet, cwd=SRC.parent))
    rows = (row.rpartition(":") for f in Path(out).glob("*.txt") for row in f.read_text().split())
    return {(path, int(line)) for path, __, line in rows}


def main():
    every = functions()
    with tempfile.TemporaryDirectory(prefix="reach-sweep-") as out:
        reached = sweep(out)
    dead, unreached = [], {}
    for key, (module, name, lines) in sorted(every.items()):
        if key not in reached:
            dead.append(lines)
            unreached.setdefault(module, []).append(f"{name} ({lines})")
    print("\n".join(f"{module}: {', '.join(rows)}" for module, rows in unreached.items()))
    print(f"reached {len(every) - len(dead)} of {len(every)} functions; {len(dead)} unreached "
          f"hold {sum(dead)} of {sum(lines for *__, lines in every.values())} function lines")


if __name__ == "__main__":
    main()
