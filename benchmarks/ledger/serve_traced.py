"""``python -m repro serve`` with the ledger's span wrappers installed.

Usage: ``serve_traced.py SPANS_PATH COUNTS_PATH serve [serve options]``.
Installs the wrappers, runs the CLI's own ``main``, and on drain writes
the spans and the served world's counters. The world is the one
``build_service_world`` returns to ``cmd_serve``; it is noted on its way
through, because the CLI keeps no handle to it.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def main(argv):
    spans_path, counts_path, *serve_argv = argv
    # Run as a script: the script's directory must not shadow stdlib ``trace``.
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != HERE]
    sys.path.insert(0, ROOT)
    from benchmarks.ledger import trace, workloads

    import repro.__main__ as cli
    from repro.service import world as world_module

    worlds = []
    build = world_module.build_service_world

    def noting_build(*args, **kwargs):
        worlds.append(build(*args, **kwargs))
        return worlds[-1]

    world_module.build_service_world = noting_build
    tracer = trace.Tracer()
    tracer.install()
    try:
        code = cli.main(serve_argv)
    finally:
        tracer.uninstall()
        world_module.build_service_world = build
    tracer.dump(spans_path)
    with open(counts_path, "w", encoding="utf-8") as handle:
        json.dump(workloads.sim_counts(worlds[0].inet), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
