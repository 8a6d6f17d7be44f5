"""Every ``src/repro`` module is on the path of ``python -m repro`` or says why not.

Imports are walked from ``repro.__main__`` with :mod:`ast`.  A package
``__init__`` is followed only when the package itself is what an import
names (``from repro import obs``); being the parent of an imported
submodule does not make its re-exports reached.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: module -> why it stays, and the test or script that reaches it.
ALLOWED = {
    "repro.scanner.zonewalk": "the title claim (iterations cost the walker nothing, the "
    "cracker and the defender alike): tests/test_zonewalk.py, examples/zone_walking.py",
    "repro.testbed.tranco": "Figure 2's rank list: benchmarks/bench_figure2.py",
    "repro.resolver.flaky": "§5.2's answer-flipping resolvers, the fake probe_stability and "
    "ResolverSurvey._verify_gap are tested against: tests/test_flaky.py",
}


def _path(module: str) -> Path | None:
    base = SRC.joinpath(*module.split("."))
    return next((p for p in (base.with_suffix(".py"), base / "__init__.py") if p.is_file()), None)


def _imports(module: str):
    for node in ast.walk(ast.parse(_path(module).read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            for alias in node.names:
                submodule = f"{node.module}.{alias.name}"
                yield submodule if _path(submodule) else node.module


def test_every_module_is_reached_from_the_cli_or_allowlisted():
    reached, todo = set(), ["repro.__main__"]
    while todo:
        module = todo.pop()
        if module not in reached and _path(module):
            reached.add(module)
            todo.extend(_imports(module))
    files = (p.relative_to(SRC).with_suffix("") for p in SRC.glob("repro/**/*.py"))
    unreached = {".".join(f.parts) for f in files if f.name != "__init__"} - reached
    assert not unreached - set(ALLOWED), f"reached by nothing: {sorted(unreached)}"
    assert not set(ALLOWED) - unreached, "allowlisted, yet reached or gone"
