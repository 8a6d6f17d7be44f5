"""Every name a module under ``src/`` imports is used in that module.

A name counts as used when the module loads it (``ast.Name``) or lists
it in ``__all__``. An import that exists to re-export a name says so
with ``# noqa: F401`` on its line.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
NOQA_F401 = re.compile(r"#\s*noqa:[\sA-Z0-9,]*F401")


def _unused_imports(source):
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # bound name -> line number
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases = node.names
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            aliases = node.names
        else:
            continue
        if any(NOQA_F401.search(lines[n - 1]) for n in (node.lineno, node.end_lineno)):
            continue
        for alias in aliases:
            bound = alias.asname or alias.name.partition(".")[0]
            imported.setdefault(bound, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used.update(
                element.value
                for element in node.value.elts
                if isinstance(element, ast.Constant)
            )
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_finds_an_unused_import():
    source = (
        "import json\n"
        "from os import path, sep  # noqa: F401\n"
        "from os import getcwd  # noqa: E402,F401\n"
        "from x import y\n"
        "print(y)\n"
    )
    assert _unused_imports(source) == [(1, "json")]


def test_no_module_in_src_imports_a_name_it_does_not_use():
    found = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in _unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []
