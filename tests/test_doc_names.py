"""Every code name the docs put in backticks still exists.

The docs are README.md, DESIGN.md, EXPERIMENTS.md and the benchmark
ledger's README.

A backticked token is a code name when it is an identifier, optionally
dotted and optionally ending in ``()``, that is snake_case, camelCase
or dotted (a plain word such as ``Population`` or ``sha256`` is not
checked). It resolves when its last part appears as an identifier in,
or is the stem of the name of, a file under ``src/``, ``tests/``,
``benchmarks/`` or ``examples/``. This file is left out of that search,
so the names it lists cannot resolve themselves.

Fenced code blocks are skipped: they hold commands and output, not
names. A name the docs keep on purpose after its code went is listed in
``HISTORICAL`` with the reason.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "benchmarks/ledger/README.md")
TREES = ("src", "tests", "benchmarks", "examples")
SUFFIXES = {".py", ".json", ".yml", ".toml", ".cfg", ".ini"}

#: Labels the docs use for code that is gone, kept where they name a
#: measurement of it: the retired fast-path switches head the rows of
#: DESIGN.md's ablation tables.
HISTORICAL = {"nsec3_memo", "rsa_crt", "validator_memo"}

FENCE = re.compile(r"^\s*```.*?^\s*```", re.M | re.S)
INLINE = re.compile(r"`([^`\n]+)`")
CODE_NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*(?:\(\))?")
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
CAMEL = re.compile(r"[a-z][A-Z]")


def code_names(text):
    """The backticked code names of markdown *text*, in order."""
    names = []
    for token in INLINE.findall(FENCE.sub("", text)):
        token = token.strip()
        if not CODE_NAME.fullmatch(token):
            continue
        bare = token.removesuffix("()")
        if "." in bare or "_" in bare.strip("_") or CAMEL.search(bare):
            names.append(bare)
    return names


def tree_identifiers(skip=()):
    """Every identifier spelled in, or naming, a source file of the
    checked trees."""
    found = set()
    for tree in TREES:
        for path in (ROOT / tree).rglob("*"):
            if path.suffix in SUFFIXES and path.is_file() and path not in skip:
                found.add(path.stem)
                found.update(IDENTIFIER.findall(path.read_text(encoding="utf-8")))
    return found


@pytest.fixture(scope="module")
def identifiers():
    return tree_identifiers(skip={Path(__file__).resolve()})


def unresolved(names, identifiers):
    return sorted(
        {
            name
            for name in names
            if name not in HISTORICAL and name.rpartition(".")[2] not in identifiers
        }
    )


def test_code_names_are_picked_out_of_markdown():
    text = (
        "Use `build_internet()` with a `Population`, see `Zone.get_rrsigs`,\n"
        "`LazyZoneHost`, `sha256` and `--state-dir`.\n"
        "```sh\n`not_this_one`\n```\n"
    )
    assert code_names(text) == ["build_internet", "Zone.get_rrsigs", "LazyZoneHost"]


@pytest.mark.parametrize("name", ["LazyTldZones", "domain_zones", "generate_population"])
def test_a_deleted_name_does_not_resolve(name, identifiers):
    assert unresolved([name], identifiers) == [name]


@pytest.mark.parametrize("doc", DOCS)
def test_every_code_name_in_the_docs_resolves(doc, identifiers):
    names = code_names((ROOT / doc).read_text(encoding="utf-8"))
    assert names
    assert unresolved(names, identifiers) == []
