"""Package hygiene: the public name list, and imports that nothing uses.

Standard library only, so that it runs wherever the tests run.  An import
that its module never reads is left over from deleted code; one that is
kept on purpose (say, so that a tool can rebind it) carries ``# noqa: F401``
on the line of its name.
"""

import ast
from pathlib import Path

import pytest

import aperylike

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "aperylike").glob("*.py"))


def test_every_public_name_resolves_once():
    names = aperylike.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    assert [n for n in names if not hasattr(aperylike, n)] == []


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read, in order of appearance."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.append(alias.asname or alias.name.split(".")[0])
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        # a package's __all__ reads the names it re-exports
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_detection():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from math import (\n"
        "    gcd,\n"
        "    lcm,  # noqa: F401\n"
        "    sqrt,\n"
        ")\n"
        "from fractions import Fraction as F\n"
        "__all__ = ['sqrt']\n"
        "x = gcd(4, 6)\n"
    )
    assert unused_imports(source) == ["os", "F"]
