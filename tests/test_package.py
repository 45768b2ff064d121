"""Package hygiene: the public name list, imports and definitions that
nothing uses, the imports that startup pays for, and the shape of the
result records.

Standard library only, so that it runs wherever the tests run.  An import
that its module never reads is left over from deleted code; one that is
kept on purpose (say, so that a tool can rebind it) carries ``# noqa: F401``
on the line of its name.  A module-level function or class that no module
reads is either exported in ``aperylike.__all__`` or left over.

Importing the package must not load mpmath: no module imports it at module
level, except under ``if TYPE_CHECKING:`` for annotations, and the functions
that evaluate in mpmath import it themselves.  No module imports
``dataclasses``, which would load ``inspect``; the records are
``typing.NamedTuple``s.
"""

import ast
import importlib
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


def names_read(node: ast.AST) -> set[str]:
    """Names loaded, and attributes taken, anywhere under `node`."""
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        or isinstance(sub, ast.Attribute)
    }


def unread_definitions(sources: dict[str, str], exported) -> list[str]:
    """Module-level functions and classes, as "module.name", that no module
    reads outside their own definition and that are not in `exported`."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = [(node, names_read(node)) for tree in trees.values() for node in tree.body]
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name in exported:
                continue
            if not any(node.name in names for other, names in reads if other is not node):
                unread.append(f"{module}.{node.name}")
    return unread


def test_every_definition_is_read_or_exported():
    sources = {path.stem: path.read_text() for path in SOURCES}
    assert unread_definitions(sources, aperylike.__all__) == []


def test_unread_definition_detection():
    sources = {
        "a": (
            "def used(): return helper()\n"
            "def helper(): return 1\n"
            "def recursive(k): return recursive(k - 1) if k else 0\n"
            "class Record: pass\n"
            "def public(): pass\n"
        ),
        "b": "from . import a\nx = a.used()\ny: 'Record' = None\n",
    }
    assert unread_definitions(sources, ["public"]) == ["a.recursive", "a.Record"]


def imports_module(node: ast.AST, module: str) -> bool:
    """Whether `node` is an import of `module` or of one of its submodules."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = [node.module or ""]
    else:
        return False
    return any(name == module or name.startswith(module + ".") for name in names)


def startup_imports(source: str, module: str) -> list[int]:
    """Lines that import `module` when the file is imported: outside every
    function, and not under ``if TYPE_CHECKING:``."""
    found = []

    def visit(statements):
        for node in statements:
            if imports_module(node, module):
                found.append(node.lineno)
            if isinstance(node, ast.If):
                if not (isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"):
                    visit(node.body)
                visit(node.orelse)
            elif isinstance(node, (ast.ClassDef, ast.With, ast.For, ast.While)):
                visit(node.body)
            elif isinstance(node, ast.Try):
                for block in (node.body, node.orelse, node.finalbody, *(h.body for h in node.handlers)):
                    visit(block)

    visit(ast.parse(source).body)
    return found


def imports_anywhere(source: str, module: str) -> list[int]:
    """Lines that import `module`, at any depth."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if imports_module(node, module)]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_defers_mpmath_and_skips_dataclasses(path):
    source = path.read_text()
    assert startup_imports(source, "mpmath") == []
    assert imports_anywhere(source, "dataclasses") == []


def test_startup_import_detection():
    source = (
        "from typing import TYPE_CHECKING\n"
        "import mpmath.libmp\n"
        "if TYPE_CHECKING:\n"
        "    from mpmath import mpf\n"
        "else:\n"
        "    from mpmath import mp\n"
        "try:\n"
        "    from mpmath import nstr\n"
        "except ImportError:\n"
        "    pass\n"
        "class A:\n"
        "    from mpmath import pi\n"
        "def f():\n"
        "    from mpmath import mp\n"
        "    from dataclasses import dataclass\n"
        "import mpmathx\n"
    )
    assert startup_imports(source, "mpmath") == [2, 6, 8, 12]
    assert imports_anywhere(source, "dataclasses") == [15]


RECORDS = {
    "sequences.SequencePair": ("family", "n", "u", "v"),
    "sequences.InclusionReport": ("family", "n", "mode", "pass_u", "pass_v", "witness_u", "witness_v"),
    "sequences.AsymptoticRates": ("rate_u", "rate_form"),
    "sequences.Recurrence": ("lead", "mid", "back", "initial"),
    "hypergeom.KernelParts": ("n", "P1", "P2", "Q", "R"),
    "hypergeom.FactorRuns": ("scale", "runs"),
    "hypergeom.PartialFractionTable": ("n", "A"),
    "hypergeom.CoefficientQuadruple": ("n", "U", "Uprime", "Udoubleprime", "V"),
    "certificate.Certificate": ("n", "s", "S"),
    "analytic.DigitsResult": ("constant", "digits", "value", "n_used", "error_bound"),
    "analytic.CFConvergent": ("family", "n", "value"),
    "cli.CommandResult": ("status", "payload"),
}


def record_class(path):
    module, name = path.split(".")
    return getattr(importlib.import_module(f"aperylike.{module}"), name)


@pytest.mark.parametrize("path", sorted(RECORDS))
def test_record_is_a_frozen_named_tuple(path):
    cls, fields = record_class(path), RECORDS[path]
    assert issubclass(cls, tuple) and cls._fields == fields
    record = cls(*range(len(fields)))
    assert tuple(record) == tuple(range(len(fields)))
    assert record == cls(**dict(zip(fields, range(len(fields)))))
    with pytest.raises(AttributeError):
        setattr(record, fields[0], -1)
    with pytest.raises(AttributeError):
        record.extra = -1


def test_record_methods():
    inclusion = record_class("sequences.InclusionReport")
    assert inclusion("catalan", 1, "proved", True, True, 1, 2).ok
    assert not inclusion("catalan", 1, "proved", True, False, 1, None).ok
    result = record_class("cli.CommandResult")
    assert [result(s, {}).exit_code for s in ("ok", "verification_failed", "precision_error")] == [0, 1, 3]
