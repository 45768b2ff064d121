"""Package hygiene: the public name list, imports and definitions that
nothing uses, functions that neither the CLI nor the acceptance API runs,
the imports that startup pays for, and the shape of the result records.

Standard library only, so that it runs wherever the tests run.  An import
that its module never reads is left over from deleted code; one that is
kept on purpose (say, so that a tool can rebind it) carries ``# noqa: F401``
on the line of its name.  A module-level function or class that no module
reads is either exported in ``aperylike.__all__`` or left over.  A function
or method that no subcommand and no name imported by
``tests/test_acceptance.py`` runs is kept alive only by its own tests, and
is deleted instead.

Importing the package must not load mpmath: no module imports it at module
level, except under ``if TYPE_CHECKING:`` for annotations, and the functions
that evaluate in mpmath import it themselves.  No module imports
``dataclasses``, which would load ``inspect``; the records are
``typing.NamedTuple``s.
"""

import ast
import contextlib
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aperylike

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "aperylike"
SOURCES = sorted(PACKAGE.glob("*.py"))


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


#: One small run of every subcommand, both families, CSV once.  `pair` at
#: n = 30 jumps past the memo's two initial pairs, so it runs the product tree.
CLI_RUNS = [
    "pair --family catalan --n 30 --format csv",
    "pair --family zeta4 --n 3",
    "range --family catalan --n-max 3",
    "range --family zeta4 --n-max 3 --format csv",
    "check --family catalan --n-max 3 --mode proved",
    "check --family zeta4 --n-max 3 --mode strong",
    "decompose --family catalan --n 3",
    "decompose --family zeta4 --n 3",
    "certify --family catalan --n-max 2",
    "cf --family catalan --n 3",
    "cf --family zeta4 --n 3",
    "digits --constant catalan --digits 10",
    "digits --constant zeta4 --digits 10",
    "integral --n 1 --digits 8",
    "series --constant zeta4 --n 2 --digits 8",
    "asymptotics --family catalan --n 6 --digits 8",
    "asymptotics --family zeta4 --n 6 --digits 8",
]

#: Functions that nothing needs to run: the reprs and the immutability
#: guards.
UNREACHED_ON_PURPOSE = {
    "exact.Polynomial.__repr__",
    "exact.RationalFunction.__repr__",
    "exact.TruncatedSeries.__repr__",
    "exact.Polynomial.__setattr__",
    "exact.RationalFunction.__setattr__",
    "exact.TruncatedSeries.__setattr__",
}


def acceptance_calls() -> dict:
    """One small call of each name that tests/test_acceptance.py imports
    from the package, keyed by that name."""
    from aperylike import analytic, certificate, hypergeom, sequences

    return {
        "beukers_integral": lambda: analytic.beukers_integral(1, 8),
        "cf_convergent": lambda: analytic.cf_convergent("catalan", 3),
        "reference_catalan": lambda: analytic.reference_catalan(20),
        "reference_zeta4": lambda: analytic.reference_zeta4(20),
        "zeta4_series": lambda: analytic.zeta4_series(2, 8),
        "build_certificate": lambda: certificate.build_certificate(2),
        "verify_telescoping": lambda: certificate.verify_telescoping(2),
        "build_kernel": lambda: hypergeom.build_kernel(3),
        "check_arith_lemmas": lambda: hypergeom.check_arith_lemmas(3),
        "coefficient_quadruple": lambda: hypergeom.coefficient_quadruple(3),
        "f_numeric": lambda: hypergeom.f_numeric(3, 10),
        "partial_fractions": lambda: hypergeom.partial_fractions(3),
        # as A6 uses it: compared with the kernel
        "reconstruction": lambda: hypergeom.reconstruction(hypergeom.partial_fractions(3))
        != hypergeom.build_kernel(3).R,
        "asymptotic_report": lambda: sequences.asymptotic_report("zeta4", 6, 8),
        "catalan_pair": lambda: sequences.catalan_pair(3),
        "check_inclusions": lambda: sequences.check_inclusions("catalan", 3),
        "pair": lambda: sequences.pair("zeta4", 3),
        "zeta4_pair": lambda: sequences.zeta4_pair(3),
    }


def acceptance_imports() -> set[str]:
    """The names tests/test_acceptance.py imports from the package."""
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("aperylike")
        for alias in node.names
    }


def reached_functions(run, root: Path) -> set[tuple[str, int, str]]:
    """Call `run()` under a profile hook and return the Python functions it
    entered whose code lies under `root`, as (module, first line, name)."""
    prefix = str(root) + os.sep
    reached = set()

    def hook(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(prefix):
            reached.add((Path(code.co_filename).stem, code.co_firstlineno, code.co_name))

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return reached


def defined_functions(sources: dict[str, str]) -> dict[tuple[str, int, str], str]:
    """Every function and method, nested ones too, keyed as the profile hook
    records it (the first line is the first decorator's, as in the code
    object), with its qualified name "module.Class.name" as the value."""
    found = {}

    def visit(module, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(module, first, child.name)] = f"{module}.{prefix}{child.name}"
                visit(module, child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(module, child, f"{prefix}{child.name}.")
            else:
                visit(module, child, prefix)

    for module, source in sources.items():
        visit(module, ast.parse(source), "")
    return found


def unreached_functions(sources: dict[str, str], reached, allowed) -> list[str]:
    """The functions defined in `sources` that are neither in `reached` nor
    named in `allowed`, in order of definition."""
    defined = defined_functions(sources)
    return [name for key, name in defined.items() if key not in reached and name not in allowed]


def print_package_reach() -> None:
    """Run every CLI_RUNS command through `cli.main` and every acceptance
    call under the profile hook; print what they reached as JSON."""

    def run():
        from aperylike import cli

        calls = acceptance_calls()
        assert set(calls) == acceptance_imports(), "acceptance_calls is out of date"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for command in CLI_RUNS:
                with pytest.raises(SystemExit) as stop:
                    cli.main(command.split())
                assert stop.value.code == 0, command
            for call in calls.values():
                call()

    print(json.dumps(sorted(reached_functions(run, PACKAGE))))


def run_child(*argv: str) -> subprocess.CompletedProcess:
    """`python *argv` in a fresh process that imports the package from src."""
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.getenv("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=60,
    )


def test_cli_and_acceptance_api_reach_every_function():
    # a fresh process, so that no memo warmed by other tests skips a path
    proc = run_child(__file__)
    assert proc.returncode == 0, proc.stderr[-2000:]
    reached = {tuple(key) for key in json.loads(proc.stdout)}
    sources = {path.stem: path.read_text() for path in SOURCES}
    assert UNREACHED_ON_PURPOSE <= set(defined_functions(sources).values())
    assert unreached_functions(sources, reached, UNREACHED_ON_PURPOSE) == []


def test_unreached_function_detection(tmp_path):
    source = (
        "import functools\n"
        "def used(): return Box().get() + helper()\n"
        "def helper():\n"
        "    def inner(): return 1\n"
        "    def unused_inner(): return 2\n"
        "    return inner()\n"
        "def unused(): pass\n"
        "class Box:\n"
        "    def get(self): return 0\n"
        "    def __repr__(self): return 'Box'\n"
        "    @functools.cache\n"
        "    def cached(self): return 1\n"
        "    @property\n"
        "    def size(self): return 1\n"
    )
    (tmp_path / "mod.py").write_text(source)
    spec = importlib.util.spec_from_file_location("mod", tmp_path / "mod.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    reached = reached_functions(module.used, tmp_path)
    assert unreached_functions({"mod": source}, reached, {"mod.Box.__repr__"}) == [
        "mod.helper.<locals>.unused_inner",
        "mod.unused",
        "mod.Box.cached",
        "mod.Box.size",
    ]
    reached |= reached_functions(lambda: (module.Box().cached(), module.Box().size), tmp_path)
    assert unreached_functions({"mod": source}, reached, {"mod.Box.__repr__"}) == [
        "mod.helper.<locals>.unused_inner",
        "mod.unused",
    ]


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


def test_cli_startup_loads_no_csv():
    # csv is imported in `_emit`'s CSV branch, as csv and _csv cost every
    # JSON command about 0.5 ms of start-up; a CSV record shows that the check
    # sees the import when it happens
    code = (
        "import contextlib, io, sys\n"
        "import aperylike.cli\n"
        "print(sorted({'csv', '_csv'} & set(sys.modules)))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    aperylike.cli.run(['pair', '--family', 'catalan', '--n', '1', '--format', 'csv'])\n"
        "print(sorted({'csv', '_csv'} & set(sys.modules)))\n"
    )
    proc = run_child("-c", code)
    assert proc.stdout.splitlines() == ["[]", "['_csv', 'csv']"], proc.stderr


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
    "hypergeom.KernelParts": ("n", "R"),
    "hypergeom.FactorRuns": ("scale", "runs"),
    "hypergeom.PartialFractionTable": ("n", "A"),
    "hypergeom.CoefficientQuadruple": ("n", "U", "Uprime", "Udoubleprime", "V"),
    "certificate.Certificate": ("n", "s", "S"),
    "analytic.DigitsResult": ("constant", "digits", "value", "n_used", "error_bound"),
    "analytic.CFConvergent": ("family", "n", "value"),
    "cli.CommandResult": ("status",),
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
    assert [result(s).exit_code for s in ("ok", "verification_failed", "precision_error")] == [0, 1, 3]


if __name__ == "__main__":
    print_package_reach()
