"""The benchmark tracer's targets must name functions the package defines.

``clibench/tracer.py`` wraps each ``(module, attribute)`` of its ``TARGETS``
list and stops with an error when one is missing, so renaming or deleting a
traced function breaks the benchmark's traced mode; this test catches that
here.  The traced runs of the benchmark's `COVER` commands must also still
call every target: a simplification that stops calling one leaves its
per-layer metrics at 0.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aperylike

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "clibench"
TRACER = BENCH / "tracer.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("clibench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize(
    "module_name, attr", [(module, attr) for _, module, attr, _ in load_targets()]
)
def test_target_resolves(module_name, attr):
    owner = getattr(aperylike, module_name)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
        # the tracer rebinds the class's own attribute, not an inherited one
        assert attr in vars(owner)
    assert callable(getattr(owner, attr))


def cover_commands() -> list[str]:
    """The `COVER` commands of ``clibench/run.py``, one per subcommand, read
    from its source without importing it."""
    tree = ast.parse((BENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["COVER"]:
            return list(ast.literal_eval(node.value).values())
    raise AssertionError("clibench/run.py defines no COVER")


@pytest.fixture(scope="module")
def cover_traces(tmp_path_factory) -> list[dict]:
    """One traced run of each `COVER` command, as the benchmark makes it."""
    out = tmp_path_factory.mktemp("traces")
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.getenv("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    traces = []
    for op_id, command in enumerate(cover_commands()):
        path = out / f"trace-{op_id}.json"
        argv = [sys.executable, str(TRACER), str(path), str(op_id), "--", *command.split()]
        proc = subprocess.run(argv, capture_output=True, env=env, cwd=ROOT, timeout=120)
        assert proc.returncode == 0, (command, proc.stderr[-2000:])
        traces.append(json.loads(path.read_text()))
    return traces


@pytest.mark.parametrize("name", sorted({name for name, _, _, _ in load_targets()}))
def test_cover_commands_reach_every_target(cover_traces, name):
    # a name no command calls reads 0 in the benchmark's per-layer metrics
    assert sum(trace["stats"][name][0] for trace in cover_traces) > 0


def test_cover_commands_fill_the_kernel_cache(cover_traces):
    entries = [trace["counters"]["hypergeom.kernel_cache_entries"] for trace in cover_traces]
    assert max(entries) > 0


def test_cover_commands_step_the_sequence_memo(cover_traces):
    # the tracer reads both counters off the lengths of `sequences._pairs`
    for name in ("sequences.steps", "sequences.memo_entries"):
        assert max(trace["counters"][name] for trace in cover_traces) > 0, name
