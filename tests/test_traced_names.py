"""The benchmark tracer's targets must name functions the package defines.

``clibench/tracer.py`` wraps each ``(module, attribute)`` of its ``TARGETS``
list and stops with an error when one is missing, so renaming or deleting a
traced function breaks the benchmark's traced mode; this test catches that
here.
"""

import importlib.util
from pathlib import Path

import pytest

import aperylike

TRACER = Path(__file__).resolve().parents[1] / "clibench" / "tracer.py"


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
