"""The benchmark tracer rebinds framebias functions by name; every name must resolve.

``perfbench/tracer.py`` looks each name in ``WRAP`` and ``WRAP_METHODS`` up
with ``getattr``, so renaming or deleting a traced function breaks every
traced benchmark run. These checks catch that in the test suite.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import framebias.cli  # noqa: F401  (loads every module the tracer wraps)
from framebias.matrices import SimilarityMatrix

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_exists(tracer):
    missing = [
        f"{module_name}.{name}"
        for module_name, functions in tracer.WRAP.items()
        for name in functions
        if not callable(getattr(sys.modules[module_name], name, None))
    ]
    assert missing == []


def test_every_wrapped_method_exists(tracer):
    missing = [name for name in tracer.WRAP_METHODS if not callable(getattr(SimilarityMatrix, name, None))]
    assert missing == []
