"""Every function the benchmark's tracer patches still exists under its name.

``perfbench/tracing.py`` replaces module attributes by name; a refactor that
drops or renames one would otherwise surface only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracing = _tracing_module()


@pytest.mark.parametrize("module, attr", [
    (entry[0], entry[1]) for entry in _tracing.SPANNED + _tracing.COUNTED
], ids=lambda value: getattr(value, "__name__", value))
def test_traced_name_exists(module, attr):
    assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
