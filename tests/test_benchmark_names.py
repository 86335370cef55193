"""The benchmark's traced mode wraps library functions by name; every
name it lists must resolve, so a rename in the library cannot silently
break `perfbench/run.py --trace 1`."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _layer_functions():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_FUNCTIONS


@pytest.mark.parametrize("layer, name, path", _layer_functions(), ids=lambda v: v)
def test_traced_function_resolves(layer, name, path):
    target = importlib.import_module(f"telescopic.{layer}")
    for attribute in path.split("."):
        target = getattr(target, attribute)
    assert callable(target), f"telescopic.{layer}.{path}"
