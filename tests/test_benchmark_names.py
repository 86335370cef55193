"""The benchmark reaches the library by name: its traced mode wraps
functions listed in `perfbench/tracing.py`, and its workloads call
`telescopic` attributes.  Every such name must resolve, so a rename or a
retirement in the library cannot silently break `perfbench/run.py`."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import telescopic

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOADS = PERFBENCH / "workloads.py"


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


def _workload_names():
    """The attributes the workloads read off `import telescopic as T`."""
    tree = ast.parse(WORKLOADS.read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.Import)]
    assert any(alias.name == "telescopic" and alias.asname == "T" for node in imports for alias in node.names)
    return sorted(
        {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "T"
        }
    )


def test_workload_names_are_found():
    names = _workload_names()
    for name in ("closed_form_recurrence", "decompose_against", "rows_to_csv", "ToleranceNotMetError"):
        assert name in names


@pytest.mark.parametrize("name", _workload_names())
def test_workload_name_resolves(name):
    assert hasattr(telescopic, name), f"telescopic.{name}"


def test_recurrence_normalized_resolves():
    # the discover workload's check normalizes closed_form_recurrence's result
    assert callable(telescopic.Recurrence.normalized)
