"""The runtime dependencies declared in pyproject.toml are exactly the
third-party modules the package imports, and the exact core imports none
of them: mpmath is loaded only by the functions that make floats."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "telescopic").glob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _third_party(nodes) -> set[str]:
    found = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found - set(sys.stdlib_module_names) - {"__future__", "telescopic"}


def _third_party_imports() -> set[str]:
    return set().union(*(_third_party(ast.walk(_parse(path))) for path in SOURCES))


def _run_on_import(tree: ast.Module):
    """The nodes that run when the module is imported: all but function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield node
            stack.extend(ast.iter_child_nodes(node))


def test_dependencies_match_imports():
    tomllib = pytest.importorskip("tomllib", reason="tomllib needs Python 3.11")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", spec).group().lower()
        for spec in project["project"]["dependencies"]
    }
    assert declared == _third_party_imports()


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_third_party_module_is_imported_at_module_level(path):
    assert _third_party(_run_on_import(_parse(path))) == set()


def test_families_drives_the_integration_kernel_through_one_function():
    imported = {
        alias.name
        for node in ast.walk(_parse(ROOT / "src" / "telescopic" / "families.py"))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    kernel = {"_split_poles", "_principal_part", "_integral_value", "_log_terms"}
    assert imported & kernel == set()


_CLI = "import runpy\nrunpy.run_module('telescopic', run_name='__main__')"


@pytest.mark.parametrize(
    "code, argv, loads_mpmath",
    [
        ("import telescopic", (), False),
        (
            "from telescopic import *\n"
            "for mode in ('verify', 'discover'):\n"
            "    proof = prove_identity(ParameterPair(2, 1), mode=mode)\n"
            "    assert reverify_proof(proof_from_json(proof_to_json(proof)))",
            (),
            False,
        ),
        (
            "import itertools\n"
            "from telescopic import ParameterPair, make_left_family\n"
            "values = make_left_family(ParameterPair(2, 1)).integrals()\n"
            "assert len(list(itertools.islice(values, 9))) == 9",
            (),
            False,
        ),
        (_CLI, ("prove", "--a", "2", "--b", "1"), False),
        (_CLI, ("derive", "--a", "2", "--b", "1"), False),
        (
            "from telescopic import ParameterPair, approximant_table\n"
            "approximant_table(ParameterPair(2, 1), 5)",
            (),
            True,
        ),
        (
            "from telescopic import LogCombination, logcomb_to_float\n"
            "logcomb_to_float(LogCombination(0, {2: 1}), 64)",
            (),
            True,
        ),
    ],
    ids=["import", "prove", "integrals", "cli-prove", "cli-derive", "approx", "float"],
)
def test_mpmath_is_loaded_only_where_floats_are_made(code, argv, loads_mpmath):
    # a fresh interpreter reports sys.modules at exit, after the code ran
    probe = "import atexit, sys\natexit.register(lambda: print('mpmath' in sys.modules))\n"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", probe + code, *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == str(loads_mpmath)


_HINTS = """
import inspect, sys, typing
import telescopic

unresolved = []
for name in telescopic.__all__:
    obj = getattr(telescopic, name)
    targets = [obj]
    if inspect.isclass(obj):
        for _, member in inspect.getmembers(obj):
            member = member.fget if isinstance(member, property) else member
            if inspect.isfunction(member) or inspect.ismethod(member):
                targets.append(member)
    for target in targets:
        if callable(target):
            try:
                typing.get_type_hints(target)
            except Exception as error:
                unresolved.append(f"{name}: {target.__qualname__}: {error!r}")
assert not unresolved, unresolved
assert "mpmath" not in sys.modules
"""


def test_type_hints_of_the_public_names_resolve_without_mpmath():
    # every annotation resolves in a fresh interpreter, and resolving them
    # loads no float library: mpmath values are annotated as numbers.Real
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _HINTS],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
