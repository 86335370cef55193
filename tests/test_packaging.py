"""The runtime dependencies declared in pyproject.toml are exactly the
third-party modules the package imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib", reason="tomllib needs Python 3.11")

ROOT = Path(__file__).resolve().parent.parent


def _third_party_imports() -> set[str]:
    found = set()
    for path in (ROOT / "src" / "telescopic").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found - set(sys.stdlib_module_names) - {"__future__", "telescopic"}


def test_dependencies_match_imports():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", spec).group().lower()
        for spec in project["project"]["dependencies"]
    }
    assert declared == _third_party_imports()
