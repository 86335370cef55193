"""The package's public surface: ``telescopic.__all__`` lists exactly the
public names that ``__init__.py`` imports, each once, and each resolves."""

import ast
from collections import Counter
from pathlib import Path

import telescopic


def _imported_names() -> set[str]:
    tree = ast.parse(Path(telescopic.__file__).read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _is_public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def test_every_listed_name_resolves():
    missing = [name for name in telescopic.__all__ if not hasattr(telescopic, name)]
    assert missing == []
    namespace: dict = {}
    exec("from telescopic import *", namespace)
    assert set(telescopic.__all__) <= set(namespace)


def test_all_has_no_duplicates():
    counts = Counter(telescopic.__all__)
    assert [name for name, count in counts.items() if count > 1] == []


def test_every_public_import_is_listed():
    public = {name for name in _imported_names() if _is_public(name)}
    assert sorted(public - set(telescopic.__all__)) == []
