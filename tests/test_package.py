"""The package's export list against the names its __init__ imports.

Removing a public name means editing both the import and __all__; these tests
fail when only one of them changes.
"""

import ast
from pathlib import Path

import entgames


def imported_names() -> list[str]:
    """Names bound by entgames/__init__.py's relative `from .x import ...` lines."""
    tree = ast.parse(Path(entgames.__file__).read_text())
    return [alias.asname or alias.name
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_every_exported_name_resolves():
    missing = [name for name in entgames.__all__ if not hasattr(entgames, name)]
    assert missing == []


def test_all_matches_imports():
    assert len(set(entgames.__all__)) == len(entgames.__all__)
    assert sorted(entgames.__all__) == sorted(imported_names())
