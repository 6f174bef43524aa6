"""Every name a ``wsisearch`` module imports is used in that module.

No linter runs over the package, so an import left behind when its last
use goes would otherwise stay unnoticed.  A name listed in the module's
``__all__`` counts as used: that is how ``__init__.py`` re-exports.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wsisearch"


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            names.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def used_names(tree: ast.Module) -> set[str]:
    # an attribute chain such as ``np.linalg.norm`` starts at a Name
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert sorted(imported_names(tree) - used_names(tree)) == []


def test_an_unused_import_is_caught():
    tree = ast.parse(
        "import os.path\nimport numpy as np\nfrom typing import Any, Sequence\n"
        "from .model import patch_ref\n__all__ = ['patch_ref']\nx: Sequence = np.zeros(1)\n"
    )
    assert sorted(imported_names(tree) - used_names(tree)) == ["Any", "os"]
