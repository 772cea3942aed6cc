"""Module boundaries inside the package."""

import ast
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).parent.parent / "src" / "fslice").glob("*.py"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_module_imports_a_private_name_of_another(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    private = [f"from {'.' * node.level}{node.module or ''} import {a.name}"
               for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for a in node.names if _is_private(a.name)]
    assert private == []
