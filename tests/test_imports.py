"""Module boundaries inside the package, and that it holds no dead code."""

import ast
import importlib
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).parent.parent / "src" / "fslice").glob("*.py"))

# Functions no code in src/ calls that still belong there: the API the
# README's Library section documents, and perfbench's projection check.
PUBLIC = {
    "criteria.parse_criterion", "lang.parse_program", "lang.print_program",
    "lang.validate", "lang.use_index", "slicer.in_slice", "slicer.precompute",
    "slicer.slice_inc", "slicer.slice_noninc", "slicer.save_artifact",
    "slicer.load_artifact", "firstify.firstify", "firstify.map_back",
    "interp.observe",
}
# Synthetic programs for the tests and perfbench.
UNCHECKED_MODULES = {"gen"}


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


def _definitions(module: str, tree: ast.Module):
    """(qualified name, defining node, class or None) of every top-level
    function and every method of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{module}.{node.name}", node, None
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield f"{module}.{node.name}.{sub.name}", sub, node.name


def _overrides(module: str, cls: str, name: str) -> bool:
    """Whether the method is inherited too, so a base class calls it."""
    obj = getattr(importlib.import_module(f"fslice.{module}"), cls)
    return any(name in vars(base) for base in obj.__mro__[1:])


def test_every_function_in_src_has_a_caller_in_src():
    """A function is called when its name is read anywhere in src/ outside
    its own body: as a name, or as an attribute (so by name only, whatever
    the receiver). Dunder methods and overrides are called implicitly."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in SRC}
    reads: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                reads.setdefault(name, []).append((path, node.lineno))
    seen, uncalled = set(), []
    for path, tree in trees.items():
        if path.stem in UNCHECKED_MODULES:
            continue
        for qual, node, cls in _definitions(path.stem, tree):
            seen.add(qual)
            name = node.name
            if qual in PUBLIC or name.startswith("__") and name.endswith("__"):
                continue
            if cls and _overrides(path.stem, cls, name):
                continue
            if all(p == path and node.lineno <= line <= node.end_lineno
                   for p, line in reads.get(name, ())):
                uncalled.append(qual)
    assert uncalled == []
    assert PUBLIC <= seen, "allowlisted names that are gone"
