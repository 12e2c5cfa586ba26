"""Every module-level import of the package is read somewhere in its module."""

import ast
from pathlib import Path

import pytest

import cornerdet

SOURCES = sorted(Path(cornerdet.__file__).parent.glob("*.py"))


def imported_names(tree: ast.Module):
    """(name, line) for each name a module-level import binds."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def read_names(tree: ast.Module) -> set[str]:
    """The names a module reads, and the names its __all__ exports."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            names |= set(ast.literal_eval(node.value))
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_dead_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = read_names(tree)
    dead = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert not dead, f"{path.name} imports names it never reads: {dead}"


def test_dead_import_is_found():
    tree = ast.parse("import json\nimport math\nfrom os import path, sep\n__all__ = ['sep']\nmath.pi\n")
    used = read_names(tree)
    assert [name for name, _ in imported_names(tree) if name not in used] == ["json", "path"]
