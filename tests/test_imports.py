"""Every module-level import of the package and its tests is used."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src" / "ffcolor").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by a top-level import that no `ast.Name` reads and
    `__all__` does not list; `from __future__` imports bind nothing."""
    bound = [alias.asname or alias.name.split(".")[0]
             for node in tree.body
             if isinstance(node, ast.Import) or
             isinstance(node, ast.ImportFrom) and node.module != "__future__"
             for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    listed = {elt.value for node in tree.body if isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
              for elt in node.value.elts}
    return [name for name in bound if name not in used | listed]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert _unused_imports(ast.parse(path.read_text(), str(path))) == []
