"""No framebias module imports a name it never uses: a refactor that drops the
last use of an import (a ``contextmanager``, an ``ExitStack``) must drop the
import too. Names listed in a module's ``__all__`` count as used."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "framebias"


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name ``source`` imports and never reads."""
    tree = ast.parse(source)
    imported = {}  # bound name -> line of its import
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_orphaned_import_is_found():
    source = "from contextlib import ExitStack, contextmanager\nimport os.path\n\n@contextmanager\ndef f():\n    yield\n"
    assert unused_imports(source) == [(1, "ExitStack"), (2, "os")]
    assert unused_imports("import json\n__all__ = ['json']\n") == []
