"""Source hygiene of ``src/relrep``: no orphaned private helpers, no unused imports.

Both checks read the syntax trees only (stdlib ``ast``, nothing is
imported), and catch helpers and imports left behind when the code using them
is deleted.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "relrep"


def _trees() -> dict[str, ast.Module]:
    return {
        str(path.relative_to(SRC)): ast.parse(path.read_text(), filename=str(path))
        for path in sorted(SRC.rglob("*.py"))
    }


def _used_names(node: ast.AST) -> Counter:
    """Every name read, written, imported or taken as an attribute under ``node``."""
    used: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            used[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            used.update(alias.name for alias in sub.names)
    return used


def test_every_private_helper_is_referenced():
    trees = _trees()
    total: Counter = Counter()
    for tree in trees.values():
        total.update(_used_names(tree))
    orphans = []
    for name, tree in trees.items():
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not stmt.name.startswith("_"):
                continue
            # references from inside its own definition (recursion) do not count
            if total[stmt.name] - _used_names(stmt)[stmt.name] == 0:
                orphans.append(f"{name}: {stmt.name}")
    assert orphans == []


def test_every_from_import_is_used():
    unused = []
    for name, tree in _trees().items():
        bound = [
            (alias.asname or alias.name, stmt.lineno)
            for stmt in ast.walk(tree)
            if isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__"
            for alias in stmt.names
        ]
        # _used_names also counts the imported names of the import statements
        imported = Counter(
            alias.name
            for stmt in ast.walk(tree)
            if isinstance(stmt, ast.ImportFrom)
            for alias in stmt.names
        )
        used = _used_names(tree)
        for alias_name, line in bound:
            if used[alias_name] - imported[alias_name] <= 0:
                unused.append(f"{name}:{line}: {alias_name}")
    assert unused == []
