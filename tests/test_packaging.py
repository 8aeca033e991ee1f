"""The shipped package runs on the standard library alone: third-party
packages are test dependencies (``tests/oracles.py``), never ``repro``'s."""

from __future__ import annotations

import ast
import sys
import tomllib
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def imported_packages(tree: ast.AST) -> set[str]:
    """Top-level package of every absolute import in ``tree``, at module
    level and inside functions alike."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_src_imports_only_the_standard_library():
    allowed = sys.stdlib_module_names | {"repro"}
    foreign = {}
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        names = imported_packages(ast.parse(path.read_text(), str(path)))
        if names - allowed:
            foreign[str(path.relative_to(REPO))] = sorted(names - allowed)
    assert foreign == {}
    with open(REPO / "pyproject.toml", "rb") as handle:
        assert tomllib.load(handle)["project"]["dependencies"] == []
