"""Every module imports only names it references."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# package __init__ modules import names to re-export them
MODULES = sorted(path for folder in ("src/rmtlab", "tests", "scripts", "benchmark")
                 for path in (ROOT / folder).glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every imported name the module never references."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_flags_unused_names():
    src = ("from __future__ import annotations\n"
           "import os, numpy.linalg\n"
           "from math import pi as PI, tau\n"
           "x: numpy.ndarray = tau\n")
    assert unused_imports(src) == [(2, "os"), (3, "PI")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
