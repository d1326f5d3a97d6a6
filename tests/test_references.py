"""Every module-level function and class of the package is used somewhere.

A definition counts as used when some statement other than itself names
it, in src/, tests/, scripts/ or benchmark/: as a name, an attribute, an
imported name or a string (benchmark/spans.py wraps functions by name).
The package's __init__ re-exports do not count, or every exported name
would pass.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FOLDERS = ("src/rmtlab", "tests", "scripts", "benchmark")


def names_in(node: ast.AST) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def unreferenced(sources: dict[str, str], package: str) -> list[str]:
    """module.name of each top-level def or class in package no other statement names.

    sources maps a path relative to the repository root to its text.
    """
    defined, used = {}, set()
    for rel, text in sources.items():
        path = Path(rel)
        for stmt in ast.parse(text).body:
            names = names_in(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.discard(stmt.name)  # a recursive call is not a use
                if str(path.parent) == package:
                    defined[f"{path.stem}.{stmt.name}"] = stmt.name
            if path.name != "__init__.py":
                used |= names
    return sorted(key for key, name in defined.items() if name not in used)


def test_checker_flags_unreferenced_definitions():
    sources = {
        "pkg/__init__.py": "from .mod import exported, helper\n",
        "pkg/mod.py": ("def helper(): return helper()\n"
                       "def used(): return 1\n"
                       "def exported(): return used()\n"
                       "class Lonely:\n    def again(self): return Lonely()\n"),
        "tests/test_mod.py": "import pkg\nassert pkg.exported() == getattr(pkg, 'byname', 1)\n",
        "pkg/byname.py": "def byname(): pass\n",
    }
    assert unreferenced(sources, "pkg") == ["mod.Lonely", "mod.helper"]


def test_every_definition_is_referenced():
    sources = {str(path.relative_to(ROOT)): path.read_text()
               for folder in FOLDERS for path in sorted((ROOT / folder).glob("*.py"))}
    assert unreferenced(sources, "src/rmtlab") == []
