"""No module of the package imports another module's private names.

A private name is one with a leading underscore that is not a dunder
(__version__ stays public).  Every `from ... import` in src/rmtlab that
reaches a sibling module, relatively or as rmtlab.<module>, is read,
including imports inside functions.  EXEMPT lists the imports kept on
purpose, each with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "rmtlab"

# "importer: module._name" -> why the import stays
EXEMPT = {
    "classify: equilibrium._expansion_at_infinity":
        "the scaled curve's series at infinity is the solver's own expansion, "
        "shared so the two layers cannot drift apart",
    "classify: equilibrium._path_integral":
        "classify's xihat integrates the scaled curve with the solver's one "
        "path rule, shared for the same reason",
}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(sources: dict[str, str]) -> list[str]:
    """Each private name one module imports from another, as
    "importer: module._name"; sources maps a module name to its text."""
    out = []
    for importer, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level:
                module = node.module or ""
            elif (node.module or "").startswith(f"{PACKAGE}."):
                module = node.module[len(PACKAGE) + 1:]
            else:
                continue
            out += [f"{importer}: {module or PACKAGE}.{alias.name}"
                    for alias in node.names if _private(alias.name)]
    return sorted(out)


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text()
            for path in sorted((ROOT / "src" / PACKAGE).glob("*.py"))}


def test_checker_flags_private_imports():
    sources = {
        "a": ("from .b import _hidden, shown\n"
              "from . import __version__\n"
              "from numpy import _private_numpy\n"
              "def f():\n    from rmtlab.c import _late\n"),
        "b": "from .a import (\n    public,\n    _wrapped,\n)\n",
    }
    # relative, absolute and function-level imports; dunders and other
    # packages are not flagged
    assert private_imports(sources) == ["a: b._hidden", "a: c._late", "b: a._wrapped"]


def test_no_module_imports_another_modules_private_names():
    assert [hit for hit in private_imports(package_sources()) if hit not in EXEMPT] == []


def test_exemptions_name_imports_that_exist():
    assert set(EXEMPT) <= set(private_imports(package_sources()))
