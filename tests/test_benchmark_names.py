"""Every rmtlab name the benchmark and the scripts reach for still exists.

benchmark/spans.py resolves its LAYERS table with getattr when a traced
run starts, so a renamed or removed function would only show up as a
failed `--trace 1` run; these tests read the files' source instead.
"""

import ast
from importlib import import_module
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CONSUMERS = sorted(path for folder in ("benchmark", "scripts")
                   for path in (ROOT / folder).glob("*.py"))


def span_layers() -> list[tuple[str, str]]:
    """(module, function) of every row of LAYERS in benchmark/spans.py."""
    tree = ast.parse((ROOT / "benchmark" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return [(row.elts[0].value, row.elts[1].value) for row in node.value.elts]
    raise AssertionError("benchmark/spans.py defines no LAYERS table")


def rmtlab_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) of every `from rmtlab... import name` in a file."""
    tree = ast.parse(path.read_text())
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "rmtlab"
            for alias in node.names]


def test_layers_table_found():
    assert ("kernel", "scaled_kernel_grid") in span_layers()


@pytest.mark.parametrize("module,name", span_layers(), ids=lambda v: v)
def test_span_layer_resolves(module, name):
    assert callable(getattr(import_module(f"rmtlab.{module}"), name))


@pytest.mark.parametrize("path", CONSUMERS, ids=lambda p: str(p.relative_to(ROOT)))
def test_imported_rmtlab_names_resolve(path):
    for module, name in rmtlab_imports(path):
        mod = import_module(module)
        if not hasattr(mod, name):   # `from rmtlab import cli` names a submodule
            import_module(f"{module}.{name}")
        getattr(mod, name)
