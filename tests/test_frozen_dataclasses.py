"""Every dataclass in rmtlab is frozen: a value is built complete and never changes.

ChainState (the running state of a Metropolis chain) and RunManifest (the
list of files a run has written so far) are mutable by design.  The check
reads the source, so it sees every decorated class, imported or not.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "rmtlab"
MUTABLE = {"ChainState", "RunManifest"}


def dataclasses_in_source() -> dict[str, ast.expr]:
    """module.Class -> its @dataclass decorator, for every module of the package."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
                    out[f"{path.stem}.{node.name}"] = dec
    return out


DATACLASSES = dataclasses_in_source()


def test_exempt_classes_are_dataclasses():
    assert MUTABLE <= {name.split(".")[1] for name in DATACLASSES}


@pytest.mark.parametrize("name", sorted(n for n in DATACLASSES
                                        if n.split(".")[1] not in MUTABLE))
def test_dataclass_is_frozen(name):
    dec = DATACLASSES[name]
    assert isinstance(dec, ast.Call) and any(
        kw.arg == "frozen" and isinstance(kw.value, ast.Constant) and kw.value.value is True
        for kw in dec.keywords), f"{name} is a dataclass without frozen=True"
