"""The README's library example runs against the current API."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The python block under the README's '## Library' heading."""
    section = README.read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(capsys):
    exec(compile(library_example(), str(README), "exec"), {})
    assert math.isfinite(float(capsys.readouterr().out))
