"""The README's library example and command-line block run against the
current API."""

import math
import re
import shlex
from pathlib import Path

from rmtlab import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The python block under the README's '## Library' heading."""
    section = README.read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(capsys):
    exec(compile(library_example(), str(README), "exec"), {})
    assert math.isfinite(float(capsys.readouterr().out))


def command_line_block() -> str:
    """The sh block under the README's '## Command line' heading."""
    section = README.read_text().split("\n## Command line\n", 1)[1]
    return re.search(r"```sh\n(.*?)```", section, re.S).group(1)


def test_command_line_block_runs(tmp_path, monkeypatch):
    block = command_line_block()
    for name, text in re.findall(r"cat > (\S+) <<'EOF'\n(.*?)\nEOF\n", block, re.S):
        (tmp_path / name).write_text(text + "\n")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("RMTLAB_OUTDIR", raising=False)
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("rmtlab ")]
    assert {argv[0] for argv in commands} == {
        "validate", "equilibrium", "classify", "kernel", "converge", "sample"}
    for argv in commands:
        assert cli.main(argv) == 0, argv
