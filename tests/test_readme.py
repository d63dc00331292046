"""The README's Python examples and its command-line examples run as written."""

import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from qtherm.cli import cli

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, flags=re.MULTILINE | re.DOTALL)
# the qtherm lines of the first shell block under "## Command line"
COMMANDS = [line for line in re.search(r"^## Command line\n.*?^```bash\n(.*?)^```$", TEXT,
                                       flags=re.MULTILINE | re.DOTALL)[1].splitlines()
            if line.startswith("qtherm ")]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block_runs(source):
    # each block in a fresh namespace, under the suite's warning filters
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})


def test_readme_has_command_examples():
    assert len(COMMANDS) >= 10


@pytest.mark.parametrize("line", COMMANDS, ids=[f"command{i}" for i in range(len(COMMANDS))])
def test_command_line_example_succeeds(line, tmp_path, monkeypatch):
    # the input files the examples name, in the directory they run in
    monkeypatch.chdir(tmp_path)
    (tmp_path / "probs.csv").write_text("p\n0.2\n0.3\n0.5\n", encoding="utf-8")
    (tmp_path / "energies.csv").write_text("E\n0\n1\n2\n", encoding="utf-8")
    result = CliRunner().invoke(cli, shlex.split(line)[1:])
    assert result.exit_code == 0, result.output
