"""The README's library example runs and prints what its comments say, and
every command of its CLI block exits 0."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from degenpoly import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_its_comments():
    text = README.read_text()
    block = re.search(r"## Library example\n\n```python\n(.*?)```", text, re.S).group(1)
    expected = [
        line.split("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert expected and out.getvalue().splitlines() == expected


def test_cli_examples_exit_zero(capsys):
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", README.read_text(), re.S).group(1)
    commands = [
        shlex.split(line)[1:] for line in block.splitlines() if line.startswith("degenpoly ")
    ]
    assert commands
    for argv in commands:
        assert cli.run(argv) == 0, argv
        capsys.readouterr()
