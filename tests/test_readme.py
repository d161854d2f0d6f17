"""The README's examples run as written: every `genfermat` line of its
command-line block prints canonical JSON and exits 0, and its Python
example prints what its comment says."""

import json
import re
import shlex
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from genfermat.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced_block(heading, language):
    """The first ```language block after the line `heading`."""
    section = README[README.index(f"\n{heading}\n"):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


# reproduce-paper runs every check, which tests/test_acceptance.py covers
COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for line in fenced_block("## Command line", "sh").splitlines()
    if line.startswith("genfermat ") and not line.startswith("genfermat reproduce-paper")
]


def test_readme_lists_commands():
    assert {argv[0] for argv in COMMANDS} == {
        "enumerate", "classify", "fixed-points", "cohomology", "hyperbolicity",
        "arrangement", "fiber", "invariants"}


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[0] for argv in COMMANDS])
def test_readme_command_prints_canonical_json(argv):
    out = StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    lines = out.getvalue().splitlines()
    if argv[0] != "fiber":
        assert len(lines) == 1
    assert lines
    for line in lines:
        assert line == json.dumps(json.loads(line), sort_keys=True)


def test_readme_python_example():
    out = StringIO()
    with redirect_stdout(out):
        exec(fenced_block("Example:", "python"), {})
    assert out.getvalue() == "1 30\n"
