"""The README's examples run: the library sketch executes, and every
``mhekit ...`` command line parses."""

import re
import shlex
from pathlib import Path

import pytest

from mhekit.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_library_sketch_runs():
    # the sketch and the custom-cost example run in turn, in one scope
    section = README.split("## Library sketch", 1)[1]
    scope = {}
    for code in re.findall(r"```python\n(.*?)```", section, re.S):
        exec(compile(code, "README.md", "exec"), scope)
    assert scope["estimate"].shape == (2,)
    assert scope["robust_info"].converged


COMMANDS = [
    line.strip()
    for block in re.findall(r"```bash\n(.*?)```", README, re.S)
    for line in block.splitlines()
    if line.strip().startswith("mhekit ")
]


def test_readme_shows_every_command():
    assert {shlex.split(line)[1] for line in COMMANDS} == {
        "simulate", "observe", "estimate", "analyze", "reproduce-figure",
    }


@pytest.mark.parametrize("line", COMMANDS)
def test_command_line_parses(line):
    build_parser().parse_args(shlex.split(line)[1:])
