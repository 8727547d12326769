"""The README's examples run: the library sketch executes, and every
``mhekit ...`` command line parses."""

import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from mhekit.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def sketch():
    # the sketch and the custom-cost example run in turn, in one scope
    section = README.split("## Library sketch", 1)[1]
    scope = {}
    for code in re.findall(r"```python\n(.*?)```", section, re.S):
        exec(compile(code, "README.md", "exec"), scope)
    return scope


def test_library_sketch_runs(sketch):
    assert sketch["estimate"].shape == (2,)
    assert sketch["robust_info"].converged


def test_custom_cost_bounds_hold_everywhere(sketch):
    # every bound the example states, for 1e-3 <= |argument| <= 1e3 in
    # several directions: the analysis takes them as global
    cost = sketch["huber"]
    sizes = np.logspace(-3, 3, 61)
    angles = np.linspace(0.0, 2.0 * np.pi, 7)
    units = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    om = (sizes[:, None, None] * units).reshape(-1, 2)
    nu = np.concatenate([-sizes, sizes])[:, None]
    slack = 1e-12
    parts = [
        (cost.stage(om, np.zeros((len(om), 1))), om, cost.c_w_lo, cost.c_w_hi),
        (cost.stage(np.zeros((len(nu), 2)), nu), nu, cost.c_v_lo, cost.c_v_hi),
        (cost.gamma(om, np.zeros_like(om)), om, cost.c_p_lo, None),
    ]
    for term, arg, lo, hi in parts:
        power = np.linalg.norm(arg, axis=-1) ** cost.a
        assert np.all(term >= lo * power * (1 - slack))
        if hi is not None:
            assert np.all(term <= hi * power * (1 + slack))


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
