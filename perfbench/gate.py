"""Correctness gate: compare a unit's outputs with the recorded reference.

``reference.json`` holds, for every unit in each workload's pool, the
per-series RMSE values (and, for ``envelope``, the fitted and derived
envelope figures) that the program produced when the benchmark was
defined. Re-record it with ``python3 perfbench/run.py --record`` only when
a change is meant to alter the estimates.

RTOL separates the two kinds of change a later commit can make. Perturbing
every Gauss-Newton step by 1e-13 to 1e-12 relative, as a reordered sum
would, moved the case-study RMSE values by at most 7e-11 relative (seeds
0-3). Replacing a single window's budget-2 estimate by its budget-5
estimate moved them by 3e-9 to 2e-7.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("reference.json")
RTOL = 1e-9
ATOL = 1e-12


def load_reference(path=REFERENCE_FILE) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def compare(outputs: dict[str, float], expected: dict[str, float] | None) -> list[str]:
    """Names of outputs that are missing or differ beyond RTOL."""
    if expected is None:
        return ["no recorded reference for this unit"]
    problems = []
    for name in sorted(set(outputs) | set(expected)):
        if name not in outputs or name not in expected:
            problems.append(f"{name}: present on one side only")
        elif not math.isclose(outputs[name], expected[name], rel_tol=RTOL, abs_tol=ATOL):
            problems.append(f"{name}: {outputs[name]!r} != reference {expected[name]!r}")
    return problems
