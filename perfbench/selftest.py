#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size (a few seconds in all).

    python3 perfbench/selftest.py

For every workload it checks that
  1. an untraced and a traced run print every metric BENCHMARK.json names,
     each with its unit, and pass the correctness gate;
  2. the gate rejects estimates the program perturbed by 1e-6;
  3. in the trace, child spans lie inside their parents without
     overlapping, so self time plus child time adds up to each span.
Exits 1 when a check fails.
"""

from __future__ import annotations

import contextlib
import json
import sys

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
PERTURBATION = 1e-6


def tiny_reference() -> dict:
    import workloads

    doc = {}
    for workload in run.WORKLOADS:
        size = workloads.SIZES[workload]["tiny"]
        results = [workloads.RUNNERS[workload](size, u) for u in range(size.pool)]
        doc[workload] = {r.key: r.outputs for r in results}
    return doc


@contextlib.contextmanager
def perturbed_estimates():
    """Shift the final state of every window rollout, i.e. every estimate."""
    from mhekit import harness, mhe

    def shifted(fn):
        def wrapper(*args, **kwargs):
            ro = fn(*args, **kwargs)
            ro.states[-1] += PERTURBATION
            return ro

        return wrapper

    saved = [(harness, harness.rollout), (mhe, mhe.rollout)]
    try:
        for module, fn in saved:
            module.rollout = shifted(fn)
        yield
    finally:
        for module, fn in saved:
            module.rollout = fn


def check_metrics(result: dict, declared: list[dict]) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"]:
        problems.append("gate failed on unperturbed estimates")
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in declared}:
        problems.append(f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in declared})}")
    for m in declared:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{m['name']}: printed as {got}")
    json.dumps(result, allow_nan=False)
    return problems


def main() -> int:
    run.prepare()
    import gate
    import spans
    import workloads

    reference = tiny_reference()
    failures = 0

    def report(name: str, problems: list[str]) -> None:
        nonlocal failures
        failures += bool(problems)
        print(f"{'FAIL' if problems else 'PASS'} {name}" + "".join(f"\n    {p}" for p in problems[:5]))

    for workload in run.WORKLOADS:
        size = workloads.SIZES[workload]["tiny"]
        for trace, declared in ((0, BENCHMARK["end_to_end"]), (1, BENCHMARK["per_layer"])):
            result, _ = run.benchmark(workload, 1, 0.2, trace, "tiny", reference)
            report(f"{workload} trace={trace}: metrics printed by name with units",
                   check_metrics(result, declared))

        with perturbed_estimates():
            result = workloads.RUNNERS[workload](size, 0)
        rejected = gate.compare(result.outputs, reference[workload][result.key])
        report(f"{workload}: gate rejects a perturbed estimate",
               [] if rejected else ["perturbed outputs matched the reference"])

        _, _, _, tracer = run.measure_traced(workload, 1, "tiny", reference)
        problems = spans.check_nesting(tracer.spans)
        if not tracer.spans:
            problems.append("no spans recorded")
        report(f"{workload}: self time plus child spans add up to each span", problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
