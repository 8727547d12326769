#!/usr/bin/env python3
"""mhekit benchmark: end-to-end metrics per workload, or a traced run.

    python3 perfbench/run.py --workload case_study --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --record          # re-record reference.json
    python3 perfbench/selftest.py              # tiny-size self-test

Run from the repository root; the package is imported from ``src/``.
The measured work runs in one process on the numpy path with BLAS pinned
to one thread. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment and sample counts. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run
over a fixed number of units, which ``--seconds`` does not change (spans
are written to ``perfbench/out/``). See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
BLOCK_WINDOWS = 100
WORKLOADS = ("case_study", "online_n60", "envelope")


def prepare() -> None:
    """Pin BLAS threads (before numpy loads) and put ``src/`` on the path."""
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "mhekit" / "__init__.py").is_file():
        raise SystemExit(f"error: no mhekit package under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))


def environment() -> dict:
    import numpy as np

    try:
        import numba  # noqa: F401

        have_numba = True
    except ImportError:
        have_numba = False
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "numba": have_numba,
        "path": "numba" if have_numba else "numpy",
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
    }


def percentile(step_s: list[float], q: float) -> float:
    """Median over blocks of BLOCK_WINDOWS consecutive windows of each
    block's q-th latency percentile. On shared CPUs the speed drifts in
    phases of seconds and the host stalls the process now and then; an
    estimate per block keeps one slow phase or a burst of stalls from
    setting the whole run's. The price is at the tail: a block's p99 is
    about its second-slowest window, so slow windows rarer than about 1 in
    60 leave the median block, and the p99 figure, unchanged."""
    import numpy as np

    blocks = np.array_split(np.asarray(step_s), max(1, len(step_s) // BLOCK_WINDOWS))
    return float(np.median([np.percentile(block, q) for block in blocks]))


class Run:
    """One benchmark run: walks the seed's unit order until time is up,
    timing every unit and passing its outputs through the gate."""

    def __init__(self, workload: str, seed: int, size_name: str, reference: dict):
        import workloads

        self.workload = workload
        self.size = workloads.SIZES[workload][size_name]
        self.runner = workloads.RUNNERS[workload]
        self.order = workloads.unit_order(workload, self.size, seed)
        self.reference = reference.get(workload, {})
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self.units = 0

    def unit_work(self) -> int:
        # online_n60 counts steps, the other workloads count trajectories
        return self.size.steps if self.workload == "online_n60" else self.size.batch

    def execute(self, unit: int):
        """The unit's result, or None when the program raised."""
        from mhekit.solver import InfeasibleCandidateError

        self.attempted += self.unit_work()
        try:
            return self.runner(self.size, unit)
        except (RuntimeError, InfeasibleCandidateError) as exc:
            self.failed += self.unit_work()
            print(f"unit {unit} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None

    def check(self, result) -> None:
        """Correctness gate for one unit; runs outside timing and tracing."""
        import gate

        if result is None:
            return
        self.units += 1
        found = list(result.problems)
        for check in result.checks:
            found += check()
        found += gate.compare(result.outputs, self.reference.get(result.key))
        self.mismatches += [f"{result.key}: {p}" for p in found]

    @property
    def correct(self) -> bool:
        return self.units > 0 and not self.mismatches


def walk(run: Run, count: int | None = None, deadline: float | None = None,
         tracer=None) -> tuple[int, float, list[float]]:
    """Execute units in the seed's order, ``count`` of them or until the
    deadline, and check each. With a tracer, each unit runs inside
    ``tracer.patched()``; the gate's checks stay outside it. Returns the
    trajectories completed, their unit time and the full windows' latencies."""
    runs = 0
    run_s = 0.0
    step_s: list[float] = []
    index = 0
    while True:
        unit = run.order[index % len(run.order)]
        if tracer is None:
            result = run.execute(unit)
        else:
            tracer.run = index
            with tracer.patched():
                result = run.execute(unit)
        run.check(result)
        index += 1
        if result is not None:
            runs += result.runs
            run_s += result.seconds
            step_s += result.step_s
        if index == count or (deadline is not None and time.perf_counter() >= deadline):
            return runs, run_s, step_s


def measure(workload, seed, seconds, size_name, reference) -> tuple[Run, dict, dict]:
    """Untraced pass: end-to-end metrics."""
    run = Run(workload, seed, size_name, reference)
    runs, run_s, step_s = walk(run, deadline=time.perf_counter() + seconds)
    metrics = {
        "setup_s": {"value": setup_seconds(workload), "unit": "s"},
        "runs_per_s": {"value": runs / run_s if runs else 0.0, "unit": "1/s"},
        "step_ms_p50": {"value": 1e3 * percentile(step_s, 50) if step_s else 0.0, "unit": "ms"},
        "step_ms_p99": {"value": 1e3 * percentile(step_s, 99) if step_s else 0.0, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }
    counts = {"trajectories": runs, "full_windows": len(step_s)}
    return run, metrics, counts


def measure_traced(workload, seed, size_name, reference):
    """Traced run over a fixed amount of work: the first ``size.traced``
    units of the seed's order, however long they take, so that per-layer
    totals do not depend on the program's speed. An untraced pass over the
    same units comes first; the tracing overhead is the traced pass's drop
    in runs_per_s against it."""
    import spans

    run = Run(workload, seed, size_name, reference)
    count = run.size.traced
    plain_runs, plain_s, _ = walk(run, count=count)
    tracer = spans.Tracer()
    traced_runs, traced_s, _ = walk(run, count=count, tracer=tracer)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{workload}.spans.jsonl")
    plain_rate = plain_runs / plain_s if plain_s > 0 else 0.0
    traced_rate = traced_runs / traced_s if traced_s > 0 else 0.0
    overhead = 100.0 * (plain_rate / traced_rate - 1.0) if traced_rate > 0 else 0.0
    summary = spans.summarize(tracer.spans)
    counts = {
        "traced_units": count,
        "traced_runs": traced_runs,
        "runs_per_s": {"untraced": plain_rate, "traced": traced_rate},
        "spans": len(tracer.spans),
        "self_s": {name: round(v["self_s"], 6) for name, v in sorted(summary.items())},
    }
    return run, layer_metrics(tracer, summary, overhead), counts, tracer


def layer_metrics(tracer, summary: dict, overhead_pct: float) -> dict:
    def get(name: str, field: str):
        return summary.get(name, {}).get(field, 0)

    windows = get("mhe.advance_window", "calls")
    iterations = tracer.solver_iterations
    solves = get("solver.solve", "calls")
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name in ("dynamics.draw_noise", "dynamics.simulate", "observer.run_observer",
                 "mhe.advance_window", "mhe.build_candidate"):
        put(f"{name}.s", get(name, "s"), "s")
    for name in ("mhe.check_feasible", "mhe.eval_cost", "mhe.rollout"):
        put(f"{name}.s", get(name, "s"), "s")
        put(f"{name}.calls", get(name, "calls"), "count")
    put("mhe.rollouts_per_window", get("mhe.rollout", "calls") / windows if windows else 0.0, "calls/window")
    put("solver.solve.s", get("solver.solve", "s"), "s")
    put("solver.solve.self_s", get("solver.solve", "self_s"), "s")
    put("solver.solve.calls", solves, "count")
    put("solver.iterations", iterations, "count")
    put("solver.iterations_per_window", iterations / windows if windows else 0.0, "iter/window")
    self_s = get("solver.solve", "self_s")
    put("solver.self_ms_per_iteration", 1e3 * self_s / iterations if iterations else 0.0, "ms")
    put("solver.converged_frac", tracer.solver_converged / solves if solves else 0.0, "ratio")
    put("analysis.fit_observer_envelope.s", get("analysis.fit_observer_envelope", "s"), "s")
    put("analysis.suboptimal_cost_bound.s", get("analysis.suboptimal_cost_bound", "s"), "s")
    put("analysis.suboptimal_cost_bound.calls", get("analysis.suboptimal_cost_bound", "calls"), "count")
    for name in ("analysis.check_rges_envelope", "analysis.envelope_constants", "analysis.rmse"):
        put(f"{name}.s", get(name, "s"), "s")
    put("harness.run_experiment.self_s", get("harness.run_experiment", "self_s"), "s")
    put("harness.analyze_run.self_s", get("harness.analyze_run", "self_s"), "s")
    put("windows", windows, "count")
    put("trace.overhead_pct", overhead_pct, "%")
    return metrics


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_seconds(workload: str) -> float:
    """Median wall time of fresh interpreters that import mhekit, build the
    model, observer and cost, and make a short warm-up run."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # no timeout: with one, Popen.wait polls and rounds to ~50 ms
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def setup_probe(workload: str) -> None:
    import workloads

    from mhekit import harness

    cfg = workloads.config(workload, workloads.SIZES[workload]["full"], 0)
    harness.build_model(cfg)
    harness.build_observer(cfg)
    harness.build_cost(cfg)
    workloads.warm_up(workload)


def record(path) -> None:
    """Run every unit of every pool and store its outputs as the reference."""
    import workloads

    doc = {}
    for workload in WORKLOADS:
        size = workloads.SIZES[workload]["full"]
        doc[workload] = {}
        for unit in range(size.pool):
            result = workloads.RUNNERS[workload](size, unit)
            problems = result.problems + [p for check in result.checks for p in check()]
            if problems:
                raise SystemExit(f"{workload} unit {unit}: {problems}")
            doc[workload][result.key] = result.outputs
            print(f"{workload} {result.key}", file=sys.stderr)
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def benchmark(workload, seed, seconds, trace, size_name="full", reference=None):
    """Result document plus an info document for one run."""
    import gate
    import workloads

    if reference is None:
        reference = gate.load_reference()
    workloads.warm_up(workload)
    if trace:
        run, metrics, counts, _ = measure_traced(workload, seed, size_name, reference)
    else:
        run, metrics, counts = measure(workload, seed, seconds, size_name, reference)
    info = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        **counts, "gate": run.mismatches[:10], "env": environment(),
    }
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    return result, info


def run_all(seed: int, seconds: float, trace: int) -> None:
    """One child process per workload, so that each line's peak_rss_mb is
    that workload's own; prints each child's info line and its result
    line tagged with the workload."""
    for workload in WORKLOADS:
        lines = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True,
        ).stdout.splitlines()
        print(lines[-2])
        print(json.dumps({"workload": workload, **json.loads(lines[-1])}), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        help="'all' runs every workload and prints one result line each")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="re-record reference.json")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    prepare()
    if args.record:
        import gate

        record(gate.REFERENCE_FILE)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    if args.workload == "all":
        run_all(args.seed, args.seconds, args.trace)
        return 0
    result, info = benchmark(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
