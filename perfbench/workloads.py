"""The benchmark's workloads, each a sequence of seeded units of work.

A unit is the smallest piece a run times as a whole: one trajectory for
``case_study`` and ``online_n60``, one batch of trajectories for
``envelope``. Each runner returns a ``UnitResult``: the unit's wall time
(checks excluded), the latencies of its full-length windows, the scalar
outputs the correctness gate compares with the recorded reference, and the
contract violations it saw or will check.

Every call into mhekit goes through a module attribute (``harness.X``,
``mhe.X``, ...) so that the tracer in ``spans.py`` can wrap it.
"""

from __future__ import annotations

import contextlib
import functools
import random
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from mhekit import analysis, dynamics, harness, mhe, observer, solver
from mhekit.harness import ExperimentConfig


@dataclass(frozen=True)
class Size:
    steps: int  # trajectory length T
    horizon: int  # window cap N
    pool: int  # units whose reference outputs are recorded
    batch: int = 1  # trajectories per unit
    prefix_every: int = 0  # budget-prefix check on every k-th online window
    traced: int = 1  # units a traced run times, untraced and then traced


SIZES = {
    "case_study": {"full": Size(100, 10, 64, traced=8), "tiny": Size(12, 4, 2)},
    "online_n60": {
        "full": Size(200, 60, 16, prefix_every=20, traced=2),
        "tiny": Size(16, 6, 2, prefix_every=4),
    },
    "envelope": {"full": Size(100, 10, 12, batch=10, traced=3), "tiny": Size(12, 4, 2, batch=2)},
}

ONLINE_BUDGET = 2
PREFIX_BUDGET = 5


@dataclass
class UnitResult:
    key: str
    runs: int  # trajectories the unit processed
    seconds: float
    # latency of each window with the full horizon N, in time order; the
    # growing windows t < N are shorter problems and are left out
    step_s: list[float]
    outputs: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    # further checks that call into mhekit; the caller runs them untimed
    # and untraced
    checks: list[Callable[[], list[str]]] = field(default_factory=list)


def unit_order(workload: str, size: Size, seed: int) -> list[int]:
    """The seed's permutation of the unit pool; runs walk it cyclically."""
    order = list(range(size.pool))
    random.Random(f"{workload}:{seed}").shuffle(order)
    return order


def unit_key(workload: str, unit: int) -> str:
    return f"batch-{unit}" if workload == "envelope" else f"seed-{unit}"


def trajectory_seeds(size: Size, unit: int) -> list[int]:
    return [unit * size.batch + i for i in range(size.batch)]


def config(workload: str, size: Size, seed: int) -> ExperimentConfig:
    if workload == "case_study":
        return ExperimentConfig(seed=seed, steps=size.steps, horizon=size.horizon)
    if workload == "online_n60":
        return ExperimentConfig(
            seed=seed, steps=size.steps, horizon=size.horizon,
            budgets=(ONLINE_BUDGET,), include_converged=False,
        )
    return ExperimentConfig(
        seed=seed, steps=size.steps, horizon=size.horizon,
        budgets=(0,), include_converged=False,
    )


@contextlib.contextmanager
def step_marks(marks: list[float]):
    """Timestamp the start of each window in ``harness.run_experiment``.

    Every estimation step begins with ``advance_window``; one clock read per
    step is the only instrumentation of untraced runs.
    """
    original = harness.advance_window

    def marked(*args, **kwargs):
        marks.append(time.perf_counter())
        return original(*args, **kwargs)

    harness.advance_window = marked
    try:
        yield
    finally:
        harness.advance_window = original


def _timed_experiment(cfg: ExperimentConfig):
    marks: list[float] = []
    with step_marks(marks):
        t0 = time.perf_counter()
        result = harness.run_experiment(cfg)
        t1 = time.perf_counter()
    step_s = [b - a for a, b in zip(marks, marks[1:] + [t1])]
    return result, t1 - t0, step_s[cfg.horizon - 1:]


def series_rmse(truth_states, estimates: dict) -> dict[str, float]:
    return {
        f"rmse_{key}": analysis.rmse(truth_states, est).aggregate
        for key, est in estimates.items()
    }


def case_study_unit(size: Size, unit: int) -> UnitResult:
    cfg = config("case_study", size, unit)
    result, seconds, step_s = _timed_experiment(cfg)
    return UnitResult(
        unit_key("case_study", unit), 1, seconds, step_s,
        outputs=series_rmse(result.truth.states, result.estimates),
    )


def online_unit(size: Size, unit: int) -> UnitResult:
    """One user estimating step by step; each step waits for the last."""
    cfg = config("online_n60", size, unit)
    model = harness.build_model(cfg)
    obs = harness.build_observer(cfg)
    cost = harness.build_cost(cfg)
    spec = harness.build_noise_spec(cfg)
    budget = replace(cfg.solver, max_iterations=ONLINE_BUDGET)
    longer = replace(cfg.solver, max_iterations=PREFIX_BUDGET)
    problems: list[str] = []
    checks = []

    t0 = time.perf_counter()
    w, v = dynamics.draw_noise(spec, cfg.steps)
    truth = dynamics.simulate(model, np.asarray(cfg.x0), w, v, cfg.steps)
    olog = observer.run_observer(obs, np.asarray(cfg.z0), truth.outputs)
    seconds = time.perf_counter() - t0

    estimates = np.empty((cfg.steps + 1, model.n))
    estimates[0] = cfg.z0
    step_s = []
    for t in range(1, cfg.steps + 1):
        s0 = time.perf_counter()
        problem = mhe.advance_window(model, cost, cfg.horizon, truth.outputs, olog, t)
        candidate = mhe.build_candidate(olog, problem.start, problem.horizon)
        d, report = solver.solve_suboptimal(problem, candidate, budget)
        estimates[t] = mhe.rollout(problem, d).states[-1]
        step_s.append(time.perf_counter() - s0)

        if report.feasibility_residual != 0.0:
            problems.append(f"t={t}: feasibility residual {report.feasibility_residual}")
        if report.cost_trace[-1] > report.cost_trace[0]:
            problems.append(f"t={t}: accepted cost above the warm start")
        if size.prefix_every and t % size.prefix_every == 0:
            checks.append(functools.partial(
                budget_prefix_problems, problem, candidate, report, longer, t))
    seconds += sum(step_s)
    return UnitResult(
        unit_key("online_n60", unit), 1, seconds, step_s[cfg.horizon - 1:],
        outputs=series_rmse(truth.states, {f"i{ONLINE_BUDGET}": estimates}),
        problems=problems,
        checks=checks,
    )


def budget_prefix_problems(problem, candidate, report, longer_cfg, t) -> list[str]:
    """A longer budget must repeat the shorter one's cost trace exactly."""
    _, long_report = solver.solve_suboptimal(problem, candidate, longer_cfg)
    short = report.cost_trace
    long = long_report.cost_trace
    stopped_early = report.iterations_used < ONLINE_BUDGET
    if not np.array_equal(long[: short.shape[0]], short) or (
        stopped_early and long.shape[0] != short.shape[0]
    ):
        return [f"t={t}: budget {longer_cfg.max_iterations} does not extend "
                f"the budget {ONLINE_BUDGET} cost trace"]
    return []


def envelope_unit(size: Size, unit: int) -> UnitResult:
    """Observer-only runs, one envelope fit over the batch, then analyze_run
    on each trajectory."""
    seeds = trajectory_seeds(size, unit)
    step_s: list[float] = []
    results = []
    seconds = 0.0
    for s in seeds:
        result, run_s, steps = _timed_experiment(config("envelope", size, s))
        results.append(result)
        seconds += run_s
        step_s += steps

    t0 = time.perf_counter()
    fitted = analysis.fit_observer_envelope([
        (np.linalg.norm(r.truth.states - r.observer.states, axis=1),
         r.truth.disturbances, r.truth.noises)
        for r in results
    ])
    reports = [harness.analyze_run(r) for r in results]
    seconds += time.perf_counter() - t0

    outputs = {"fit_gain": fitted.c_p, "fit_rho": fitted.rho}
    for s, result, report in zip(seeds, results, reports):
        outputs.update(analysis_outputs(s, result, report))
    return UnitResult(unit_key("envelope", unit), len(seeds), seconds, step_s, outputs)


def analysis_outputs(seed: int, result, report) -> dict[str, float]:
    out = {
        f"s{seed}.{name}": value
        for name, value in series_rmse(result.truth.states, result.estimates).items()
    }
    out[f"s{seed}.fit_gain"] = report["fitted_observer_constants"].c_p
    out[f"s{seed}.bound_gain"] = report["estimator_constants"].c_p
    out[f"s{seed}.env_min_margin"] = report["envelope_reports"]["i0"].min_margin
    out[f"s{seed}.cost_bound_sum"] = float(np.sum(report["cost_bounds"]))
    return out


RUNNERS = {
    "case_study": case_study_unit,
    "online_n60": online_unit,
    "envelope": envelope_unit,
}


def warm_up(workload: str) -> None:
    """A short pass through the workload's code path: fills the model and
    observer caches and touches every function the workload times."""
    RUNNERS[workload](SIZES[workload]["tiny"], 0)
