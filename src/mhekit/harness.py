"""End-to-end experiment pipeline for the batch-reactor case study.

Simulates the truth once, runs the observer on its outputs, then solves
every window problem warm-started at the observer-based candidate for
each iteration budget (plus a fully converged baseline sharing the same
warm start). The windows depend only on the measurements and the observer
log, so all of them are built first and solved in one ``solve_windows``
call, one stop per series. Before any result is reported, every accepted
cost is audited against the warm-start cost and every smaller budget's.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .analysis import (
    CostBoundConstants,
    DetectabilityConstants,
    RmseResult,
    check_rges_envelope,
    envelope_constants,
    fit_observer_envelope,
    rmse,
    suboptimal_cost_bound,
)
from .dynamics import (
    DEFAULT_DT,
    NoiseSpec,
    SystemModel,
    TrajectoryLog,
    batch_reactor_model,
    draw_noise,
    simulate,
    write_csv,
)
from .mhe import CostSpec, advance_window, build_candidate, quadratic_cost, rollout
from .observer import ObserverLog, ObserverSpec, batch_reactor_observer, run_observer
from .solver import (
    SolverConfig,
    _is_integer,
    solve_windows,
    solve_with_checkpoints,  # noqa: F401 - perfbench/spans.py traces it under this module
)


class ConfigError(ValueError):
    """The experiment configuration is invalid or cannot be loaded."""


class AuditError(RuntimeError):
    """A result failed the cost-decrease or budget-ordering audit."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one reproducible run (JSON round-trips exactly)."""

    model: str = "batch_reactor"
    dt: float = DEFAULT_DT
    steps: int = 100
    horizon: int = 10
    budgets: tuple[int, ...] = (0, 2, 5)
    include_converged: bool = True
    x0: tuple[float, ...] = (5.0, 2.0)
    z0: tuple[float, ...] = (3.0, 0.0)
    observer_gain: tuple[float, ...] = (0.5, 0.5)
    process_cov: tuple[tuple[float, ...], ...] = ((0.01, 0.0), (0.0, 0.01))
    output_cov: tuple[tuple[float, ...], ...] = ((0.04,),)
    noise_scale: float = 1.0
    seed: int = 42
    solver: SolverConfig = field(default_factory=SolverConfig)
    detectability: DetectabilityConstants = field(
        default_factory=lambda: DetectabilityConstants(2.0, 2.0, 2.0, 0.95)
    )
    out_dir: str = "out"

    def __post_init__(self):
        if not _is_integer(self.horizon) or self.horizon < 1:
            raise ConfigError("horizon must be an integer of at least 1")
        if not _is_integer(self.steps) or self.steps < 0:
            raise ConfigError("steps must be a nonnegative integer")
        if not all(_is_integer(b) and b >= 0 for b in self.budgets):
            raise ConfigError("budgets must be nonnegative integers")
        if not _is_integer(self.seed) or self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        _numeric(self, "noise_scale", ())
        if not isinstance(self.out_dir, str):
            raise ConfigError("out_dir must be a string")
        if not isinstance(self.include_converged, bool):
            raise ConfigError("include_converged must be true or false")
        if not self.budgets and not self.include_converged:
            raise ConfigError("nothing to estimate: no budgets and no converged baseline")
        if self.include_converged and self.solver.max_iterations < max(self.budgets, default=0):
            raise ConfigError(
                "solver.max_iterations caps the converged baseline and must be at "
                "least the largest budget"
            )
        if not _numeric(self, "dt", ()) > 0:
            raise ConfigError("dt must be positive")
        model = build_model(self)
        n, p = model.n, model.p
        for name in ("x0", "z0", "observer_gain"):
            _numeric(self, name, (n,))
        for name, dim in (("process_cov", n), ("output_cov", p)):
            cov = _numeric(self, name, (dim, dim))
            if not np.array_equal(cov, cov.T) or np.linalg.eigvalsh(cov)[0] <= 0:
                raise ConfigError(f"{name} must be symmetric positive definite")
        # a zero gain bounds no correction; a tiny covariance has an overflowing inverse
        for what, build in (("observer", build_observer), ("cost", build_cost)):
            try:
                build(self)
            except ValueError as exc:
                raise ConfigError(f"bad {what}: {exc}") from exc
        # validated; as tuples a config built from lists equals its round trip
        for name in ("budgets", "x0", "z0", "observer_gain"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for name in ("process_cov", "output_cov"):
            object.__setattr__(self, name, tuple(map(tuple, getattr(self, name))))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        doc = dict(doc)
        unknown = set(doc) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, build, what in (
            ("solver", SolverConfig, "bad solver config"),
            ("detectability", DetectabilityConstants, "bad detectability constants"),
        ):
            if key in doc:
                try:
                    doc[key] = build(**doc[key])
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"{what}: {exc}") from exc
        try:
            return cls(**doc)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        return cls.from_dict(read_config_doc(path))


def read_config_doc(path) -> dict:
    """The JSON document of a config file, not yet validated."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return doc


def _numeric(cfg: ExperimentConfig, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """Config field ``name`` as a finite float array of the given shape."""
    try:
        value = np.asarray(getattr(cfg, name), dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be numeric") from exc
    if value.shape != shape:
        raise ConfigError(f"{name} must have shape {shape}, got {value.shape}")
    if not np.all(np.isfinite(value)):
        raise ConfigError(f"{name} must be finite")
    return value


def build_model(cfg: ExperimentConfig) -> SystemModel:
    if cfg.model != "batch_reactor":
        raise ConfigError(f"unknown model id: {cfg.model!r}")
    return batch_reactor_model(dt=cfg.dt)


def build_observer(cfg: ExperimentConfig) -> ObserverSpec:
    return batch_reactor_observer(gain=cfg.observer_gain, dt=cfg.dt)


def build_cost(cfg: ExperimentConfig) -> CostSpec:
    q = np.asarray(cfg.process_cov, dtype=np.float64)
    r = np.asarray(cfg.output_cov, dtype=np.float64)
    try:
        return quadratic_cost(np.linalg.inv(q), np.linalg.inv(r))
    except np.linalg.LinAlgError as exc:
        raise ConfigError("noise covariances must be invertible") from exc


def build_noise_spec(cfg: ExperimentConfig) -> NoiseSpec:
    return NoiseSpec(
        covariance_w=np.asarray(cfg.process_cov, dtype=np.float64),
        covariance_v=np.asarray(cfg.output_cov, dtype=np.float64),
        seed=cfg.seed,
    )


@dataclass(frozen=True, eq=False)
class RunResult:
    """Everything one seeded run produces, keyed per budget ("i0", "i2", ...,
    "converged"). Estimate trajectories include t = 0 (the initial guess)."""

    config: ExperimentConfig
    truth: TrajectoryLog
    observer: ObserverLog
    estimates: dict[str, np.ndarray]
    accepted_costs: dict[str, np.ndarray]
    candidate_costs: np.ndarray
    iterations: dict[str, np.ndarray]
    rmse_table: dict[str, RmseResult]


def budget_key(budget: int) -> str:
    return f"i{budget}"


def simulate_and_observe(cfg: ExperimentConfig) -> tuple[TrajectoryLog, ObserverLog]:
    """Draw the seeded noise, simulate the truth and run the observer on its
    outputs; returns both logs."""
    model = build_model(cfg)
    obs = build_observer(cfg)
    spec = build_noise_spec(cfg)

    w, v = draw_noise(spec, cfg.steps)
    if cfg.noise_scale != 1.0:
        w = w * cfg.noise_scale
        v = v * cfg.noise_scale
    truth = simulate(model, np.asarray(cfg.x0), w, v, cfg.steps)
    olog = run_observer(obs, np.asarray(cfg.z0), truth.outputs)
    return truth, olog


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Simulate, observe, then estimate for every budget; audit cost decrease
    and budget ordering at every step."""
    model = build_model(cfg)
    cost = build_cost(cfg)
    truth, olog = simulate_and_observe(cfg)

    # one stop per series, in config order; the converged baseline's is the cap
    keys = [budget_key(b) for b in cfg.budgets] + ["converged"] * cfg.include_converged
    stops = [*cfg.budgets] + [cfg.solver.max_iterations] * cfg.include_converged

    problems = [
        advance_window(model, cost, cfg.horizon, truth.outputs, olog, t)
        for t in range(1, cfg.steps + 1)
    ]
    candidates = [build_candidate(olog, p.start, p.horizon) for p in problems]
    solved = solve_windows(problems, candidates, stops)

    # audits over (window, stop), stops ascending; the first failing t is named
    order = np.argsort(stops, kind="stable")
    costs = solved.cost[:, order]
    rises, unordered = costs > solved.traces[0][:, None], costs[:, 1:] > costs[:, :-1]
    failed = np.flatnonzero(rises.any(axis=1) | unordered.any(axis=1))
    if failed.size:
        j = failed[0]
        if rises[j].any():
            i = np.argmax(rises[j])
            raise AuditError(
                f"cost-decrease audit failed at t={j + 1}, series {keys[order[i]]}: "
                f"{float(costs[j, i])} > {float(solved.traces[0][j])}"
            )
        i = np.argmax(unordered[j])
        raise AuditError(
            f"budget ordering audit failed at t={j + 1}: {keys[order[i + 1]]} vs {keys[order[i]]}"
        )

    # row t of each series is window t - 1's result; row 0 is t = 0
    candidate_costs = np.concatenate(([0.0], solved.traces[0]))
    estimates, accepted, iterations = {}, {}, {}
    for key, k in {key: k for k, key in enumerate(keys)}.items():
        ends = [rollout(p, solved.result(j, k)[0]).states[-1] for j, p in enumerate(problems)]
        estimates[key] = np.array([cfg.z0, *ends], dtype=np.float64)
        accepted[key] = np.concatenate(([0.0], solved.cost[:, k]))
        iterations[key] = np.concatenate(([0], solved.iterations[:, k]))

    rmse_table = {k: rmse(truth.states, estimates[k]) for k in keys}
    return RunResult(
        config=cfg,
        truth=truth,
        observer=olog,
        estimates=estimates,
        accepted_costs=accepted,
        candidate_costs=candidate_costs,
        iterations=iterations,
        rmse_table=rmse_table,
    )


def run_summary(result: RunResult) -> dict:
    """Deterministic summary document (no timing) for the figure bundle."""
    keys = list(result.estimates)
    doc = {
        "seed": result.config.seed,
        "steps": result.config.steps,
        "horizon": result.config.horizon,
        "series": keys,
        "rmse": {
            k: {
                "per_component": result.rmse_table[k].per_component.tolist(),
                "aggregate": result.rmse_table[k].aggregate,
            }
            for k in keys
        },
        "candidate_costs": result.candidate_costs.tolist(),
        "accepted_costs": {k: result.accepted_costs[k].tolist() for k in keys},
    }
    if "converged" in result.estimates and "i5" in result.estimates:
        gap = np.linalg.norm(
            result.estimates["i5"] - result.estimates["converged"], axis=1
        )
        doc["max_gap_i5_converged"] = float(np.max(gap))
    return doc


def reproduce_figure(cfg: ExperimentConfig, out_dir=None) -> dict:
    """Write one CSV per series (each budget, converged, truth) plus a
    summary JSON with the RMSE table and cost traces; returns the summary."""
    result = run_experiment(cfg)
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    series = dict(result.estimates)
    series["truth"] = result.truth.states
    paths = {}
    for key, est in series.items():
        path = out / f"series_{key}.csv"
        write_csv(path, {"x": result.truth.states, "xhat": est})
        paths[key] = str(path)

    summary = run_summary(result)
    summary_path = out / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True))
    paths["summary"] = str(summary_path)
    summary["paths"] = paths
    return summary


def analyze_run(result: RunResult) -> dict:
    """Fit the observer envelope on the run, then compare every series
    against the cost bound and the closed-form estimator envelope."""
    cfg = result.config
    truth = result.truth
    obs_err = np.linalg.norm(truth.states - result.observer.states, axis=1)
    fitted = fit_observer_envelope(
        [(obs_err, truth.disturbances, truth.noises)]
    )
    cbc = CostBoundConstants.from_parts(
        build_cost(cfg), build_model(cfg), build_observer(cfg)
    )
    initial_error = float(np.linalg.norm(np.asarray(cfg.x0) - np.asarray(cfg.z0)))
    bounds = suboptimal_cost_bound(
        cbc, fitted, cfg.horizon, np.arange(cfg.steps + 1), initial_error,
        truth.disturbances, truth.noises,
    )
    derived = envelope_constants(cfg.detectability, fitted, cbc, cfg.horizon)
    envelopes = {}
    for key, est in result.estimates.items():
        err = np.linalg.norm(truth.states - est, axis=1)
        report = check_rges_envelope(
            err, truth.disturbances, truth.noises, derived, initial_error
        )
        envelopes[key] = report
    cost_margins = {
        key: bounds - result.accepted_costs[key] for key in result.accepted_costs
    }
    return {
        "fitted_observer_constants": fitted,
        "estimator_constants": derived,
        "cost_bounds": bounds,
        "cost_margins": cost_margins,
        "envelope_reports": envelopes,
    }
