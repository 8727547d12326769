import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mhekit as mk
from mhekit import harness
from mhekit.harness import ConfigError, ExperimentConfig, analyze_run, budget_key, run_summary


class TestExperimentConfig:
    def test_round_trip_identity(self):
        cfg = ExperimentConfig(seed=5, steps=30, budgets=(0, 1, 4))
        doc = cfg.to_dict()
        again = ExperimentConfig.from_dict(doc)
        assert again == cfg
        assert again.to_dict() == doc

    def test_json_file_round_trip(self, tmp_path):
        cfg = ExperimentConfig(seed=77)
        path = tmp_path / "cfg.json"
        path.write_text(cfg.to_json())
        assert ExperimentConfig.from_json_file(path) == cfg

    def test_missing_file_names_path(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(ConfigError, match="nope.json"):
            ExperimentConfig.from_json_file(missing)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict({"modle": "batch_reactor"})

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError, match="unknown model id"):
            mk.harness.build_model(ExperimentConfig(model="cstr"))

    def test_committed_config_is_the_default(self):
        path = Path(__file__).parents[1] / "configs" / "batch_reactor.json"
        cfg = ExperimentConfig.from_json_file(path)
        assert cfg == ExperimentConfig()
        assert path.read_text(encoding="utf-8") == cfg.to_json() + "\n"

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(horizon=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(budgets=(-1,))


class TestRunExperiment:
    def test_budget_zero_follows_observer_exactly(self, short_run):
        assert np.array_equal(short_run.estimates["i0"], short_run.observer.states)

    def test_perfect_init_no_noise_is_exact_for_all_budgets(self):
        cfg = ExperimentConfig(seed=1, steps=25, noise_scale=0.0, z0=(5.0, 2.0))
        result = mk.run_experiment(cfg)
        for key, est in result.estimates.items():
            assert np.max(np.abs(est - result.truth.states)) <= 1e-12, key

    def test_max_iterations_caps_converged_baseline(self):
        cfg = ExperimentConfig(
            steps=15, budgets=(0,), solver=mk.SolverConfig(max_iterations=1)
        )
        assert mk.run_experiment(cfg).iterations["converged"].max() <= 1

    def test_same_seed_reproduces_bitwise(self):
        cfg = ExperimentConfig(seed=23, steps=20)
        r1 = mk.run_experiment(cfg)
        r2 = mk.run_experiment(cfg)
        assert np.array_equal(r1.truth.states, r2.truth.states)
        for key in r1.estimates:
            assert np.array_equal(r1.estimates[key], r2.estimates[key])
            assert np.array_equal(r1.accepted_costs[key], r2.accepted_costs[key])

    def test_cost_decrease_audit_holds(self, short_run):
        for key, costs in short_run.accepted_costs.items():
            assert np.all(costs <= short_run.candidate_costs), key

    def test_budget_ordering_per_step(self, short_run):
        assert np.all(
            short_run.accepted_costs["i5"] <= short_run.accepted_costs["i2"]
        )
        assert np.all(
            short_run.accepted_costs["i2"] <= short_run.accepted_costs["i0"]
        )
        assert np.all(
            short_run.accepted_costs["converged"] <= short_run.accepted_costs["i5"]
        )

    def test_estimates_start_at_initial_guess(self, short_run):
        for est in short_run.estimates.values():
            assert np.array_equal(est[0], [3.0, 0.0])

    def test_rmse_table_matches_recomputation(self, short_run):
        direct = mk.rmse(short_run.truth.states, short_run.estimates["i2"])
        assert short_run.rmse_table["i2"].aggregate == direct.aggregate


def per_window_oracle(cfg):
    """Estimates, accepted costs, iteration counts and warm-start costs of a
    run computed one window at a time in time order, each window by its own
    ``solve_with_checkpoints`` call."""
    model, cost = harness.build_model(cfg), harness.build_cost(cfg)
    truth, olog = harness.simulate_and_observe(cfg)
    keys = [budget_key(b) for b in cfg.budgets]
    if cfg.include_converged:
        keys.append("converged")
    estimates = {k: np.empty((cfg.steps + 1, model.n)) for k in keys}
    accepted = {k: np.zeros(cfg.steps + 1) for k in keys}
    iterations = {k: np.zeros(cfg.steps + 1, dtype=np.int64) for k in keys}
    candidate_costs = np.zeros(cfg.steps + 1)
    for k in keys:
        estimates[k][0] = cfg.z0
    for t in range(1, cfg.steps + 1):
        problem = mk.advance_window(model, cost, cfg.horizon, truth.outputs, olog, t)
        candidate = mk.build_candidate(olog, problem.start, problem.horizon)
        per_budget, final = mk.solve_with_checkpoints(
            problem, candidate, cfg.solver, cfg.budgets, converged=cfg.include_converged
        )
        solved = {budget_key(b): res for b, res in per_budget.items()}
        if final is not None:
            solved["converged"] = final
        for key, (d, report) in solved.items():
            estimates[key][t] = mk.rollout(problem, d).states[-1]
            accepted[key][t] = report.cost_trace[-1]
            iterations[key][t] = report.iterations_used
            candidate_costs[t] = report.cost_trace[0]
    return estimates, accepted, iterations, candidate_costs


class TestStackedRun:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"seed": 42},
            {"steps": 6, "horizon": 10},
            {"steps": 30, "horizon": 1},
            {"steps": 0},
            {"steps": 30, "budgets": ()},
            {"steps": 15, "budgets": (5, 0)},
            {"steps": 15, "budgets": (2, 2)},
            # the cap sizes nothing: storage grows with the steps taken
            {"steps": 30, "solver": mk.SolverConfig(max_iterations=10**9)},
        ],
        ids=[
            "seed-42", "steps-below-horizon", "horizon-1", "no-steps", "converged-only",
            "unsorted-budgets", "duplicate-budgets", "huge-cap",
        ],
    )
    def test_matches_per_window_oracle(self, overrides):
        cfg = ExperimentConfig(**overrides)
        result = mk.run_experiment(cfg)
        estimates, accepted, iterations, candidate_costs = per_window_oracle(cfg)
        assert list(result.estimates) == list(estimates)
        for key in estimates:
            np.testing.assert_array_equal(result.estimates[key], estimates[key])
            np.testing.assert_array_equal(result.accepted_costs[key], accepted[key])
            np.testing.assert_array_equal(result.iterations[key], iterations[key])
        np.testing.assert_array_equal(result.candidate_costs, candidate_costs)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    horizon=st.integers(1, 30),
    steps=st.integers(0, 40),
    budgets=st.lists(st.integers(0, 8), max_size=4).map(tuple),
    include_converged=st.booleans(),
    noise_scale=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    dt=st.sampled_from([0.01, 0.05, 0.1, 0.3]),
    gain=st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0)),
    z0=st.tuples(st.floats(-1.0, 8.0), st.floats(-1.0, 8.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_config_is_rejected_or_keeps_the_contract(
    horizon, steps, budgets, include_converged, noise_scale, dt, gain, z0, seed
):
    """A config either raises ``ConfigError`` or ``NumericsError``, or runs
    with budget 0 on the observer, the audits holding and a rerun identical;
    never another exception or a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            cfg = ExperimentConfig(
                horizon=horizon, steps=steps, budgets=budgets,
                include_converged=include_converged, noise_scale=noise_scale, dt=dt,
                observer_gain=gain, z0=z0, seed=seed,
            )
            result = mk.run_experiment(cfg)
        except (ConfigError, mk.NumericsError):
            return
        again = mk.run_experiment(cfg)
    if 0 in budgets:
        assert np.array_equal(result.estimates["i0"], result.observer.states)
    ordered = [budget_key(b) for b in sorted(budgets)] + ["converged"] * include_converged
    for key in ordered:
        assert np.all(result.accepted_costs[key] <= result.candidate_costs), key
    for hi, lo in zip(ordered[1:], ordered[:-1]):
        assert np.all(result.accepted_costs[hi] <= result.accepted_costs[lo]), (hi, lo)
    assert np.array_equal(again.candidate_costs, result.candidate_costs)
    for key in result.estimates:
        assert np.array_equal(again.estimates[key], result.estimates[key])
        assert np.array_equal(again.accepted_costs[key], result.accepted_costs[key])
        assert np.array_equal(again.iterations[key], result.iterations[key])


class TestReproduceFigure:
    def test_bundle_contents_and_determinism(self, tmp_path):
        cfg = ExperimentConfig(seed=9, steps=20)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        mk.reproduce_figure(cfg, out1)
        mk.reproduce_figure(cfg, out2)
        names = sorted(os.listdir(out1))
        assert names == [
            "series_converged.csv",
            "series_i0.csv",
            "series_i2.csv",
            "series_i5.csv",
            "series_truth.csv",
            "summary.json",
        ]
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_summary_reports_costs_and_gap(self, tmp_path):
        cfg = ExperimentConfig(seed=9, steps=20)
        summary = mk.reproduce_figure(cfg, tmp_path / "fig")
        doc = json.loads((tmp_path / "fig" / "summary.json").read_text())
        assert set(doc["series"]) == {"i0", "i2", "i5", "converged"}
        assert "max_gap_i5_converged" in doc
        for key in doc["series"]:
            accepted = np.asarray(doc["accepted_costs"][key])
            candidate = np.asarray(doc["candidate_costs"])
            assert np.all(accepted <= candidate + 1e-12)
        assert summary["paths"]["summary"].endswith("summary.json")

    def test_series_csv_layout(self, tmp_path):
        cfg = ExperimentConfig(seed=9, steps=10)
        mk.reproduce_figure(cfg, tmp_path / "fig")
        lines = (tmp_path / "fig" / "series_i0.csv").read_text().splitlines()
        assert lines[0] == "t,x1,x2,xhat1,xhat2"
        assert len(lines) == 12  # header + T+1 rows


class TestAnalyzeRun:
    def test_envelopes_hold_on_run(self, short_run):
        report = analyze_run(short_run)
        assert report["fitted_observer_constants"].fitted
        for key, env in report["envelope_reports"].items():
            assert env.satisfied, key
        for key, margins in report["cost_margins"].items():
            assert np.all(margins >= 0), key

    def test_summary_is_serializable(self, short_run):
        doc = run_summary(short_run)
        json.dumps(doc)
