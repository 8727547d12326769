import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mhekit as mk
from mhekit.cli import main


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "reactor.json"
    path.write_text(mk.ExperimentConfig(steps=15).to_json())
    return str(path)


def run_cli_process(tmp_path, command, doc):
    """Run one CLI command on config ``doc`` in a fresh interpreter."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(Path(mk.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "mhekit.cli", command, "--config", str(path),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestHappyPaths:
    def test_reproduce_figure(self, config_file, tmp_path, capsys):
        out = tmp_path / "fig"
        rc = main(
            ["reproduce-figure", "--config", config_file, "--seed", "42",
             "--out", str(out)]
        )
        assert rc == 0
        assert sorted(os.listdir(out)) == [
            "series_converged.csv", "series_i0.csv", "series_i2.csv",
            "series_i5.csv", "series_truth.csv", "summary.json",
        ]
        assert "rmse" in capsys.readouterr().out

    def test_simulate_writes_truth(self, config_file, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--config", config_file, "--out", str(out)]) == 0
        rows = read_csv(out / "truth.csv")
        assert rows[0][:3] == ["t", "x1", "x2"]
        assert len(rows) == 17  # header + 16 state rows

    def test_estimate_budget_zero_equals_observe(self, config_file, tmp_path):
        est_dir = tmp_path / "est"
        obs_dir = tmp_path / "obs"
        assert main(
            ["estimate", "--config", config_file, "--budget", "0",
             "--out", str(est_dir)]
        ) == 0
        assert main(["observe", "--config", config_file, "--out", str(obs_dir)]) == 0
        est = np.array(
            [[float(c) for c in row[1:]] for row in read_csv(est_dir / "estimate_i0.csv")[1:]]
        )
        obs = np.array(
            [[float(c) for c in row[1:3]] for row in read_csv(obs_dir / "observer.csv")[1:]]
        )
        np.testing.assert_array_equal(est, obs)

    def test_estimate_trace_flag(self, config_file, tmp_path):
        out = tmp_path / "tr"
        assert main(
            ["estimate", "--config", config_file, "--budget", "0,2",
             "--trace", "--out", str(out)]
        ) == 0
        rows = read_csv(out / "cost_trace.csv")
        assert rows[0] == ["t", "series", "accepted_cost", "candidate_cost", "iterations"]
        # budgets 0 and 2 plus the converged baseline, T+1 rows each
        assert len(rows) == 1 + 3 * 16

    def test_max_iterations_caps_converged_series(self, tmp_path):
        # the --budget override is validated together with the solver cap
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"steps": 15, "solver": {"max_iterations": 1}}))
        out = tmp_path / "tr"
        assert main(
            ["estimate", "--config", str(path), "--budget", "0", "--trace", "--out", str(out)]
        ) == 0
        rows = read_csv(out / "cost_trace.csv")[1:]
        assert {int(r[4]) for r in rows if r[1] == "converged"} <= {0, 1}

    def test_analyze_writes_reports(self, config_file, tmp_path):
        out = tmp_path / "ana"
        assert main(["analyze", "--config", config_file, "--out", str(out)]) == 0
        doc = json.loads((out / "analysis.json").read_text())
        assert doc["fitted_observer_constants"]["fitted"] is True
        for key in ("fitted_observer_constants", "estimator_constants"):
            assert set(doc[key]) == {"c_p", "c_w", "c_v", "rho", "fitted"}
        assert all(v >= 0 for v in doc["min_envelope_margin"].values())

    def test_default_config_used_when_omitted(self, tmp_path):
        out = tmp_path / "d"
        assert main(["simulate", "--seed", "1", "--out", str(out)]) == 0

    @pytest.mark.parametrize("command", ["simulate", "observe"])
    def test_simulate_and_observe_run_no_estimator(
        self, config_file, tmp_path, monkeypatch, command
    ):
        def solve_windows(*args, **kwargs):
            raise AssertionError("the estimator ran")

        monkeypatch.setattr(mk.harness, "solve_windows", solve_windows)
        assert main([command, "--config", config_file, "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("command", ["estimate", "analyze"])
    def test_tiny_noise_covariance_runs_without_warnings(self, tmp_path, command):
        # the inverse covariances weigh the cost by ~1e300, so gradients and
        # Armijo products overflow; run in a fresh interpreter so numpy's
        # floating-point warnings would reach stderr
        for doc in (
            {"output_cov": [[1e-300]], "steps": 15},
            {"process_cov": [[1e-300, 0], [0, 1e-300]], "steps": 15},
        ):
            proc = run_cli_process(tmp_path, command, doc)
            assert proc.returncode == 0, doc
            assert proc.stderr == "", (doc, proc.stderr)


class TestErrorPaths:
    def test_missing_config_exits_1_naming_path(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        rc = main(["estimate", "--config", str(missing)])
        assert rc == 1
        assert "absent.json" in capsys.readouterr().err

    def test_malformed_config_exits_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["estimate", "--config", str(bad)]) == 1

    def test_unknown_flag_exits_1(self, capsys):
        assert main(["estimate", "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_model_exits_1(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        doc = mk.ExperimentConfig().to_dict()
        doc["model"] = "pendulum"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(path)]) == 1

    def test_bad_budget_list_exits_1(self, config_file):
        assert main(["estimate", "--config", config_file, "--budget", "two"]) == 1

    @pytest.mark.parametrize("command", ["simulate", "reproduce-figure"])
    def test_output_path_that_is_a_file_is_one_config_error_line(
        self, config_file, tmp_path, capsys, command
    ):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main([command, "--config", config_file, "--out", str(taken)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("config error:")
        assert "taken" in err

    def test_non_string_out_dir_is_one_config_error_line(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"out_dir": 5, "steps": 3}))
        assert main(["simulate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == ["config error: out_dir must be a string"]

    @pytest.mark.parametrize("kind", ["directory", "not utf-8"])
    def test_unreadable_config_is_one_config_error_line(self, tmp_path, capsys, kind):
        path = tmp_path / "cfg.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"seed": "\xff"}')
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("config error:")
        assert "cfg.json" in err

    @pytest.mark.parametrize(
        "doc",
        [
            {"x0": [1, 2, 3]},
            {"dt": -1},
            {"process_cov": [[1, 2], [2, 1]]},
            {"observer_gain": [0.5]},
            {"observer_gain": [0, 0]},
            {"horizon": 0},
            {"budgets": [], "include_converged": False},
            {"solver": {"initial_step": -1}},
            {"solver": {"initial_step": 0}},
            {"solver": {"initial_step": float("inf")}},
            {"solver": {"max_backtracks": -1}},
            {"solver": {"converged_cap": -3}},
            {"solver": {"cost_tol": -1e-10}},
            {"solver": {"max_iterations": 1.5}},
            {"solver": {"max_backtracks": 2.5}},
            {"solver": {"converged_cap": 10.0}},
            {"seed": -1},
            {"seed": 1.5},
            {"steps": 2.5},
            {"horizon": 2.5},
            {"budgets": [1.5]},
            {"noise_scale": "abc"},
            {"noise_scale": float("nan")},
            # the converged baseline is capped below the largest budget (5)
            {"solver": {"max_iterations": 3}},
            {"solver": {"step_rule": "gn"}},
            {"solver": 5},
            {"detectability": 5},
            [1, 2],
            {"solver": {"initial_step": 1e300}},
            {"include_converged": "false", "steps": 12},
            {"include_converged": 0, "steps": 12},
        ],
    )
    def test_invalid_config_is_one_config_error_line(self, tmp_path, capsys, doc):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("config error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command", ["simulate", "observe", "estimate", "analyze", "reproduce-figure"]
    )
    def test_diverging_run_is_one_numeric_failure_line(self, tmp_path, command):
        # large noise makes the reactor state overflow, a huge observer
        # initial state or gain the observer state; run in a fresh
        # interpreter so numpy's floating-point warnings would reach stderr
        for doc in (
            {"process_cov": [[1, 0], [0, 1]], "output_cov": [[0.5]]},
            {"z0": [1e200, 0]},
            {"observer_gain": [1e200, 1e200]},
        ):
            proc = run_cli_process(tmp_path, command, doc)
            assert proc.returncode == 2, doc
            assert len(proc.stderr.splitlines()) == 1, (doc, proc.stderr)
            assert proc.stderr.startswith("numeric failure:"), doc

    def test_overflowing_envelope_is_one_numeric_failure_line(self, tmp_path):
        doc = {"detectability": {"c_p": 1e308, "c_w": 2, "c_v": 2, "eta": 0.95}, "steps": 15}
        proc = run_cli_process(tmp_path, "analyze", doc)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "numeric failure: estimator envelope gain c_p is non-finite"
        ]
        assert not (tmp_path / "out" / "analysis.json").exists()

    @pytest.mark.parametrize(
        "command, trace, message",
        [
            # every accepted cost above its warm start
            ("estimate", lambda k: [1.0, 2.0], "cost-decrease audit failed"),
            # each cost below its warm start, but budget 2 above budget 0
            ("reproduce-figure", lambda k: [10.0, float(k)],
             "budget ordering audit failed"),
            ("estimate", lambda k: [10.0, float(k)], "budget ordering audit failed"),
            ("analyze", lambda k: [10.0, float(k)], "budget ordering audit failed"),
        ],
    )
    def test_audit_failure_is_one_line_exit_3(
        self, config_file, tmp_path, capsys, monkeypatch, command, trace, message
    ):
        real_solve_windows = mk.harness.solve_windows

        def solve_windows(problems, candidates, stops):
            # windows up to t = 3 keep their real costs, so t = 4 fails first;
            # the later ones get the warm-start and accepted costs of ``trace``
            # at each stop's column
            solved = real_solve_windows(problems, candidates, stops)
            late = np.array([p.start + p.horizon >= 4 for p in problems])
            warm_start, cost = solved.traces[0].copy(), solved.cost.copy()
            warm_start[late] = trace(0)[0]
            cost[late] = [trace(k)[-1] for k in range(len(stops))]
            return replace(solved, traces=[warm_start, *solved.traces[1:]], cost=cost)

        monkeypatch.setattr(mk.harness, "solve_windows", solve_windows)
        rc = main([command, "--config", config_file, "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"audit failure: {message}")
        assert err.startswith(f"audit failure: {message} at t=4")
        assert not (tmp_path / "o").exists()
