"""Acceptance suite: one test per exit criterion, at its pinned tolerance.

Each test prints a single "ACCEPTANCE <id>: PASS/FAIL" line (visible with
pytest -s, and always on failure). Criteria 3-5 share one 20-seed batch of
case-study runs; one short untimed run precedes the timed batch.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

import mhekit as mk
from mhekit.analysis import CostBoundConstants
from mhekit.dynamics import BoxSet, NoiseSpec


def _report(name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def suite():
    """Twenty seeded case-study runs plus fitted/derived envelope constants."""
    mk.run_experiment(mk.ExperimentConfig(seed=0, steps=8))  # untimed warm-up run
    t0 = time.perf_counter()
    runs = [mk.run_experiment(mk.ExperimentConfig(seed=1000 + s)) for s in range(20)]
    elapsed = time.perf_counter() - t0

    trajectories = []
    for run in runs:
        err = np.linalg.norm(run.truth.states - run.observer.states, axis=1)
        trajectories.append((err, run.truth.disturbances, run.truth.noises))
    fitted = mk.fit_observer_envelope(trajectories)

    cfg = runs[0].config
    cbc = CostBoundConstants.from_parts(
        mk.harness.build_cost(cfg),
        mk.harness.build_model(cfg),
        mk.harness.build_observer(cfg),
    )
    derived = mk.envelope_constants(cfg.detectability, fitted, cbc, cfg.horizon)
    initial_error = float(np.linalg.norm(np.asarray(cfg.x0) - np.asarray(cfg.z0)))
    return {
        "runs": runs,
        "elapsed": elapsed,
        "fitted": fitted,
        "cbc": cbc,
        "derived": derived,
        "initial_error": initial_error,
    }


def _random_window(rng, model, cost):
    """A random feasible window: candidates are built so their own rollout
    stays finite and inside the (sometimes bounded) constraint sets."""
    while True:
        m = int(rng.integers(1, 11))
        if rng.random() < 0.4:
            mdl = replace(
                model,
                state_set=BoxSet([-50.0, -50.0], [50.0, 50.0]),
                disturbance_set=BoxSet([-0.5, -0.5], [0.5, 0.5]),
                noise_set=BoxSet([-5.0], [5.0]),
            )
            chi0 = rng.uniform(0, 6, 2)
            omegas = rng.uniform(-0.5, 0.5, (m, 2))
            residual_scale = 2.0
        else:
            mdl = model
            chi0 = rng.uniform(0, 6, 2)
            omegas = rng.normal(0, 0.3, (m, 2))
            residual_scale = 3.0
        candidate = mk.DecisionVector(chi0, omegas)
        x = chi0.copy()
        ys = np.empty((m, 1))
        valid = True
        for i in range(m):
            ys[i] = mdl.h(x) + rng.uniform(-residual_scale, residual_scale)
            x = mdl.f(x) + omegas[i]
            if not np.all(np.isfinite(x)) or not mdl.state_set.contains(x):
                valid = False
                break
        if not valid:
            continue
        prior = mdl.state_set.project(chi0 + rng.normal(0, 0.5, 2))
        problem = mk.HorizonProblem(
            model=mdl, cost=cost, horizon=m, prior=prior, measurements=ys
        )
        return problem, candidate


def test_criterion_1_suboptimal_contract(reactor, quad_cost):
    """500 randomized windows and budgets: feasible, never above warm-start cost."""
    rng = np.random.default_rng(20250809)
    # warm both the bounded-set and unbounded-set code paths
    for _ in range(3):
        problem, candidate = _random_window(rng, reactor, quad_cost)
        mk.solve_suboptimal(problem, candidate, mk.SolverConfig(max_iterations=3))

    t0 = time.perf_counter()
    worst = -np.inf
    for _ in range(500):
        problem, candidate = _random_window(rng, reactor, quad_cost)
        budget = int(rng.integers(0, 11))
        d, report = mk.solve_suboptimal(
            problem, candidate, mk.SolverConfig(max_iterations=budget)
        )
        feas = mk.check_feasible(problem, d)
        assert feas.feasible, f"infeasible result, violation {feas.max_violation}"
        delta = mk.eval_cost(problem, d) - mk.eval_cost(problem, candidate)
        worst = max(worst, delta)
        assert delta <= 1e-12
        assert np.all(np.diff(report.cost_trace) <= 0)
    elapsed = time.perf_counter() - t0
    _report(
        "1 (feasibility + cost decrease, 500 windows)",
        worst <= 1e-12 and elapsed < 30.0,
        f"worst cost increase {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_2_budget_zero_identity():
    """Zero-iteration estimates coincide with the observer trajectory exactly."""
    run = mk.run_experiment(mk.ExperimentConfig(seed=42))
    deviation = float(np.max(np.abs(run.estimates["i0"] - run.observer.states)))
    _report("2 (budget-0 equals observer)", deviation == 0.0, f"max deviation {deviation}")


def test_criterion_3_case_study_reproduction(suite):
    """Across 20 seeds: two iterations beat the observer warm start, and five
    iterations agree with the converged baseline to 0.05."""
    runs = suite["runs"]
    rmse_wins = sum(
        1 for r in runs if r.rmse_table["i2"].aggregate < r.rmse_table["i0"].aggregate
    )
    gaps = [
        float(np.max(np.linalg.norm(r.estimates["i5"] - r.estimates["converged"], axis=1)))
        for r in runs
    ]
    gap_wins = sum(1 for g in gaps if g <= 0.05)
    ok = rmse_wins >= 18 and gap_wins >= 18 and suite["elapsed"] < 120.0
    _report(
        "3 (20-seed case-study reproduction)",
        ok,
        f"rmse wins {rmse_wins}/20, gap wins {gap_wins}/20 "
        f"(max gap {max(gaps):.2e}), {suite['elapsed']:.1f}s",
    )


def test_criterion_4_cost_bound_validity(suite):
    """Accepted costs stay below the fitted-constant cost bound at every step."""
    cfg = suite["runs"][0].config
    worst_margin = np.inf
    for run in suite["runs"]:
        bounds = np.array(
            [
                mk.suboptimal_cost_bound(
                    suite["cbc"], suite["fitted"], cfg.horizon, t,
                    suite["initial_error"],
                    run.truth.disturbances, run.truth.noises,
                )
                for t in range(cfg.steps + 1)
            ]
        )
        for key, costs in run.accepted_costs.items():
            worst_margin = min(worst_margin, float(np.min(bounds - costs)))
    _report(
        "4 (warm-start cost bound, 20 runs)",
        worst_margin >= 0.0,
        f"worst margin {worst_margin:.3e}",
    )


def test_criterion_5_error_envelope_validity(suite):
    """Every budget's error trajectory stays inside the derived envelope."""
    worst_margin = np.inf
    for run in suite["runs"]:
        for key, est in run.estimates.items():
            err = np.linalg.norm(run.truth.states - est, axis=1)
            report = mk.check_rges_envelope(
                err, run.truth.disturbances, run.truth.noises,
                suite["derived"], suite["initial_error"],
            )
            worst_margin = min(worst_margin, report.min_margin)
    _report(
        "5 (estimator error envelope, all budgets)",
        worst_margin >= 0.0,
        f"worst margin {worst_margin:.3e}",
    )


def test_criterion_6_oracle_equivalences(reactor, quad_cost):
    """Closed-form and brute-force oracles agree with the implementations."""
    # (a) geometric window factors vs literal sums
    rng = np.random.default_rng(61)
    worst_factor = 0.0
    for _ in range(100):
        rho = rng.uniform(0.2, 0.98)
        a = rng.uniform(0.3, 3.0)
        n = int(rng.integers(1, 25))
        brute1 = sum(rho ** (-a * k) for k in range(1, n + 1))
        brute2 = sum((rho**a) ** (j - n) for j in range(1, n + 1))
        worst_factor = max(
            worst_factor,
            abs(mk.horizon_factor_initial(rho, a, n) - brute1) / brute1,
            abs(mk.horizon_factor_disturbance(rho, a, n) - brute2) / brute2,
        )
    ok_a = worst_factor <= 1e-10

    # (b) converged solver vs stacked weighted least squares on linear windows
    from test_solver import linear_model
    from test_window_pass import prior_weighted

    model = lin = linear_model()
    weights = {"w": np.diag([4.0, 2.0]), "v": np.array([[3.0]]), "p": np.diag([1.0, 2.0])}
    cost = prior_weighted(mk.quadratic_cost(weights["w"], weights["v"]), weights["p"])
    sq = {name: np.linalg.cholesky(m).T for name, m in weights.items()}
    worst_wls = 0.0
    for trial in range(3):
        m = int(rng.integers(3, 8))
        ys = rng.normal(0, 1, (m, 1))
        prior = rng.normal(0, 1, 2)
        problem = mk.HorizonProblem(
            model=lin, cost=cost, horizon=m, prior=prior, measurements=ys
        )

        def residual(u):
            d = mk.DecisionVector(u[:2], u[2:].reshape(m, 2))
            ro = mk.rollout(problem, d)
            parts = [sq["p"] @ (d.chi0 - prior)]
            for i in range(m):
                parts.append(sq["w"] @ d.omegas[i])
                parts.append(sq["v"] @ ro.residuals[i])
            return np.concatenate(parts)

        dim = 2 + 2 * m
        r0 = residual(np.zeros(dim))
        basis = np.column_stack(
            [residual(np.eye(dim)[j]) - r0 for j in range(dim)]
        )
        expected, *_ = np.linalg.lstsq(basis, -r0, rcond=None)
        d, _ = mk.solve_suboptimal(
            problem,
            mk.DecisionVector(np.zeros(2), np.zeros((m, 2))),
            mk.SolverConfig(),
        )
        got = np.concatenate([d.chi0, d.omegas.ravel()])
        worst_wls = max(worst_wls, float(np.max(np.abs(got - expected))))
    ok_b = worst_wls <= 1e-6

    # (c) reverse-accumulation gradient vs central finite differences
    worst_grad = 0.0
    for trial in range(50):
        m = int(rng.integers(1, 9))
        ys = rng.normal(7, 1, (m, 1))
        problem = mk.HorizonProblem(
            model=reactor, cost=quad_cost, horizon=m,
            prior=rng.uniform(1, 5, 2), measurements=ys,
        )
        d = mk.DecisionVector(rng.uniform(1, 5, 2), rng.normal(0, 0.2, (m, 2)))
        g = np.concatenate([arr.ravel() for arr in mk.cost_gradient(problem, d)])
        u0 = np.concatenate([d.chi0, d.omegas.ravel()])
        h = 1e-6
        fd = np.empty_like(u0)
        for j in range(u0.size):
            e = np.zeros_like(u0)
            e[j] = h
            cost_up = mk.eval_cost(
                problem, mk.DecisionVector((u0 + e)[:2], (u0 + e)[2:].reshape(m, 2))
            )
            cost_dn = mk.eval_cost(
                problem, mk.DecisionVector((u0 - e)[:2], (u0 - e)[2:].reshape(m, 2))
            )
            fd[j] = (cost_up - cost_dn) / (2 * h)
        worst_grad = max(
            worst_grad, float(np.linalg.norm(g - fd) / np.linalg.norm(fd))
        )
    ok_c = worst_grad <= 1e-5

    _report(
        "6 (oracle equivalences)",
        ok_a and ok_b and ok_c,
        f"factors {worst_factor:.2e}, wls {worst_wls:.2e}, grad {worst_grad:.2e}",
    )


def test_criterion_7_structure_preservation(reactor, reactor_observer, quad_cost):
    """Mass conservation, exact candidate replay, zero prior cost."""
    log = mk.simulate(
        reactor, [5.0, 2.0], np.zeros((1000, 2)), np.zeros((1000, 1)), 1000
    )
    invariant = log.states[:, 0] + 2.0 * log.states[:, 1]
    drift = float(np.max(np.abs(invariant - invariant[0])))
    ok_conservation = drift <= 1e-12

    w, v = mk.draw_noise(NoiseSpec(0.01 * np.eye(2), [[0.04]], seed=71), 60)
    truth = mk.simulate(reactor, [5.0, 2.0], w, v, 60)
    olog = mk.run_observer(reactor_observer, [3.0, 0.0], truth.outputs)
    ok_replay = True
    ok_prior = True
    for t in range(1, 61):
        problem = mk.advance_window(reactor, quad_cost, 10, truth.outputs, olog, t)
        candidate = mk.build_candidate(olog, problem.start, problem.horizon)
        ro = mk.rollout(problem, candidate)
        window = olog.states[problem.start : problem.start + problem.horizon + 1]
        ok_replay = ok_replay and np.array_equal(ro.states, window)
        ok_prior = ok_prior and quad_cost.gamma(candidate.chi0, problem.prior) == 0.0
    _report(
        "7 (conservation / replay / zero prior cost)",
        ok_conservation and ok_replay and ok_prior,
        f"invariant drift {drift:.2e}, replay exact {ok_replay}, "
        f"prior cost zero {ok_prior}",
    )


def test_criterion_8_perfect_init_noise_free():
    """With zero noise and a matched initial guess, every budget is exact."""
    cfg = mk.ExperimentConfig(seed=5, steps=100, noise_scale=0.0, z0=(5.0, 2.0))
    run = mk.run_experiment(cfg)
    worst = max(
        float(np.max(np.abs(est - run.truth.states)))
        for est in run.estimates.values()
    )
    _report("8 (noise-free perfect init)", worst <= 1e-12, f"max error {worst:.2e}")
