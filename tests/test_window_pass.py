"""Properties of the solver on random bounded windows.

The solver evaluates each iterate once and reuses that pass for its
gradient, Gauss-Newton direction and reported feasibility residual; the
first checks tie the reused values to fresh public evaluations. It also
solves windows that share a model, cost and length as one stack; the
others check that each stacked window gets what its own solve gives.
"""

from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import mhekit as mk
from mhekit.dynamics import BoxSet


def smooth_l1_cost() -> mk.CostSpec:
    """Hand-built non-quadratic cost: quadratic prior and disturbance terms,
    pseudo-Huber residual term; no ``quad`` weights, so the solver takes
    spectral steepest-descent steps."""
    w = 100.0
    v = 25.0

    def stage(om, nu):
        return w * np.sum(om * om, axis=-1) + v * np.sum(
            np.sqrt(1.0 + nu * nu) - 1.0, axis=-1
        )

    return mk.CostSpec(
        gamma=lambda chi, prior: float((chi - prior) @ (chi - prior)),
        stage=stage,
        a=2.0, c_p_lo=1.0, c_p_hi=1.0, c_w_lo=w, c_w_hi=w, c_v_lo=v, c_v_hi=v,
        gamma_grad=lambda chi, prior: 2.0 * (chi - prior),
        stage_grad_w=lambda om, nu: 2.0 * w * om,
        stage_grad_v=lambda om, nu: v * nu / np.sqrt(1.0 + nu * nu),
    )


COSTS = {
    "quadratic": mk.quadratic_cost(100.0 * np.eye(2), [[25.0]]),
    "smooth_l1": smooth_l1_cost(),
}


def bounded_window(seed: int, horizon: int, margin: float, cost: mk.CostSpec):
    """A reactor window whose boxes sit ``margin`` outside its candidate's
    states, disturbances and residuals, so the candidate is feasible and
    the constraints can become active."""
    reactor = mk.batch_reactor_model()
    rng = np.random.default_rng(seed)
    chi0 = rng.uniform(1.0, 5.0, 2)
    omegas = rng.normal(0.0, 0.1, (horizon, 2))
    noise = rng.normal(0.0, 0.3, (horizon, 1))
    states = [chi0]
    ys = np.empty((horizon, 1))
    for i in range(horizon):
        ys[i] = reactor.h(states[i]) + noise[i]
        states.append(reactor.f(states[i]) + omegas[i])
    states = np.array(states)
    w_hi = np.max(np.abs(omegas), axis=0) + margin
    v_hi = np.max(np.abs(noise), axis=0) + margin
    model = replace(
        reactor,
        state_set=BoxSet(states.min(axis=0) - margin, states.max(axis=0) + margin),
        disturbance_set=BoxSet(-w_hi, w_hi),
        noise_set=BoxSet(-v_hi, v_hi),
    )
    prior = np.clip(chi0 + rng.normal(0.0, 0.5, 2), model.state_set.lower, model.state_set.upper)
    problem = mk.HorizonProblem(
        model=model, cost=cost, horizon=horizon, prior=prior, measurements=ys
    )
    return problem, mk.DecisionVector(chi0, omegas)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    horizon=st.integers(1, 6),
    margin=st.sampled_from([1e-3, 0.05, 0.5]),
    cost=st.sampled_from(sorted(COSTS)),
)
@example(seed=3, horizon=5, margin=0.05, cost="smooth_l1")
def test_reused_pass_matches_fresh_evaluation(seed, horizon, margin, cost):
    problem, candidate = bounded_window(seed, horizon, margin, COSTS[cost])
    j_cand = mk.eval_cost(problem, candidate)
    assert mk.rollout(problem, candidate).cost == j_cand
    per_budget, _ = mk.solve_with_checkpoints(
        problem, candidate, mk.SolverConfig(), (0, 1, 3),
        converged=False,
    )
    for d, report in per_budget.values():
        assert report.cost_trace[0] == j_cand
        assert np.all(np.diff(report.cost_trace) <= 0)
        assert mk.rollout(problem, d).cost == mk.eval_cost(problem, d)
        assert mk.eval_cost(problem, d) == report.cost_trace[-1] <= j_cand
        feas = mk.check_feasible(problem, d)
        assert feas.feasible
        assert report.feasibility_residual == feas.max_violation



def bounded_windows(seed: int, horizons, margin: float, cost: mk.CostSpec):
    """Reactor windows of the given lengths that share one model, whose
    boxes sit ``margin`` outside every candidate's states, disturbances and
    residuals. The first window's candidate is its exact minimiser (data
    without noise or disturbances, prior at the candidate), so its solve
    stops at once."""
    reactor = mk.batch_reactor_model()
    rng = np.random.default_rng(seed)
    drawn = []
    for k, horizon in enumerate(horizons):
        scale = 0.0 if k == 0 else 1.0
        chi0 = rng.uniform(1.0, 5.0, 2)
        omegas = scale * rng.normal(0.0, 0.1, (horizon, 2))
        noise = scale * rng.normal(0.0, 0.3, (horizon, 1))
        states = [chi0]
        ys = np.empty((horizon, 1))
        for i in range(horizon):
            ys[i] = reactor.h(states[i]) + noise[i]
            states.append(reactor.f(states[i]) + omegas[i])
        prior = chi0 + scale * rng.normal(0.0, 0.5, 2)
        drawn.append((np.array(states), omegas, noise, ys, prior))
    x_lo = np.min([s.min(axis=0) for s, *_ in drawn], axis=0) - margin
    x_hi = np.max([s.max(axis=0) for s, *_ in drawn], axis=0) + margin
    w_hi = np.max([np.abs(w).max(axis=0) for _, w, *_ in drawn], axis=0) + margin
    v_hi = np.max([np.abs(v).max(axis=0) for _, _, v, *_ in drawn], axis=0) + margin
    model = replace(
        reactor,
        state_set=BoxSet(x_lo, x_hi),
        disturbance_set=BoxSet(-w_hi, w_hi),
        noise_set=BoxSet(-v_hi, v_hi),
    )
    problems = [
        mk.HorizonProblem(
            model=model, cost=cost, horizon=len(ys),
            prior=np.clip(prior, x_lo, x_hi), measurements=ys,
        )
        for _, _, _, ys, prior in drawn
    ]
    candidates = [mk.DecisionVector(states[0], omegas) for states, omegas, *_ in drawn]
    return problems, candidates


BUDGETS = (0, 1, 2, 5)
STACK_CFG = mk.SolverConfig(max_iterations=20)  # caps the converged result


def close(got, expected) -> bool:
    got, expected = np.asarray(got), np.asarray(expected)
    return got.shape == expected.shape and np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(
        expected
    )


def assert_each_matches_alone(problems, candidates):
    """Every window's results from one stacked solve equal its own solve."""
    solved = mk.solve_windows(problems, candidates, STACK_CFG, BUDGETS)
    assert len(solved) == len(problems)
    for problem, candidate, (per_budget, final) in zip(problems, candidates, solved):
        alone, alone_final = mk.solve_with_checkpoints(problem, candidate, STACK_CFG, BUDGETS)
        assert list(per_budget) == list(alone) == list(BUDGETS)
        for (d, report), (d_alone, report_alone) in zip(
            [*per_budget.values(), final], [*alone.values(), alone_final]
        ):
            assert report.iterations_used == report_alone.iterations_used
            assert report.converged == report_alone.converged
            assert report.feasibility_residual == report_alone.feasibility_residual
            assert close(report.cost_trace, report_alone.cost_trace)
            assert close(d.chi0, d_alone.chi0)
            assert close(d.omegas, d_alone.omegas)
    return solved


@settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(0, 2**32 - 1),
    horizons=st.one_of(
        st.integers(1, 6).map(lambda m: [m] * 4),
        st.lists(st.integers(1, 6), min_size=2, max_size=6),
    ),
    margin=st.sampled_from([1e-3, 0.05, 0.5]),
    cost=st.sampled_from(sorted(COSTS)),
    max_backtracks=st.sampled_from([None, 0, 1]),
)
def test_stacked_windows_match_solving_each_alone(
    seed, horizons, margin, cost, max_backtracks, monkeypatch
):
    problems, candidates = bounded_windows(seed, horizons, margin, COSTS[cost])
    with monkeypatch.context() as patch:
        if max_backtracks is not None:  # few backtracks make line searches fail
            patch.setattr(mk.solver, "MAX_BACKTRACKS", max_backtracks)
        assert_each_matches_alone(problems, candidates)


def test_early_stops_beside_continuing_windows(monkeypatch):
    # one stack of five length-4 windows: an optimal candidate, two failed
    # line searches (at the first and at the third step) and two windows
    # that run to the largest budget
    problems, candidates = bounded_windows(2, [4] * 5, 0.05, COSTS["quadratic"])
    monkeypatch.setattr(mk.solver, "MAX_BACKTRACKS", 0)
    solved = assert_each_matches_alone(problems, candidates)
    outcomes = [(res[5][1].iterations_used, res[5][1].converged) for res, _ in solved]
    assert outcomes == [(0, True), (0, False), (2, False), (5, False), (5, True)]
    assert solved[0][0][5][0] is candidates[0] and solved[1][0][5][0] is candidates[1]
