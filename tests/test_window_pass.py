"""Properties of the shared window forward pass on random bounded windows.

The solver evaluates each iterate once and reuses that pass for its
gradient, Gauss-Newton direction and reported feasibility residual; these
checks tie the reused values to fresh public evaluations.
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

