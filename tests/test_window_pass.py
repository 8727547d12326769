"""Properties of the solver on random bounded windows.

The solver evaluates each iterate once and reuses that pass for its
gradient, Gauss-Newton direction and reported feasibility residual; the
first checks tie the reused values to fresh public evaluations. It also
solves windows that share a model, cost and length as one stack; the
others check that each stacked window gets what its own solve gives, also
when one window's curvature sends it alone to steepest descent, and on
random linear windows of other dimensions, where one Gauss-Newton step
must reach the dense least-squares minimiser.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import mhekit as mk
from mhekit.dynamics import BoxSet, SystemModel


def smooth_l1_cost() -> mk.CostSpec:
    """Hand-built non-quadratic cost: quadratic prior and disturbance terms,
    pseudo-Huber residual term. Its curvatures are the exact Hessians, so
    the solver takes generalized Gauss-Newton steps."""
    w = 100.0
    v = 25.0

    def stage(om, nu):
        return w * np.sum(om * om, axis=-1) + v * np.sum(
            np.sqrt(1.0 + nu * nu) - 1.0, axis=-1
        )

    def stage_derivs(om, nu):
        root = np.sqrt(1.0 + nu * nu)
        eye_w = np.eye(om.shape[-1])
        return (
            2.0 * w * om, v * nu / root,
            np.broadcast_to(2.0 * w * eye_w, om.shape + eye_w.shape[-1:]),
            (v / root**3)[..., None] * np.eye(nu.shape[-1]),
        )

    return mk.CostSpec(
        gamma=lambda chi, prior: np.sum((chi - prior) ** 2, axis=-1),
        stage=stage,
        a=2.0, c_p_lo=1.0, c_w_lo=w, c_w_hi=w, c_v_lo=v, c_v_hi=v,
        gamma_derivs=lambda chi, prior: (
            2.0 * (chi - prior),
            np.broadcast_to(2.0 * np.eye(chi.shape[-1]), chi.shape + chi.shape[-1:]),
        ),
        stage_derivs=stage_derivs,
    )


def prior_weighted(cost: mk.CostSpec, weight) -> mk.CostSpec:
    """``cost`` with the prior term (chi - prior)' P (chi - prior) of the
    symmetric part P of a positive definite ``weight``."""
    p = np.asarray(weight, dtype=float)
    p = 0.5 * (p + p.T)

    # d'(P d) window by window, so that a stack rounds as its windows alone
    def gamma(chi, prior):
        d = (chi - prior)[..., None]
        return (d.swapaxes(-1, -2) @ (p @ d))[..., 0, 0]

    def gamma_derivs(chi, prior):
        grad = 2.0 * (p @ (chi - prior)[..., None])[..., 0]
        return grad, np.broadcast_to(2.0 * p, grad.shape + p.shape[-1:])

    return replace(cost, gamma=gamma, gamma_derivs=gamma_derivs, c_p_lo=np.linalg.eigvalsh(p)[0])


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
    solved = mk.solve_windows([problem], [candidate], (0, 1, 3))
    for d, report in (solved.result(0, k) for k in range(3)):
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
STOPS = (*BUDGETS, STACK_CFG.max_iterations)


def assert_each_matches_alone(problems, candidates):
    """Every window's results from one stacked solve equal its own solve,
    bit for bit, and its columns agree with its results."""
    solved = mk.solve_windows(problems, candidates, STOPS)
    assert solved.cost.shape == (len(problems), len(STOPS))
    for j, (problem, candidate) in enumerate(zip(problems, candidates)):
        alone, alone_final = mk.solve_with_checkpoints(problem, candidate, STACK_CFG, BUDGETS)
        assert list(alone) == list(BUDGETS)
        for k, (d_alone, report_alone) in enumerate([*alone.values(), alone_final]):
            d, report = solved.result(j, k)
            assert report.iterations_used == report_alone.iterations_used == solved.iterations[j, k]
            assert report.converged == report_alone.converged == solved.converged[j, k]
            assert report.feasibility_residual == report_alone.feasibility_residual
            assert np.array_equal(report.cost_trace, report_alone.cost_trace)
            assert report.cost_trace[-1] == solved.cost[j, k]
            assert np.array_equal(d.chi0, d_alone.chi0)
            assert np.array_equal(d.omegas, d_alone.omegas)
            assert not solved.omegas[j, k, problem.horizon:].any()  # padding
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
    k = STOPS.index(5)
    outcomes = list(zip(solved.iterations[:, k].tolist(), solved.converged[:, k].tolist()))
    assert outcomes == [(0, True), (0, False), (2, False), (5, False), (5, True)]
    assert solved.result(0, k)[0] is candidates[0] and solved.result(1, k)[0] is candidates[1]


@pytest.mark.parametrize("case", ["nan_prior", "inf_residual", "singular_disturbance"])
def test_bad_curvature_falls_back_for_its_window_only(case, monkeypatch):
    # one window of the stack gets a curvature with which its Gauss-Newton
    # step is non-finite or its system singular: a NaN prior curvature (the
    # window picked by its prior), or an infinite residual or zero
    # disturbance curvature (picked by zero disturbances, which only the
    # first window, whose candidate is already optimal, has)
    problems, candidates = bounded_windows(4, [4] * 4, 0.5, COSTS["quadratic"])
    flagged_prior = problems[2].prior
    quadratic = COSTS["quadratic"]

    def gamma_derivs(chi, prior):
        grad, curv = quadratic.gamma_derivs(chi, prior)
        flagged = np.all(prior == flagged_prior, axis=-1)[..., None, None]
        return grad, np.where(flagged, np.nan, curv)

    def stage_derivs(om, nu):
        g_w, g_v, h_w, h_v = quadratic.stage_derivs(om, nu)
        flagged = np.all(om == 0.0, axis=(-2, -1))[..., None, None, None]
        if case == "inf_residual":
            return g_w, g_v, h_w, np.where(flagged, np.inf, h_v)
        return g_w, g_v, np.where(flagged, 0.0, h_w), h_v

    if case == "nan_prior":
        cost, fallback = replace(quadratic, gamma_derivs=gamma_derivs), 2
    else:
        cost, fallback = replace(quadratic, stage_derivs=stage_derivs), 0
    problems = [replace(problem, cost=cost) for problem in problems]
    rules, evaluate = [], mk.solver._evaluate

    def recorded(stack, x):
        evaluated = evaluate(stack, x)
        rules.append(evaluated[-1].tolist())
        return evaluated

    monkeypatch.setattr(mk.solver, "_evaluate", recorded)
    assert_each_matches_alone(problems, candidates)
    assert rules[0] == [row != fallback for row in range(4)]  # the stack's first step


def random_linear_windows(seed: int, n: int, p: int, horizons):
    """Windows of one random stable linear model (n states, p outputs) and
    one random quadratic cost, each with its minimiser from the dense normal
    equations of the weighted least-squares problem in
    (chi0, w(0), ..., w(M-1))."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    a *= 0.9 / max(1.0, np.abs(np.linalg.eigvals(a)).max())
    c = rng.normal(size=(p, n))
    model = SystemModel(
        n=n, p=p,
        # row by row, so that a window's values do not depend on the stack
        # it is evaluated in (a matrix product may round a stack differently)
        f=lambda x: np.sum(x[..., None, :] * a, axis=-1),
        h=lambda x: np.sum(x[..., None, :] * c, axis=-1),
        state_set=BoxSet.unbounded(n),
        disturbance_set=BoxSet.unbounded(n),
        noise_set=BoxSet.unbounded(p),
        f_jac=lambda x: np.broadcast_to(a, np.shape(x)[:-1] + a.shape),
        h_jac=lambda x: np.broadcast_to(c, np.shape(x)[:-1] + c.shape),
    )

    def spd(k):
        g = rng.normal(size=(k, k))
        return g @ g.T + k * np.eye(k)

    w, v, pw = spd(n), spd(p), spd(n)
    cost = prior_weighted(mk.quadratic_cost(w, v), pw)
    windows = []
    for m in horizons:
        ys, prior = rng.normal(size=(m, p)), rng.normal(size=n)
        dim = n + m * n
        hess = np.zeros((dim, dim))
        hess[:n, :n] = pw
        rhs = np.zeros(dim)
        rhs[:n] = pw @ prior
        sens = np.zeros((n, dim))  # x(i) as a linear map of the decision
        sens[:, :n] = np.eye(n)
        for i in range(m):
            lo = n + i * n
            hess[lo : lo + n, lo : lo + n] += w
            out = c @ sens
            hess += out.T @ v @ out
            rhs += out.T @ v @ ys[i]
            sens = a @ sens
            sens[:, lo : lo + n] += np.eye(n)
        problem = mk.HorizonProblem(
            model=model, cost=cost, horizon=m, prior=prior, measurements=ys
        )
        candidate = mk.DecisionVector(rng.normal(size=n), rng.normal(0.0, 0.1, (m, n)))
        windows.append((problem, candidate, np.linalg.solve(hess, rhs)))
    return windows


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    p=st.integers(1, 3),
    horizons=st.lists(st.integers(1, 6), min_size=2, max_size=5),
)
def test_random_linear_windows_match_least_squares(seed, n, p, horizons):
    windows = random_linear_windows(seed, n, p, horizons)
    problems, candidates, expected = zip(*windows)
    solved = assert_each_matches_alone(list(problems), list(candidates))
    # one Gauss-Newton step reaches the minimiser, and the converged stop
    # stays there
    for k in (STOPS.index(1), len(STOPS) - 1):
        for j, (problem, u) in enumerate(zip(problems, expected)):
            got = np.concatenate([solved.chi[j, k], solved.omegas[j, k, : problem.horizon].ravel()])
            np.testing.assert_allclose(got, u, rtol=0, atol=1e-10 * max(1.0, np.abs(u).max()))
