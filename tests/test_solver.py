from dataclasses import fields, replace

import numpy as np
import pytest

import mhekit as mk
from mhekit import solver
from mhekit.dynamics import BoxSet, NoiseSpec, SystemModel
from mhekit.mhe import WindowStack
from mhekit.solver import InfeasibleCandidateError, _gn_direction, _jacobians, _terms
from test_window_pass import prior_weighted, smooth_l1_cost


@pytest.fixture(scope="module")
def window(reactor, reactor_observer, quad_cost):
    """A representative mid-run case-study window with its warm start."""
    w, v = mk.draw_noise(NoiseSpec(0.01 * np.eye(2), [[0.04]], seed=31), 30)
    truth = mk.simulate(reactor, [5.0, 2.0], w, v, 30)
    olog = mk.run_observer(reactor_observer, [3.0, 0.0], truth.outputs)
    problem = mk.advance_window(reactor, quad_cost, 10, truth.outputs, olog, 20)
    candidate = mk.build_candidate(olog, problem.start, problem.horizon)
    return problem, candidate


def with_cost(window, quadratic):
    """The window with its quadratic cost, or with the same cost but zero
    curvatures, whose singular Gauss-Newton system sends the solver to
    spectral steepest descent."""
    problem, candidate = window
    if not quadratic:
        derivs = problem.cost.stage_derivs

        def flat(om, nu):
            g_w, g_v, h_w, h_v = derivs(om, nu)
            return g_w, g_v, np.zeros_like(h_w), np.zeros_like(h_v)

        problem = mk.HorizonProblem(
            model=problem.model, cost=replace(problem.cost, stage_derivs=flat),
            horizon=problem.horizon, prior=problem.prior,
            measurements=problem.measurements, start=problem.start,
        )
    return problem, candidate


def linear_model():
    a = np.array([[0.9, 0.1], [0.05, 0.8]])
    c = np.array([[1.0, 0.5]])
    return SystemModel(
        n=2, p=1,
        f=lambda x: x @ a.T,
        h=lambda x: x @ c.T,
        state_set=BoxSet.unbounded(2),
        disturbance_set=BoxSet.unbounded(2),
        noise_set=BoxSet.unbounded(1),
        lipschitz_h=float(np.linalg.norm(c)),
        f_jac=lambda x: np.broadcast_to(a, np.shape(x)[:-1] + a.shape),
        h_jac=lambda x: np.broadcast_to(c, np.shape(x)[:-1] + c.shape),
    )


def gradient_error(problem):
    """Relative error of ``cost_gradient`` against central differences of the
    cost at a random point of a length-10 window."""
    rng = np.random.default_rng(6)
    d = mk.DecisionVector(rng.uniform(1, 5, 2), rng.normal(0, 0.2, (10, 2)))
    g = np.concatenate(
        [arr.ravel() for arr in mk.cost_gradient(problem, d)]
    )
    u0 = np.concatenate([d.chi0, d.omegas.ravel()])
    h = 1e-6
    fd = np.empty_like(u0)
    for j in range(u0.size):
        e = np.zeros_like(u0)
        e[j] = h
        up = mk.DecisionVector((u0 + e)[:2], (u0 + e)[2:].reshape(10, 2))
        dn = mk.DecisionVector((u0 - e)[:2], (u0 - e)[2:].reshape(10, 2))
        fd[j] = (mk.eval_cost(problem, up) - mk.eval_cost(problem, dn)) / (2 * h)
    return np.linalg.norm(g - fd) / np.linalg.norm(fd)


class TestCostGradient:
    def test_zero_at_noise_free_global_minimum(self, reactor, quad_cost):
        log = mk.simulate(reactor, [4.0, 1.0], np.zeros((6, 2)), np.zeros((6, 1)), 6)
        problem = mk.HorizonProblem(
            model=reactor, cost=quad_cost, horizon=6,
            prior=log.states[0], measurements=log.outputs,
        )
        d = mk.DecisionVector(log.states[0], np.zeros((6, 2)))
        g_chi, g_om = mk.cost_gradient(problem, d)
        assert np.max(np.abs(g_chi)) < 1e-14
        assert np.max(np.abs(g_om)) < 1e-14

    def test_matches_central_differences(self, window):
        assert gradient_error(window[0]) < 1e-5

    def test_non_symmetric_weight_matches_central_differences(self, window):
        # a quadratic form sees only its weight's symmetric part, which the
        # power bounds already used; the gradient must use it too
        problem, _ = window
        cost = mk.quadratic_cost([[3.0, 1.0], [-0.5, 2.0]], [[25.0]])
        assert gradient_error(replace(problem, cost=cost)) < 1e-5

    def test_closed_form_identity_dynamics(self, quad_cost):
        eye = np.eye(2)
        ident = SystemModel(
            n=2, p=2,
            f=lambda x: x.copy(),
            h=lambda x: x.copy(),
            state_set=BoxSet.unbounded(2),
            disturbance_set=BoxSet.unbounded(2),
            noise_set=BoxSet.unbounded(2),
            lipschitz_h=1.0,
            f_jac=lambda x: np.broadcast_to(eye, np.shape(x) + (2,)),
            h_jac=lambda x: np.broadcast_to(eye, np.shape(x) + (2,)),
        )
        cost = mk.quadratic_cost(np.diag([2.0, 3.0]), np.diag([4.0, 5.0]))
        prior = np.array([0.5, -0.5])
        y0 = np.array([1.0, 2.0])
        problem = mk.HorizonProblem(
            model=ident, cost=cost, horizon=1, prior=prior,
            measurements=y0.reshape(1, 2),
        )
        chi0 = np.array([0.2, 0.1])
        om = np.array([[0.3, -0.2]])
        g_chi, g_om = mk.cost_gradient(problem, mk.DecisionVector(chi0, om))
        # J = |chi0-prior|^2 + om' W om + (y0-chi0)' V (y0-chi0)
        expect_chi = 2 * (chi0 - prior) - 2 * np.diag([4.0, 5.0]) @ (y0 - chi0)
        expect_om = 2 * np.diag([2.0, 3.0]) @ om[0]
        np.testing.assert_allclose(g_chi, expect_chi, rtol=0, atol=1e-12)
        np.testing.assert_allclose(g_om[0], expect_om, rtol=0, atol=1e-12)


def dense_gn_direction(problem, d, ro, g_chi, g_om):
    """Gauss-Newton step by the dense normal equations: the (n + M n)-square
    curvature built from the forward sensitivities of the shooting recursion
    and the cost's curvatures at the iterate ``d``, solved against the cost
    gradient."""
    model = problem.model
    m = problem.horizon
    n = model.n
    _, h_prior = problem.cost.gamma_derivs(d.chi0, problem.prior)
    _, _, h_w, h_v = problem.cost.stage_derivs(d.omegas, ro.residuals)
    dim = n + m * n
    hess = np.zeros((dim, dim))
    hess[:n, :n] = h_prior
    sens = np.zeros((n, dim))
    sens[:, :n] = np.eye(n)
    for i in range(m):
        lo = n + i * n
        hess[lo : lo + n, lo : lo + n] += h_w[i]
        u = model.h_jac(ro.states[i]) @ sens  # d(nu_i)/d(decision) = -u
        hess += u.T @ (h_v[i] @ u)
        sens = model.f_jac(ro.states[i]) @ sens
        sens[:, lo : lo + n] += np.eye(n)
    grad = np.concatenate([g_chi, g_om.ravel()])
    step = np.linalg.solve(hess, -grad)
    return step[:n], step[n:].reshape(m, n)


def random_spd(rng, k, scale):
    a = rng.normal(size=(k, k))
    return scale * (a @ a.T + 0.5 * k * np.eye(k))


class TestGaussNewtonDirection:
    @pytest.mark.parametrize("horizon", [1, 2, 10, 60, 100])
    def test_riccati_step_matches_dense_solve(self, reactor, horizon):
        rng = np.random.default_rng(horizon)
        bounded = replace(
            reactor,
            state_set=BoxSet([0.0, 0.0], [20.0, 20.0]),
            disturbance_set=BoxSet([-1.0, -1.0], [1.0, 1.0]),
            noise_set=BoxSet([-3.0], [3.0]),
        )
        for k in range(5):  # four random quadratic costs, then smooth-L1
            cost = smooth_l1_cost() if k == 4 else prior_weighted(
                mk.quadratic_cost(random_spd(rng, 2, 50.0), random_spd(rng, 1, 10.0)),
                random_spd(rng, 2, 1.0),
            )
            chi0 = rng.uniform(1.0, 5.0, 2)
            oms = rng.normal(0.0, 0.1, (horizon, 2))
            x = chi0.copy()
            ys = np.empty((horizon, 1))
            for i in range(horizon):
                ys[i] = bounded.h(x) + rng.normal(0.0, 0.3)
                x = bounded.f(x) + oms[i]
            problem = mk.HorizonProblem(
                model=bounded, cost=cost, horizon=horizon,
                prior=rng.uniform(1.0, 5.0, 2), measurements=ys,
            )
            # a perturbed iterate, away from the data-generating one
            d = mk.DecisionVector(
                chi0 + rng.normal(0.0, 0.3, 2), oms + rng.normal(0.0, 0.05, oms.shape)
            )
            ro = mk.rollout(problem, d)
            stack = WindowStack.of([problem])
            a, c = _jacobians(stack, ro.states[None])
            terms = _terms(stack, d.chi0[None], d.omegas[None], ro.residuals[None], c)
            d_chi, d_om = _gn_direction(terms, a, c)
            assert d_chi.shape == (1, 2) and d_om.shape == (1, horizon, 2)
            e_chi, e_om = dense_gn_direction(problem, d, ro, *mk.cost_gradient(problem, d))
            got = np.concatenate([d_chi[0], d_om[0].ravel()])
            expect = np.concatenate([e_chi, e_om.ravel()])
            assert np.linalg.norm(got - expect) <= 1e-10 * np.linalg.norm(expect)

    def test_budget_two_sweeps_jacobians_once_per_step(self, window):
        calls = {"f": [], "h": []}

        def counted(name, jac):
            def wrapped(x):
                calls[name].append(np.shape(x))
                return jac(x)

            return wrapped

        # Gauss-Newton steps, then spectral steepest-descent steps
        for quadratic in (True, False):
            problem, candidate = with_cost(window, quadratic)
            model = replace(
                problem.model,
                f_jac=counted("f", problem.model.f_jac),
                h_jac=counted("h", problem.model.h_jac),
            )
            counting = mk.HorizonProblem(
                model=model, cost=problem.cost, horizon=problem.horizon,
                prior=problem.prior, measurements=problem.measurements,
                start=problem.start,
            )
            stack = (1, problem.horizon, problem.model.n)
            calls.update(f=[], h=[])
            _, report = mk.solve_suboptimal(
                counting, candidate, mk.SolverConfig(max_iterations=2)
            )
            assert report.iterations_used == 2
            assert calls == {"f": [stack, stack], "h": [stack, stack]}

    def test_stacked_windows_sweep_jacobians_once_per_step_and_length(
        self, reactor, reactor_observer, quad_cost
    ):
        calls = []

        def counted(x):
            calls.append(np.shape(x))
            return reactor.f_jac(x)

        model = replace(reactor, f_jac=counted)
        w, v = mk.draw_noise(NoiseSpec(0.01 * np.eye(2), [[0.04]], seed=31), 30)
        truth = mk.simulate(reactor, [5.0, 2.0], w, v, 30)
        olog = mk.run_observer(reactor_observer, [3.0, 0.0], truth.outputs)
        # lengths 5, 10 (nine windows) and 7, in order of first appearance
        problems = [
            mk.advance_window(model, quad_cost, 10, truth.outputs, olog, t)
            for t in (5, *range(12, 21), 7)
        ]
        candidates = [mk.build_candidate(olog, p.start, p.horizon) for p in problems]
        solved = mk.solve_windows(problems, candidates, (2,))
        assert solved.iterations.tolist() == [[2]] * len(problems)
        assert calls == [(1, 5, 2)] * 2 + [(9, 10, 2)] * 2 + [(1, 7, 2)] * 2

    def test_forward_pass_maps_output_and_stage_once(self, window, monkeypatch):
        problem, candidate = window
        calls = []

        def counted(name, fn):
            def wrapped(*args):
                calls.append((name, np.shape(args[0])))
                return fn(*args)

            return wrapped

        counting = mk.HorizonProblem(
            model=replace(problem.model, h=counted("h", problem.model.h)),
            cost=replace(problem.cost, stage=counted("stage", problem.cost.stage)),
            horizon=problem.horizon, prior=problem.prior,
            measurements=problem.measurements, start=problem.start,
        )
        passes = []
        forward = mk.mhe._forward_pass

        def counted_pass(*args):
            passes.append(1)
            return forward(*args)

        monkeypatch.setattr(mk.solver, "_forward_pass", counted_pass)
        monkeypatch.setattr(mk.mhe, "_forward_pass", counted_pass)
        mk.solve_suboptimal(counting, candidate, mk.SolverConfig(max_iterations=2))
        stack = (1, problem.horizon, problem.model.n)
        assert passes and calls == [("h", stack), ("stage", stack)] * len(passes)

    def test_singular_system_falls_back_to_steepest_descent(self, window):
        # a zero disturbance weight passes CostSpec validation but leaves
        # the Gauss-Newton system singular
        problem, candidate = window
        v = np.array([[25.0]])
        cost = replace(
            problem.cost,
            stage=lambda om, nu: np.sum(nu * (nu @ v.T), axis=-1),
            stage_derivs=lambda om, nu: (
                np.zeros_like(om), 2.0 * (nu @ v.T), np.zeros(om.shape + om.shape[-1:]),
                np.broadcast_to(2.0 * v, nu.shape + v.shape[-1:]),
            ),
        )
        singular = mk.HorizonProblem(
            model=problem.model, cost=cost, horizon=problem.horizon,
            prior=problem.prior, measurements=problem.measurements,
            start=problem.start,
        )
        d, report = mk.solve_suboptimal(
            singular, candidate, mk.SolverConfig(max_iterations=2)
        )
        assert report.iterations_used == 2
        assert mk.check_feasible(singular, d).feasible
        assert mk.eval_cost(singular, d) <= mk.eval_cost(singular, candidate)


class TestMapShapes:
    @pytest.mark.parametrize(
        "name, single_state_map",
        [
            # with M = n = 2, c @ x on the stack returns (1, 2) instead of (2, 1)
            ("h", lambda x: np.array([[1.0, 0.5]]) @ x),
            ("f_jac", lambda x: np.array([[0.9, 0.1], [0.05, 0.8]])),
            ("h_jac", lambda x: np.array([[1.0, 0.5]])),
            # the prior maps, written for one window's (chi, prior): summed
            # over the stack, () instead of (1,), and P d as a column, (2, 1)
            # instead of (1, 2)
            ("gamma", lambda chi, prior: np.sum((chi - prior) ** 2)),
            (
                "gamma_derivs",
                lambda chi, prior: (2.0 * (np.eye(2) @ (chi - prior).T), 2.0 * np.eye(2)),
            ),
            # stage curvatures written for one stage: (2, 2) instead of
            # (1, 2, 2, 2)
            (
                "stage_derivs",
                lambda om, nu: (2.0 * om, 2.0 * nu, 2.0 * np.eye(2), 2.0 * np.eye(1)),
            ),
        ],
    )
    def test_map_written_for_one_state_is_named(self, name, single_state_map):
        model, cost = linear_model(), mk.quadratic_cost(np.eye(2), [[1.0]])
        if name in {f.name for f in fields(mk.CostSpec)}:
            cost = replace(cost, **{name: single_state_map})
        else:
            model = replace(model, **{name: single_state_map})
        problem = mk.HorizonProblem(
            model=model, cost=cost, horizon=2,
            prior=np.zeros(2), measurements=np.ones((2, 1)),
        )
        candidate = mk.DecisionVector(np.ones(2), np.zeros((2, 2)))
        with pytest.raises(ValueError, match=f"^{name} returned shape"):
            mk.solve_suboptimal(problem, candidate, mk.SolverConfig(max_iterations=1))

    @pytest.mark.parametrize(
        "name, short_map",
        [
            # the gradient alone, without the curvature
            ("gamma_derivs", lambda chi, prior: 2.0 * (chi - prior)),
            # the two gradients, without the curvatures
            ("stage_derivs", lambda om, nu: (2.0 * om, 2.0 * nu)),
        ],
    )
    def test_derivative_map_with_missing_outputs_is_named(self, window, name, short_map):
        problem, candidate = window
        problem = replace(problem, cost=replace(problem.cost, **{name: short_map}))
        with pytest.raises(ValueError, match=f"^{name} must return a tuple of [24] arrays"):
            mk.solve_suboptimal(problem, candidate, mk.SolverConfig(max_iterations=1))


class TestSolveSuboptimal:
    def test_zero_budget_returns_candidate_unchanged(self, window):
        problem, candidate = window
        d, report = mk.solve_suboptimal(
            problem, candidate, mk.SolverConfig(max_iterations=0)
        )
        assert d is candidate
        assert report.iterations_used == 0
        np.testing.assert_array_equal(
            report.cost_trace, [mk.eval_cost(problem, candidate)]
        )

    def test_optimal_candidate_converges_immediately(self, reactor, quad_cost):
        log = mk.simulate(reactor, [4.0, 1.0], np.zeros((6, 2)), np.zeros((6, 1)), 6)
        problem = mk.HorizonProblem(
            model=reactor, cost=quad_cost, horizon=6,
            prior=log.states[0], measurements=log.outputs,
        )
        candidate = mk.DecisionVector(log.states[0], np.zeros((6, 2)))
        d, report = mk.solve_suboptimal(
            problem, candidate, mk.SolverConfig(max_iterations=5)
        )
        assert report.converged
        assert report.iterations_used == 0
        assert d is candidate

    def test_budget_ordering_on_case_study_window(self, window):
        problem, candidate = window
        costs = {}
        for budget in (0, 2, 5):
            _, report = mk.solve_suboptimal(
                problem, candidate, mk.SolverConfig(max_iterations=budget)
            )
            costs[budget] = report.cost_trace[-1]
        assert costs[5] <= costs[2] <= costs[0]
        assert costs[2] < costs[0]  # the warm start is far from optimal here

    def test_budget_dominance_sweep(self, window):
        problem, candidate = window
        previous = np.inf
        for budget in range(9):
            _, report = mk.solve_suboptimal(
                problem, candidate, mk.SolverConfig(max_iterations=budget)
            )
            assert report.cost_trace[-1] <= previous + 1e-15
            previous = report.cost_trace[-1]

    def test_monotone_trace_all_step_rules(self, window):
        # without quadratic weights the solver takes spectral steepest-descent steps
        for quadratic in (True, False):
            problem, candidate = with_cost(window, quadratic)
            _, report = mk.solve_suboptimal(
                problem, candidate, mk.SolverConfig(max_iterations=12)
            )
            assert np.all(np.diff(report.cost_trace) <= 0)
            assert report.cost_trace[0] == mk.eval_cost(problem, candidate)
            assert report.feasibility_residual <= 1e-9

    def test_zero_budget_needs_no_jacobians(self, window):
        for quadratic in (True, False):
            problem, candidate = with_cost(window, quadratic)
            no_jac = mk.HorizonProblem(
                model=replace(problem.model, f_jac=None), cost=problem.cost,
                horizon=problem.horizon, prior=problem.prior,
                measurements=problem.measurements, start=problem.start,
            )
            d, report = mk.solve_suboptimal(
                no_jac, candidate, mk.SolverConfig(max_iterations=0)
            )
            assert d is candidate and report.iterations_used == 0
            with pytest.raises(ValueError, match="Jacobians"):
                mk.solve_suboptimal(no_jac, candidate, mk.SolverConfig(max_iterations=1))

    def test_zero_budget_rolls_candidate_once(self, window, monkeypatch):
        # the entry feasibility report and the warm-start cost share one pass
        problem, candidate = window
        calls = []
        forward = mk.mhe._forward_pass

        def counted(*args):
            calls.append(1)
            return forward(*args)

        monkeypatch.setattr(mk.mhe, "_forward_pass", counted)
        monkeypatch.setattr(mk.solver, "_forward_pass", counted)
        mk.solve_suboptimal(problem, candidate, mk.SolverConfig(max_iterations=0))
        assert len(calls) == 1

    def test_infeasible_candidate_rejected(self, window):
        problem, candidate = window
        pinned = replace(
            problem.model, disturbance_set=BoxSet([0.0, 0.0], [0.0, 0.0])
        )
        bad_problem = mk.HorizonProblem(
            model=pinned, cost=problem.cost, horizon=problem.horizon,
            prior=problem.prior, measurements=problem.measurements,
            start=problem.start,
        )
        with pytest.raises(InfeasibleCandidateError, match=r"window \[10, 20\)"):
            mk.solve_suboptimal(bad_problem, candidate, mk.SolverConfig())

    def test_line_search_failure_returns_candidate(self, reactor, quad_cost, monkeypatch):
        # Pin the residual set to {0} with data consistent only with the
        # candidate; with few backtracks every step is rejected.
        pinned = replace(reactor, noise_set=BoxSet([0.0], [0.0]))
        x0 = np.array([4.0, 1.5])
        x = x0.copy()
        ys = np.empty((3, 1))
        for i in range(3):
            ys[i] = pinned.h(x)
            x = pinned.f(x)
        problem = mk.HorizonProblem(
            model=pinned, cost=quad_cost, horizon=3,
            prior=x0 + np.array([0.5, -0.2]), measurements=ys,
        )
        candidate = mk.DecisionVector(x0, np.zeros((3, 2)))
        monkeypatch.setattr(solver, "MAX_BACKTRACKS", 3)
        d, report = mk.solve_suboptimal(problem, candidate, mk.SolverConfig(max_iterations=5))
        assert d is candidate
        assert report.iterations_used == 0
        assert mk.check_feasible(problem, d).feasible

    def test_contract_on_randomized_windows(self, reactor, quad_cost):
        rng = np.random.default_rng(8)
        for _ in range(40):
            m = int(rng.integers(1, 8))
            chi0 = rng.uniform(1, 5, 2)
            oms = rng.normal(0, 0.2, (m, 2))
            x = chi0.copy()
            ys = np.empty((m, 1))
            for i in range(m):
                ys[i] = reactor.h(x) + rng.normal(0, 0.5)
                x = reactor.f(x) + oms[i]
            problem = mk.HorizonProblem(
                model=reactor, cost=quad_cost, horizon=m,
                prior=rng.uniform(1, 5, 2), measurements=ys,
            )
            candidate = mk.DecisionVector(chi0, oms)
            budget = int(rng.integers(0, 7))
            d, report = mk.solve_suboptimal(
                problem, candidate, mk.SolverConfig(max_iterations=budget)
            )
            assert mk.check_feasible(problem, d).feasible
            j_cand = mk.eval_cost(problem, candidate)
            assert mk.eval_cost(problem, d) <= j_cand + 1e-12


class TestSolveConverged:
    def test_matches_weighted_least_squares_oracle(self):
        model = linear_model()
        w, v, p = np.diag([4.0, 2.0]), np.array([[3.0]]), np.diag([1.0, 2.0])
        cost = prior_weighted(mk.quadratic_cost(w, v), p)
        rng = np.random.default_rng(5)
        m = 6
        ys = rng.normal(0, 1, (m, 1))
        prior = rng.normal(0, 1, 2)
        problem = mk.HorizonProblem(
            model=model, cost=cost, horizon=m, prior=prior, measurements=ys
        )
        candidate = mk.DecisionVector(np.zeros(2), np.zeros((m, 2)))

        # independent oracle: stacked weighted residuals are affine in the
        # decision, so probe the map on basis vectors and solve by lstsq
        sq_p = np.linalg.cholesky(p).T
        sq_w = np.linalg.cholesky(w).T
        sq_v = np.linalg.cholesky(v).T

        def residual(u):
            d = mk.DecisionVector(u[:2], u[2:].reshape(m, 2))
            ro = mk.rollout(problem, d)
            parts = [sq_p @ (d.chi0 - prior)]
            for i in range(m):
                parts.append(sq_w @ d.omegas[i])
                parts.append(sq_v @ ro.residuals[i])
            return np.concatenate(parts)

        dim = 2 + 2 * m
        r0 = residual(np.zeros(dim))
        basis = np.column_stack(
            [residual(np.eye(dim)[j]) - r0 for j in range(dim)]
        )
        expected, *_ = np.linalg.lstsq(basis, -r0, rcond=None)

        d, report = mk.solve_suboptimal(problem, candidate, mk.SolverConfig())
        got = np.concatenate([d.chi0, d.omegas.ravel()])
        assert report.converged
        assert np.max(np.abs(got - expected)) < 1e-6

    def test_smooth_l1_takes_few_gauss_newton_steps(self):
        # the pseudo-Huber curvature gives Newton steps on case-study windows,
        # where spectral steepest descent took a median of ~200 steps
        model, cost = mk.harness.build_model(mk.ExperimentConfig()), smooth_l1_cost()
        problems, candidates = [], []
        for seed in range(10):
            truth, olog = mk.harness.simulate_and_observe(mk.ExperimentConfig(seed=seed))
            for t in (10, 25, 40):
                problems.append(mk.advance_window(model, cost, 10, truth.outputs, olog, t))
                candidates.append(mk.build_candidate(olog, problems[-1].start, 10))
        solved = mk.solve_windows(problems, candidates, (mk.SolverConfig().max_iterations,))
        assert solved.converged.all()
        assert solved.iterations.max() <= 20

    def test_already_optimal_takes_no_iterations(self, reactor, quad_cost):
        log = mk.simulate(reactor, [4.0, 1.0], np.zeros((4, 2)), np.zeros((4, 1)), 4)
        problem = mk.HorizonProblem(
            model=reactor, cost=quad_cost, horizon=4,
            prior=log.states[0], measurements=log.outputs,
        )
        candidate = mk.DecisionVector(log.states[0], np.zeros((4, 2)))
        _, report = mk.solve_suboptimal(problem, candidate, mk.SolverConfig())
        assert report.iterations_used == 0
        assert report.converged

    def test_converged_cost_below_every_budget(self, window):
        problem, candidate = window
        _, conv = mk.solve_suboptimal(problem, candidate, mk.SolverConfig())
        for budget in (0, 2, 5):
            _, rep = mk.solve_suboptimal(
                problem, candidate, mk.SolverConfig(max_iterations=budget)
            )
            assert conv.cost_trace[-1] <= rep.cost_trace[-1] + 1e-15


class TestCheckpoints:
    def test_budget_beyond_converged_cap_is_not_cut_short(self, window):
        problem, candidate = window
        per_budget, final = mk.solve_with_checkpoints(
            problem, candidate, mk.SolverConfig(max_iterations=1), budgets=(3,)
        )
        for (d_chk, rep_chk), cap in ((per_budget[3], 3), (final, 1)):
            d_alone, rep_alone = mk.solve_suboptimal(
                problem, candidate, mk.SolverConfig(max_iterations=cap)
            )
            assert rep_chk.iterations_used == rep_alone.iterations_used == cap
            assert np.array_equal(d_alone.chi0, d_chk.chi0)
            assert np.array_equal(d_alone.omegas, d_chk.omegas)
            np.testing.assert_array_equal(rep_alone.cost_trace, rep_chk.cost_trace)

    def test_feasibility_is_checked_once_per_finite_pass(self, window, monkeypatch):
        # each iterate carries the report that accepted it; packing adds none
        problem, candidate = window
        finite_passes, checks = [], []
        forward, feasibility = mk.mhe._forward_pass, mk.solver._feasibility

        def counted_pass(*args):
            states, resids, cost = forward(*args)
            finite_passes.append(bool(np.all(np.isfinite(states)) and np.all(np.isfinite(cost))))
            return states, resids, cost

        def counted_feasibility(*args):
            checks.append(1)
            return feasibility(*args)

        monkeypatch.setattr(mk.mhe, "_forward_pass", counted_pass)
        monkeypatch.setattr(mk.solver, "_forward_pass", counted_pass)
        monkeypatch.setattr(mk.solver, "_feasibility", counted_feasibility)
        per_budget, final = mk.solve_with_checkpoints(
            problem, candidate, mk.SolverConfig(), budgets=(0, 2, 5)
        )
        assert per_budget[2][1].iterations_used == 2 and final[1].iterations_used >= 5
        assert len(checks) == sum(finite_passes)

    def test_checkpoints_match_standalone_runs(self, window):
        problem, candidate = window
        per_budget, final = mk.solve_with_checkpoints(
            problem, candidate, mk.SolverConfig(), budgets=(0, 2, 5)
        )
        for budget in (0, 2, 5):
            d_alone, rep_alone = mk.solve_suboptimal(
                problem, candidate, mk.SolverConfig(max_iterations=budget)
            )
            d_chk, rep_chk = per_budget[budget]
            assert np.array_equal(d_alone.chi0, d_chk.chi0)
            assert np.array_equal(d_alone.omegas, d_chk.omegas)
            assert rep_alone.iterations_used == rep_chk.iterations_used
            assert rep_alone.converged == rep_chk.converged
            np.testing.assert_array_equal(rep_alone.cost_trace, rep_chk.cost_trace)
        d_conv, rep_conv = mk.solve_suboptimal(problem, candidate, mk.SolverConfig())
        assert np.array_equal(final[0].chi0, d_conv.chi0)
        np.testing.assert_array_equal(final[1].cost_trace, rep_conv.cost_trace)

    @pytest.mark.parametrize("stop", [2.5, -1, True])
    def test_stops_must_be_budgets(self, window, stop):
        problem, candidate = window
        with pytest.raises(ValueError, match="stops must be nonnegative integers"):
            mk.solve_windows([problem], [candidate], (2, stop))


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            mk.SolverConfig(max_iterations=-1)
        assert [f.name for f in fields(mk.SolverConfig)] == ["max_iterations"]
        for removed in (
            "step_rule", "converged_cap", "armijo_c", "backtrack_factor",
            "max_backtracks", "initial_step", "convergence_tol", "cost_tol",
        ):
            with pytest.raises(TypeError):
                mk.SolverConfig(**{removed: None})
