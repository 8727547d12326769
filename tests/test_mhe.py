import json
from dataclasses import replace

import numpy as np
import pytest

import mhekit as mk
from mhekit.dynamics import BoxSet, NoiseSpec


@pytest.fixture(scope="module")
def noisy_setup(reactor, reactor_observer, quad_cost):
    w, v = mk.draw_noise(NoiseSpec(0.01 * np.eye(2), [[0.04]], seed=21), 30)
    truth = mk.simulate(reactor, [5.0, 2.0], w, v, 30)
    olog = mk.run_observer(reactor_observer, [3.0, 0.0], truth.outputs)
    return truth, olog


class TestQuadraticCost:
    def test_case_study_power_bounds(self, quad_cost):
        # eigenvalues of the inverse covariances: 100 (process), 25 (output),
        # identity prior weighting, quadratic exponent
        assert quad_cost.a == 2.0
        assert abs(quad_cost.c_w_lo - 100.0) < 1e-9
        assert abs(quad_cost.c_w_hi - 100.0) < 1e-9
        assert abs(quad_cost.c_v_lo - 25.0) < 1e-9
        assert abs(quad_cost.c_v_hi - 25.0) < 1e-9
        assert quad_cost.c_p_lo == 1.0 and quad_cost.c_p_hi == 1.0

    def test_two_sided_bounds_sampled(self, quad_cost):
        rng = np.random.default_rng(1)
        for _ in range(200):
            chi = rng.normal(0, 2, 2)
            xb = rng.normal(0, 2, 2)
            om = rng.normal(0, 1, 2)
            nu = rng.normal(0, 1, 1)
            gamma = quad_cost.gamma(chi, xb)
            d = np.linalg.norm(chi - xb)
            assert quad_cost.c_p_lo * d**2 - 1e-9 <= gamma <= quad_cost.c_p_hi * d**2 + 1e-9
            stage = quad_cost.stage(om, nu)
            lo = quad_cost.c_w_lo * np.linalg.norm(om) ** 2 + quad_cost.c_v_lo * np.linalg.norm(nu) ** 2
            hi = quad_cost.c_w_hi * np.linalg.norm(om) ** 2 + quad_cost.c_v_hi * np.linalg.norm(nu) ** 2
            assert lo - 1e-9 <= stage <= hi + 1e-9

    def test_stage_maps_on_stacks_equal_per_row_values(self):
        rng = np.random.default_rng(2)
        cost = mk.quadratic_cost(
            [[3.0, 0.4], [0.4, 2.0]], [[2.0, -0.3], [-0.3, 1.5]], np.eye(2)
        )
        om = rng.normal(0, 1, (4, 6, 2))
        nu = rng.normal(0, 1, (4, 6, 2))
        for fn in (cost.stage, cost.stage_grad_w, cost.stage_grad_v):
            rows = np.array([fn(*row) for row in zip(om.reshape(-1, 2), nu.reshape(-1, 2))])
            stacked = fn(om, nu)
            assert stacked.shape == om.shape[:2] + rows.shape[1:]
            # matmul may round a stack and a single row differently (fused
            # multiply-add), so they agree to a few ulps of the largest entry
            np.testing.assert_allclose(
                stacked.reshape(rows.shape), rows, rtol=0,
                atol=4 * np.finfo(float).eps * np.max(np.abs(rows)),
            )

    def test_gamma_vanishes_at_prior(self, quad_cost):
        x = np.array([1.2, -0.3])
        assert quad_cost.gamma(x, x) == 0.0

    def test_indefinite_weight_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            mk.quadratic_cost(np.array([[1.0, 0.0], [0.0, -1.0]]), [[1.0]])


class TestRollout:
    def test_exact_model_fit_costs_only_prior(self, reactor, quad_cost):
        log = mk.simulate(reactor, [5.0, 2.0], np.zeros((8, 2)), np.zeros((8, 1)), 8)
        prior = np.array([4.0, 1.0])
        problem = mk.HorizonProblem(
            model=reactor, cost=quad_cost, horizon=8,
            prior=prior, measurements=log.outputs,
        )
        d = mk.DecisionVector(log.states[0], np.zeros((8, 2)))
        ro = mk.rollout(problem, d)
        assert not ro.residuals.any()
        assert ro.cost == quad_cost.gamma(log.states[0], prior)

    def test_single_stage_residual(self, reactor, quad_cost):
        problem = mk.HorizonProblem(
            model=reactor, cost=quad_cost, horizon=1,
            prior=np.array([3.0, 0.0]), measurements=np.array([[7.0]]),
        )
        d = mk.DecisionVector(np.array([3.0, 0.0]), np.zeros((1, 2)))
        ro = mk.rollout(problem, d)
        assert ro.residuals[0, 0] == 4.0

    def test_rerolling_states_reproduces_them(self, reactor, quad_cost, noisy_setup):
        truth, olog = noisy_setup
        problem = mk.advance_window(reactor, quad_cost, 10, truth.outputs, olog, 25)
        rng = np.random.default_rng(2)
        d = mk.DecisionVector(rng.uniform(1, 5, 2), rng.normal(0, 0.2, (10, 2)))
        ro = mk.rollout(problem, d)
        x = d.chi0
        for i in range(10):
            x = reactor.f(x) + d.omegas[i]
            assert np.array_equal(ro.states[i + 1], x)

    def test_dimension_mismatch_raises(self, reactor, quad_cost):
        problem = mk.HorizonProblem(
            model=reactor, cost=quad_cost, horizon=2,
            prior=np.array([3.0, 0.0]), measurements=np.zeros((2, 1)),
        )
        with pytest.raises(ValueError):
            mk.rollout(problem, mk.DecisionVector(np.zeros(2), np.zeros((3, 2))))


class TestEvalCost:
    def test_worked_quadratic_example(self, reactor, quad_cost):
        # chi0 = prior, one stage, omega = (0.1, 0), data forcing nu = 0.2:
        # 0 + 0.1^2 * 100 + 0.2^2 * 25 = 2
        prior = np.array([3.0, 1.0])
        y0 = reactor.h(prior)[0] + 0.2
        problem = mk.HorizonProblem(
            model=reactor, cost=quad_cost, horizon=1,
            prior=prior, measurements=np.array([[y0]]),
        )
        d = mk.DecisionVector(prior.copy(), np.array([[0.1, 0.0]]))
        assert abs(mk.eval_cost(problem, d) - 2.0) < 1e-12

    def test_global_minimum_is_zero(self, reactor, quad_cost):
        log = mk.simulate(reactor, [4.0, 1.0], np.zeros((6, 2)), np.zeros((6, 1)), 6)
        problem = mk.HorizonProblem(
            model=reactor, cost=quad_cost, horizon=6,
            prior=log.states[0], measurements=log.outputs,
        )
        d = mk.DecisionVector(log.states[0], np.zeros((6, 2)))
        assert mk.eval_cost(problem, d) == 0.0

    def test_pure_function(self, reactor, quad_cost, noisy_setup):
        truth, olog = noisy_setup
        p1 = mk.advance_window(reactor, quad_cost, 10, truth.outputs, olog, 20)
        p2 = mk.advance_window(reactor, quad_cost, 10, truth.outputs, olog, 20)
        d = mk.build_candidate(olog, p1.start, p1.horizon)
        assert mk.eval_cost(p1, d) == mk.eval_cost(p2, d)


class TestCandidate:
    def test_noise_free_candidate_is_truth(self, reactor, reactor_observer, quad_cost):
        log = mk.simulate(reactor, [5.0, 2.0], np.zeros((20, 2)), np.zeros((20, 1)), 20)
        olog = mk.run_observer(reactor_observer, [5.0, 2.0], log.outputs)
        cand = mk.build_candidate(olog, 10, 10)
        assert not cand.omegas.any()
        assert np.array_equal(cand.chi0, log.states[10])

    def test_candidate_rollout_reproduces_observer(self, reactor, quad_cost, noisy_setup):
        truth, olog = noisy_setup
        problem = mk.advance_window(reactor, quad_cost, 10, truth.outputs, olog, 28)
        cand = mk.build_candidate(olog, problem.start, problem.horizon)
        ro = mk.rollout(problem, cand)
        assert np.array_equal(
            ro.states, olog.states[problem.start : problem.start + 11]
        )

    def test_candidate_prior_term_is_exactly_zero(self, quad_cost, noisy_setup):
        truth, olog = noisy_setup
        for t in (1, 5, 15, 30):
            m = min(10, t)
            cand = mk.build_candidate(olog, t - m, m)
            assert quad_cost.gamma(cand.chi0, olog.states[t - m]) == 0.0

    def test_log_too_short_raises(self, noisy_setup):
        _, olog = noisy_setup
        with pytest.raises(ValueError, match="does not cover"):
            mk.build_candidate(olog, 25, 10)


class TestAdvanceWindow:
    @pytest.mark.parametrize(
        "t,expected_m,expected_start",
        [(3, 3, 0), (10, 10, 0), (11, 10, 1)],
    )
    def test_growing_then_sliding(self, reactor, quad_cost, noisy_setup, t, expected_m, expected_start):
        truth, olog = noisy_setup
        problem = mk.advance_window(reactor, quad_cost, 10, truth.outputs, olog, t)
        assert problem.horizon == expected_m
        assert problem.start == expected_start
        assert np.array_equal(problem.prior, olog.states[expected_start])
        assert np.array_equal(
            problem.measurements, truth.outputs[expected_start:t]
        )

    def test_t_zero_rejected(self, reactor, quad_cost, noisy_setup):
        truth, olog = noisy_setup
        with pytest.raises(ValueError):
            mk.advance_window(reactor, quad_cost, 10, truth.outputs, olog, 0)


class TestCheckFeasible:
    def test_unbounded_sets_always_feasible(self, reactor, quad_cost, noisy_setup):
        truth, olog = noisy_setup
        problem = mk.advance_window(reactor, quad_cost, 10, truth.outputs, olog, 15)
        rng = np.random.default_rng(4)
        d = mk.DecisionVector(rng.uniform(0, 6, 2), rng.normal(0, 0.3, (10, 2)))
        assert mk.check_feasible(problem, d).feasible

    def test_observer_candidate_feasible_under_matching_sets(
        self, reactor, quad_cost, noisy_setup
    ):
        truth, olog = noisy_setup
        # boxes generous enough to contain the observer's z, v_z and L
        bounded = replace(
            reactor,
            state_set=BoxSet([-10.0, -10.0], [10.0, 10.0]),
            disturbance_set=BoxSet([-1.0, -1.0], [1.0, 1.0]),
            noise_set=BoxSet([-10.0], [10.0]),
        )
        problem = mk.advance_window(bounded, quad_cost, 10, truth.outputs, olog, 20)
        cand = mk.build_candidate(olog, problem.start, problem.horizon)
        assert mk.check_feasible(problem, cand).feasible

    def test_zero_disturbance_set_flags_violations(self, reactor, quad_cost, noisy_setup):
        truth, olog = noisy_setup
        pinned = replace(
            reactor, disturbance_set=BoxSet([0.0, 0.0], [0.0, 0.0])
        )
        problem = mk.advance_window(pinned, quad_cost, 10, truth.outputs, olog, 20)
        cand = mk.build_candidate(olog, problem.start, problem.horizon)
        report = mk.check_feasible(problem, cand)
        assert not report.feasible
        kinds = {v[1] for v in report.violations}
        assert kinds == {"disturbance"}
        assert report.max_violation > 0


class TestSnapshot:
    def test_json_round_trip(self, reactor, quad_cost, noisy_setup):
        truth, olog = noisy_setup
        problem = mk.advance_window(reactor, quad_cost, 10, truth.outputs, olog, 12)
        cand = mk.build_candidate(olog, problem.start, problem.horizon)
        doc = json.loads(mk.mhe.snapshot_json(problem, cand))
        assert doc["horizon"] == 10
        assert doc["start"] == 2
        np.testing.assert_array_equal(doc["candidate"]["chi0"], cand.chi0)
