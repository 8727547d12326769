import csv

import numpy as np
import pytest

import mhekit as mk
from mhekit.analysis import (
    DEFAULT_RHO_GRID,
    CostBoundConstants,
    DetectabilityConstants,
    RgesConstants,
    check_rges_envelope,
    envelope_constants,
    fit_observer_envelope,
    horizon_factor_disturbance,
    horizon_factor_initial,
    rmse,
    stage_envelope_scale,
    suboptimal_cost_bound,
)


def brute_initial(rho, a, n):
    # sum_{k=1..N} rho^(-a k), the geometric identity behind the factor
    return sum(rho ** (-a * k) for k in range(1, n + 1))


def brute_disturbance(rho, a, n):
    # sum_{j=1..N} (rho^a)^(j-N)
    return sum((rho**a) ** (j - n) for j in range(1, n + 1))


class TestHorizonFactors:
    def test_worked_values(self):
        assert abs(horizon_factor_initial(0.5, 1.0, 2) - 6.0) < 1e-12
        assert abs(horizon_factor_disturbance(0.5, 1.0, 2) - 3.0) < 1e-12

    def test_single_step_identities(self):
        for rho, a in [(0.3, 1.0), (0.8, 2.0), (0.95, 0.5)]:
            assert abs(horizon_factor_initial(rho, a, 1) - rho ** (-a)) < 1e-12
            assert abs(horizon_factor_disturbance(rho, a, 1) - 1.0) < 1e-12

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            rho = rng.uniform(0.2, 0.98)
            a = rng.uniform(0.3, 3.0)
            n = int(rng.integers(1, 25))
            got = horizon_factor_initial(rho, a, n)
            assert abs(got - brute_initial(rho, a, n)) <= 1e-10 * abs(got)
            got = horizon_factor_disturbance(rho, a, n)
            assert abs(got - brute_disturbance(rho, a, n)) <= 1e-10 * abs(got)

    def test_monotone_in_horizon(self):
        for rho, a in [(0.5, 1.0), (0.9, 2.0)]:
            init = [horizon_factor_initial(rho, a, n) for n in range(1, 15)]
            dist = [horizon_factor_disturbance(rho, a, n) for n in range(1, 15)]
            assert np.all(np.diff(init) > 0)
            assert np.all(np.diff(dist) > 0)

    def test_partial_horizon_dominance(self):
        # growing-window factors never exceed the full-horizon ones
        n = 10
        for rho, a in [(0.5, 1.0), (0.88, 2.0)]:
            for t in range(1, n):
                assert horizon_factor_initial(rho, a, n) > horizon_factor_initial(rho, a, t)
                assert horizon_factor_disturbance(rho, a, n) > horizon_factor_disturbance(rho, a, t)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            horizon_factor_initial(1.0, 1.0, 3)
        with pytest.raises(ValueError):
            horizon_factor_disturbance(0.5, -1.0, 3)
        with pytest.raises(ValueError):
            horizon_factor_initial(0.5, 1.0, 0)


def unit_cbc(a=1.0):
    return CostBoundConstants(
        a=a, c_p_lo=1.0, c_w_lo=1.0, c_v_lo=1.0,
        c_w_hi=1.0, c_v_hi=1.0, lipschitz_h=1.0, kappa=1.0,
    )


class TestSuboptimalCostBound:
    def test_zero_inputs_give_zero_bound(self):
        rc = RgesConstants(1.0, 1.0, 1.0, 0.5)
        got = suboptimal_cost_bound(
            unit_cbc(), rc, 5, 10, 0.0, np.zeros((10, 2)), np.zeros((10, 1))
        )
        assert got == 0.0

    def test_time_zero_keeps_only_initial_term(self):
        rc = RgesConstants(1.0, 1.0, 1.0, 0.5)
        cbc = unit_cbc()
        cbar = stage_envelope_scale(cbc, rc)
        got = suboptimal_cost_bound(
            cbc, rc, 3, 0, 2.0, np.zeros((5, 2)), np.zeros((5, 1))
        )
        expect = cbar * horizon_factor_initial(0.5, 1.0, 3) * 2.0
        assert abs(got - expect) < 1e-12

    def test_hand_substituted_single_step(self):
        # a=1, N=1, unit gains, rho=0.5, e0=1, one unit disturbance at t-1:
        # factors are 2 and 1, so the bound is cbar*(2*0.5 + 1) = 2*cbar
        rc = RgesConstants(1.0, 1.0, 1.0, 0.5)
        cbc = unit_cbc()
        cbar = stage_envelope_scale(cbc, rc)  # 3*(1+1) = 6
        assert cbar == 6.0
        w = np.array([[1.0, 0.0]])
        v = np.zeros((1, 1))
        got = suboptimal_cost_bound(cbc, rc, 1, 1, 1.0, w, v)
        assert abs(got - 2.0 * cbar) < 1e-12

    def test_histories_too_short_raise(self):
        rc = RgesConstants(1.0, 1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            suboptimal_cost_bound(
                unit_cbc(), rc, 3, 10, 1.0, np.zeros((5, 2)), np.zeros((5, 1))
            )


    def test_array_of_times_equals_scalar_calls(self):
        rng = np.random.default_rng(3)
        _, w, v = random_history(rng, 121)  # 120 inputs cover t = 0..120
        cbc, rc = unit_cbc(2.0), RgesConstants(1.3, 0.7, 1.9, 0.93)
        for times in (np.arange(121), rng.permutation(121)[:40], np.array([0])):
            got = suboptimal_cost_bound(cbc, rc, 7, times, 0.6, w, v)
            expect = [
                suboptimal_cost_bound(cbc, rc, 7, int(t), 0.6, w, v) for t in times
            ]
            assert got.shape == times.shape
            np.testing.assert_array_equal(got, expect)
        assert type(suboptimal_cost_bound(cbc, rc, 7, 5, 0.6, w, v)) is float

    def test_bad_times_rejected(self):
        rc = RgesConstants(1.0, 1.0, 1.0, 0.5)
        w, v = np.zeros((5, 2)), np.zeros((5, 1))
        for t in (np.arange(3, 7), np.zeros((2, 2), dtype=int), 1.5, -1, np.array([-25])):
            with pytest.raises(ValueError):
                suboptimal_cost_bound(unit_cbc(), rc, 3, t, 1.0, w, v)

    def test_analyze_run_makes_one_call(self, short_run, monkeypatch):
        calls = []
        bound = mk.harness.suboptimal_cost_bound

        def counted(*args):
            calls.append(args[3])
            return bound(*args)

        monkeypatch.setattr(mk.harness, "suboptimal_cost_bound", counted)
        report = mk.analyze_run(short_run)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], np.arange(short_run.config.steps + 1))
        assert report["cost_bounds"].shape == (short_run.config.steps + 1,)


class TestEnvelopeConstants:
    def test_hand_substituted_spot_values(self):
        # a=1, N=1, eta=rho=0.5, every gain 1: the full-window expressions
        # evaluate to (91, 92, 92) and the growing-window ones to 109 each.
        dc = DetectabilityConstants(1.0, 1.0, 1.0, 0.5)
        rc = RgesConstants(1.0, 1.0, 1.0, 0.5)
        out = envelope_constants(dc, rc, unit_cbc(), 1)
        assert abs(out.c_p - 109.0) < 1e-9
        assert abs(out.c_w - 109.0) < 1e-9
        assert abs(out.c_v - 109.0) < 1e-9
        assert out.rho == 0.5

    def test_decay_is_max_of_rates(self):
        dc = DetectabilityConstants(1.0, 1.0, 1.0, 0.7)
        rc = RgesConstants(1.0, 1.0, 1.0, 0.9)
        assert envelope_constants(dc, rc, unit_cbc(), 4).rho == 0.9
        rc2 = RgesConstants(1.0, 1.0, 1.0, 0.6)
        assert envelope_constants(dc, rc2, unit_cbc(), 4).rho == 0.7

    def test_all_gains_positive(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            dc = DetectabilityConstants(*rng.uniform(0.1, 5, 3), rng.uniform(0.2, 0.95))
            rc = RgesConstants(*rng.uniform(0.1, 5, 3), rng.uniform(0.2, 0.95))
            cbc = CostBoundConstants(
                a=rng.uniform(0.5, 2.5), c_p_lo=rng.uniform(0.1, 5),
                c_w_lo=rng.uniform(0.1, 5), c_v_lo=rng.uniform(0.1, 5),
                c_w_hi=rng.uniform(0.1, 5), c_v_hi=rng.uniform(0.1, 5),
                lipschitz_h=rng.uniform(0.1, 3), kappa=rng.uniform(0.05, 2),
            )
            out = envelope_constants(dc, rc, cbc, int(rng.integers(1, 12)))
            assert out.c_p > 0 and out.c_w > 0 and out.c_v > 0

    @pytest.mark.parametrize(
        "dc, rc, gain",
        [
            (DetectabilityConstants(1e308, 1.0, 1.0, 0.5), RgesConstants(1.0, 1.0, 1.0, 0.5), "c_p"),
            (DetectabilityConstants(1.0, 1.0, 1.0, 0.5), RgesConstants(1.0, 1e308, 1.0, 0.5), "c_w"),
        ],
    )
    def test_overflowing_gain_is_named(self, dc, rc, gain):
        with pytest.raises(mk.NumericsError, match=f"gain {gain} is non-finite"):
            envelope_constants(dc, rc, unit_cbc(), 1)

    def test_monotone_in_horizon_factors(self):
        # growing the horizon grows both window factors, hence the gains
        dc = DetectabilityConstants(1.0, 1.0, 1.0, 0.5)
        rc = RgesConstants(1.0, 1.0, 1.0, 0.5)
        prev = envelope_constants(dc, rc, unit_cbc(), 1)
        for n in range(2, 8):
            cur = envelope_constants(dc, rc, unit_cbc(), n)
            assert cur.c_w >= prev.c_w and cur.c_v >= prev.c_v
            prev = cur


class TestCheckEnvelope:
    def test_zero_error_margins_follow_decay(self):
        consts = RgesConstants(2.0, 1.0, 1.0, 0.8)
        errors = np.zeros(20)
        report = check_rges_envelope(
            errors, np.zeros((19, 2)), np.zeros((19, 1)), consts, initial_error=1.0
        )
        expect = 2.0 * 0.8 ** np.arange(20)
        np.testing.assert_allclose(report.margins, expect, rtol=1e-12)
        assert report.min_margin >= 0.0

    def test_unexplained_error_flagged(self):
        consts = RgesConstants(1.0, 1.0, 1.0, 0.5)
        errors = np.array([0.0, 1.0, 0.5])
        report = check_rges_envelope(
            errors, np.zeros((2, 2)), np.zeros((2, 1)), consts, initial_error=0.0
        )
        assert report.min_margin < 0
        assert report.argmin == 1

    def test_margin_csv(self, tmp_path):
        consts = RgesConstants(1.0, 1.0, 1.0, 0.5)
        report = check_rges_envelope(
            np.zeros(4), np.zeros((3, 2)), np.zeros((3, 1)), consts, initial_error=1.0
        )
        path = tmp_path / "margins.csv"
        report.to_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "error", "bound", "margin"]
        assert len(rows) == 5


class TestFitObserverEnvelope:
    def test_synthetic_geometric_error(self):
        # 2 * 0.9^t is the envelope gain 1 times the initial error 2 times 0.9^t
        t = np.arange(60)
        errors = 2.0 * 0.9**t
        fitted = fit_observer_envelope([(errors, np.zeros((60, 2)), np.zeros((60, 1)))])
        assert fitted.fitted
        assert fitted.rho == pytest.approx(0.9)
        assert fitted.c_p == pytest.approx(1.0, rel=1e-9)

    def test_all_zero_data_returns_minimal_defaults(self):
        fitted = fit_observer_envelope(
            [(np.zeros(10), np.zeros((10, 2)), np.zeros((10, 1)))]
        )
        assert fitted.c_p == 1.0 and fitted.c_w == 1.0 and fitted.c_v == 1.0

    def test_postcondition_on_training_data(self, reactor, reactor_observer):
        w, v = mk.draw_noise(
            mk.NoiseSpec(0.01 * np.eye(2), [[0.04]], seed=14), 60
        )
        truth = mk.simulate(reactor, [5.0, 2.0], w, v, 60)
        olog = mk.run_observer(reactor_observer, [3.0, 0.0], truth.outputs)
        errors = np.linalg.norm(truth.states - olog.states, axis=1)
        fitted = fit_observer_envelope([(errors, w, v)])
        report = check_rges_envelope(errors, w, v, fitted, errors[0])
        assert report.min_margin >= -1e-9

    def test_unexplainable_growth_raises(self):
        errors = np.arange(10, dtype=float)  # grows from 0 with zero inputs
        with pytest.raises(ValueError, match="no decay rate"):
            fit_observer_envelope(
                [(errors, np.zeros((10, 2)), np.zeros((10, 1)))]
            )

    def test_requires_a_trajectory(self):
        with pytest.raises(ValueError):
            fit_observer_envelope([])


def brute_discounted(rho, norms, t, offset):
    # sum_{tau=1..t} rho^(tau-offset) * |seq(t-tau)|, summed term by term
    taus = np.arange(1, t + 1)
    return float(np.sum(rho ** (taus - offset) * norms[t - taus]))


def brute_fit(trajectories, rho_grid):
    # the envelope fit written out step by step over the brute-force sums
    best = None
    for rho in rho_grid:
        worst, feasible = 0.0, True
        for errors, w, v in trajectories:
            e0 = errors[0]
            wn, vn = np.linalg.norm(w, axis=1), np.linalg.norm(v, axis=1)
            for t in range(errors.shape[0]):
                denom = (
                    e0 * rho**t
                    + brute_discounted(rho, wn, t, 0)
                    + brute_discounted(rho, vn, t, 0)
                )
                if denom <= 0.0:
                    feasible = feasible and errors[t] <= 1e-12
                    continue
                worst = max(worst, errors[t] / denom)
        if feasible and (best is None or worst < best[0] - 1e-15):
            best = (worst, float(rho))
    return best


def random_history(rng, steps):
    errors = rng.uniform(0.0, 2.0, steps)
    w = rng.normal(0.0, 0.1, (steps - 1, 2))
    v = rng.normal(0.0, 0.2, (steps - 1, 1))
    return errors, w, v


class TestDiscountedSumOracle:
    """The one-pass discounted recursion against term-by-term sums."""

    @pytest.mark.parametrize("rho", [0.5, 0.8, 0.95, 0.999])
    def test_envelope_bounds(self, rho):
        rng = np.random.default_rng(int(rho * 1000))
        for _ in range(4):
            steps = int(rng.integers(51, 130))
            errors, w, v = random_history(rng, steps)
            consts = RgesConstants(1.7, 0.6, 2.3, rho)
            report = check_rges_envelope(errors, w, v, consts, initial_error=1.3)
            wn, vn = np.linalg.norm(w, axis=1), np.linalg.norm(v, axis=1)
            expect = [
                1.7 * 1.3 * rho**t
                + 0.6 * brute_discounted(rho, wn, t, 0)
                + 2.3 * brute_discounted(rho, vn, t, 0)
                for t in range(steps)
            ]
            np.testing.assert_allclose(report.bounds, expect, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("rho", [0.5, 0.8, 0.95, 0.999])
    @pytest.mark.parametrize("a", [1.0, 2.0])
    def test_cost_bound_at_every_step(self, rho, a):
        rng = np.random.default_rng(int(rho * 1000) + int(a))
        steps = 80
        _, w, v = random_history(rng, steps + 1)
        cbc, rc, horizon = unit_cbc(a), RgesConstants(1.2, 0.9, 1.5, rho), 6
        cbar = stage_envelope_scale(cbc, rc)
        r1 = horizon_factor_initial(rho, a, horizon)
        r2 = horizon_factor_disturbance(rho, a, horizon)
        wn, vn = np.linalg.norm(w, axis=1), np.linalg.norm(v, axis=1)
        for t in range(steps + 1):
            got = suboptimal_cost_bound(cbc, rc, horizon, t, 0.8, w, v)
            expect = (
                1.2**a * cbar * r1 * 0.8**a * rho ** (a * t)
                + 0.9**a * cbar * r2 * brute_discounted(rho, wn, t, 1) ** a
                + 1.5**a * cbar * r2 * brute_discounted(rho, vn, t, 1) ** a
            )
            assert got == pytest.approx(expect, rel=1e-12, abs=0)

    @pytest.mark.parametrize("grid", [(0.5, 0.7, 0.9, 0.999), None])
    def test_fit_matches_stepwise_fit(self, grid):
        rng = np.random.default_rng(5)
        trajectories = []
        for _ in range(3):
            steps = int(rng.integers(51, 90))
            errors, w, v = random_history(rng, steps)
            errors[: steps // 2] *= 4.0 * 0.9 ** np.arange(steps // 2)
            trajectories.append((errors, w, v))
        # zero denominators while the initial error and the inputs are zero
        errors, w, v = random_history(rng, 60)
        errors[:6], w[:5], v[:5] = 0.0, 0.0, 0.0
        trajectories.append((errors, w, v))
        rho_grid = DEFAULT_RHO_GRID if grid is None else grid
        fitted = fit_observer_envelope(trajectories, rho_grid)
        gain, rho = brute_fit(trajectories, rho_grid)
        assert fitted.rho == rho
        assert fitted.c_p == pytest.approx(gain, rel=1e-12, abs=0)
        assert fitted.c_w == fitted.c_p == fitted.c_v


class TestRmse:
    def test_perfect_estimates(self):
        x = np.random.default_rng(0).normal(0, 1, (20, 2))
        out = rmse(x, x)
        assert out.aggregate == 0.0
        assert np.array_equal(out.per_component, [0.0, 0.0])

    def test_constant_offset(self):
        x = np.zeros((50, 2))
        est = x + np.array([0.3, -0.4])
        out = rmse(x, est)
        np.testing.assert_allclose(out.per_component, [0.3, 0.4], rtol=1e-12)
        np.testing.assert_allclose(out.aggregate, 0.5, rtol=1e-12)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            rmse(np.zeros((5, 2)), np.zeros((6, 2)))


class TestConstantValidation:
    def test_ranges_enforced(self):
        with pytest.raises(ValueError):
            RgesConstants(0.0, 1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            RgesConstants(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            DetectabilityConstants(1.0, 1.0, 1.0, 0.0)
