import csv

import numpy as np
import pytest

import mhekit as mk
from mhekit.dynamics import BoxSet, NoiseSpec, NumericsError, _reactor_drift, _rk4, write_csv


class TestBatchReactorDrift:
    def test_direct_substitution(self):
        # -2*0.16*25 + 2*0.64*2 = -5.44, 0.16*25 - 0.64*2 = 2.72
        np.testing.assert_allclose(
            _reactor_drift(np.array([5.0, 2.0])), [-5.44, 2.72], rtol=0, atol=1e-14
        )

    def test_origin_is_equilibrium(self):
        assert np.array_equal(_reactor_drift(np.array([0.0, 0.0])), [0.0, 0.0])

    def test_nontrivial_equilibrium(self):
        # k1 * 2^2 == k2 * 1, so (2, 1) is a fixed point of the kinetics.
        assert np.array_equal(_reactor_drift(np.array([2.0, 1.0])), [0.0, 0.0])


class TestRk4Step:
    """The classical Runge-Kutta step, as the reactor's transition
    ``batch_reactor_model(dt).f`` takes it."""

    def test_exact_for_constant_field(self):
        c = np.array([1.5, -0.25])
        x = np.array([0.3, 0.7])
        out = _rk4(lambda _: c, x, 0.2)
        # exact up to the rounding of dt/6 (one ulp)
        np.testing.assert_allclose(out, x + 0.2 * c, rtol=0, atol=1e-15)

    def _euler(self, x0, total, dt):
        x = np.asarray(x0, dtype=float).copy()
        for _ in range(int(round(total / dt))):
            x = x + dt * _reactor_drift(x)
        return x

    def test_fine_euler_oracle_small_step(self):
        # At dt = 0.01 the one-step truncation error sits far below the
        # oracle's own ~1e-7 error, so the comparison is tight.
        x = np.array([5.0, 2.0])
        got = mk.batch_reactor_model(0.01).f(x)
        ref = self._euler(x, 0.01, 1e-6)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-6)

    def test_fine_euler_oracle_case_study_step(self):
        # At the case-study step dt = 0.1 the integrator's own one-step
        # truncation error at (5, 2) is ~6e-5 per entry (confirmed 4th
        # order below), which dominates the Euler oracle's ~1e-6.
        x = np.array([5.0, 2.0])
        got = mk.batch_reactor_model(0.1).f(x)
        ref = self._euler(x, 0.1, 1e-6)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-4)

    def test_fourth_order_convergence(self):
        x = np.array([5.0, 2.0])
        fine = mk.batch_reactor_model(1e-4).f
        ref = x.copy()
        for _ in range(1000):
            ref = fine(ref)
        coarse = mk.batch_reactor_model(0.1).f(x)
        half = mk.batch_reactor_model(0.05).f
        ratio = np.linalg.norm(coarse - ref) / np.linalg.norm(half(half(x)) - ref)
        assert 10.0 < ratio < 25.0  # ~2^4 for a 4th-order one-step method

    def test_linear_invariant_single_step(self):
        x = np.array([3.7, 1.1])
        out = mk.batch_reactor_model(0.1).f(x)
        assert abs(out[0] + 2 * out[1] - (x[0] + 2 * x[1])) < 1e-13

    def test_rejects_nonpositive_dt(self):
        for dt in (0.0, -0.1, np.nan):
            with pytest.raises(ValueError, match="dt must be positive"):
                mk.batch_reactor_model(dt)


class TestReactorMapsOnStacks:
    @pytest.mark.parametrize("lead", [(7,), (3, 5)])
    @pytest.mark.parametrize("name", ["f", "h", "f_jac", "h_jac"])
    def test_stack_equals_stacked_single_states(self, reactor, name, lead):
        fn = getattr(reactor, name)
        xs = np.random.default_rng(4).uniform(0.0, 6.0, lead + (2,))
        rows = np.array([fn(x) for x in xs.reshape(-1, 2)])
        assert np.array_equal(fn(xs), rows.reshape(lead + rows.shape[1:]))

    def test_f_jac_matches_central_differences(self, reactor):
        xs = np.random.default_rng(5).uniform(0.0, 6.0, (20, 2))
        h = 1e-5
        steps = [reactor.f(xs + h * e) - reactor.f(xs - h * e) for e in np.eye(2)]
        fd = np.stack(steps, axis=-1) / (2 * h)
        jac = reactor.f_jac(xs)
        assert np.max(np.abs(jac - fd)) <= 1e-7 * np.max(np.abs(jac))


class TestSimulate:
    def test_equilibrium_stays_constant(self, reactor):
        w = np.zeros((20, 2))
        v = np.zeros((20, 1))
        log = mk.simulate(reactor, [2.0, 1.0], w, v, 20)
        assert np.array_equal(log.states, np.tile([2.0, 1.0], (21, 1)))

    def test_zero_steps(self, reactor):
        log = mk.simulate(reactor, [5.0, 2.0], np.zeros((0, 2)), np.zeros((0, 1)), 0)
        assert log.states.shape == (1, 2)
        assert log.outputs.shape == (0, 1)

    def test_first_output_is_total_concentration(self, reactor):
        log = mk.simulate(reactor, [5.0, 2.0], np.zeros((5, 2)), np.zeros((5, 1)), 5)
        assert log.outputs[0, 0] == 7.0

    def test_replay_is_bit_identical(self, reactor):
        w, v = mk.draw_noise(
            NoiseSpec(0.01 * np.eye(2), [[0.04]], seed=123), 30
        )
        log = mk.simulate(reactor, [5.0, 2.0], w, v, 30)
        replay = mk.simulate(
            reactor, log.states[0], log.disturbances, log.noises, 30
        )
        assert np.array_equal(replay.states, log.states)
        assert np.array_equal(replay.outputs, log.outputs)

    def test_conservation_of_total_mass(self, reactor):
        log = mk.simulate(
            reactor, [5.0, 2.0], np.zeros((1000, 2)), np.zeros((1000, 1)), 1000
        )
        invariant = log.states[:, 0] + 2.0 * log.states[:, 1]
        assert np.max(np.abs(invariant - invariant[0])) <= 1e-12

    def test_output_lipschitz_bound(self, reactor):
        rng = np.random.default_rng(0)
        a = rng.normal(0, 3, (200, 2))
        b = rng.normal(0, 3, (200, 2))
        for ai, bi in zip(a, b):
            lhs = abs(reactor.h(ai)[0] - reactor.h(bi)[0])
            assert lhs <= np.sqrt(2.0) * np.linalg.norm(ai - bi) + 1e-12

    def test_leaving_state_set_warns_not_raises(self, reactor):
        from dataclasses import replace

        bounded = replace(reactor, state_set=BoxSet([0.0, 0.0], [6.0, 6.0]))
        w = np.zeros((3, 2))
        w[0] = [5.0, 5.0]  # kick the state far outside the box
        with pytest.warns(RuntimeWarning, match="left the state set"):
            log = mk.simulate(bounded, [5.0, 2.0], w, np.zeros((3, 1)), 3)
        assert log.excursions  # recorded, not projected

    def test_records_of_the_wrong_width_raise(self, reactor):
        w, v = np.zeros((20, 2)), np.zeros((20, 1))
        with pytest.raises(ValueError, match=r"disturbances must have shape \(T, 2\), got \(20,\)"):
            mk.simulate(reactor, [5.0, 2.0], w[:, 0], v, 20)
        with pytest.raises(ValueError, match=r"noises must have shape \(T, 1\), got \(20,\)"):
            mk.simulate(reactor, [5.0, 2.0], w, v[:, 0], 20)
        with pytest.raises(ValueError, match="noises must have shape"):
            mk.simulate(reactor, [5.0, 2.0], w, np.zeros((20, 2)), 20)

    def test_x0_outside_state_set_raises(self, reactor):
        from dataclasses import replace

        bounded = replace(reactor, state_set=BoxSet([0.0, 0.0], [4.0, 4.0]))
        with pytest.raises(ValueError, match="outside the state set"):
            mk.simulate(bounded, [5.0, 2.0], np.zeros((1, 2)), np.zeros((1, 1)), 1)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_raises_numerics_error(self, reactor):
        # Strongly negative x1 blows up the kinetics in a few steps.
        with pytest.raises(NumericsError):
            mk.simulate(reactor, [-50.0, 0.0], np.zeros((10, 2)), np.zeros((10, 1)), 10)


class TestDrawNoise:
    def test_zero_covariance_gives_zero_sequences(self):
        w, v = mk.draw_noise(NoiseSpec(np.zeros((2, 2)), np.zeros((1, 1)), seed=1), 50)
        assert not w.any() and not v.any()

    def test_same_seed_is_bit_identical(self):
        spec = NoiseSpec(0.01 * np.eye(2), [[0.04]], seed=99)
        w1, v1 = mk.draw_noise(spec, 100)
        w2, v2 = mk.draw_noise(spec, 100)
        assert np.array_equal(w1, w2) and np.array_equal(v1, v2)

    def test_sample_variance_matches_covariance(self):
        w, _ = mk.draw_noise(NoiseSpec(0.01 * np.eye(2), [[0.04]], seed=7), 10_000)
        var = w.var(axis=0)
        assert np.all(np.abs(var - 0.01) < 0.001)

    def test_non_psd_covariance_raises(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            NoiseSpec(np.array([[1.0, 2.0], [2.0, 1.0]]), [[0.04]], seed=0)

    def test_clipping_to_bounded_sets_warns(self):
        spec = NoiseSpec(np.eye(2), [[1.0]], seed=3)
        sets = (BoxSet([-0.1, -0.1], [0.1, 0.1]), BoxSet([-0.1], [0.1]))
        with pytest.warns(RuntimeWarning, match="projected"):
            w, v = mk.draw_noise(spec, 200, clip_to=sets)
        assert np.all(np.abs(w) <= 0.1) and np.all(np.abs(v) <= 0.1)


class TestBoxSet:
    def test_membership_and_projection(self):
        box = BoxSet([-1.0, 0.0], [1.0, np.inf])
        assert box.contains([0.5, 100.0])
        assert not box.contains([1.5, 0.0])
        assert box.contains([1.5, 0.0], tol=0.5)
        np.testing.assert_array_equal(box.project([2.0, -3.0]), [1.0, 0.0])
        assert box.row_violations([2.0, -3.0]) == 3.0

    def test_unbounded_contains_everything(self):
        box = BoxSet.unbounded(3)
        assert box.contains([1e300, -1e300, 0.0])
        assert np.all(np.isinf(box.lower)) and np.all(np.isinf(box.upper))

    def test_invalid_bounds_raise(self):
        with pytest.raises(ValueError):
            BoxSet([1.0], [0.0])


class TestTrajectoryCsv:
    def test_write_csv_names_and_pads_columns(self, tmp_path):
        path = tmp_path / "cols.csv"
        write_csv(path, {"e": np.array([0.1, -2.0, 3.0]), "x": np.array([[1.0, 2.0]])})
        with open(path) as fh:
            rows = list(csv.reader(fh))
        # a 1-d array keeps its name, an (rows, k) array is numbered 1..k,
        # and rows past the end of the shorter array read nan
        assert rows == [
            ["t", "e", "x1", "x2"],
            ["0", "0.10000000000000001", "1", "2"],
            ["1", "-2", "nan", "nan"],
            ["2", "3", "nan", "nan"],
        ]

    def test_header_and_rows(self, reactor, tmp_path):
        log = mk.simulate(reactor, [5.0, 2.0], np.zeros((4, 2)), np.zeros((4, 1)), 4)
        path = tmp_path / "traj.csv"
        log.to_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "x1", "x2", "y1", "w1", "w2", "v1"]
        assert len(rows) == 6  # header + T+1 state rows
        assert float(rows[1][3]) == 7.0  # y(0) = x1 + x2
        # states parse back exactly thanks to 17 significant digits
        assert float(rows[2][1]) == log.states[1, 0]
