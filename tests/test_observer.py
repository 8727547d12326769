import csv
from dataclasses import replace

import numpy as np
import pytest

import mhekit as mk
from mhekit.dynamics import BoxSet, NoiseSpec


class TestObserverStep:
    def test_perfect_fit_gives_pure_prediction(self, reactor_observer):
        z = np.array([3.0, 1.0])
        y = reactor_observer.model.h(z)
        z_next, v_z, corr = mk.observer_step(reactor_observer, z, y)
        assert np.array_equal(v_z, [0.0])
        assert np.array_equal(corr, [0.0, 0.0])
        assert np.array_equal(z_next, reactor_observer.model.f(z))

    def test_worked_example(self, reactor_observer):
        # z = (3, 0) against y = 7 (the true output of x = (5, 2), no noise)
        z = np.array([3.0, 0.0])
        z_next, v_z, corr = mk.observer_step(reactor_observer, z, np.array([7.0]))
        assert v_z[0] == 4.0
        np.testing.assert_allclose(corr, [0.2, 0.2], rtol=0, atol=1e-15)
        assert np.array_equal(z_next, reactor_observer.model.f(z) + corr)

    def test_gain_bound_is_tight_for_linear_correction(self, reactor_observer):
        corr = reactor_observer.correction(np.array([3.0, 0.0]), np.array([4.0]))
        assert np.linalg.norm(corr) <= reactor_observer.kappa * 4.0 + 1e-12
        # equality case: the bound is exact for a constant-gain correction
        assert abs(np.linalg.norm(corr) - reactor_observer.kappa * 4.0) < 1e-12

    def test_correction_is_linear(self, reactor_observer):
        corr = reactor_observer.correction(np.array([1.0, 1.0]), np.array([-1.0]))
        np.testing.assert_allclose(corr, [-0.05, -0.05], rtol=0, atol=1e-15)

    def test_correction_vanishes_at_zero(self, reactor_observer):
        corr = reactor_observer.correction(np.array([9.0, -3.0]), np.array([0.0]))
        assert np.array_equal(corr, [0.0, 0.0])

    def test_gain_bound_sampled(self, reactor_observer):
        rng = np.random.default_rng(42)
        zs = rng.normal(0, 5, (100_000, 2))
        vzs = rng.normal(0, 10, 100_000)
        kappa = reactor_observer.kappa
        for z, s in zip(zs, vzs):
            corr = reactor_observer.correction(z, np.array([s]))
            assert np.linalg.norm(corr) <= kappa * abs(s) + 1e-12

    def test_projection_back_into_state_set(self, reactor_observer):
        bounded = replace(
            reactor_observer.model, state_set=BoxSet([0.0, 0.0], [6.0, 6.0])
        )
        spec = mk.ObserverSpec(
            model=bounded,
            correction=reactor_observer.correction,
            kappa=reactor_observer.kappa,
        )
        z = np.array([3.0, 3.0])
        with pytest.warns(RuntimeWarning, match="projected"):
            z_next, _, corr = mk.observer_step(spec, z, np.array([100.0]))
        assert bounded.state_set.contains(z_next)
        # output-injection decomposition still exact after projection
        assert np.array_equal(z_next, bounded.f(z) + corr)


class TestRunObserver:
    def test_matched_start_tracks_truth_exactly(self, reactor, reactor_observer):
        log = mk.simulate(reactor, [5.0, 2.0], np.zeros((50, 2)), np.zeros((50, 1)), 50)
        olog = mk.run_observer(reactor_observer, [5.0, 2.0], log.outputs)
        assert np.array_equal(olog.states, log.states)
        assert not olog.fit_errors.any()
        assert not olog.corrections.any()

    def test_empty_measurements(self, reactor_observer):
        olog = mk.run_observer(reactor_observer, [3.0, 0.0], np.zeros((0, 1)))
        assert olog.states.shape == (1, 2)
        assert olog.steps == 0

    def test_outputs_of_the_wrong_width_raise(self, reactor_observer):
        with pytest.raises(ValueError, match=r"outputs must have shape \(T, 1\), got \(5,\)"):
            mk.run_observer(reactor_observer, [3.0, 0.0], np.full(5, 7.0))
        with pytest.raises(ValueError, match="outputs must have shape"):
            mk.run_observer(reactor_observer, [3.0, 0.0], np.zeros((5, 2)))

    def test_convergence_from_case_study_start(self, reactor, reactor_observer):
        log = mk.simulate(
            reactor, [5.0, 2.0], np.zeros((600, 2)), np.zeros((600, 1)), 600
        )
        olog = mk.run_observer(reactor_observer, [3.0, 0.0], log.outputs)
        err = np.linalg.norm(log.states - olog.states, axis=1)
        assert err[-1] < 0.01
        # the error decays monotonically through the visible transient
        assert np.all(np.diff(err[:150]) < 0)

    def test_output_injection_replay_is_exact(self, reactor, reactor_observer):
        w, v = mk.draw_noise(NoiseSpec(0.01 * np.eye(2), [[0.04]], seed=17), 40)
        log = mk.simulate(reactor, [5.0, 2.0], w, v, 40)
        olog = mk.run_observer(reactor_observer, [3.0, 0.0], log.outputs)
        for k in range(olog.steps):
            expected = reactor.f(olog.states[k]) + olog.corrections[k]
            assert np.array_equal(olog.states[k + 1], expected)
            v_z = log.outputs[k] - reactor.h(olog.states[k])
            assert np.array_equal(olog.fit_errors[k], v_z)

    def test_z0_outside_state_set_raises(self, reactor_observer):
        bounded = replace(
            reactor_observer.model, state_set=BoxSet([0.0, 0.0], [4.0, 4.0])
        )
        spec = mk.ObserverSpec(
            model=bounded,
            correction=reactor_observer.correction,
            kappa=reactor_observer.kappa,
        )
        with pytest.raises(ValueError):
            mk.run_observer(spec, [5.0, 2.0], np.zeros((1, 1)))


class TestObserverCsv:
    def test_header_and_rows(self, reactor, reactor_observer, tmp_path):
        log = mk.simulate(reactor, [5.0, 2.0], np.zeros((4, 2)), np.zeros((4, 1)), 4)
        olog = mk.run_observer(reactor_observer, [3.0, 0.0], log.outputs)
        path = tmp_path / "obs.csv"
        olog.to_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "z1", "z2", "vz1", "L1", "L2"]
        assert len(rows) == 6
        assert float(rows[1][3]) == 4.0  # v_z(0) = 7 - 3
