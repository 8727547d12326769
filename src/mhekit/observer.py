"""Full-order output-injection observer z+ = f(z) + L(z, y - h(z)).

The observer supplies both the prior and the warm-start decision vector
for the window problems: its correction terms double as disturbance
estimates, its states as initial-state estimates.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dynamics import (
    DEFAULT_DT, NumericsError, SystemModel, _as_record, batch_reactor_model, write_csv,
)


@dataclass(frozen=True, eq=False)
class ObserverSpec:
    """Observer built from a model plus a correction map with a linear gain bound.

    ``correction(z, v_z)`` must vanish at v_z = 0 and satisfy
    |correction(z, v_z)| <= kappa * |v_z|.
    """

    model: SystemModel
    correction: Callable[[np.ndarray, np.ndarray], np.ndarray]
    kappa: float

    def __post_init__(self):
        if not self.kappa > 0:
            raise ValueError("kappa must be positive")


@dataclass(frozen=True, eq=False)
class ObserverLog:
    """Observer run: states, fitting errors v_z = y - h(z), corrections L."""

    states: np.ndarray  # (K+1, n)
    fit_errors: np.ndarray  # (K, p)
    corrections: np.ndarray  # (K, n)

    def __post_init__(self):
        K = self.fit_errors.shape[0]
        if self.states.shape[0] != K + 1 or self.corrections.shape[0] != K:
            raise ValueError("inconsistent observer log lengths")

    @property
    def steps(self) -> int:
        return self.fit_errors.shape[0]

    def to_csv(self, path) -> None:
        """Columns t, z1..zn, vz1..vzp, L1..Ln; the final state's row reads
        nan in the fit-error and correction columns."""
        write_csv(path, {"z": self.states, "vz": self.fit_errors, "L": self.corrections})


def observer_step(
    spec: ObserverSpec, z, y
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One observer update; returns (z_next, v_z, L) with z_next = f(z) + L.

    If z_next leaves the state set it is projected back and L is recomputed
    as the effective correction z_next - f(z), so the output-injection
    decomposition stays exact (a warning reports the projection).
    """
    z = np.ascontiguousarray(z, dtype=np.float64)
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    v_z = y - spec.model.h(z)
    corr = spec.correction(z, v_z)
    fz = spec.model.f(z)
    z_next = fz + corr
    if not np.all(np.isfinite(z_next)):
        raise NumericsError("observer state became non-finite")
    if not spec.model.state_set.contains(z_next, tol=1e-12):
        warnings.warn(
            "observer state left the state set; projected back",
            RuntimeWarning,
            stacklevel=2,
        )
        z_next = spec.model.state_set.project(z_next)
        corr = z_next - fz
    return z_next, v_z, corr


def run_observer(spec: ObserverSpec, z0, outputs) -> ObserverLog:
    """Iterate the observer over a measurement record ``outputs`` (K, p)."""
    z0 = np.ascontiguousarray(z0, dtype=np.float64)
    if not spec.model.state_set.contains(z0, tol=1e-12):
        raise ValueError("z0 is outside the state set")
    ys = _as_record(outputs, spec.model.p, "outputs")
    K = ys.shape[0]
    states = np.empty((K + 1, spec.model.n))
    fit_errors = np.empty((K, spec.model.p))
    corrections = np.empty((K, spec.model.n))
    states[0] = z0
    z = z0
    # a diverging observer may overflow; observer_step's finiteness check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(K):
            z, v_z, corr = observer_step(spec, z, ys[k])
            states[k + 1] = z
            fit_errors[k] = v_z
            corrections[k] = corr
    return ObserverLog(states=states, fit_errors=fit_errors, corrections=corrections)


def batch_reactor_observer(
    gain: Sequence[float] = (0.5, 0.5),
    dt: float = DEFAULT_DT,
) -> ObserverSpec:
    """Luenberger-style reactor observer with constant injection gain.

    The continuous injection term gain*(y - z1 - z2) is added in explicit
    Euler fashion on top of the Runge-Kutta transition, which keeps the
    exact form z+ = f(z) + L needed to reuse L as a disturbance estimate.
    The gain bound is exact for this linear correction:
    kappa = dt * |gain|.
    """
    dt = float(dt)
    g1, g2 = float(gain[0]), float(gain[1])

    def correction(z, v_z):
        s = v_z[0]
        return np.array([dt * g1 * s, dt * g2 * s])

    kappa = dt * float(np.sqrt(g1 * g1 + g2 * g2))
    return ObserverSpec(model=batch_reactor_model(dt=dt), correction=correction, kappa=kappa)

