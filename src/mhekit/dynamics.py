"""Disturbed discrete-time system models, simulation and noise generation.

The built-in example plant is a constant-volume batch reactor with the
reversible reaction 2A <-> B, measured through the total concentration
y = x1 + x2, discretized by a classical Runge-Kutta step.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

REACTOR_K1 = 0.16
REACTOR_K2 = 0.64
DEFAULT_DT = 0.1


class NumericsError(RuntimeError):
    """A computation produced non-finite values."""


def _as_vector(x, dim: int | None = None, name: str = "x") -> np.ndarray:
    v = np.ascontiguousarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"{name} must have dimension {dim}, got {v.shape[0]}")
    return v


@dataclass(frozen=True, eq=False)
class BoxSet:
    """Axis-aligned box, possibly unbounded per entry.

    Membership is an elementwise interval check; projection clips to the
    closest point of the box.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = _as_vector(self.lower, name="lower")
        hi = _as_vector(self.upper, dim=lo.shape[0], name="upper")
        if np.any(lo > hi):
            raise ValueError("box lower bound exceeds upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @classmethod
    def unbounded(cls, dim: int) -> "BoxSet":
        return cls(np.full(dim, -np.inf), np.full(dim, np.inf))

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def bounded(self) -> bool:
        return bool(np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.upper)))

    def row_violations(self, rows) -> np.ndarray:
        """Largest bound excess along the last axis (0 inside the box)."""
        rows = np.asarray(rows, dtype=np.float64)
        excess = np.maximum(self.lower - rows, rows - self.upper)
        return np.max(np.maximum(excess, 0.0), axis=-1, initial=0.0)

    def violation(self, x) -> float:
        return float(self.row_violations(x))

    def contains(self, x, tol: float = 0.0) -> bool:
        return self.violation(x) <= tol

    def project(self, x) -> np.ndarray:
        return np.clip(np.asarray(x, dtype=np.float64), self.lower, self.upper)


@dataclass(frozen=True, eq=False)
class SystemModel:
    """Discrete-time plant x+ = f(x) + w, y = h(x) + v with box constraint sets.

    The maps act on states stacked along leading axes: for x of shape
    (..., n), ``f`` returns (..., n), ``h`` (..., p), ``f_jac`` (..., n, n)
    and ``h_jac`` (..., p, n), each row the map of that state alone.
    """

    n: int
    p: int
    f: Callable[[np.ndarray], np.ndarray]
    h: Callable[[np.ndarray], np.ndarray]
    state_set: BoxSet
    disturbance_set: BoxSet
    noise_set: BoxSet
    lipschitz_h: float | None = None
    f_jac: Callable[[np.ndarray], np.ndarray] | None = None
    h_jac: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = ""

    def __post_init__(self):
        if self.state_set.dim != self.n:
            raise ValueError("state_set dimension does not match n")
        if self.disturbance_set.dim != self.n:
            raise ValueError("disturbance_set dimension does not match n")
        if self.noise_set.dim != self.p:
            raise ValueError("noise_set dimension does not match p")
        if self.lipschitz_h is not None and not self.lipschitz_h > 0:
            raise ValueError("lipschitz_h must be positive when supplied")


@dataclass(frozen=True, eq=False)
class TrajectoryLog:
    """States, outputs and the exact noise realizations of one simulation."""

    states: np.ndarray  # (T+1, n)
    outputs: np.ndarray  # (T, p)
    disturbances: np.ndarray  # (T, n)
    noises: np.ndarray  # (T, p)
    excursions: tuple[int, ...] = ()

    def __post_init__(self):
        T = self.outputs.shape[0]
        if self.states.shape[0] != T + 1:
            raise ValueError("need T+1 states for T outputs")
        if self.disturbances.shape[0] != T or self.noises.shape[0] != T:
            raise ValueError("disturbance/noise sequences must have length T")

    @property
    def steps(self) -> int:
        return self.outputs.shape[0]

    def to_csv(self, path) -> None:
        """Columns t, x1..xn, y1..yp, w1..wn, v1..vp; the final state's row
        has no output or noise and reads nan there."""
        write_csv(
            path,
            {"x": self.states, "y": self.outputs, "w": self.disturbances, "v": self.noises},
        )


@dataclass(frozen=True, eq=False)
class NoiseSpec:
    """Gaussian noise covariances plus the seed that fixes the realization."""

    covariance_w: np.ndarray
    covariance_v: np.ndarray
    seed: int

    def __post_init__(self):
        cw = np.ascontiguousarray(self.covariance_w, dtype=np.float64)
        cv = np.ascontiguousarray(self.covariance_v, dtype=np.float64)
        for name, c in (("covariance_w", cw), ("covariance_v", cv)):
            if c.ndim != 2 or c.shape[0] != c.shape[1]:
                raise ValueError(f"{name} must be square")
            _psd_factor(c, name)
        object.__setattr__(self, "covariance_w", cw)
        object.__setattr__(self, "covariance_v", cv)


def _psd_factor(cov: np.ndarray, name: str = "covariance") -> np.ndarray:
    """Factor L with L L^T = cov; raises on indefinite input."""
    sym = 0.5 * (cov + cov.T)
    vals, vecs = np.linalg.eigh(sym)
    floor = -1e-10 * max(1.0, float(np.max(np.abs(vals), initial=0.0)))
    if np.any(vals < floor):
        raise ValueError(f"{name} is not positive semidefinite")
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


def _reactor_drift(x):
    """Reactor kinetics on states stacked along leading axes."""
    # x.T[i] and the final .T keep a single state as fast as scalar code
    a = REACTOR_K1 * x.T[0] * x.T[0]
    b = REACTOR_K2 * x.T[1]
    return np.array([-2.0 * a + 2.0 * b, a - b]).T


def _reactor_drift_jac(x):
    """Jacobian of ``_reactor_drift``, (..., 2, 2)."""
    da = 2.0 * REACTOR_K1 * x.T[0]
    k2 = np.full(np.shape(da), REACTOR_K2)
    # built transposed, since the final .T also swaps the two matrix axes
    return np.array([[-2.0 * da, da], [2.0 * k2, -k2]]).T


def _rk4(drift, x, dt: float, drift_jac=None):
    """Classical Runge-Kutta step of ``drift`` from (stacked) ``x``; with
    ``drift_jac`` also the step's Jacobian, as (step, jacobian)."""
    k1 = drift(x)
    x2 = x + 0.5 * dt * k1
    k2 = drift(x2)
    x3 = x + 0.5 * dt * k2
    k3 = drift(x3)
    x4 = x + dt * k3
    step = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + drift(x4))
    if drift_jac is None:
        return step
    eye = np.eye(np.shape(x)[-1])
    j1 = drift_jac(x)
    j2 = drift_jac(x2) @ (eye + 0.5 * dt * j1)
    j3 = drift_jac(x3) @ (eye + 0.5 * dt * j2)
    j4 = drift_jac(x4) @ (eye + dt * j3)
    return step, eye + (dt / 6.0) * (j1 + 2.0 * j2 + 2.0 * j3 + j4)


def batch_reactor_drift(x) -> np.ndarray:
    """Continuous-time reactor kinetics for 2A <-> B in concentration units."""
    return _reactor_drift(_as_vector(x, dim=2))


def rk4_step(drift: Callable[[np.ndarray], np.ndarray], x, dt: float) -> np.ndarray:
    """One classical 4th-order Runge-Kutta step of ``drift`` from ``x``."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    out = _rk4(drift, np.asarray(x, dtype=np.float64), dt)
    if not np.all(np.isfinite(out)):
        raise NumericsError("rk4_step produced a non-finite state")
    return out


def batch_reactor_model(dt: float = DEFAULT_DT) -> SystemModel:
    """The discretized batch reactor (all constraint sets unbounded)."""
    dt = float(dt)
    return SystemModel(
        n=2,
        p=1,
        f=lambda x: _rk4(_reactor_drift, x, dt),
        h=lambda x: x[..., :1] + x[..., 1:],
        state_set=BoxSet.unbounded(2),
        disturbance_set=BoxSet.unbounded(2),
        noise_set=BoxSet.unbounded(1),
        lipschitz_h=float(np.sqrt(2.0)),
        f_jac=lambda x: _rk4(_reactor_drift, x, dt, _reactor_drift_jac)[1],
        h_jac=lambda x: np.ones(np.shape(x)[:-1] + (1, 2)),
        name="batch_reactor",
    )


def simulate(
    model: SystemModel,
    x0,
    disturbances,
    noises,
    steps: int,
) -> TrajectoryLog:
    """Roll the plant forward, logging everything needed for exact replay.

    A state leaving the state set is reported via ``warnings`` and recorded
    in the log, not projected: clipping would silently break replay.
    """
    x0 = _as_vector(x0, dim=model.n, name="x0")
    w = np.ascontiguousarray(disturbances, dtype=np.float64)
    v = np.ascontiguousarray(noises, dtype=np.float64)
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if w.shape[0] < steps or v.shape[0] < steps:
        raise ValueError("noise sequences shorter than the simulation horizon")
    if not model.state_set.contains(x0, tol=1e-12):
        raise ValueError("x0 is outside the state set")

    states = np.empty((steps + 1, model.n))
    states[0] = x = x0
    # a diverging state may overflow; the finiteness check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            x = states[k + 1] = model.f(x) + w[k]
            if not np.all(np.isfinite(x)):
                raise NumericsError(f"state became non-finite at step {k + 1}")
    outputs = model.h(states[:-1]) + v[:steps]
    outside = model.state_set.row_violations(states[1:]) > 1e-12
    excursions = (np.flatnonzero(outside) + 1).tolist()
    if excursions:
        warnings.warn(
            f"state left the state set at {len(excursions)} step(s); "
            "trajectory logged without projection",
            RuntimeWarning,
            stacklevel=2,
        )
    return TrajectoryLog(
        states=states,
        outputs=outputs,
        disturbances=w[:steps].copy(),
        noises=v[:steps].copy(),
        excursions=tuple(excursions),
    )


def draw_noise(
    spec: NoiseSpec,
    steps: int,
    clip_to: tuple[BoxSet, BoxSet] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw Gaussian (w, v) sequences; same seed gives bit-identical output.

    With ``clip_to=(disturbance_set, noise_set)`` the draws are projected
    onto the sets and the number of clipped samples is reported via a
    warning (the default example uses unbounded sets, so nothing clips).
    """
    factor_w = _psd_factor(spec.covariance_w, "covariance_w")
    factor_v = _psd_factor(spec.covariance_v, "covariance_v")
    rng = np.random.default_rng(spec.seed)
    w = rng.standard_normal((steps, spec.covariance_w.shape[0])) @ factor_w.T
    v = rng.standard_normal((steps, spec.covariance_v.shape[0])) @ factor_v.T
    if clip_to is not None:
        w_set, v_set = clip_to
        w_clipped = np.clip(w, w_set.lower, w_set.upper)
        v_clipped = np.clip(v, v_set.lower, v_set.upper)
        n_clipped = int(np.sum(np.any(w_clipped != w, axis=1))) + int(
            np.sum(np.any(v_clipped != v, axis=1))
        )
        if n_clipped:
            warnings.warn(
                f"projected {n_clipped} noise sample(s) onto the bounded sets",
                RuntimeWarning,
                stacklevel=2,
            )
        w, v = w_clipped, v_clipped
    return w, v


def write_csv(path, columns: dict[str, np.ndarray]) -> None:
    """CSV with a leading row index ``t`` and the given columns: a 1-d array
    under its name, a (rows, k) array as name1..namek. Values carry 17
    significant digits; rows past the end of a shorter array read nan."""
    header = ["t"]
    blocks = []
    for name, values in columns.items():
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == 1:
            header.append(name)
            values = values[:, None]
        else:
            header += [f"{name}{i + 1}" for i in range(values.shape[1])]
        blocks.append(values)
    table = np.full((max(b.shape[0] for b in blocks), len(header) - 1), np.nan)
    col = 0
    for b in blocks:
        table[: b.shape[0], col : col + b.shape[1]] = b
        col += b.shape[1]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for t, row in enumerate(table):
            fh.write(f"{t}," + ",".join(f"{x:.17g}" for x in row) + "\n")
