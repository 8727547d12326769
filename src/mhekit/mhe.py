"""Horizon window problems: cost, rollout, warm start, feasibility.

A window at time t covers the measurements y(t-M)..y(t-1) with
M = min(N, t) and is condensed by single shooting: the decision variables
are the window-initial state chi0 and the disturbance sequence; output
residuals are eliminated through the measurement equation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import NumericsError, SystemModel
from .observer import ObserverLog

FEASIBILITY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class QuadWeights:
    """Weight matrices of a quadratic cost (prior, disturbance, residual)."""

    prior: np.ndarray
    disturbance: np.ndarray
    noise: np.ndarray

    def __post_init__(self):
        for name in ("prior", "disturbance", "noise"):
            m = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"{name} weight must be a square matrix")
            object.__setattr__(self, name, m)


@dataclass(frozen=True, eq=False)
class CostSpec:
    """Prior weighting and stage cost together with their power bounds.

    The bounds state c_lo * |.|^a <= term <= c_hi * |.|^a for the prior
    weighting (in |chi - prior|), the disturbance part (in |omega|) and the
    residual part (in |nu|). ``quad`` is set for quadratic costs and enables
    the Gauss-Newton direction; the gradient callables are required for
    gradient-based solving of non-quadratic costs.

    The maps act on arrays stacked along leading axes: for omega and chi of
    shape (..., n) and nu of shape (..., p), ``stage`` and ``gamma`` return
    (...), ``stage_grad_w`` and ``gamma_grad`` (..., n) and ``stage_grad_v``
    (..., p); ``gamma``'s prior is shaped like chi.
    """

    gamma: Callable[[np.ndarray, np.ndarray], np.ndarray]
    stage: Callable[[np.ndarray, np.ndarray], np.ndarray]
    a: float
    c_p_lo: float
    c_p_hi: float
    c_w_lo: float
    c_w_hi: float
    c_v_lo: float
    c_v_hi: float
    gamma_grad: Callable | None = None
    stage_grad_w: Callable | None = None
    stage_grad_v: Callable | None = None
    quad: QuadWeights | None = None

    def __post_init__(self):
        for name in ("a", "c_p_lo", "c_p_hi", "c_w_lo", "c_w_hi", "c_v_lo", "c_v_hi"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


def quadratic_cost(
    disturbance_weight,
    noise_weight,
    prior_weight=None,
) -> CostSpec:
    """Quadratic cost from weight matrices (typically inverse covariances).

    Stage cost omega' W omega + nu' V nu plus prior term
    (chi - prior)' P (chi - prior); P defaults to the identity. The power
    bounds follow from the extreme eigenvalues with exponent 2.
    """
    w = np.ascontiguousarray(disturbance_weight, dtype=np.float64)
    v = np.ascontiguousarray(noise_weight, dtype=np.float64)
    if prior_weight is None:
        prior_weight = np.eye(w.shape[0])
    p = np.ascontiguousarray(prior_weight, dtype=np.float64)
    quad = QuadWeights(prior=p, disturbance=w, noise=v)

    def _eig_range(m, name):
        vals = np.linalg.eigvalsh(0.5 * (m + m.T))
        if vals[0] <= 0:
            raise ValueError(f"{name} weight must be positive definite")
        return float(vals[0]), float(vals[-1])

    p_lo, p_hi = _eig_range(p, "prior")
    w_lo, w_hi = _eig_range(w, "disturbance")
    v_lo, v_hi = _eig_range(v, "noise")

    def gamma(chi, prior):
        d = (chi - prior)[..., None]
        return (d.swapaxes(-1, -2) @ (p @ d))[..., 0, 0]  # d'(P d), window by window

    def stage(om, nu):
        return np.sum(om * (om @ w.T), axis=-1) + np.sum(nu * (nu @ v.T), axis=-1)

    return CostSpec(
        gamma=gamma,
        stage=stage,
        a=2.0,
        c_p_lo=p_lo,
        c_p_hi=p_hi,
        c_w_lo=w_lo,
        c_w_hi=w_hi,
        c_v_lo=v_lo,
        c_v_hi=v_hi,
        gamma_grad=lambda chi, prior: 2.0 * (p @ (chi - prior)[..., None])[..., 0],
        stage_grad_w=lambda om, nu: 2.0 * (om @ w.T),
        stage_grad_v=lambda om, nu: 2.0 * (nu @ v.T),
        quad=quad,
    )


@dataclass(frozen=True, eq=False)
class HorizonProblem:
    """One window problem: model, cost, prior, measurement slice."""

    model: SystemModel
    cost: CostSpec
    horizon: int
    prior: np.ndarray
    measurements: np.ndarray  # (M, p)
    start: int = 0

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        prior = np.ascontiguousarray(self.prior, dtype=np.float64)
        ys = np.ascontiguousarray(self.measurements, dtype=np.float64)
        if ys.ndim == 1:
            ys = ys.reshape(-1, self.model.p)
        if ys.shape != (self.horizon, self.model.p):
            raise ValueError(
                f"need {self.horizon} measurements of dimension {self.model.p}"
            )
        if prior.shape != (self.model.n,):
            raise ValueError("prior dimension does not match the model")
        if not self.model.state_set.contains(prior, tol=FEASIBILITY_TOL):
            raise ValueError("prior is outside the state set")
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "measurements", ys)


@dataclass(frozen=True, eq=False)
class DecisionVector:
    """Window-initial state and disturbance sequence (the solver variables)."""

    chi0: np.ndarray
    omegas: np.ndarray  # (M, n)

    def __post_init__(self):
        chi0 = np.ascontiguousarray(self.chi0, dtype=np.float64)
        om = np.ascontiguousarray(self.omegas, dtype=np.float64)
        if om.ndim != 2 or chi0.ndim != 1 or om.shape[1] != chi0.shape[0]:
            raise ValueError("omegas must be (M, n) matching chi0")
        object.__setattr__(self, "chi0", chi0)
        object.__setattr__(self, "omegas", om)

    @property
    def horizon(self) -> int:
        return self.omegas.shape[0]


@dataclass(frozen=True, eq=False)
class WindowRollout:
    """Forward pass of one decision vector: states, residuals, cost."""

    states: np.ndarray  # (M+1, n)
    residuals: np.ndarray  # (M, p)
    cost: float


@dataclass(frozen=True, eq=False)
class FeasibilityReport:
    feasible: bool
    max_violation: float
    violations: tuple[tuple[int, str, float], ...] = ()


def _check_dims(problem: HorizonProblem, d: DecisionVector) -> None:
    if d.chi0.shape[0] != problem.model.n or d.horizon != problem.horizon:
        raise ValueError("decision vector does not match the window dimensions")


def _stacked(name: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """The value of map ``name`` on stacked window stages, shape-checked so
    that a map written for one state fails instead of misaligning."""
    value = np.asarray(value)
    if value.shape != shape:
        raise ValueError(f"{name} returned shape {value.shape} on a stack, expected {shape}")
    return value


def _batch(v) -> np.ndarray:
    """A stacked array (B, ...) as the stage loops compute with it: without
    its window axis when it holds one window, since numpy's small-matrix
    calls run fastest on single matrices and states."""
    return v[0] if len(v) == 1 else v


def _stages(v) -> np.ndarray:
    """Stage-major view of a stacked array (B, M, ...): index i gives stage i
    of every window, as ``_batch`` shapes it."""
    return v[0] if len(v) == 1 else v.swapaxes(0, 1)


@dataclass(frozen=True, eq=False)
class WindowStack:
    """Windows of one model, cost and length M stacked along a leading
    axis: priors (B, n) and measurements (B, M, p)."""

    model: SystemModel
    cost: CostSpec
    prior: np.ndarray
    measurements: np.ndarray

    @classmethod
    def of(cls, problems) -> "WindowStack":
        first = problems[0]
        return cls(
            first.model,
            first.cost,
            np.array([p.prior for p in problems]),
            np.array([p.measurements for p in problems]),
        )

    def take(self, mask) -> "WindowStack":
        """The windows where ``mask`` is set (the stack itself for all)."""
        if mask.all():
            return self
        return WindowStack(self.model, self.cost, self.prior[mask], self.measurements[mask])


def _forward_pass(stack: WindowStack, chi0, omegas):
    """States (B, M+1, n), eliminated residuals (B, M, p) and costs (B,) of
    the stacked decisions (chi0, omegas), unchecked.

    The one window evaluation: the public functions and the solver all use
    it, and a caller that needs finite values checks them itself. Only ``f``
    runs stage by stage; ``h`` and ``stage`` see every window at once.
    """
    model, cost = stack.model, stack.cost
    b, m = omegas.shape[:2]
    states = np.empty((b, m + 1, model.n))
    states[:, 0] = chi0
    xs, ws = _stages(states), _stages(omegas)
    x = xs[0]
    for i in range(m):
        x = xs[i + 1] = model.f(x) + ws[i]
    outputs = _stacked("h", model.h(states[:, :-1]), (b, m, model.p))
    resids = stack.measurements - outputs
    stage = _stacked("stage", cost.stage(omegas, resids), (b, m))
    prior = _stacked("gamma", cost.gamma(chi0, stack.prior), (b,))
    return states, resids, prior + np.sum(stage, axis=-1)


def _feasibility(model: SystemModel, omegas, states, resids) -> np.ndarray:
    """Largest violation above ``FEASIBILITY_TOL`` of each stacked window's
    states, residuals and the disturbances that produced them; 0 for a
    feasible window."""
    rows = np.concatenate(
        [
            model.state_set.row_violations(states),
            model.disturbance_set.row_violations(omegas),
            model.noise_set.row_violations(resids),
        ],
        axis=-1,
    )
    return np.max(rows, axis=-1, initial=0.0, where=rows > FEASIBILITY_TOL)


def _window_pass(problem: HorizonProblem, d: DecisionVector):
    """``_forward_pass`` of one window's decision, as a stack of one."""
    _check_dims(problem, d)
    return _forward_pass(WindowStack.of([problem]), d.chi0[None], d.omegas[None])


def rollout(problem: HorizonProblem, d: DecisionVector) -> WindowRollout:
    """Single-shooting forward pass with the eliminated residuals and cost."""
    states, resids, cost = _window_pass(problem, d)
    ro = WindowRollout(states=states[0], residuals=resids[0], cost=float(cost[0]))
    if not (np.all(np.isfinite(ro.states)) and np.isfinite(ro.cost)):
        raise NumericsError("window rollout produced non-finite values")
    return ro


def eval_cost(problem: HorizonProblem, d: DecisionVector) -> float:
    """Prior term plus the stage-cost sum over the window."""
    value = float(_window_pass(problem, d)[2][0])
    if not np.isfinite(value):
        raise NumericsError("window cost is non-finite")
    return value


def build_candidate(olog: ObserverLog, start: int, horizon: int) -> DecisionVector:
    """Warm start from the observer: its state at the window start plus its
    corrections as the disturbance sequence. Rolling it forward reproduces
    the observer trajectory exactly."""
    if start < 0 or start + horizon > olog.steps:
        raise ValueError(
            f"observer log (length {olog.steps}) does not cover "
            f"window [{start}, {start + horizon})"
        )
    return DecisionVector(
        chi0=olog.states[start].copy(),
        omegas=olog.corrections[start : start + horizon].copy(),
    )


def advance_window(
    model: SystemModel,
    cost: CostSpec,
    horizon_cap: int,
    outputs,
    olog: ObserverLog,
    t: int,
) -> HorizonProblem:
    """Window problem for estimating the state at time t >= 1.

    Until the horizon is full the window grows with t (M = min(N, t)); the
    prior is the observer state at the window start.
    """
    if t < 1:
        raise ValueError("windows exist for t >= 1")
    ys = np.atleast_2d(np.asarray(outputs, dtype=np.float64))
    if ys.shape[0] < t:
        raise ValueError("measurement record shorter than t")
    m = min(horizon_cap, t)
    start = t - m
    if start + m > olog.steps:
        raise ValueError("observer log does not cover the window")
    return HorizonProblem(
        model=model,
        cost=cost,
        horizon=m,
        prior=olog.states[start].copy(),
        measurements=ys[start:t].copy(),
        start=start,
    )


def check_feasible(problem: HorizonProblem, d: DecisionVector) -> FeasibilityReport:
    """Set membership of all window states, disturbances and residuals."""
    ro = rollout(problem, d)
    model = problem.model
    state = model.state_set.row_violations(ro.states)
    disturbance = model.disturbance_set.row_violations(d.omegas)
    residual = model.noise_set.row_violations(ro.residuals)
    violations = [
        (i, "state", float(a)) for i, a in enumerate(state) if a > FEASIBILITY_TOL
    ]
    for i in range(problem.horizon):
        if disturbance[i] > FEASIBILITY_TOL:
            violations.append((i, "disturbance", float(disturbance[i])))
        if residual[i] > FEASIBILITY_TOL:
            violations.append((i, "residual", float(residual[i])))
    worst = max((v[2] for v in violations), default=0.0)
    return FeasibilityReport(
        feasible=not violations, max_violation=worst, violations=tuple(violations)
    )
