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

from .dynamics import NumericsError, SystemModel, _as_record
from .observer import ObserverLog

FEASIBILITY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class CostSpec:
    """Prior weighting and stage cost together with their power bounds.

    The bounds state c_lo * |.|^a <= term <= c_hi * |.|^a for the disturbance
    part (in |omega|) and the residual part (in |nu|), and the lower one,
    c_p_lo * |chi - prior|^a, for the prior weighting. No upper prior bound
    is needed: the observer-based candidate starts at the prior, so it pays
    no prior cost. Gradient-based solving needs the derivative maps, which
    give each term's gradient and curvature: its Hessian, or a positive
    semidefinite stand-in such as a Gauss-Newton curvature.

    The maps act on arrays stacked along leading axes. For chi and its prior
    of shape (..., n), ``gamma`` returns (...) and ``gamma_derivs`` the
    gradient (..., n) and curvature (..., n, n). For omega (..., n) and nu
    (..., p), ``stage`` returns (...) and ``stage_derivs`` the gradients
    (..., n) and (..., p), then the curvatures (..., n, n) and (..., p, p).
    """

    gamma: Callable[[np.ndarray, np.ndarray], np.ndarray]
    stage: Callable[[np.ndarray, np.ndarray], np.ndarray]
    a: float
    c_p_lo: float
    c_w_lo: float
    c_w_hi: float
    c_v_lo: float
    c_v_hi: float
    gamma_derivs: Callable | None = None
    stage_derivs: Callable | None = None

    def __post_init__(self):
        for name in ("a", "c_p_lo", "c_w_lo", "c_w_hi", "c_v_lo", "c_v_hi"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


def _weight(m, name):
    """The symmetric part of a square, finite, positive definite weight
    matrix, and its extreme eigenvalues."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not np.all(np.isfinite(m)):
        raise ValueError(f"{name} weight must be a finite square matrix")
    sym = 0.5 * (m + m.T)  # the part a quadratic form sees
    vals = np.linalg.eigvalsh(sym)
    if vals[0] <= 0:
        raise ValueError(f"{name} weight must be positive definite")
    return sym, float(vals[0]), float(vals[-1])


def quadratic_cost(disturbance_weight, noise_weight) -> CostSpec:
    """Quadratic cost from weight matrices (typically inverse covariances).

    Stage cost omega' W omega + nu' V nu plus the prior term
    |chi - prior|^2 (identity weight P). Each weight enters through its
    symmetric part, and the curvatures are the constants 2P, 2W and 2V. The
    power bounds follow from the extreme eigenvalues with exponent 2.
    """
    w, w_lo, w_hi = _weight(disturbance_weight, "disturbance")
    v, v_lo, v_hi = _weight(noise_weight, "noise")
    p2, w2, v2 = 2.0 * np.eye(len(w)), 2.0 * w, 2.0 * v

    def gamma(chi, prior):
        d = (chi - prior)[..., None]
        return (d.swapaxes(-1, -2) @ d)[..., 0, 0]  # d'd, window by window

    def stage(om, nu):
        return np.sum(om * (om @ w.T), axis=-1) + np.sum(nu * (nu @ v.T), axis=-1)

    def gamma_derivs(chi, prior):
        grad = 2.0 * (chi - prior)
        return grad, np.broadcast_to(p2, grad.shape + p2.shape[-1:])

    def stage_derivs(om, nu):
        curv_w = np.broadcast_to(w2, om.shape + w2.shape[-1:])
        curv_v = np.broadcast_to(v2, nu.shape + v2.shape[-1:])
        return 2.0 * (om @ w.T), 2.0 * (nu @ v.T), curv_w, curv_v

    return CostSpec(
        gamma=gamma, stage=stage, a=2.0,
        c_p_lo=1.0, c_w_lo=w_lo, c_w_hi=w_hi, c_v_lo=v_lo, c_v_hi=v_hi,
        gamma_derivs=gamma_derivs, stage_derivs=stage_derivs,
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

    def take(self, rows) -> "WindowStack":
        """The windows at the ascending indices ``rows`` (the stack itself
        for all of them)."""
        if len(rows) == len(self.prior):
            return self
        return WindowStack(self.model, self.cost, self.prior[rows], self.measurements[rows])


def _forward_pass(stack: WindowStack, chi0, omegas):
    """States (B, M+1, n), eliminated residuals (B, M, p) and costs (B,) of
    the stacked decisions (chi0, omegas), unchecked.

    The one window evaluation: ``_checked_pass`` wraps it for the public
    functions and the solver's entry, and the line search, which rejects a
    non-finite trial instead, calls it directly. Only ``f`` runs stage by
    stage; ``h`` and ``stage`` see every window at once.
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


def _checked_pass(stack: WindowStack, chi0, omegas):
    """``_forward_pass``, raising ``NumericsError`` when a window's states or
    cost are not all finite, overflow included."""
    with np.errstate(over="ignore", invalid="ignore"):
        states, resids, cost = _forward_pass(stack, chi0, omegas)
    if not (np.all(np.isfinite(states)) and np.all(np.isfinite(cost))):
        raise NumericsError("window rollout produced non-finite values")
    return states, resids, cost


def _violation_rows(model: SystemModel, omegas, states, resids) -> np.ndarray:
    """Bound excess beyond ``FEASIBILITY_TOL`` at each stage of the stacked
    windows, (B, M+1, 3): per stage i, the state x(i), the disturbance w(i)
    and the residual nu(i); 0 within tolerance and for the missing w(M) and
    nu(M). Every admission test reads this one array."""
    m = omegas.shape[1]
    rows = np.zeros(states.shape[:2] + (3,))
    rows[..., 0] = model.state_set.row_violations(states)
    rows[:, :m, 1] = model.disturbance_set.row_violations(omegas)
    rows[:, :m, 2] = model.noise_set.row_violations(resids)
    return np.where(rows > FEASIBILITY_TOL, rows, 0.0)


def _feasibility(model: SystemModel, omegas, states, resids) -> np.ndarray:
    """Largest violation of each stacked window; 0 for a feasible window."""
    return _violation_rows(model, omegas, states, resids).max(axis=(1, 2))


def rollout(problem: HorizonProblem, d: DecisionVector) -> WindowRollout:
    """Single-shooting forward pass with the eliminated residuals and cost."""
    _check_dims(problem, d)
    states, resids, cost = _checked_pass(WindowStack.of([problem]), d.chi0[None], d.omegas[None])
    return WindowRollout(states=states[0], residuals=resids[0], cost=float(cost[0]))


def eval_cost(problem: HorizonProblem, d: DecisionVector) -> float:
    """Prior term plus the stage-cost sum over the window."""
    return rollout(problem, d).cost


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
    ys = _as_record(outputs, model.p, "outputs")
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
    """Set membership of all window states, disturbances and residuals;
    ``violations`` lists (stage, kind, excess) in stage order."""
    ro = rollout(problem, d)
    rows = _violation_rows(problem.model, d.omegas[None], ro.states[None], ro.residuals[None])[0]
    kinds = ("state", "disturbance", "residual")
    violations = tuple((int(i), kinds[k], float(rows[i, k])) for i, k in np.argwhere(rows > 0.0))
    return FeasibilityReport(
        feasible=not violations, max_violation=float(rows.max()), violations=violations
    )
