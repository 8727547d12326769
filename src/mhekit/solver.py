"""Iteration-budgeted window solver: warm start, never worse than it.

Projected descent with a monotone Armijo backtracking line search. Every
accepted step keeps the iterate feasible (chi0 and omegas are projected
onto their boxes, steps whose residuals or intermediate states leave
their sets are rejected), so any budget - including zero - returns a
feasible point whose cost does not exceed the warm start's.

The direction is the Gauss-Newton step when the cost is quadratic, which
reaches the accuracy of a fully converged solve within a handful of
iterations. The step solves the window's linear-quadratic smoothing problem
by a backward Riccati recursion, O(M n^3) per iteration. For non-quadratic
costs, or when that system is singular or its step non-finite, the direction
is projected steepest descent, whose first trial step is the spectral
(Barzilai-Borwein) ratio of the previous step (``INITIAL_STEP`` when there
is none). The iterate path is deterministic and independent of the budget:
one loop runs it to the largest budget asked for, so a longer budget always
extends a shorter one's cost trace, and the converged baseline is the
snapshot at ``max_iterations``. That cap is the only setting; the Armijo
constant, step halving, first step and stopping tolerances are the module
constants below, since the never-worse guarantee does not depend on them.

Each iterate is evaluated by one forward pass: the accepted line-search
trial's states and residuals feed the next gradient and Gauss-Newton
direction, and the feasibility report that accepted the trial is the one
returned with it. One call of each model Jacobian on the pass's stacked
states serves both the gradient and the direction; the iterate a solve
stops at is not evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import NumericsError
from .mhe import (
    DecisionVector,
    HorizonProblem,
    WindowRollout,
    _feasibility,
    _forward_pass,
    _stacked,
    check_feasible,  # noqa: F401 - perfbench/spans.py traces it under this module
    eval_cost,  # noqa: F401 - perfbench/spans.py traces it under this module
    rollout,
)


class InfeasibleCandidateError(ValueError):
    """The warm start violates the window constraints."""


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


# Line-search and stopping constants: the textbook Armijo test with step
# halving (Nocedal & Wright, Numerical Optimization, 2nd ed., sec. 3.1).
ARMIJO_C = 1e-4
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 40
INITIAL_STEP = 1.0
CONVERGENCE_TOL = 1e-8  # projected-gradient norm
COST_TOL = 1e-10  # cost decrease per iteration


@dataclass(frozen=True)
class SolverConfig:
    max_iterations: int = 500

    def __post_init__(self):
        if not _is_integer(self.max_iterations) or self.max_iterations < 0:
            raise ValueError("max_iterations must be a nonnegative integer")


@dataclass(frozen=True, eq=False)
class IterationReport:
    iterations_used: int
    cost_trace: np.ndarray  # leading entry is the warm-start cost
    converged: bool
    feasibility_residual: float


def cost_gradient(
    problem: HorizonProblem, d: DecisionVector
) -> tuple[np.ndarray, np.ndarray]:
    """Exact cost gradient w.r.t. (chi0, omegas) by reverse accumulation."""
    _require_gradients(problem)
    ro = rollout(problem, d)
    return _gradient(problem, d.chi0, d.omegas, ro, *_jacobians(problem, ro))


def _require_gradients(problem: HorizonProblem) -> None:
    model = problem.model
    cost = problem.cost
    if model.f_jac is None or model.h_jac is None:
        raise ValueError("model Jacobians are required for gradient-based solving")
    if cost.gamma_grad is None or cost.stage_grad_w is None or cost.stage_grad_v is None:
        raise ValueError("cost gradients are required for gradient-based solving")


def _jacobians(problem: HorizonProblem, ro: WindowRollout):
    """Model Jacobians along the forward pass ``ro``: A (M, n, n) of the
    transition and C (M, p, n) of the output map at each window state."""
    model, m = problem.model, problem.horizon
    a = _stacked("f_jac", model.f_jac(ro.states[:-1]), (m, model.n, model.n))
    c = _stacked("h_jac", model.h_jac(ro.states[:-1]), (m, model.p, model.n))
    return a, c


def _gradient(problem: HorizonProblem, chi0, omegas, ro: WindowRollout, a, c):
    """Reverse sweep over the forward pass ``ro`` of (chi0, omegas) with
    its Jacobians ``a`` and ``c``; the stage terms are evaluated up front."""
    cost, nu = problem.cost, ro.residuals
    g_om = _stacked("stage_grad_w", cost.stage_grad_w(omegas, nu), omegas.shape).copy()
    g_nu = _stacked("stage_grad_v", cost.stage_grad_v(omegas, nu), nu.shape)
    ct_g_nu = (np.swapaxes(c, 1, 2) @ g_nu[:, :, None])[:, :, 0]  # C_i' g_nu_i
    lam = np.zeros(problem.model.n)
    for i in range(problem.horizon - 1, -1, -1):
        g_om[i] += lam
        lam = a[i].T @ lam - ct_g_nu[i]
    g_chi = cost.gamma_grad(chi0, problem.prior) + lam
    if not (np.all(np.isfinite(g_chi)) and np.all(np.isfinite(g_om))):
        raise NumericsError("cost gradient is non-finite")
    return g_chi, g_om


def _gn_direction(problem: HorizonProblem, chi0, omegas, ro: WindowRollout, a, c):
    """Gauss-Newton step of a quadratic cost at the forward pass ``ro``.

    The step minimises the window's linear-quadratic model: dynamics
    dx(i+1) = A_i dx(i) + dw(i), stage terms Q_i = 2 C_i' V C_i,
    q_i = -2 C_i' V nu_i, R = 2 W, r_i = 2 W w_i and the prior term
    2 P (dchi + chi - prior). A backward Riccati sweep from S = 0, s = 0
    gives the feedback dw(i) = K_i dx(i) + k_i, and a forward sweep from
    dchi = -(2P + S_0)^-1 (2P (chi - prior) + s_0) applies it: O(M n^3).
    Raises ``np.linalg.LinAlgError`` when a stage system is singular.
    """
    q = problem.cost.quad
    m, n = problem.horizon, problem.model.n
    p2, w2 = 2.0 * q.prior, 2.0 * q.disturbance
    ct_v2 = np.swapaxes(c, 1, 2) @ (2.0 * q.noise)
    stage_q = ct_v2 @ c  # Q_i
    stage_qv = -(ct_v2 @ ro.residuals[:, :, None])[:, :, 0]  # q_i
    # stage i solves (R + S) [K_i k_i] = -[S A_i  r_i + s]
    rhs = np.empty((m, n, n + 1))
    rhs[:, :, n] = omegas @ w2.T  # r_i
    feedback = np.empty((m, n, n + 1))  # [K_i k_i]
    big_s = np.zeros((n, n))
    s = np.zeros(n)
    for i in range(m - 1, -1, -1):
        sa = big_s @ a[i]
        rhs[i, :, :n] = sa
        rhs[i, :, n] += s
        fb = feedback[i] = -np.linalg.solve(w2 + big_s, rhs[i])
        big_s = stage_q[i] + a[i].T @ sa + sa.T @ fb[:, :n]
        s = stage_qv[i] + a[i].T @ s + sa.T @ fb[:, n]
    d_chi = np.linalg.solve(p2 + big_s, -(p2 @ (chi0 - problem.prior) + s))
    d_om = np.empty((m, n))
    dx = d_chi
    for i in range(m):
        d_om[i] = feedback[i, :, :n] @ dx + feedback[i, :, n]
        dx = a[i] @ dx + d_om[i]
    return d_chi, d_om


def _evaluate(problem: HorizonProblem, chi0, omegas, ro: WindowRollout):
    """Direction and gradient at an iterate from one Jacobian sweep, and
    whether the direction is the Gauss-Newton step: it is when the cost is
    quadratic and that step is well defined and finite, steepest descent
    otherwise."""
    jac = _jacobians(problem, ro)
    g_chi, g_om = _gradient(problem, chi0, omegas, ro, *jac)
    if problem.cost.quad is not None:
        try:
            d_chi, d_om = _gn_direction(problem, chi0, omegas, ro, *jac)
        except np.linalg.LinAlgError:  # singular Gauss-Newton system
            pass
        else:
            if np.all(np.isfinite(d_chi)) and np.all(np.isfinite(d_om)):
                return d_chi, d_om, g_chi, g_om, True
    return -g_chi, -g_om, g_chi, g_om, False


def _linesearch(problem, chi0, omegas, dir_chi, dir_om, g_chi, g_om, cost_now, step):
    """First projected trial along the direction that stays feasible and
    passes the Armijo test, as (decision, forward pass, feasibility report),
    or None."""
    model = problem.model
    x_lo, x_hi = model.state_set.lower, model.state_set.upper
    w_lo, w_hi = model.disturbance_set.lower, model.disturbance_set.upper
    alpha = step
    for _ in range(MAX_BACKTRACKS + 1):
        t_chi = np.clip(chi0 + alpha * dir_chi, x_lo, x_hi)
        t_om = np.clip(omegas + alpha * dir_om, w_lo, w_hi)
        # overlong trial steps, and the products of huge gradients, may
        # overflow transiently; such trials are rejected
        with np.errstate(over="ignore", invalid="ignore"):
            descent = float(g_chi @ (t_chi - chi0)) + float(np.sum(g_om * (t_om - omegas)))
            ro = _forward_pass(problem, t_chi, t_om)
        if np.isfinite(descent) and np.all(np.isfinite(ro.states)) and np.isfinite(ro.cost):
            feas = _feasibility(problem, t_om, ro)
            if feas.feasible and ro.cost <= cost_now + ARMIJO_C * descent:
                return DecisionVector(t_chi, t_om), ro, feas
        alpha *= BACKTRACK_FACTOR
    return None


def _projected_gradient_norm(problem, chi0, omegas, g_chi, g_om) -> float:
    model = problem.model
    step_chi = chi0 - np.clip(
        chi0 - g_chi, model.state_set.lower, model.state_set.upper
    )
    step_om = omegas - np.clip(
        omegas - g_om, model.disturbance_set.lower, model.disturbance_set.upper
    )
    with np.errstate(over="ignore", invalid="ignore"):  # huge gradients give inf
        return float(np.sqrt(np.sum(step_chi**2) + np.sum(step_om**2)))


def _solve_core(
    problem: HorizonProblem,
    candidate: DecisionVector,
    budgets: Sequence[int],
) -> dict[int, tuple[DecisionVector, IterationReport]]:
    """The one iteration loop: runs the iterate path from the warm start to
    the largest budget and returns the packed result at each budget.

    A budget past the point where the path stops (converged, or a failed
    line search) gets that last iterate.
    """
    ro = rollout(problem, candidate)
    feas = _feasibility(problem, candidate.omegas, ro)
    if not feas.feasible:
        raise InfeasibleCandidateError(
            f"candidate violates the window constraints by {feas.max_violation:.3e}"
        )
    if max(budgets, default=0) > 0:
        _require_gradients(problem)

    d = candidate
    trace = [ro.cost]  # the warm-start cost, then one entry per accepted step
    converged = stopped = False
    prev = None  # previous (chi0, omegas, gradient) for the spectral step
    results = {}
    # The gradient and direction are evaluated at the top of each iteration,
    # so none is spent on the iterate a budget or COST_TOL stops at.
    for budget in sorted(set(budgets)):
        while not stopped and len(trace) <= budget:
            dir_chi, dir_om, g_chi, g_om, gn = _evaluate(problem, d.chi0, d.omegas, ro)
            pg = _projected_gradient_norm(problem, d.chi0, d.omegas, g_chi, g_om)
            if pg <= CONVERGENCE_TOL:
                converged = stopped = True
                break
            alpha0 = INITIAL_STEP
            if not gn and prev is not None:
                p_chi, p_om, pg_chi, pg_om = prev
                s_chi, s_om = d.chi0 - p_chi, d.omegas - p_om
                y_chi, y_om = g_chi - pg_chi, g_om - pg_om
                sty = float(s_chi @ y_chi) + float(np.sum(s_om * y_om))
                sts = float(s_chi @ s_chi) + float(np.sum(s_om * s_om))
                if sty > 1e-300 and np.isfinite(sty):
                    alpha0 = min(max(sts / sty, 1e-12), 1e12)
            accepted = _linesearch(
                problem, d.chi0, d.omegas, dir_chi, dir_om, g_chi, g_om, ro.cost, alpha0
            )
            if accepted is None:
                stopped = True
                break
            prev = (d.chi0, d.omegas, g_chi, g_om)
            d, ro, feas = accepted
            converged = stopped = trace[-1] - ro.cost <= COST_TOL
            trace.append(ro.cost)
        results[budget] = _pack(d, feas, trace, converged)
    return results


def _pack(d, feas, trace, converged) -> tuple[DecisionVector, IterationReport]:
    """Result at an iterate; its feasibility residual comes from the report
    that accepted the iterate (the entry report for the warm start)."""
    report = IterationReport(
        iterations_used=len(trace) - 1,
        cost_trace=np.asarray(trace, dtype=np.float64),
        converged=converged,
        feasibility_residual=feas.max_violation,
    )
    return d, report


def solve_suboptimal(
    problem: HorizonProblem, candidate: DecisionVector, cfg: SolverConfig
) -> tuple[DecisionVector, IterationReport]:
    """At most ``cfg.max_iterations`` descent steps from the warm start,
    fewer when the projected-gradient norm or the per-iteration cost
    decrease falls below tolerance; with a zero budget the candidate is
    returned unchanged."""
    return _solve_core(problem, candidate, (cfg.max_iterations,))[cfg.max_iterations]


def solve_with_checkpoints(
    problem: HorizonProblem,
    candidate: DecisionVector,
    cfg: SolverConfig,
    budgets: Sequence[int],
    converged: bool = True,
):
    """One pass that snapshots the shared iterate path at several budgets.

    Because the iteration map does not depend on the budget, the snapshot at
    budget b is identical to a standalone ``solve_suboptimal`` run with
    ``max_iterations=b``. The converged result is the snapshot at
    ``cfg.max_iterations``. Returns (per-budget dict, converged result or
    None). Results at budgets the path stops short of share one decision
    (the candidate itself at zero steps), so treat them as read-only.
    """
    stops = (*budgets, cfg.max_iterations) if converged else budgets
    results = _solve_core(problem, candidate, stops)
    per_budget = {b: results[b] for b in sorted(set(budgets))}
    return per_budget, results[cfg.max_iterations] if converged else None
