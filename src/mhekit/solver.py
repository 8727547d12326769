"""Iteration-budgeted window solver: warm start, never worse than it.

Projected descent with a monotone Armijo backtracking line search. Every
accepted step keeps the iterate feasible (chi0 and omegas are projected
onto their boxes, steps whose residuals or intermediate states leave
their sets are rejected), so any budget - including zero - returns a
feasible point whose cost does not exceed the warm start's.

Two direction rules share that machinery: "gn" (default) takes
Gauss-Newton steps built from the forward sensitivities, which reach the
accuracy of a fully converged solve within a handful of iterations (for
non-quadratic costs it falls back to projected steepest descent with a
unit initial step); "bb" is projected gradient descent with the spectral
(Barzilai-Borwein) steplength. The iterate path is deterministic and
independent of the budget, so a longer budget always extends a shorter
one's cost trace.

Each iterate is evaluated by one forward pass: the accepted line-search
trial's states and residuals feed the next gradient and Gauss-Newton
direction, and the returned feasibility residual is read off the same pass.
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
    check_feasible,  # noqa: F401 - perfbench/spans.py traces it under this module
    eval_cost,  # noqa: F401 - perfbench/spans.py traces it under this module
    rollout,
)


class InfeasibleCandidateError(ValueError):
    """The warm start violates the window constraints."""


@dataclass(frozen=True)
class SolverConfig:
    max_iterations: int = 500
    convergence_tol: float = 1e-8  # projected-gradient norm
    cost_tol: float = 1e-10  # cost decrease per iteration
    armijo_c: float = 1e-4
    backtrack_factor: float = 0.5
    max_backtracks: int = 40
    initial_step: float = 1.0
    step_rule: str = "gn"  # "gn" or "bb" (spectral gradient)
    converged_cap: int = 500

    def __post_init__(self):
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if not 0 < self.armijo_c < 1:
            raise ValueError("armijo_c must be in (0, 1)")
        if not 0 < self.backtrack_factor < 1:
            raise ValueError("backtrack_factor must be in (0, 1)")
        if not self.convergence_tol > 0:
            raise ValueError("convergence_tol must be positive")
        if self.step_rule not in ("gn", "bb"):
            raise ValueError("step_rule must be 'gn' or 'bb'")


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
    return _gradient(problem, d.chi0, d.omegas, rollout(problem, d))


def _require_gradients(problem: HorizonProblem) -> None:
    model = problem.model
    cost = problem.cost
    if model.f_jac is None or model.h_jac is None:
        raise ValueError("model Jacobians are required for gradient-based solving")
    if cost.gamma_grad is None or cost.stage_grad_w is None or cost.stage_grad_v is None:
        raise ValueError("cost gradients are required for gradient-based solving")


def _gradient(problem: HorizonProblem, chi0, omegas, ro: WindowRollout):
    """Reverse sweep over the forward pass ``ro`` of (chi0, omegas)."""
    model = problem.model
    cost = problem.cost
    lam = np.zeros(model.n)
    g_om = np.empty_like(omegas)
    for i in range(problem.horizon - 1, -1, -1):
        g_om[i] = cost.stage_grad_w(omegas[i], ro.residuals[i]) + lam
        g_nu = cost.stage_grad_v(omegas[i], ro.residuals[i])
        lam = model.f_jac(ro.states[i]).T @ lam - model.h_jac(ro.states[i]).T @ g_nu
    g_chi = cost.gamma_grad(chi0, problem.prior) + lam
    if not (np.all(np.isfinite(g_chi)) and np.all(np.isfinite(g_om))):
        raise NumericsError("cost gradient is non-finite")
    return g_chi, g_om


def _gn_direction(problem: HorizonProblem, ro: WindowRollout, g_chi, g_om):
    """Gauss-Newton step of a quadratic cost at the forward pass ``ro``.

    The Gauss-Newton Hessian (always positive definite) is built from the
    forward sensitivities of the shooting recursion.
    """
    model = problem.model
    q = problem.cost.quad
    m = problem.horizon
    n = model.n
    dim = n + m * n
    hess = np.zeros((dim, dim))
    hess[:n, :n] = 2.0 * q.prior
    sens = np.zeros((n, dim))
    sens[:, :n] = np.eye(n)
    for i in range(m):
        lo = n + i * n
        hess[lo : lo + n, lo : lo + n] += 2.0 * q.disturbance
        u = model.h_jac(ro.states[i]) @ sens  # d(nu_i)/d(decision) = -u
        hess += 2.0 * (u.T @ (q.noise @ u))
        sens = model.f_jac(ro.states[i]) @ sens
        sens[:, lo : lo + n] += np.eye(n)
    grad = np.concatenate([g_chi, g_om.ravel()])
    step = np.linalg.solve(hess, -grad)
    return step[:n], step[n:].reshape(m, n)


def _linesearch(problem, chi0, omegas, dir_chi, dir_om, g_chi, g_om, cost_now, step, cfg):
    """First projected trial along the direction that stays feasible and
    passes the Armijo test, as (chi0, omegas, forward pass), or None."""
    model = problem.model
    x_lo, x_hi = model.state_set.lower, model.state_set.upper
    w_lo, w_hi = model.disturbance_set.lower, model.disturbance_set.upper
    alpha = step
    for _ in range(cfg.max_backtracks + 1):
        t_chi = np.clip(chi0 + alpha * dir_chi, x_lo, x_hi)
        t_om = np.clip(omegas + alpha * dir_om, w_lo, w_hi)
        descent = float(g_chi @ (t_chi - chi0)) + float(np.sum(g_om * (t_om - omegas)))
        with np.errstate(over="ignore", invalid="ignore"):
            # overlong trial steps may overflow transiently; they are rejected
            ro = _forward_pass(problem, t_chi, t_om)
        if (
            np.all(np.isfinite(ro.states))
            and np.isfinite(ro.cost)
            and _feasibility(problem, t_om, ro).feasible
            and ro.cost <= cost_now + cfg.armijo_c * descent
        ):
            return t_chi, t_om, ro
        alpha *= cfg.backtrack_factor
    return None


def _projected_gradient_norm(problem, chi0, omegas, g_chi, g_om) -> float:
    model = problem.model
    step_chi = chi0 - np.clip(
        chi0 - g_chi, model.state_set.lower, model.state_set.upper
    )
    step_om = omegas - np.clip(
        omegas - g_om, model.disturbance_set.lower, model.disturbance_set.upper
    )
    return float(np.sqrt(np.sum(step_chi**2) + np.sum(step_om**2)))


def _solve_core(
    problem: HorizonProblem,
    candidate: DecisionVector,
    cfg: SolverConfig,
    limit: int,
    checkpoints: Sequence[int] = (),
):
    """Shared iteration loop; snapshots the iterate at the given budgets.

    Returns the entry feasibility report of the candidate, the snapshots by
    budget and the final state; a state is (chi0, omegas, iterations, cost
    trace, converged, forward pass of the iterate).
    """
    ro = rollout(problem, candidate)
    entry = _feasibility(problem, candidate.omegas, ro)
    if not entry.feasible:
        raise InfeasibleCandidateError(
            f"candidate violates the window constraints by {entry.max_violation:.3e}"
        )
    if limit > 0:
        _require_gradients(problem)
    use_gn = cfg.step_rule == "gn" and problem.cost.quad is not None

    chi = candidate.chi0.copy()
    om = candidate.omegas.copy()
    trace = [ro.cost]
    converged = False
    it = 0

    snaps: dict[int, tuple] = {}

    def snap(budget: int):
        snaps[budget] = (chi.copy(), om.copy(), it, list(trace), converged, ro)

    pending = sorted(set(int(b) for b in checkpoints))
    for b in [b for b in pending if b <= 0]:
        snap(b)
    pending = [b for b in pending if b > 0]

    def evaluate(c, o, fwd):
        """Direction (gn or steepest descent) and gradient at (c, o)."""
        g_chi, g_om = _gradient(problem, c, o, fwd)
        if use_gn:
            d_chi, d_om = _gn_direction(problem, fwd, g_chi, g_om)
            if np.all(np.isfinite(d_chi)) and np.all(np.isfinite(d_om)):
                return d_chi, d_om, g_chi, g_om
        return -g_chi, -g_om, g_chi, g_om

    if limit > 0:
        dir_chi, dir_om, g_chi, g_om = evaluate(chi, om, ro)
        prev_step = None  # (s_chi, s_om, y_chi, y_om) for the spectral rule
        while it < limit:
            pg = _projected_gradient_norm(problem, chi, om, g_chi, g_om)
            if pg <= cfg.convergence_tol:
                converged = True
                break
            if cfg.step_rule == "bb" and prev_step is not None:
                s_chi, s_om, y_chi, y_om = prev_step
                sty = float(s_chi @ y_chi) + float(np.sum(s_om * y_om))
                sts = float(s_chi @ s_chi) + float(np.sum(s_om * s_om))
                if sty > 1e-300 and np.isfinite(sty):
                    alpha0 = min(max(sts / sty, 1e-12), 1e12)
                else:
                    alpha0 = cfg.initial_step
            else:
                alpha0 = cfg.initial_step
            accepted = _linesearch(
                problem, chi, om, dir_chi, dir_om, g_chi, g_om, ro.cost, alpha0, cfg
            )
            if accepted is None:
                break
            n_chi, n_om, n_ro = accepted
            n_dir_chi, n_dir_om, ng_chi, ng_om = evaluate(n_chi, n_om, n_ro)
            prev_step = (n_chi - chi, n_om - om, ng_chi - g_chi, ng_om - g_om)
            decrease = ro.cost - n_ro.cost
            chi, om, ro = n_chi, n_om, n_ro
            dir_chi, dir_om, g_chi, g_om = n_dir_chi, n_dir_om, ng_chi, ng_om
            it += 1
            trace.append(ro.cost)
            if decrease <= cfg.cost_tol:
                converged = True
            while pending and pending[0] == it:
                snap(pending.pop(0))
            if converged:
                break

    for b in pending:
        snap(b)

    final = (chi, om, it, list(trace), converged, ro)
    return entry, snaps, final


def _pack(problem, candidate, entry, state) -> tuple[DecisionVector, IterationReport]:
    """Result of one snapshot; its feasibility residual is read off the
    iterate's stored forward pass (the entry report at zero iterations)."""
    chi, om, it, trace, converged, ro = state
    if it == 0:
        d, feas = candidate, entry
    else:
        d, feas = DecisionVector(chi, om), _feasibility(problem, om, ro)
    report = IterationReport(
        iterations_used=it,
        cost_trace=np.asarray(trace, dtype=np.float64),
        converged=converged,
        feasibility_residual=feas.max_violation,
    )
    return d, report


def solve_suboptimal(
    problem: HorizonProblem, candidate: DecisionVector, cfg: SolverConfig
) -> tuple[DecisionVector, IterationReport]:
    """At most ``cfg.max_iterations`` descent steps from the warm start;
    with a zero budget the candidate is returned unchanged."""
    entry, _, final = _solve_core(problem, candidate, cfg, limit=cfg.max_iterations)
    return _pack(problem, candidate, entry, final)


def solve_converged(
    problem: HorizonProblem, candidate: DecisionVector, cfg: SolverConfig
) -> tuple[DecisionVector, IterationReport]:
    """Iterate until the projected-gradient norm or the per-iteration cost
    decrease falls below tolerance, capped at ``cfg.converged_cap`` steps."""
    entry, _, final = _solve_core(problem, candidate, cfg, limit=cfg.converged_cap)
    return _pack(problem, candidate, entry, final)


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
    ``max_iterations=b``. Returns (per-budget dict, converged result or None).
    """
    limit = cfg.converged_cap if converged else max(budgets, default=0)
    entry, snaps, final = _solve_core(
        problem, candidate, cfg, limit=limit, checkpoints=budgets
    )
    results = {b: _pack(problem, candidate, entry, snaps[b]) for b in snaps}
    final_result = _pack(problem, candidate, entry, final) if converged else None
    return results, final_result
