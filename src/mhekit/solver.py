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
direction, and the feasibility check that accepted the trial vouches for
the iterate returned. One call of each model Jacobian on the pass's stacked
states serves both the gradient and the direction; the iterate a solve
stops at is not evaluated.

Windows are solved as stacks. ``solve_windows`` takes many windows and
their stops (budgets); those that share a model, cost and length M run one
iteration loop together, every step an array operation over a leading
window axis (the Riccati stages solve (B, n, n) stacks). Each window keeps
its own step size, spectral pair, cost trace and stopping state, and leaves
the stack when it stops, so its result at every stop, one (window, stop)
entry of a ``WindowSolutions``, is what its own solve returns.
``solve_with_checkpoints`` and ``solve_suboptimal`` read a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .dynamics import NumericsError
from .mhe import (
    DecisionVector,
    HorizonProblem,
    WindowStack,
    _check_dims,
    _feasibility,
    _forward_pass,
    _batch,
    _stacked,
    _stages,
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


class _Iterates(NamedTuple):
    """Stacked iterates, row r one window: its decision and forward pass."""

    chi: np.ndarray  # (R, n)
    omegas: np.ndarray  # (R, M, n)
    states: np.ndarray  # (R, M+1, n)
    residuals: np.ndarray  # (R, M, p)
    cost: np.ndarray  # (R,)


class _Previous(NamedTuple):
    """Each row's previous iterate and gradient, for its spectral step."""

    chi: np.ndarray
    omegas: np.ndarray
    g_chi: np.ndarray
    g_om: np.ndarray


def _rows(values, mask):
    """The rows where ``mask`` is set of an array, or of every array of an
    ``_Iterates`` or ``_Previous``; the values themselves when it is set
    everywhere."""
    if mask.all():
        return values
    if isinstance(values, tuple):
        return type(values)(*(v[mask] for v in values))
    return values[mask]


def _inner(u, v) -> np.ndarray:
    """Inner product of each row's u and v, over all but the leading axis."""
    return np.sum((u * v).reshape(len(u), -1), axis=-1)


def _finite(values) -> np.ndarray:
    """Whether each row's values are all finite."""
    return np.isfinite(values).reshape(len(values), -1).all(axis=-1)


def cost_gradient(
    problem: HorizonProblem, d: DecisionVector
) -> tuple[np.ndarray, np.ndarray]:
    """Exact cost gradient w.r.t. (chi0, omegas) by reverse accumulation."""
    _require_gradients(problem)
    ro = rollout(problem, d)
    stack = WindowStack.of([problem])
    g_chi, g_om = _gradient(
        stack, d.chi0[None], d.omegas[None], ro.residuals[None],
        *_jacobians(stack, ro.states[None]),
    )
    return g_chi[0], g_om[0]


def _require_gradients(problem: HorizonProblem) -> None:
    model = problem.model
    cost = problem.cost
    if model.f_jac is None or model.h_jac is None:
        raise ValueError("model Jacobians are required for gradient-based solving")
    if cost.gamma_grad is None or cost.stage_grad_w is None or cost.stage_grad_v is None:
        raise ValueError("cost gradients are required for gradient-based solving")


def _jacobians(stack: WindowStack, states):
    """Model Jacobians along stacked forward passes ``states`` (B, M+1, n):
    A (B, M, n, n) of the transition and C (B, M, p, n) of the output map at
    each window state."""
    model = stack.model
    b, m = states.shape[0], states.shape[1] - 1
    x = states[:, :-1]
    a = _stacked("f_jac", model.f_jac(x), (b, m, model.n, model.n))
    c = _stacked("h_jac", model.h_jac(x), (b, m, model.p, model.n))
    return a, c


def _gradient(stack: WindowStack, chi0, omegas, resids, a, c):
    """Reverse sweep over stacked forward passes of (chi0, omegas) with
    residuals ``resids`` and Jacobians ``a`` and ``c``; the stage terms are
    evaluated up front."""
    cost = stack.cost
    g_om = _stacked("stage_grad_w", cost.stage_grad_w(omegas, resids), omegas.shape).copy()
    g_nu = _stacked("stage_grad_v", cost.stage_grad_v(omegas, resids), resids.shape)
    # stage-major columns; g_stages writes through to g_om
    ct_g_nu = _stages(c.swapaxes(-1, -2) @ g_nu[..., None])  # C_i' g_nu_i
    at = _stages(a).swapaxes(-1, -2)
    g_stages = _stages(g_om[..., None])
    lam = np.zeros(at.shape[1:-1] + (1,))
    for i in range(len(at) - 1, -1, -1):
        g_stages[i] += lam
        lam = at[i] @ lam - ct_g_nu[i]
    gamma_grad = _stacked("gamma_grad", cost.gamma_grad(chi0, stack.prior), chi0.shape)
    g_chi = gamma_grad + lam.reshape(chi0.shape)
    if not (np.all(np.isfinite(g_chi)) and np.all(np.isfinite(g_om))):
        raise NumericsError("cost gradient is non-finite")
    return g_chi, g_om


def _gn_direction(stack: WindowStack, chi0, omegas, resids, a, c):
    """Gauss-Newton steps of a quadratic cost at stacked forward passes.

    Each window's step minimises its linear-quadratic model: dynamics
    dx(i+1) = A_i dx(i) + dw(i), stage terms Q_i = 2 C_i' V C_i,
    q_i = -2 C_i' V nu_i, R = 2 W, r_i = 2 W w_i and the prior term
    2 P (dchi + chi - prior). A backward Riccati sweep from S = 0, s = 0
    gives the feedback dw(i) = K_i dx(i) + k_i, and a forward sweep from
    dchi = -(2P + S_0)^-1 (2P (chi - prior) + s_0) applies it: O(M n^3) per
    window, and each stage is one ``np.linalg.solve`` on the stack. Raises
    ``np.linalg.LinAlgError`` when a stage system of any window is singular.
    """
    q = stack.cost.quad
    n = omegas.shape[-1]
    p2, w2 = 2.0 * q.prior, 2.0 * q.disturbance
    ct_v2 = c.swapaxes(-1, -2) @ (2.0 * q.noise)
    # Stage-major, vectors as columns. The backward sweep carries S and s
    # as one matrix [S s], and A_i as [[A_i 0] [0 1]], so that one product
    # gives [S A_i  s] and one gives [A_i' S A_i  A_i' s].
    a = _stages(a)
    a_aug = np.zeros(a.shape[:-2] + (n + 1, n + 1))
    a_aug[..., :n, :n] = a
    a_aug[..., n, n] = 1.0
    quad = np.empty(a.shape[:-1] + (n + 1,))  # [Q_i q_i]
    quad[..., :n] = _stages(ct_v2 @ c)
    quad[..., n:] = _stages(-(ct_v2 @ resids[..., None]))
    lin = np.zeros_like(quad)  # [0 r_i]
    lin[..., n] = _stages(omegas @ w2.T)
    feedback = np.empty_like(quad)  # [K_i k_i]
    ss = np.zeros(a.shape[1:-1] + (n + 1,))  # [S s]
    for i in range(len(a) - 1, -1, -1):
        sas = ss @ a_aug[i]  # [S A_i  s]
        # stage i solves (R + S) [K_i k_i] = -[S A_i  r_i + s]
        fb = feedback[i] = -np.linalg.solve(w2 + ss[..., :n], lin[i] + sas)
        ss = quad[i] + a[i].swapaxes(-1, -2) @ sas + sas[..., :n].swapaxes(-1, -2) @ fb
    dev = _batch(chi0 - stack.prior)[..., None]
    d_chi = np.linalg.solve(p2 + ss[..., :n], -(p2 @ dev + ss[..., n:]))
    d_om = np.empty(omegas.shape + (1,))
    d_stages = _stages(d_om)
    dx = d_chi
    for i in range(len(a)):
        d_stages[i] = feedback[i, ..., :n] @ dx + feedback[i, ..., n:]
        dx = a[i] @ dx + d_stages[i]
    return d_chi.reshape(chi0.shape), d_om[..., 0]


def _evaluate(stack: WindowStack, x: _Iterates):
    """Directions and gradients at stacked iterates from one Jacobian sweep,
    and which directions are Gauss-Newton steps: a window's is when the cost
    is quadratic and that step is well defined and finite, steepest descent
    otherwise. A singular Gauss-Newton system sends the whole stack to
    steepest descent (a singular disturbance weight W makes every window's
    last stage system, 2W, singular at once)."""
    jac = _jacobians(stack, x.states)
    g_chi, g_om = _gradient(stack, x.chi, x.omegas, x.residuals, *jac)
    dir_chi, dir_om = -g_chi, -g_om
    gn = np.zeros(len(g_chi), dtype=bool)
    if stack.cost.quad is not None:
        try:
            d_chi, d_om = _gn_direction(stack, x.chi, x.omegas, x.residuals, *jac)
        except np.linalg.LinAlgError:  # singular Gauss-Newton system
            pass
        else:
            gn = _finite(d_chi) & _finite(d_om)
            dir_chi[gn], dir_om[gn] = d_chi[gn], d_om[gn]
    return dir_chi, dir_om, g_chi, g_om, gn


def _first_steps(x: _Iterates, g_chi, g_om, gn, prev: _Previous | None) -> np.ndarray:
    """Each row's first trial step: ``INITIAL_STEP``, or for a steepest
    descent direction after an earlier step the spectral (Barzilai-Borwein)
    ratio of that step."""
    step = np.full(len(gn), INITIAL_STEP)
    spectral = ~gn
    if prev is None or not spectral.any():
        return step
    s_chi, s_om = x.chi[spectral] - prev.chi[spectral], x.omegas[spectral] - prev.omegas[spectral]
    y_chi, y_om = g_chi[spectral] - prev.g_chi[spectral], g_om[spectral] - prev.g_om[spectral]
    sty = _inner(s_chi, y_chi) + _inner(s_om, y_om)
    sts = _inner(s_chi, s_chi) + _inner(s_om, s_om)
    ok = (sty > 1e-300) & np.isfinite(sty)
    with np.errstate(over="ignore"):  # a huge ratio is capped below
        ratio = np.minimum(np.maximum(sts[ok] / sty[ok], 1e-12), 1e12)
    step[np.flatnonzero(spectral)[ok]] = ratio
    return step


def _linesearch(stack: WindowStack, x: _Iterates, dir_chi, dir_om, g_chi, g_om, step, pending):
    """For each ``pending`` row, the first projected trial along its
    direction from its first ``step`` that stays feasible and passes the
    Armijo test. Returns which rows found one, and each row's next iterate:
    that trial, or its current iterate."""
    model = stack.model
    x_lo, x_hi = model.state_set.lower, model.state_set.upper
    w_lo, w_hi = model.disturbance_set.lower, model.disturbance_set.upper
    found = np.zeros_like(pending)
    pending = pending.copy()
    alpha = step
    nxt = x
    for _ in range(MAX_BACKTRACKS + 1):
        if not pending.any():
            break
        chi, om, cost_now = _rows(x.chi, pending), _rows(x.omegas, pending), _rows(x.cost, pending)
        t_step = _rows(alpha, pending)
        t_chi = np.clip(chi + t_step[:, None] * _rows(dir_chi, pending), x_lo, x_hi)
        t_om = np.clip(om + t_step[:, None, None] * _rows(dir_om, pending), w_lo, w_hi)
        # overlong trial steps, and the products of huge gradients, may
        # overflow transiently; such trials are rejected
        with np.errstate(over="ignore", invalid="ignore"):
            descent = _inner(_rows(g_chi, pending), t_chi - chi) + _inner(
                _rows(g_om, pending), t_om - om
            )
            trial = _Iterates(t_chi, t_om, *_forward_pass(stack.take(pending), t_chi, t_om))
        ok = np.isfinite(descent) & _finite(trial.states) & np.isfinite(trial.cost)
        if ok.any():
            feasible = _feasibility(model, t_om[ok], trial.states[ok], trial.residuals[ok]) == 0.0
            ok[ok] = feasible & (trial.cost[ok] <= cost_now[ok] + ARMIJO_C * descent[ok])
        if ok.all() and pending.all():  # every row took its first trial
            return ok, trial
        rows = np.flatnonzero(pending)[ok]
        if rows.size:
            if nxt is x:
                nxt = _Iterates(*(v.copy() for v in x))
            for full, part in zip(nxt, trial):
                full[rows] = part[ok]
        found[rows] = True
        pending[rows] = False
        alpha = alpha * BACKTRACK_FACTOR
    return found, nxt


def _projected_gradient_norm(model, chi0, omegas, g_chi, g_om) -> np.ndarray:
    step_chi = chi0 - np.clip(
        chi0 - g_chi, model.state_set.lower, model.state_set.upper
    )
    step_om = omegas - np.clip(
        omegas - g_om, model.disturbance_set.lower, model.disturbance_set.upper
    )
    with np.errstate(over="ignore", invalid="ignore"):  # huge gradients give inf
        return np.sqrt(_inner(step_chi, step_chi) + _inner(step_om, step_om))


@dataclass(frozen=True, eq=False)
class WindowSolutions:
    """B windows solved to K stops (budgets), indexed by window j and stop
    k: ``chi`` (B, K, n), ``omegas`` (B, K, M_max, n) zero past each
    ``horizons[j]``, and ``cost``, ``iterations`` and ``converged`` (B, K).
    ``traces[s]`` (B,) is each window's cost after step s (the warm start at
    s = 0), NaN where it took fewer. Every iterate passed the feasibility
    check that admitted it, so its violation beyond tolerance is zero."""

    candidates: tuple[DecisionVector, ...]
    horizons: np.ndarray
    chi: np.ndarray
    omegas: np.ndarray
    cost: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    traces: list[np.ndarray]

    def result(self, j: int, k: int) -> tuple[DecisionVector, IterationReport]:
        """What ``solve_suboptimal`` returns on window j alone with budget
        ``stops[k]``: the candidate itself after zero steps."""
        steps = int(self.iterations[j, k])
        d = self.candidates[j]
        if steps:
            d = DecisionVector(self.chi[j, k], self.omegas[j, k, : self.horizons[j]])
        trace = np.array([costs[j] for costs in self.traces[: steps + 1]])
        return d, IterationReport(steps, trace, bool(self.converged[j, k]), 0.0)


def _solve_stack(problems, candidates, stops, rows, out: WindowSolutions) -> None:
    """The one iteration loop: runs the iterate paths of a stack of windows
    to the largest stop, writing each one's result at every stop to ``out``
    at its row in ``rows``.

    Row r of the stack and its arrays is window ``ids[r]``. A window leaves
    the stack when it stops (converged, or a failed line search), so every row
    has taken the same number of steps, and a stop past a window's last step
    gets its last iterate.
    """
    stack = WindowStack.of(problems)
    chi = np.array([c.chi0 for c in candidates])
    om = np.array([c.omegas for c in candidates])
    x = _Iterates(chi, om, *_forward_pass(stack, chi, om))
    if not np.all(_finite(x.states) & np.isfinite(x.cost)):
        raise NumericsError("window rollout produced non-finite values")
    for problem, violation in zip(problems, _feasibility(stack.model, om, x.states, x.residuals)):
        if violation > 0.0:
            raise InfeasibleCandidateError(
                f"candidate of window [{problem.start}, {problem.start + problem.horizon}) "
                f"violates the window constraints by {violation:.3e}"
            )
    if max(stops, default=0) > 0:
        _require_gradients(problems[0])

    ids = np.arange(len(problems))
    # each window's latest iterate and cost, steps taken and stopping state
    chi, om, cost = chi.copy(), om.copy(), x.cost.copy()
    iterations, converged = np.zeros(len(ids), dtype=np.int64), np.zeros(len(ids), dtype=bool)
    out.traces[0][rows] = cost
    prev = None
    steps = 0  # taken by every row
    # The gradient and direction are evaluated at the top of each iteration,
    # so none is spent on the iterate a stop or COST_TOL stops at.
    for k in np.argsort(stops, kind="stable"):
        while ids.size and steps < stops[k]:
            dir_chi, dir_om, g_chi, g_om, gn = _evaluate(stack, x)
            pg = _projected_gradient_norm(stack.model, x.chi, x.omegas, g_chi, g_om)
            moving = pg > CONVERGENCE_TOL
            step = _first_steps(x, g_chi, g_om, gn, prev)
            found, nxt = _linesearch(stack, x, dir_chi, dir_om, g_chi, g_om, step, moving)
            now_converged = ~moving | (found & (x.cost - nxt.cost <= COST_TOL))
            taken = ids[found]
            chi[taken], om[taken] = nxt.chi[found], nxt.omegas[found]
            cost[taken] = nxt.cost[found]
            iterations[taken] += 1
            converged[ids[now_converged]] = True
            steps += 1
            if len(out.traces) == steps:
                out.traces.append(np.full(len(out.cost), np.nan))
            out.traces[steps][rows[taken]] = nxt.cost[found]
            # rows that converged or failed their line search stop here
            keep = found & ~now_converged
            ids, stack = _rows(ids, keep), stack.take(keep)
            prev = _rows(_Previous(x.chi, x.omegas, g_chi, g_om), keep)
            x = _rows(nxt, keep)
        out.chi[rows, k], out.omegas[rows, k, : om.shape[1]], out.cost[rows, k] = chi, om, cost
        out.iterations[rows, k], out.converged[rows, k] = iterations, converged


def solve_windows(
    problems: Sequence[HorizonProblem],
    candidates: Sequence[DecisionVector],
    stops: Sequence[int],
) -> WindowSolutions:
    """Many windows solved to every stop (iteration budget) in ``stops`` as
    one array program. Column k of the result is ``stops[k]``, and
    ``result(j, k)`` is exactly what ``solve_suboptimal`` returns on window
    j alone with that budget."""
    if len(problems) != len(candidates):
        raise ValueError("need one candidate per window problem")
    groups: dict[tuple, list[int]] = {}
    for j, (problem, candidate) in enumerate(zip(problems, candidates)):
        _check_dims(problem, candidate)
        key = (id(problem.model), id(problem.cost), problem.horizon)
        groups.setdefault(key, []).append(j)
    b, k, n = len(problems), len(stops), problems[0].model.n if problems else 0
    horizons = np.array([p.horizon for p in problems], dtype=np.int64)
    out = WindowSolutions(
        tuple(candidates), horizons, np.empty((b, k, n)),
        np.zeros((b, k, horizons.max(initial=0), n)), np.empty((b, k)),
        np.empty((b, k), dtype=np.int64), np.empty((b, k), dtype=bool), [np.empty(b)],
    )
    for rows in groups.values():
        _solve_stack([problems[j] for j in rows], [candidates[j] for j in rows], stops,
                     np.array(rows), out)
    return out


def solve_suboptimal(
    problem: HorizonProblem, candidate: DecisionVector, cfg: SolverConfig
) -> tuple[DecisionVector, IterationReport]:
    """At most ``cfg.max_iterations`` descent steps from the warm start,
    fewer when the projected-gradient norm or the per-iteration cost
    decrease falls below tolerance; with a zero budget the candidate is
    returned unchanged."""
    return solve_windows([problem], [candidate], (cfg.max_iterations,)).result(0, 0)


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
    None). Results after zero steps are the candidate itself, so treat them
    as read-only.
    """
    ordered = sorted(set(budgets))
    stops = (*ordered, cfg.max_iterations) if converged else ordered
    solved = solve_windows([problem], [candidate], stops)
    results = [solved.result(0, k) for k in range(len(stops))]
    return dict(zip(ordered, results)), (results[-1] if converged else None)
