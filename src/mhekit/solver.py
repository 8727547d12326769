"""Iteration-budgeted window solver: warm start, never worse than it.

Projected descent with a monotone Armijo backtracking line search. Every
accepted step keeps the iterate feasible (chi0 and omegas are projected
onto their boxes, steps whose residuals or intermediate states leave
their sets are rejected), so any budget - including zero - returns a
feasible point whose cost does not exceed the warm start's.

The direction is the generalized Gauss-Newton step for every cost, from a
backward Riccati sweep over the model Jacobians and the cost's gradients
and curvatures, O(M n^3) per iteration; when that system is singular or
its step non-finite, it is projected steepest descent with a spectral
(Barzilai-Borwein) first step. The iterate path is deterministic and
independent of the budget: one loop runs it to the largest budget asked
for, so a longer budget always extends a shorter one's cost trace, and the
converged baseline is the snapshot at ``max_iterations``, the only
setting: the never-worse guarantee does not depend on the constants below.

A point is admitted in one place: ``mhe._checked_pass`` rejects a
non-finite window, and ``mhe._violation_rows`` holds the bound excess of
every stage. Each iterate is evaluated by one forward pass, whose states
and residuals feed one call of each model Jacobian and cost derivative map,
shared by the gradient and the direction; the iterate a solve stops at is
not evaluated.

Windows are solved as stacks: those that share a model, cost and length M
run one iteration loop together, every step an array operation over a
leading window axis. Each window keeps its own step size, spectral pair,
cost trace and stopping state, and leaves the stack when it stops, so its
result at every stop is what its own solve returns.
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
    _checked_pass,
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
    a, c = _jacobians(stack, ro.states[None])
    g_chi, g_om = _gradient(_terms(stack, d.chi0[None], d.omegas[None], ro.residuals[None], c), a)
    return g_chi[0], g_om[0]


def _require_gradients(problem: HorizonProblem) -> None:
    model, cost = problem.model, problem.cost
    if model.f_jac is None or model.h_jac is None:
        raise ValueError("model Jacobians are required for gradient-based solving")
    if cost.gamma_derivs is None or cost.stage_derivs is None:
        raise ValueError("cost derivative maps are required for gradient-based solving")


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


class _Terms(NamedTuple):
    """Cost derivatives at B stacked iterates: prior gradient (B, n) and
    curvature (B, n, n); per stage, the gradient in w (B, M, n), C_i' grad_v
    (B, M, n, 1) and the curvatures in w (B, M, n, n) and v (B, M, p, p)."""

    g_prior: np.ndarray
    h_prior: np.ndarray
    g_w: np.ndarray
    ct_g_v: np.ndarray
    h_w: np.ndarray
    h_v: np.ndarray


def _outputs(name: str, value, count: int):
    """The ``count`` outputs of derivative map ``name``, counted before unpacking."""
    if not isinstance(value, (tuple, list)) or len(value) != count:
        raise ValueError(f"{name} must return a tuple of {count} arrays")
    return value


def _terms(stack: WindowStack, chi0, omegas, resids, c) -> _Terms:
    """The cost's derivative maps, each called once on the stacked iterates
    (chi0, omegas) with residuals ``resids`` and output Jacobians ``c``."""
    g_prior, h_prior = _outputs("gamma_derivs", stack.cost.gamma_derivs(chi0, stack.prior), 2)
    g_w, g_v, h_w, h_v = _outputs("stage_derivs", stack.cost.stage_derivs(omegas, resids), 4)
    g_v = _stacked("stage_derivs", g_v, resids.shape)
    return _Terms(
        _stacked("gamma_derivs", g_prior, chi0.shape),
        _stacked("gamma_derivs", h_prior, chi0.shape + chi0.shape[-1:]),
        _stacked("stage_derivs", g_w, omegas.shape),
        c.swapaxes(-1, -2) @ g_v[..., None],
        _stacked("stage_derivs", h_w, omegas.shape + omegas.shape[-1:]),
        _stacked("stage_derivs", h_v, resids.shape + resids.shape[-1:]),
    )


def _gradient(t: _Terms, a):
    """Cost gradient w.r.t. (chi0, omegas) by a reverse (costate) sweep over
    the stage terms ``t`` with transition Jacobians ``a``."""
    g_om = t.g_w.copy()
    # stage-major columns; g_stages writes through to g_om
    ct_g_nu = _stages(t.ct_g_v)
    at = _stages(a).swapaxes(-1, -2)
    g_stages = _stages(g_om[..., None])
    lam = np.zeros(at.shape[1:-1] + (1,))
    for i in range(len(at) - 1, -1, -1):
        g_stages[i] += lam
        lam = at[i] @ lam - ct_g_nu[i]
    g_chi = t.g_prior + lam.reshape(t.g_prior.shape)
    if not (np.all(np.isfinite(g_chi)) and np.all(np.isfinite(g_om))):
        raise NumericsError("cost gradient is non-finite")
    return g_chi, g_om


def _gn_direction(t: _Terms, a, c):
    """Generalized Gauss-Newton steps at stacked iterates: each window's
    step minimises the linear-quadratic model with dynamics
    dx(i+1) = A_i dx(i) + dw(i), stage terms Q_i = C_i' H_v,i C_i,
    q_i = -C_i' g_v,i, R_i = H_w,i, r_i = g_w,i and prior term H_p dchi + g_p
    (g and H the gradients and curvatures in ``t``). A backward Riccati sweep
    from S = 0, s = 0 gives the feedback dw(i) = K_i dx(i) + k_i, and a
    forward sweep from dchi = -(H_p + S_0)^-1 (g_p + s_0) applies it, one
    ``np.linalg.solve`` on the stack per stage. Raises
    ``np.linalg.LinAlgError`` when a stage system of any window is singular.
    """
    n = a.shape[-1]
    ct_h_v = c.swapaxes(-1, -2) @ t.h_v
    # Stage-major, vectors as columns. The backward sweep carries S and s
    # as one matrix [S s], and A_i as [[A_i 0] [0 1]], so that one product
    # gives [S A_i  s] and one gives [A_i' S A_i  A_i' s].
    a, h_w = _stages(a), _stages(t.h_w)
    a_aug = np.zeros(a.shape[:-2] + (n + 1, n + 1))
    a_aug[..., :n, :n] = a
    a_aug[..., n, n] = 1.0
    quad = np.empty(a.shape[:-1] + (n + 1,))  # [Q_i q_i]
    quad[..., :n] = _stages(ct_h_v @ c)
    quad[..., n:] = -_stages(t.ct_g_v)
    lin = np.zeros_like(quad)  # [0 r_i]
    lin[..., n] = _stages(t.g_w)
    feedback = np.empty_like(quad)  # [K_i k_i]
    ss = np.zeros(a.shape[1:-1] + (n + 1,))  # [S s]
    for i in range(len(a) - 1, -1, -1):
        sas = ss @ a_aug[i]  # [S A_i  s]
        # stage i solves (R_i + S) [K_i k_i] = -[S A_i  r_i + s]
        fb = feedback[i] = -np.linalg.solve(h_w[i] + ss[..., :n], lin[i] + sas)
        ss = quad[i] + a[i].swapaxes(-1, -2) @ sas + sas[..., :n].swapaxes(-1, -2) @ fb
    g_p = _batch(t.g_prior)[..., None]
    d_chi = np.linalg.solve(_batch(t.h_prior) + ss[..., :n], -(g_p + ss[..., n:]))
    d_om = np.empty(t.g_w.shape + (1,))
    d_stages = _stages(d_om)
    dx = d_chi
    for i in range(len(a)):
        d_stages[i] = feedback[i, ..., :n] @ dx + feedback[i, ..., n:]
        dx = a[i] @ dx + d_stages[i]
    return d_chi.reshape(t.g_prior.shape), d_om[..., 0]


def _gn_steps(t: _Terms, a, c):
    """``_gn_direction``, with NaN steps for a window whose system is
    singular: a stack that raises is solved window by window, as each
    window's own solve would be."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite curvatures
            return _gn_direction(t, a, c)
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.full(t.g_prior.shape, np.nan), np.full(t.g_w.shape, np.nan)
        rows = [_gn_steps(t._make(v[r : r + 1] for v in t), a[r : r + 1], c[r : r + 1])
                for r in range(len(a))]
        return tuple(np.concatenate(steps) for steps in zip(*rows))


def _evaluate(stack: WindowStack, x: _Iterates):
    """Directions and gradients at stacked iterates, and which directions
    are Gauss-Newton steps: a window's is when its step is well defined and
    finite, projected steepest descent otherwise."""
    a, c = _jacobians(stack, x.states)
    terms = _terms(stack, x.chi, x.omegas, x.residuals, c)
    g_chi, g_om = _gradient(terms, a)
    d_chi, d_om = _gn_steps(terms, a, c)
    gn = _finite(d_chi) & _finite(d_om)
    dir_chi, dir_om = -g_chi, -g_om
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
    that trial, or its current iterate.

    Each round evaluates the rows still open, by their indices, and writes
    the ones it accepts; the others halve their step."""
    model = stack.model
    found = np.zeros_like(pending)
    nxt = _Iterates(*(v.copy() for v in x))
    rows = np.flatnonzero(pending)
    alpha = step[rows]
    for _ in range(MAX_BACKTRACKS + 1):
        if not rows.size:
            break
        chi, om = x.chi[rows], x.omegas[rows]
        t_chi = model.state_set.project(chi + alpha[:, None] * dir_chi[rows])
        t_om = model.disturbance_set.project(om + alpha[:, None, None] * dir_om[rows])
        # overlong trial steps, and the products of huge gradients, may
        # overflow transiently; such trials are rejected
        with np.errstate(over="ignore", invalid="ignore"):
            descent = _inner(g_chi[rows], t_chi - chi) + _inner(g_om[rows], t_om - om)
            trial = _Iterates(t_chi, t_om, *_forward_pass(stack.take(rows), t_chi, t_om))
            ok = (
                np.isfinite(descent) & _finite(trial.states) & np.isfinite(trial.cost)
                & (_feasibility(model, t_om, trial.states, trial.residuals) == 0.0)
                & (trial.cost <= x.cost[rows] + ARMIJO_C * descent)
            )
        accepted = rows[ok]
        for full, part in zip(nxt, trial):
            full[accepted] = part[ok]
        found[accepted] = True
        rows, alpha = rows[~ok], alpha[~ok] * BACKTRACK_FACTOR
    return found, nxt


def _projected_gradient_norm(model, chi0, omegas, g_chi, g_om) -> np.ndarray:
    step_chi = chi0 - model.state_set.project(chi0 - g_chi)
    step_om = omegas - model.disturbance_set.project(omegas - g_om)
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
    x = _Iterates(chi, om, *_checked_pass(stack, chi, om))
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
            keep = np.flatnonzero(found & ~now_converged)
            ids, stack = ids[keep], stack.take(keep)
            prev = _Previous(x.chi[keep], x.omegas[keep], g_chi[keep], g_om[keep])
            x = _Iterates(*(v[keep] for v in nxt))
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
    if not all(_is_integer(stop) and stop >= 0 for stop in stops):
        raise ValueError("stops must be nonnegative integers")
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
):
    """One pass that snapshots the shared iterate path at several budgets
    and at the converged baseline, the snapshot at ``cfg.max_iterations``.

    Because the iteration map does not depend on the budget, the snapshot at
    budget b is identical to a standalone ``solve_suboptimal`` run with
    ``max_iterations=b``. Returns (per-budget dict, converged result).
    Results after zero steps are the candidate itself: treat them as read-only.
    """
    ordered = sorted(set(budgets))
    solved = solve_windows([problem], [candidate], (*ordered, cfg.max_iterations))
    results = [solved.result(0, k) for k in range(len(ordered) + 1)]
    return dict(zip(ordered, results)), results[-1]
