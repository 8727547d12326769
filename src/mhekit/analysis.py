"""Stability bookkeeping: envelope constants, cost bounds, accuracy metrics.

Two exponential-envelope notions appear throughout: the observer's
robust-stability envelope (constants C_p, C_w, C_v and decay rho) and the
plant's exponential detectability envelope (c_p, c_w, c_v, eta). From
those, the cost of the observer-based warm start admits an explicit upper
bound, and the budgeted estimator inherits an envelope of the same shape
whose constants are computed here in closed form.

All norms are Euclidean. Fitted envelope constants validate consistency
with observed data only; they are labeled as fitted, never certified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import NumericsError, write_csv

DEFAULT_RHO_GRID = tuple(np.round(np.arange(0.50, 1.00, 0.01), 2)) + (0.999,)


@dataclass(frozen=True)
class RgesConstants:
    """Exponential error envelope: initial-error, disturbance and noise gains
    plus the decay rate. ``fitted`` marks constants estimated from data."""

    c_p: float
    c_w: float
    c_v: float
    rho: float
    fitted: bool = False

    def __post_init__(self):
        if not (self.c_p > 0 and self.c_w > 0 and self.c_v > 0):
            raise ValueError("envelope gains must be positive")
        if not 0 < self.rho < 1:
            raise ValueError("decay rate must lie in (0, 1)")


@dataclass(frozen=True)
class DetectabilityConstants:
    """Exponential incremental detectability envelope of the plant."""

    c_p: float
    c_w: float
    c_v: float
    eta: float

    def __post_init__(self):
        if not (self.c_p > 0 and self.c_w > 0 and self.c_v > 0):
            raise ValueError("detectability gains must be positive")
        if not 0 < self.eta < 1:
            raise ValueError("eta must lie in (0, 1)")


@dataclass(frozen=True)
class CostBoundConstants:
    """Cost-bound ingredients: power-bound constants of the cost, the output
    map's Lipschitz constant and the observer gain bound."""

    a: float
    c_p_lo: float
    c_w_lo: float
    c_v_lo: float
    c_w_hi: float
    c_v_hi: float
    lipschitz_h: float
    kappa: float

    def __post_init__(self):
        for name in ("a", "c_p_lo", "c_w_lo", "c_v_lo", "c_w_hi", "c_v_hi",
                     "lipschitz_h", "kappa"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")

    @classmethod
    def from_parts(cls, cost, model, observer) -> "CostBoundConstants":
        if model.lipschitz_h is None:
            raise ValueError("model.lipschitz_h is required for the cost bound")
        return cls(
            a=cost.a,
            c_p_lo=cost.c_p_lo,
            c_w_lo=cost.c_w_lo,
            c_v_lo=cost.c_v_lo,
            c_w_hi=cost.c_w_hi,
            c_v_hi=cost.c_v_hi,
            lipschitz_h=model.lipschitz_h,
            kappa=observer.kappa,
        )


def _check_factor_args(rho: float, a: float, horizon: int) -> None:
    if not 0 < rho < 1:
        raise ValueError("rho must lie in (0, 1)")
    if not a > 0:
        raise ValueError("a must be positive")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")


def horizon_factor_initial(rho: float, a: float, horizon: int) -> float:
    """Geometric window sum amplifying the decayed initial-error term:
    (rho^(-a*N) - 1) / (1 - rho^a), equal to sum_{k=1..N} rho^(-a*k)."""
    _check_factor_args(rho, a, horizon)
    ra = rho**a
    return (rho ** (-a * horizon) - 1.0) / (1.0 - ra)


def horizon_factor_disturbance(rho: float, a: float, horizon: int) -> float:
    """Geometric window sum amplifying the discounted disturbance terms:
    (rho^(-a*(N-1)) - rho^a) / (1 - rho^a), equal to sum_{j=1..N} (rho^a)^(j-N)."""
    _check_factor_args(rho, a, horizon)
    ra = rho**a
    return (rho ** (-a * (horizon - 1)) - ra) / (1.0 - ra)


def stage_envelope_scale(cbc: CostBoundConstants, rc: RgesConstants) -> float:
    """Common scale of the warm-start cost bound:
    (3*Lbar)^a * (c_w_hi * kappa^a + c_v_hi) with Lbar = max(L_h, 1/C_v)."""
    lbar = max(cbc.lipschitz_h, 1.0 / rc.c_v)
    return (3.0 * lbar) ** cbc.a * (
        cbc.c_w_hi * cbc.kappa**cbc.a + cbc.c_v_hi
    )


def _discounted_history(rho, seq_norms: np.ndarray, steps: int) -> np.ndarray:
    """s(t) = sum_{tau=1..t} rho^tau * |seq(t-tau)| for t = 0..steps-1.

    Runs the recursion s(t) = rho * (s(t-1) + |seq(t-1)|) from s(0) = 0. An
    array of decay rates gives one history per rate along a trailing axis.
    """
    s = np.zeros((steps,) + np.shape(rho))
    for t in range(1, steps):
        s[t] = rho * (s[t - 1] + seq_norms[t - 1])
    return s


def _norm_rows(seq) -> np.ndarray:
    arr = np.atleast_2d(np.asarray(seq, dtype=np.float64))
    return np.sqrt(np.sum(arr * arr, axis=1))


def suboptimal_cost_bound(
    cbc: CostBoundConstants,
    rc: RgesConstants,
    horizon: int,
    t: int | np.ndarray,
    initial_error: float,
    disturbances,
    noises,
) -> float | np.ndarray:
    """Upper bound on the accepted window cost at time t.

    Three terms: the decayed initial estimation error plus the discounted
    disturbance and noise histories, each raised to the cost exponent and
    amplified by the corresponding geometric window factor. A nonnegative
    integer ``t`` gives a float, a 1-D array of them the bound at each time
    (one discounted history up to the largest); other ``t`` raise ValueError.
    """
    ts = np.asarray(t)
    if ts.ndim > 1 or ts.dtype.kind not in "iu" or np.any(ts < 0):
        raise ValueError("t must be a nonnegative integer or a 1-D array of them")
    w_norms = _norm_rows(disturbances)
    v_norms = _norm_rows(noises)
    t_max = int(ts.max(initial=0))
    if t_max > w_norms.shape[0] or t_max > v_norms.shape[0]:
        raise ValueError("histories shorter than t")
    a = cbc.a
    cbar = stage_envelope_scale(cbc, rc)
    r1 = horizon_factor_initial(rc.rho, a, horizon)
    r2 = horizon_factor_disturbance(rc.rho, a, horizon)
    times = np.atleast_1d(ts).tolist()
    sums_w = _discounted_history(rc.rho, w_norms, t_max + 1)[times] / rc.rho
    sums_v = _discounted_history(rc.rho, v_norms, t_max + 1)[times] / rc.rho
    # powers one time at a time: numpy's vectorised power may differ from
    # the scalar one in the last bit, so a bound would depend on whether it
    # was asked for alone or with other times
    bound = np.array(
        [
            rc.c_p**a * cbar * r1 * initial_error**a * rc.rho ** (a * k)
            + rc.c_w**a * cbar * r2 * sum_w**a
            + rc.c_v**a * cbar * r2 * sum_v**a
            for k, sum_w, sum_v in zip(times, sums_w.tolist(), sums_v.tolist())
        ]
    )
    return float(bound[0]) if ts.ndim == 0 else bound


def envelope_constants(
    dc: DetectabilityConstants,
    rc: RgesConstants,
    cbc: CostBoundConstants,
    horizon: int,
) -> RgesConstants:
    """Closed-form error envelope of the budgeted estimator.

    Combines the detectability envelope, the observer envelope and the
    warm-start cost bound into (C1, C2, C3, lambda); each gain is the
    maximum of its full-window and growing-window expressions, and the
    decay is lambda = max(eta, rho). Raises ``NumericsError`` naming the
    first gain that overflows.
    """
    a = cbc.a
    lam = max(dc.eta, rc.rho)
    eta_bar = dc.eta / (1.0 - dc.eta)
    cbar = stage_envelope_scale(cbc, rc)
    r1 = horizon_factor_initial(rc.rho, a, horizon)
    r2 = horizon_factor_disturbance(rc.rho, a, horizon)
    cap_p = rc.c_p * (3.0 * cbar * r1) ** (1.0 / a)
    cap_w = rc.c_w / rc.rho * (3.0 * cbar * r2) ** (1.0 / a)
    cap_v = rc.c_v / rc.rho * (3.0 * cbar * r2) ** (1.0 / a)

    mix_full = (
        dc.c_p * dc.eta**horizon * cbc.c_p_lo ** (-1.0 / a)
        + dc.c_w * eta_bar * cbc.c_w_lo ** (-1.0 / a)
        + dc.c_v * eta_bar * cbc.c_v_lo ** (-1.0 / a)
    )
    obs_full = dc.c_p * (dc.eta / lam) ** horizon
    c1_full = mix_full * cap_p + obs_full * rc.c_p
    c2_full = mix_full * cap_w + obs_full * rc.c_w + dc.c_w
    c3_full = mix_full * cap_v + obs_full * rc.c_v + dc.c_v

    mix_grow = (
        dc.c_p * cbc.c_p_lo ** (-1.0 / a)
        + dc.c_w * eta_bar * cbc.c_w_lo ** (-1.0 / a)
        + dc.c_v * eta_bar * cbc.c_v_lo ** (-1.0 / a)
    )
    c1_grow = dc.c_p + mix_grow * cap_p
    c2_grow = dc.c_w + mix_grow * cap_w
    c3_grow = dc.c_v + mix_grow * cap_v

    gains = {}
    for name, full, grow in (
        ("c_p", c1_full, c1_grow), ("c_w", c2_full, c2_grow), ("c_v", c3_full, c3_grow)
    ):
        if not (np.isfinite(full) and np.isfinite(grow)):
            raise NumericsError(f"estimator envelope gain {name} is non-finite")
        gains[name] = max(full, grow)
    return RgesConstants(**gains, rho=lam)


@dataclass(frozen=True, eq=False)
class EnvelopeReport:
    """Per-step comparison of an error trajectory against its envelope."""

    errors: np.ndarray
    bounds: np.ndarray
    margins: np.ndarray
    min_margin: float
    argmin: int

    def to_csv(self, path) -> None:
        write_csv(path, {"error": self.errors, "bound": self.bounds, "margin": self.margins})


def check_rges_envelope(
    errors,
    disturbances,
    noises,
    constants: RgesConstants,
    initial_error: float,
) -> EnvelopeReport:
    """Margins bound(t) - error(t) of an exponential envelope over a run.

    ``errors`` holds |x(t) - estimate(t)| for t = 0..T; the disturbance and
    noise histories must cover t-1 entries ahead of each checked t. The
    envelope decays from ``initial_error``, the initial guess's |x(0) - z(0)|.
    """
    err = np.asarray(errors, dtype=np.float64)
    w_norms = _norm_rows(disturbances)
    v_norms = _norm_rows(noises)
    steps = err.shape[0]
    if w_norms.shape[0] < steps - 1 or v_norms.shape[0] < steps - 1:
        raise ValueError("histories shorter than the error trajectory")
    bounds = (
        constants.c_p * float(initial_error) * constants.rho ** np.arange(steps)
        + constants.c_w * _discounted_history(constants.rho, w_norms, steps)
        + constants.c_v * _discounted_history(constants.rho, v_norms, steps)
    )
    margins = bounds - err
    argmin = int(np.argmin(margins))
    return EnvelopeReport(
        errors=err,
        bounds=bounds,
        margins=margins,
        min_margin=float(margins[argmin]),
        argmin=argmin,
    )


def fit_observer_envelope(
    trajectories: Sequence[tuple],
    rho_grid: Sequence[float] = DEFAULT_RHO_GRID,
) -> RgesConstants:
    """Smallest single envelope gain covering the given error trajectories.

    Each trajectory is (errors, disturbances, noises) with errors indexed
    t = 0..T and histories of length >= T; the envelope decays from the
    trajectory's own initial error errors[0]. For each grid decay rate the minimal common gain is the pointwise
    maximum of error/denominator ratios (the envelope is linear in its
    gains at fixed decay); the rate with the smallest gain wins, ties
    favoring faster decay. The result is flagged fitted: it validates
    consistency with this data, nothing more.
    """
    if not trajectories:
        raise ValueError("at least one trajectory is required")
    prepared = []
    for errors, disturbances, noises in trajectories:
        err = np.asarray(errors, dtype=np.float64)[:, None]  # against the grid axis
        prepared.append((err, _norm_rows(disturbances), _norm_rows(noises), float(err[0, 0])))

    if not any(np.any(err > 1e-12) for err, _, _, _ in prepared):
        return RgesConstants(1.0, 1.0, 1.0, rho=float(rho_grid[0]), fitted=True)

    rhos = np.asarray(rho_grid, dtype=np.float64)
    worst = np.zeros(rhos.shape)
    feasible = np.ones(rhos.shape, dtype=bool)
    for err, w_norms, v_norms, e0 in prepared:
        steps = err.shape[0]
        denom = (
            e0 * rhos ** np.arange(steps)[:, None]
            + _discounted_history(rhos, w_norms, steps)
            + _discounted_history(rhos, v_norms, steps)
        )
        # a zero denominator admits no gain unless the error is zero too
        positive = denom > 0.0
        feasible &= ~np.any(~positive & (err > 1e-12), axis=0)
        ratios = np.divide(err, denom, out=np.zeros(denom.shape), where=positive)
        worst = np.maximum(worst, ratios.max(axis=0, initial=0.0))

    best: tuple[float, float] | None = None  # (gain, rho)
    for rho, gain, ok in zip(rho_grid, worst, feasible):
        if ok and (best is None or gain < best[0] - 1e-15):
            best = (float(gain), float(rho))
    if best is None:
        raise ValueError("no decay rate in the grid admits finite envelope gains")
    gain = max(best[0], 1e-12)
    return RgesConstants(gain, gain, gain, rho=best[1], fitted=True)


@dataclass(frozen=True, eq=False)
class RmseResult:
    per_component: np.ndarray
    aggregate: float


def rmse(truth, estimates) -> RmseResult:
    """Root-mean-square estimation error, per component and aggregate."""
    xt = np.atleast_2d(np.asarray(truth, dtype=np.float64))
    xe = np.atleast_2d(np.asarray(estimates, dtype=np.float64))
    if xt.shape != xe.shape:
        raise ValueError("truth and estimate trajectories differ in shape")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        diff = xt - xe
        per = np.sqrt(np.mean(diff**2, axis=0))
        agg = float(np.sqrt(np.mean(np.sum(diff**2, axis=1))))
    if not np.isfinite(agg):
        raise NumericsError("estimation error overflows the RMSE")
    return RmseResult(per_component=per, aggregate=agg)
