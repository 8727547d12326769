"""Suboptimal moving horizon estimation with an observer-based warm start.

State estimation by constrained window optimization where any iteration
budget — including zero — inherits the stability of an auxiliary
output-injection observer: the solver is warm-started at the observer's
trajectory and never returns a feasible point of higher cost.
"""

from .analysis import (
    CostBoundConstants,
    DetectabilityConstants,
    EnvelopeReport,
    RgesConstants,
    RmseResult,
    check_rges_envelope,
    envelope_constants,
    fit_observer_envelope,
    horizon_factor_disturbance,
    horizon_factor_initial,
    rmse,
    stage_envelope_scale,
    suboptimal_cost_bound,
)
from .dynamics import (
    BoxSet,
    NoiseSpec,
    NumericsError,
    SystemModel,
    TrajectoryLog,
    batch_reactor_model,
    draw_noise,
    simulate,
)
from .harness import (
    AuditError,
    ConfigError,
    ExperimentConfig,
    RunResult,
    analyze_run,
    reproduce_figure,
    run_experiment,
)
from .mhe import (
    CostSpec,
    DecisionVector,
    FeasibilityReport,
    HorizonProblem,
    WindowRollout,
    advance_window,
    build_candidate,
    check_feasible,
    eval_cost,
    quadratic_cost,
    rollout,
)
from .observer import (
    ObserverLog,
    ObserverSpec,
    batch_reactor_observer,
    observer_step,
    run_observer,
)
from .solver import (
    InfeasibleCandidateError,
    IterationReport,
    SolverConfig,
    WindowSolutions,
    cost_gradient,
    solve_suboptimal,
    solve_windows,
    solve_with_checkpoints,
)

__version__ = "0.1.0"
