"""In-memory span tracing around calls into mhekit's public functions.

A ``Tracer`` replaces module attributes (``mhekit.harness.simulate``,
``mhekit.solver.check_feasible``, ...) with thin wrappers for the duration
of a ``with tracer.patched(): ...`` block. Each call records one span
(name, start, end, parent, run id); spans stay in memory and are written
out once at the end. Self time is derived from the spans afterwards, so a
wrapper only reads the clock twice, and for solver calls adds the
iterations the returned report shows.

The tracer is single-threaded: the parent of a span is whatever span was
open when the call started.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass

# (module, attribute, span name). A function is wrapped in every module
# namespace it is called through: the harness, solver and mhe modules bind
# their own names at import time, and the online workload calls the
# public functions directly.
TRACE_POINTS = (
    ("mhekit.harness", "draw_noise", "dynamics.draw_noise"),
    ("mhekit.harness", "simulate", "dynamics.simulate"),
    ("mhekit.harness", "run_observer", "observer.run_observer"),
    ("mhekit.harness", "advance_window", "mhe.advance_window"),
    ("mhekit.harness", "build_candidate", "mhe.build_candidate"),
    ("mhekit.harness", "rollout", "mhe.rollout"),
    ("mhekit.harness", "solve_with_checkpoints", "solver.solve"),
    ("mhekit.harness", "rmse", "analysis.rmse"),
    ("mhekit.harness", "fit_observer_envelope", "analysis.fit_observer_envelope"),
    ("mhekit.harness", "suboptimal_cost_bound", "analysis.suboptimal_cost_bound"),
    ("mhekit.harness", "envelope_constants", "analysis.envelope_constants"),
    ("mhekit.harness", "check_rges_envelope", "analysis.check_rges_envelope"),
    ("mhekit.harness", "run_experiment", "harness.run_experiment"),
    ("mhekit.harness", "analyze_run", "harness.analyze_run"),
    ("mhekit.solver", "check_feasible", "mhe.check_feasible"),
    ("mhekit.solver", "eval_cost", "mhe.eval_cost"),
    ("mhekit.solver", "solve_suboptimal", "solver.solve"),
    ("mhekit.mhe", "rollout", "mhe.rollout"),
    ("mhekit.mhe", "advance_window", "mhe.advance_window"),
    ("mhekit.mhe", "build_candidate", "mhe.build_candidate"),
    ("mhekit.analysis", "fit_observer_envelope", "analysis.fit_observer_envelope"),
    ("mhekit.dynamics", "draw_noise", "dynamics.draw_noise"),
    ("mhekit.dynamics", "simulate", "dynamics.simulate"),
    ("mhekit.observer", "run_observer", "observer.run_observer"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    run: int


def solve_outcome(result) -> tuple[int, bool]:
    """Iterations executed and convergence flag of a ``solver.solve`` call.

    ``solve_suboptimal`` returns (solution, report); ``solve_with_checkpoints``
    returns (per-budget dict, converged result or None) from one shared
    iterate path, so its longest report is the work done.
    """
    first, second = result
    if isinstance(first, dict):
        reports = [rep for _, rep in first.values()]
        if second is not None:
            reports.append(second[1])
        last = max(reports, key=lambda rep: rep.iterations_used)
        return last.iterations_used, bool(last.converged)
    return second.iterations_used, bool(second.converged)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self.solver_iterations = 0
        self.solver_converged = 0
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        is_solve = name == "solver.solve"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if is_solve:
                iterations, converged = solve_outcome(result)
                self.solver_iterations += iterations
                self.solver_converged += converged
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Wrap every trace point; the originals are restored on exit."""
        saved = []
        try:
            for module_name, attr, name in TRACE_POINTS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        """One JSON object per span: name, start, end, parent, run."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.__dict__) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children of one span never overlap (calls are nested on one thread), so
    the covered part is the sum of the children's durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    return [span.end - span.start - covered[i] for i, span in enumerate(spans)]


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Total time, self time and call count per span name."""
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"s": 0.0, "self_s": 0.0, "calls": 0}
    )
    for span, own in zip(spans, self_times(spans)):
        entry = out[span.name]
        entry["s"] += span.end - span.start
        entry["self_s"] += own
        entry["calls"] += 1
    return dict(out)


def check_nesting(spans: list[Span], tol: float = 1e-9) -> list[str]:
    """Problems with the span tree: a child outside its parent's interval,
    overlapping siblings, or self times that do not add back up to the
    root spans' durations. An empty list means the trace is consistent."""
    problems = []
    last_end: dict[int, float] = {}
    for i, span in enumerate(spans):
        if span.end < span.start:
            problems.append(f"span {i} ({span.name}) ends before it starts")
        if span.parent < 0:
            continue
        parent = spans[span.parent]
        if span.start < parent.start - tol or span.end > parent.end + tol:
            problems.append(f"span {i} ({span.name}) lies outside its parent")
        if span.start < last_end.get(span.parent, float("-inf")) - tol:
            problems.append(f"span {i} ({span.name}) overlaps a sibling")
        last_end[span.parent] = span.end
    own = self_times(spans)
    if any(x < -tol for x in own):
        problems.append("a span has negative self time")
    roots = sum(s.end - s.start for s in spans if s.parent < 0)
    if abs(sum(own) - roots) > tol * max(1, len(spans)):
        problems.append(
            f"self times add up to {sum(own):.9f} s, root spans to {roots:.9f} s"
        )
    return problems
