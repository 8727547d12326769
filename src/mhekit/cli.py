"""Command-line pipeline: simulate, observe, estimate, analyze, reproduce-figure.

Exit codes: 0 success, 1 configuration/usage error, 2 numeric failure,
3 a result failed the cost-decrease or budget-ordering audit.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .dynamics import NumericsError, write_csv
from .harness import (
    AuditError,
    ConfigError,
    ExperimentConfig,
    analyze_run,
    read_config_doc,
    reproduce_figure,
    run_experiment,
    simulate_and_observe,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_AUDIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_CONFIG)


def _parse_budgets(text: str) -> tuple[int, ...]:
    try:
        budgets = tuple(int(part) for part in text.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"bad budget list {text!r}") from exc
    if not budgets:
        raise ConfigError("budget list is empty")
    return budgets


def _load_config(args) -> ExperimentConfig:
    # overrides join the document before validation, so cross-field checks
    # (the converged cap against the budgets) see the values that will run
    doc = {} if args.config is None else read_config_doc(args.config)
    if args.seed is not None:
        doc["seed"] = args.seed
    if getattr(args, "budget", None) is not None:
        doc["budgets"] = _parse_budgets(args.budget)
    if args.out is not None:
        doc["out_dir"] = args.out
    return ExperimentConfig.from_dict(doc)


def _out_dir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_simulate(cfg: ExperimentConfig) -> int:
    truth, _, _ = simulate_and_observe(cfg)
    out = _out_dir(cfg)
    truth.to_csv(out / "truth.csv")
    print(f"wrote {out / 'truth.csv'} ({cfg.steps} steps, seed {cfg.seed})")
    return EXIT_OK


def _cmd_observe(cfg: ExperimentConfig) -> int:
    truth, olog, _ = simulate_and_observe(cfg)
    out = _out_dir(cfg)
    truth.to_csv(out / "truth.csv")
    olog.to_csv(out / "observer.csv")
    err = np.linalg.norm(truth.states - olog.states, axis=1)
    print(f"wrote {out / 'observer.csv'} (final error {err[-1]:.6g})")
    return EXIT_OK


def _cmd_estimate(cfg: ExperimentConfig, trace: bool) -> int:
    result = run_experiment(cfg)
    out = _out_dir(cfg)
    result.truth.to_csv(out / "truth.csv")
    result.observer.to_csv(out / "observer.csv")
    for key, est in result.estimates.items():
        write_csv(out / f"estimate_{key}.csv", {"xhat": est})
    if trace:
        with open(out / "cost_trace.csv", "w", encoding="utf-8") as fh:
            fh.write("t,series,accepted_cost,candidate_cost,iterations\n")
            for key in result.estimates:
                for t in range(cfg.steps + 1):
                    fh.write(
                        f"{t},{key},{result.accepted_costs[key][t]:.17g},"
                        f"{result.candidate_costs[t]:.17g},"
                        f"{result.iterations[key][t]}\n"
                    )
    table = {k: r.aggregate for k, r in result.rmse_table.items()}
    print("rmse:", json.dumps(table, sort_keys=True))
    print(f"wrote estimates to {out}")
    return EXIT_OK


def _cmd_analyze(cfg: ExperimentConfig) -> int:
    result = run_experiment(cfg)
    report = analyze_run(result)
    out = _out_dir(cfg)
    fitted = report["fitted_observer_constants"]
    derived = report["estimator_constants"]
    doc = {
        "fitted_observer_constants": {
            "c_p": fitted.c_p, "c_w": fitted.c_w, "c_v": fitted.c_v,
            "rho": fitted.rho, "fitted": fitted.fitted,
        },
        "estimator_constants": {
            "c_p": derived.c_p, "c_w": derived.c_w, "c_v": derived.c_v,
            "rho": derived.rho, "fitted": derived.fitted,
        },
        "min_cost_margin": {
            k: float(np.min(v)) for k, v in report["cost_margins"].items()
        },
        "min_envelope_margin": {
            k: rep.min_margin for k, rep in report["envelope_reports"].items()
        },
    }
    (out / "analysis.json").write_text(json.dumps(doc, indent=2, sort_keys=True))
    for key, rep in report["envelope_reports"].items():
        rep.to_csv(out / f"margins_{key}.csv")
    print(json.dumps(doc["min_envelope_margin"], sort_keys=True))
    print(f"wrote analysis to {out}")
    return EXIT_OK


def _cmd_reproduce(cfg: ExperimentConfig) -> int:
    summary = reproduce_figure(cfg)
    table = {k: v["aggregate"] for k, v in summary["rmse"].items()}
    print("rmse:", json.dumps(table, sort_keys=True))
    if "max_gap_i5_converged" in summary:
        print(f"max gap i5 vs converged: {summary['max_gap_i5_converged']:.6g}")
    print(f"wrote figure bundle to {Path(summary['paths']['summary']).parent}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(
        prog="mhekit",
        description="Suboptimal moving horizon estimation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("simulate", "simulate the plant and write the truth trajectory"),
        ("observe", "run the auxiliary observer on simulated outputs"),
        ("estimate", "run the budgeted estimators over the full horizon"),
        ("analyze", "fit envelopes and check the stability bounds"),
        ("reproduce-figure", "write the per-budget comparison CSV bundle"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", type=str, default=None, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="override the seed")
        p.add_argument("--out", type=str, default=None, help="output directory")
        if name == "estimate":
            p.add_argument(
                "--budget", type=str, default=None,
                help="comma-separated iteration budgets, e.g. 0,2,5",
            )
            p.add_argument(
                "--trace", action="store_true",
                help="dump per-step accepted/candidate costs to CSV",
            )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _load_config(args)
        if args.command == "simulate":
            return _cmd_simulate(cfg)
        if args.command == "observe":
            return _cmd_observe(cfg)
        if args.command == "estimate":
            return _cmd_estimate(cfg, trace=args.trace)
        if args.command == "analyze":
            return _cmd_analyze(cfg)
        return _cmd_reproduce(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except AuditError as exc:
        print(f"audit failure: {exc}", file=sys.stderr)
        return EXIT_AUDIT


if __name__ == "__main__":
    raise SystemExit(main())
