"""Command-line entry point wiring simulation, estimation, correction and sweeps.

Exit codes: 0 on success, 1 for computation errors (degenerate inputs, failed
sweep cells, failed bound checks), 2 for usage and I/O errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import io as osls_io
from .core import (
    AmbiguousStationary,
    DegenerateSample,
    DegenerateScorer,
    IllConditioned,
    OslsError,
    ValidationError,
)
from .em import EmConfig
from .estimators import bound_coverage_rho_s, bound_coverage_rho_t
from .metrics import EvalReport, ece, rho_abs_error, top1_accuracy, w_mse
from .pipeline import (
    ALL_METHODS,
    DEFAULT_ALPHA,
    EstimateResult,
    correct_with_estimate,
    estimate,
    pseudo_ood_mu0,
    run_sweep,
)
from .simulate import Scenario

_COMPUTE_ERRORS = (DegenerateScorer, DegenerateSample, IllConditioned, AmbiguousStationary)


def _render_table(rows: list, columns: list) -> str:
    def cell(row, col):
        value = row.get(col, "")
        if value is None:
            return ""
        if isinstance(value, float):
            return f"{value:.6g}"
        return str(value)

    table = [[cell(row, col) for col in columns] for row in rows]
    widths = [max(len(col), *(len(line[i]) for line in table)) if table else len(col)
              for i, col in enumerate(columns)]
    out = ["  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))]
    for line in table:
        out.append("  ".join(line[i].ljust(widths[i]) for i in range(len(columns))))
    return "\n".join(out)


def _emit(obj, rows, columns, fmt: str, out_path):
    import json

    if out_path:
        osls_io.write_json(out_path, obj)
    if fmt == "json":
        print(json.dumps(obj, indent=2))
    else:
        print(_render_table(rows, columns))


def cmd_simulate(args) -> int:
    kv = osls_io.parse_kv_file(args.config)
    config = osls_io.scenario_from_kv(kv)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    scenario = Scenario(config)
    # Each dataset is written as soon as it is sampled, so one is alive at a
    # time; each has its own seeded stream, so the order changes no byte. The
    # target goes first: it is the one draw that can fail, before any file is
    # written. Its OOD count is pinned to round(r * n_ID), the subsampled-test
    # protocol.
    osls_io.write_records(out_dir / "target.jsonl", scenario.sample_target_exact_ratio().records)
    source = scenario.sample_source()
    osls_io.write_records(out_dir / "source.jsonl", source.records)
    osls_io.write_features(out_dir / "source_features.csv", source.features)
    del source
    osls_io.write_records(out_dir / "ood_ref.jsonl", scenario.sample_ood_ref().records)
    truth = scenario.truth
    osls_io.write_truth(out_dir / "truth.json", config.c, config.rho_s, truth.pi, truth.rho_t)
    osls_io.write_json(out_dir / "scenario.json", osls_io.scenario_to_dict(config))
    print(f"wrote scenario files to {out_dir}")
    return 0


def cmd_estimate(args) -> int:
    source = osls_io.read_records(args.source)
    if source.y is None:
        raise ValidationError(
            f"{args.source}: source records need ground-truth labels 'y' in every row")
    target = osls_io.read_records(args.target)

    mu0_hat = None
    n_ood = None
    method = args.method
    if method in ("osls-mle", "osls-map"):
        if args.ood_ref:
            ood = osls_io.read_records(args.ood_ref)
            mu0_hat = float(np.mean(ood.h))
            n_ood = len(ood)
        elif args.pseudo_ood:
            if not (args.features and args.scenario):
                raise ValidationError(
                    "--pseudo-ood needs --features and --scenario (simulated mode)"
                )
            scenario = Scenario(osls_io.scenario_from_dict(osls_io.read_json(args.scenario)))
            features = osls_io.read_features(args.features)
            mu0_hat = pseudo_ood_mu0(scenario, features, args.gamma, args.T)
            n_ood = features.shape[0]
        else:
            raise ValidationError("osls estimation needs --ood-ref or --pseudo-ood")

    alpha_in = np.full(target.k, args.alpha_in) if method == "osls-map" else None
    em_config = EmConfig(
        max_iters=args.iters,
        tol=args.tol,
        alpha_in=alpha_in,
        alpha_out=(args.alpha_out[0], args.alpha_out[1]),
    )
    result = estimate(
        method,
        source,
        target,
        mu0_hat=mu0_hat,
        n_ood=n_ood,
        em_config=em_config,
        mapls_alpha=args.alpha_in,
        apply_rho_correction=not args.no_rho_correction,
    )
    report = result.to_dict()
    rows = [{"field": key, "value": value} for key, value in report.items()]
    _emit(report, rows, ["field", "value"], args.format, args.out)
    return 0


def _read_estimate(path) -> EstimateResult:
    """The estimate report at ``path``; a bad field raises ValidationError naming the file."""
    obj = osls_io.read_json(path)
    try:
        return EstimateResult.from_dict(obj)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def cmd_correct(args) -> int:
    result = _read_estimate(args.estimate)
    target = osls_io.read_records(args.target)
    posteriors, labels = correct_with_estimate(result, target)
    osls_io.write_corrected(args.out, posteriors, labels, target.y)
    print(f"wrote {posteriors.shape[0]} corrected records to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    truth = osls_io.read_truth(args.truth)

    def rho_error(rho):
        return None if rho is None else rho_abs_error(rho, truth["rho_t"])

    rows = []
    for path in args.estimate or []:
        result = _read_estimate(path)
        report = EvalReport(w_mse=w_mse(result.pi_hat, truth["pi"], truth["c"]),
                            rho_t_abs_err=rho_error(result.rho_t_hat),
                            rho_t_star_abs_err=rho_error(result.rho_t_star))
        rows.append({"source": result.method, **report.to_dict()})
    if args.corrected:
        corrected = osls_io.read_corrected(args.corrected)
        if corrected["y"] is None:
            raise ValidationError("corrected file carries no ground-truth labels")
        report = EvalReport(
            top1=top1_accuracy(corrected["y_hat"], corrected["y"]),
            ece=(
                ece(corrected["g"].max(axis=1), corrected["y_hat"] == corrected["y"], args.bins)
                if args.ece
                else None
            ),
        )
        rows.append({"source": "corrected", **report.to_dict()})
    if not rows:
        raise ValidationError("nothing to evaluate: pass --estimate and/or --corrected")
    obj = {"rows": rows}
    columns = ["source", "w_mse", "rho_t_abs_err", "rho_t_star_abs_err", "top1", "ece"]
    _emit(obj, rows, columns, args.format, args.out)
    return 0


def cmd_sweep(args) -> int:
    grid = osls_io.sweep_from_kv(osls_io.parse_kv_file(args.config))
    cells, failures = run_sweep(**grid, em_iters=args.iters, workers=args.workers)
    rows = [cell.to_dict() for cell in cells]
    obj = {"cells": rows, "failures": failures}
    columns = [
        "method", "shift", "r", "seeds",
        "w_mse_mean", "w_mse_std", "rho_err_mean", "rho_err_std",
    ]
    _emit(obj, rows, columns, args.format, args.out)
    if failures:
        print(f"{len(failures)} sweep cell(s) failed", file=sys.stderr)
        return 1
    return 0


def cmd_bound_check(args) -> int:
    if args.trials < 100:
        raise ValidationError("bound checks need at least 100 trials")
    if args.theorem == 1:
        report = bound_coverage_rho_s(
            mu1=args.mu1, mu0=args.mu0, n=args.n,
            delta=args.delta, trials=args.trials, seed=args.seed,
        )
    else:
        report = bound_coverage_rho_t(
            mu1=args.mu1, mu0=args.mu0, a=args.distort_a, b=args.distort_b,
            rho_t=args.rho_t, n=args.n,
            delta=args.delta, trials=args.trials, seed=args.seed,
        )
    keys = ("theorem", "trials", "violations", "violation_rate", "bound", "delta", "threshold",
            "passed")
    obj = {key: getattr(report, key) for key in keys}
    rows = [{"field": key, "value": value} for key, value in obj.items()]
    _emit(obj, rows, ["field", "value"], args.format, args.out)
    return 0 if report.passed else 1


def _add_common_output(p):
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--out", help="also write the JSON report to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="osls",
        description="Estimate open-set label shift from classifier outputs and "
        "adapt the classifier to the target domain without retraining.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic scenario as prediction files")
    p.add_argument("--config", required=True, help="key=value scenario config file")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="estimate target label distribution and ID ratio")
    p.add_argument("--source", required=True, help="labeled ID prediction file")
    p.add_argument("--target", required=True, help="target prediction file")
    ood = p.add_mutually_exclusive_group()
    ood.add_argument("--ood-ref", help="OOD reference prediction file")
    ood.add_argument("--pseudo-ood", action="store_true",
                     help="derive the OOD reference from blended source features")
    p.add_argument("--features", help="source feature file (pseudo-OOD, simulated mode)")
    p.add_argument("--scenario", help="scenario JSON for re-scoring blended features")
    p.add_argument("--method", choices=ALL_METHODS, default="osls-mle")
    p.add_argument("--mle", dest="method", action="store_const", const="osls-mle")
    p.add_argument("--map", dest="method", action="store_const", const="osls-map")
    p.add_argument("--gamma", type=float, default=0.2, help="pseudo-OOD noise blend weight")
    p.add_argument("--T", type=float, default=2.0, help="pseudo-OOD score mean rescale factor")
    p.add_argument("--alpha-in", type=float, default=DEFAULT_ALPHA,
                   help="per-class Dirichlet prior strength for MAP runs (and mapls)")
    p.add_argument("--alpha-out", type=float, nargs=2, default=(1.0, 1.0),
                   metavar=("A1", "A2"), help="Beta prior on the target ID ratio")
    p.add_argument("--iters", type=int, default=EmConfig.max_iters,
                   help="most EM maps plus Newton steps per EM fit (default: %(default)s)")
    p.add_argument("--tol", type=float, default=EmConfig.tol,
                   help="stop once the fit's certificate, the Frank-Wolfe gap of its "
                        "objective per target row, is at or below this, with SQUAREM and "
                        "Newton steps; 0 runs exactly --iters plain EM updates "
                        "(default: %(default)s)")
    p.add_argument("--no-rho-correction", action="store_true")
    _add_common_output(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("correct", help="write target-adapted (K+1)-class posteriors")
    p.add_argument("--estimate", required=True, help="estimate report JSON")
    p.add_argument("--target", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_correct)

    p = sub.add_parser("evaluate", help="score estimates and corrected predictions")
    p.add_argument("--estimate", action="append", help="estimate report JSON (repeatable)")
    p.add_argument("--corrected", help="corrected predictions file")
    p.add_argument("--truth", required=True)
    p.add_argument("--ece", action="store_true", help="also report calibration error")
    p.add_argument("--bins", type=int, default=15)
    _add_common_output(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="run a simulate-estimate-evaluate grid")
    p.add_argument("--config", required=True, help="key=value grid config file")
    p.add_argument("--workers", type=int, default=1,
                   help="most processes running grid points, capped by usable cores and grid "
                        "points; they exit with the command or when it is killed (default: 1)")
    p.add_argument("--iters", type=int, default=EmConfig.max_iters,
                   help="most EM maps plus Newton steps per EM fit; each fit stops at the "
                        f"default tolerance {EmConfig.tol:g} (default: %(default)s)")
    _add_common_output(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bound-check", help="Monte-Carlo coverage check of the error bounds")
    p.add_argument("--theorem", type=int, choices=(1, 3), required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--mu1", type=float, default=0.9)
    p.add_argument("--mu0", type=float, default=0.1)
    p.add_argument("--distort-a", type=float, default=0.2)
    p.add_argument("--distort-b", type=float, default=0.6)
    p.add_argument("--rho-t", type=float, default=0.6)
    p.add_argument("--seed", type=int, default=0)
    _add_common_output(p)
    p.set_defaults(func=cmd_bound_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _COMPUTE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OslsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
