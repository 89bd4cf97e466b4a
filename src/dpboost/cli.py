"""Command line entry point.

Subcommands:
  run                epsilon sweep per a JSON experiment config
  toy                the 1-d toy sweep per a JSON toy config
  sensitivity-check  brute-force audit of the error-sensitivity bound
  plot               re-render a summary CSV as an SVG chart

Exit codes: 0 full success, 2 partial cell failure, 1 fatal error or every
cell failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import harness
from .boosting import _ORACLE_MAX_N, _ORACLE_VALUES, sensitivity_oracle
from .data import DataError, Dataset, config_from_dict
from .model import LinearClassifier
from .noise import make_rng
from .toy import ToyConfig, run_toy_sweep


def _cmd_run(args) -> int:
    cfg = harness.ExperimentConfig.from_json_file(args.config)
    records = harness.run_experiment(cfg)
    os.makedirs(cfg.output_dir, exist_ok=True)
    harness.emit_records_jsonl(records, os.path.join(cfg.output_dir, "records.jsonl"))
    failures = [r for r in records if r.error is not None]
    for rec in failures:
        print(f"cell failed (eps={rec.epsilon:g}, repeat={rec.repeat}): {rec.error}", file=sys.stderr)
    if len(failures) == len(records):
        print("dpboost: error: every cell failed; no summary written", file=sys.stderr)
        return 1
    summary = harness.aggregate(records)
    harness.emit_csv(summary, os.path.join(cfg.output_dir, "summary.csv"))
    harness.emit_svg(summary, os.path.join(cfg.output_dir, "summary.svg"))
    for row in summary:
        print(
            f"{row.algorithm} eps={row.epsilon:g}: "
            f"mean={row.mean_accuracy:.4f} std={row.std:.4f} n={row.count}"
        )
    return 2 if failures else 0


def _cmd_toy(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise DataError(f"toy config must be a JSON object, got {type(raw).__name__}")
    eps_list = raw.pop("epsilons", None)
    out_dir = raw.pop("output_dir", "results")
    if not isinstance(out_dir, str):
        raise DataError(f"output_dir must be a string, got {out_dir!r}")
    report = run_toy_sweep(config_from_dict(ToyConfig, raw), eps_list)  # checks eps_list first
    os.makedirs(out_dir, exist_ok=True)
    report.to_csv(os.path.join(out_dir, "toy_accuracy.csv"))
    report.to_json(os.path.join(out_dir, "toy_traces.json"))
    eps_values = sorted({r.epsilon for r in report.runs})
    for eps in eps_values:
        acc = report.accuracies(eps)
        print(
            f"toy eps={eps:g} (noise scale {report.noise_scale(eps):g}): "
            f"median={np.median(acc):.4f} iqr={np.subtract(*np.percentile(acc, [75, 25])):.4f}"
        )
    return 0


def _cmd_sensitivity_check(args) -> int:
    if not 2 <= args.max_n <= _ORACLE_MAX_N:
        raise DataError(f"--max-n must lie in [2, {_ORACLE_MAX_N}], got {args.max_n}")
    rng = make_rng(args.seed)
    worst_ratio = 0.0
    ok = True
    for n in range(2, args.max_n + 1):
        for k in (1, 2):
            for c in (1.0, math.sqrt(2.0), 2.0):
                X = rng.choice(_ORACLE_VALUES, size=(n, k))
                y = np.where(rng.random(n) < 0.5, 1, -1)
                if np.all(y == y[0]):
                    y[0] = -y[0]
                ds = Dataset(X=X, y=y, columns=tuple(("f", f"={j}") for j in range(k)))
                clf = LinearClassifier(
                    coeffs=rng.uniform(-1, 1, size=k), intercept=rng.uniform(-1, 1), cols=tuple(range(k))
                )
                weights_grid = [
                    np.ones(n),
                    np.full(n, 1.0 / c),
                    np.full(n, c),
                    rng.uniform(1.0 / c, c, size=n),
                ]
                value = sensitivity_oracle(clf, ds, weights_grid, c, c)
                bound = c * c / n
                worst_ratio = max(worst_ratio, value / bound)
                status = "ok" if value <= bound + 1e-12 else "VIOLATION"
                if status != "ok":
                    ok = False
                print(f"n={n} k={k} c1=c2={c:.4f}: oracle={value:.6f} bound={bound:.6f} {status}")
    print(f"worst oracle/bound ratio: {worst_ratio:.4f}")
    return 0 if ok else 1


def _cmd_plot(args) -> int:
    summary = harness.read_summary_csv(getattr(args, "in"))
    harness.emit_svg(summary, args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dpboost", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an epsilon sweep from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.set_defaults(func=_cmd_run)

    p_toy = sub.add_parser("toy", help="run the 1-d toy sweep from a JSON config")
    p_toy.add_argument("--config", required=True)
    p_toy.set_defaults(func=_cmd_toy)

    p_sens = sub.add_parser(
        "sensitivity-check", help="brute-force the weighted-error sensitivity bound"
    )
    p_sens.add_argument("--max-n", type=int, default=6)
    p_sens.add_argument("--seed", type=int, default=0)
    p_sens.set_defaults(func=_cmd_sensitivity_check)

    p_plot = sub.add_parser("plot", help="render a summary CSV as an SVG chart")
    p_plot.add_argument("--in", required=True)
    p_plot.add_argument("--out", required=True)
    p_plot.set_defaults(func=_cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, OSError, ValueError) as exc:
        print(f"dpboost: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
