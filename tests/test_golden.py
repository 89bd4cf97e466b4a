"""Pinned outputs of the boosting sweeps for fixed seeds.

The literals below were recorded from the code before the all-private fit
was folded into ``brc_fit``; a refactor of the booster loop must reproduce
them byte for byte.
"""

import os

import pytest

from dpboost import ExperimentConfig, ToyConfig, aggregate, emit_csv, run_experiment, run_toy_sweep

from conftest import write_synthetic_csv

GOLDEN_SUMMARY = {
    "brc": (
        "algorithm,epsilon,mean_accuracy,std,count\n"
        "brc,0.5,0.704167,0.135529,2\n"
        "brc,8,0.691667,0.153206,2\n"
    ),
    "brc-all-private": (
        "algorithm,epsilon,mean_accuracy,std,count\n"
        "brc-all-private,0.5,0.829167,0.041248,2\n"
        "brc-all-private,8,0.829167,0.041248,2\n"
    ),
}


@pytest.mark.parametrize("algorithm", sorted(GOLDEN_SUMMARY))
def test_boosting_summary_csv_is_pinned(tmp_path, algorithm):
    csv_path, schema_path = write_synthetic_csv(str(tmp_path), n=600)
    cfg = ExperimentConfig(
        dataset=csv_path,
        schema=schema_path,
        algorithm=algorithm,
        epsilons=(0.5, 8.0),
        public_columns=("pubnum",),
        rounds=5,
        repeats=2,
        seed=7,
        test_frac=0.2,
        output_dir=str(tmp_path),
    )
    path = os.path.join(str(tmp_path), "summary.csv")
    emit_csv(aggregate(run_experiment(cfg)), path)
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == GOLDEN_SUMMARY[algorithm]


def test_toy_accuracies_are_pinned():
    report = run_toy_sweep(ToyConfig(n=200, rounds=10, repeats=2), [0.5, 5.0])
    assert [(r.epsilon, r.repeat, r.accuracy) for r in report.runs] == [
        (0.5, 0, 0.895),
        (0.5, 1, 0.96),
        (5.0, 0, 0.895),
        (5.0, 1, 0.96),
    ]
