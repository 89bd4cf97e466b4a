"""Pinned outputs of the boosting sweeps for fixed seeds.

The summary and toy-accuracy literals were recorded from the code before the
all-private fit was folded into ``brc_fit``; the records, toy CSV and toy
traces pins before config loading was reduced to one function. The records
pins were then re-derived once, when records stopped carrying a training
accuracy: each is the sha256 of the earlier text with the
``"train_accuracy"`` member removed from every line. A refactor must
reproduce them byte for byte.
"""

import dataclasses
import hashlib
import json
import os

import pytest

from dpboost import ExperimentConfig, ToyConfig, aggregate, emit_csv, run_experiment, run_toy_sweep
from dpboost.cli import main
from dpboost.harness import emit_records_jsonl

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


# sha256 of records.jsonl with every wall_time set to None, same sweeps as above
GOLDEN_RECORDS_SHA256 = {
    "brc": "738e320e4b5f8d21479a506e24a66b11ac77c2b31066871b656910422510e640",
    "brc-all-private": "f831947ea84510dfae130a70fef2e8a80763feb1142f10734ab240b4d0338691",
}

GOLDEN_TOY_CSV = (
    "epsilon,repeat,accuracy\n"
    "0.5,0,0.895000\n"
    "0.5,1,0.960000\n"
    "5,0,0.895000\n"
    "5,1,0.960000\n"
)

GOLDEN_TOY_TRACES_SHA256 = "9493ba3770327bbdfe310f14a1531c3af75aa5b881be38db9a897aa615c73634"


@pytest.mark.parametrize("algorithm", sorted(GOLDEN_RECORDS_SHA256))
def test_boosting_records_jsonl_is_pinned(tmp_path, algorithm):
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
    records = [dataclasses.replace(r, wall_time=None) for r in run_experiment(cfg)]
    path = os.path.join(str(tmp_path), "records.jsonl")
    emit_records_jsonl(records, path)
    with open(path, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == GOLDEN_RECORDS_SHA256[algorithm]


def test_toy_command_outputs_are_pinned(tmp_path):
    out_dir = tmp_path / "toy"
    cfg_path = tmp_path / "toy.json"
    cfg_path.write_text(
        json.dumps({"n": 200, "rounds": 10, "repeats": 2, "epsilons": [0.5, 5.0], "output_dir": str(out_dir)})
    )
    assert main(["toy", "--config", str(cfg_path)]) == 0
    assert (out_dir / "toy_accuracy.csv").read_text(encoding="utf-8") == GOLDEN_TOY_CSV
    traces = (out_dir / "toy_traces.json").read_bytes()
    assert hashlib.sha256(traces).hexdigest() == GOLDEN_TOY_TRACES_SHA256
