"""The four benchmark workloads, driven through dpboost's public API.

Each workload has a set-up step (timed as ``setup_s``) and a pass: one fixed
unit of work that ends with the emitted files, as ``dpboost run`` (or
``dpboost toy``) would leave them. The benchmark repeats passes in a closed
loop from one driver process; every pass of a run does the same work, so its
``summary.csv`` must come out byte-identical each time.

* ``brc-split``: one ``brc`` cell (eps 0.16, repeat 0) with the
  ``configs/adult_brc.json`` settings, serial.
* ``all-private-pool``: the full ``configs/adult_brc_all_private.json``
  sweep (5 eps x 10 repeats) with ``workers = min(2, nproc)``.
* ``baselines``: one cell (eps 0.16, repeat 0) each of ``logreg``,
  ``public-only``, ``dp-logreg`` and ``pate``, serial.
* ``toy-sweep``: ``configs/toy.json``, one ``run_toy_sweep`` call per
  epsilon (repeat r always uses the streams of repeat r, so this is the same
  sweep); a cell is one epsilon's repeats.

The workload seed only generates the census CSV. The configs keep their own
algorithm seeds, so the toy, whose input is fully given by
``configs/toy.json``, does the same work and reaches the same accuracy for
every workload seed.

Library calls go through module attributes (``harness.run_experiment``), never
names bound at import time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
import warnings
from dataclasses import dataclass

import numpy as np

from dpboost import data, harness, toy

CELL_EPSILON = 0.16
BASELINE_CONFIGS = ("adult_logreg", "adult_public_only", "adult_dp_logreg", "adult_pate")


@dataclass
class PassResult:
    workload_s: float
    cell_s: list[float]
    accuracies: list[float]
    errors: list[str]
    summary: bytes
    boosting_cells: int
    rounds: int
    spans: list | None = None  # set by the traced loop


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _experiment_config(root: str, name: str, **changes) -> harness.ExperimentConfig:
    cfg = harness.ExperimentConfig.from_json_file(os.path.join(root, "configs", f"{name}.json"))
    return dataclasses.replace(cfg, schema=os.path.join(root, cfg.schema), **changes)


def _emit(records, out_dir: str) -> bytes:
    """What ``cli._execute`` writes; returns the bytes of summary.csv."""
    os.makedirs(out_dir, exist_ok=True)
    harness.emit_records_jsonl(records, os.path.join(out_dir, "records.jsonl"))
    summary = harness.aggregate(records)
    harness.emit_csv(summary, os.path.join(out_dir, "summary.csv"))
    harness.emit_svg(summary, os.path.join(out_dir, "summary.svg"))
    with open(os.path.join(out_dir, "summary.csv"), "rb") as fh:
        return fh.read()


class CensusWorkload:
    """Set-up is load_csv + encode + normalize of the generated CSV."""

    setup_repeats = 5

    def __init__(self, root: str, csv_path: str):
        self.root = root
        self.csv_path = csv_path
        self.configs = self.make_configs()
        self.schema = data.Schema.from_json_file(self.configs[0].schema)
        self.full = None

    def make_configs(self) -> list[harness.ExperimentConfig]:
        raise NotImplementedError

    def setup(self) -> None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # encode warns about the dropped '?' rows
            raw = data.load_csv(self.csv_path, self.schema)
            encoded = data.encode(raw, self.schema)
        self.full = data.normalize(encoded, self.schema)

    def warm_up(self) -> None:
        """Untimed: start the BLAS threads and fault in large temporaries with
        the mat-vecs the solver does, so that no pass pays for them alone."""
        v = np.ones(self.full.d)
        for _ in range(200):
            self.full.X.T @ (self.full.X @ v)

    @property
    def workers(self) -> int:
        return max(harness.effective_workers(c) for c in self.configs)

    def task(self):
        """The argument tuple ``run_experiment`` ships to a pool worker per cell."""
        cfg = self.configs[0]
        return (self.full, cfg, 0, cfg.epsilons[0], 0)

    def run_pass(self, out_dir: str) -> PassResult:
        start = time.perf_counter()
        records = []
        for cfg in self.configs:
            records.extend(harness.run_experiment(dataclasses.replace(cfg, output_dir=out_dir), self.full))
        summary = _emit(records, out_dir)
        elapsed = time.perf_counter() - start
        ok = [r for r in records if r.error is None]
        return PassResult(
            workload_s=elapsed,
            cell_s=[r.wall_time for r in records],
            accuracies=[r.test_accuracy for r in ok],
            errors=[r.error for r in records if r.error is not None],
            summary=summary,
            boosting_cells=sum(1 for r in records if r.rounds is not None),
            rounds=sum(len(r.rounds) for r in records if r.rounds is not None),
        )


class BrcSplit(CensusWorkload):
    name = "brc-split"

    def make_configs(self):
        return [_experiment_config(self.root, "adult_brc", dataset=self.csv_path,
                                   epsilons=(CELL_EPSILON,), repeats=1, workers=1)]


class AllPrivatePool(CensusWorkload):
    name = "all-private-pool"

    def make_configs(self):
        return [_experiment_config(self.root, "adult_brc_all_private", dataset=self.csv_path,
                                   workers=min(2, nproc()))]


class Baselines(CensusWorkload):
    name = "baselines"

    def make_configs(self):
        return [
            _experiment_config(self.root, name, dataset=self.csv_path,
                               epsilons=(CELL_EPSILON,), repeats=1, workers=1)
            for name in BASELINE_CONFIGS
        ]


class ToySweep:
    """Set-up is ``generate_toy``; it is microseconds, so it is repeated more."""

    name = "toy-sweep"
    setup_repeats = 1001

    def __init__(self, root: str, csv_path=None):
        with open(os.path.join(root, "configs", "toy.json"), encoding="utf-8") as fh:
            raw = json.load(fh)
        self.epsilons = tuple(raw.pop("epsilons"))
        raw.pop("output_dir")
        self.cfg = toy.ToyConfig(**raw)
        self.full = None
        self.workers = 1

    def setup(self) -> None:
        self.full = toy.generate_toy(self.cfg.n)

    def warm_up(self) -> None:
        pass

    def run_pass(self, out_dir: str) -> PassResult:
        start = time.perf_counter()
        runs, cell_s = [], []
        for eps in self.epsilons:
            t0 = time.perf_counter()
            runs.extend(toy.run_toy_sweep(self.cfg, [eps]).runs)
            cell_s.append(time.perf_counter() - t0)
        report = toy.ToyReport(config=self.cfg, runs=tuple(runs))
        os.makedirs(out_dir, exist_ok=True)
        csv_path = os.path.join(out_dir, "toy_accuracy.csv")
        report.to_csv(csv_path)
        report.to_json(os.path.join(out_dir, "toy_traces.json"))
        elapsed = time.perf_counter() - start
        with open(csv_path, "rb") as fh:
            summary = fh.read()
        return PassResult(
            workload_s=elapsed,
            cell_s=cell_s,
            accuracies=[r.accuracy for r in runs],
            errors=[],
            summary=summary,
            boosting_cells=len(runs),
            rounds=sum(len(r.alphas) for r in runs),
        )


WORKLOADS = {w.name: w for w in (BrcSplit, AllPrivatePool, Baselines, ToySweep)}
