import ctypes
import dataclasses
import glob
import json
import math
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from dpboost import DataError, ExperimentConfig, aggregate, convergence_trace, emit_csv, emit_svg, run_experiment
from dpboost import harness
from dpboost.harness import (
    ResultRecord,
    SummaryRow,
    effective_workers,
    emit_records_jsonl,
    load_prepared_dataset,
    read_summary_csv,
)


def _openblas_get_num_threads():
    """The thread-count getter of numpy's bundled OpenBLAS, or None."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn
    return None


def config(synth_csv, tmp_path, **overrides):
    csv_path, schema_path = synth_csv
    defaults = dict(
        dataset=csv_path,
        schema=schema_path,
        algorithm="brc-all-private",
        epsilons=(0.5, 8.0),
        public_columns=("pubnum",),
        rounds=5,
        repeats=2,
        seed=7,
        test_frac=0.2,
        output_dir=str(tmp_path / "out"),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestExperimentConfig:
    def test_unknown_algorithm(self, synth_csv, tmp_path):
        with pytest.raises(DataError, match="unknown algorithm"):
            config(synth_csv, tmp_path, algorithm="svm")

    def test_bad_epsilons(self, synth_csv, tmp_path):
        with pytest.raises(DataError):
            config(synth_csv, tmp_path, epsilons=())
        with pytest.raises(DataError):
            config(synth_csv, tmp_path, epsilons=(0.0,))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"rounds": 0},
            {"rounds": 2.5},
            {"repeats": 2.5},
            {"repeats": True},
            {"seed": -1},
            {"seed": 1.5},
            {"c1": 0.5},
            {"c2": 0.5},
            {"c1": math.nan},
            {"test_frac": 0.0},
            {"test_frac": 1.5},
            {"test_frac": math.nan},
            {"epsilons": (0.5, math.nan)},
            {"epsilons": (-1.0,)},
            {"pate_teachers": 0},
        ],
        ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()),
    )
    def test_bad_values_rejected(self, synth_csv, tmp_path, overrides):
        with pytest.raises(DataError):
            config(synth_csv, tmp_path, **overrides)

    def test_rounds_alias(self, synth_csv, tmp_path):
        csv_path, schema_path = synth_csv
        cfg = ExperimentConfig.from_dict(
            {
                "dataset": csv_path,
                "schema": schema_path,
                "algorithm": "brc",
                "epsilons": [0.1],
                "T": 13,
            }
        )
        assert cfg.rounds == 13

    def test_unknown_keys_rejected(self, synth_csv, tmp_path):
        csv_path, schema_path = synth_csv
        with pytest.raises(DataError, match="unknown config keys"):
            ExperimentConfig.from_dict(
                {
                    "dataset": csv_path,
                    "schema": schema_path,
                    "algorithm": "brc",
                    "epsilons": [0.1],
                    "bogus": 1,
                }
            )

    def test_public_columns_checked_against_schema(self, synth_csv, tmp_path):
        cfg = config(synth_csv, tmp_path, public_columns=("nope",))
        with pytest.raises(DataError, match="public columns not in schema"):
            load_prepared_dataset(cfg)


class TestRunExperiment:
    def test_record_count(self, synth_csv, tmp_path):
        cfg = config(synth_csv, tmp_path, repeats=3, epsilons=(0.1, 1.0))
        records = run_experiment(cfg)
        assert len(records) == 6
        assert [(r.epsilon, r.repeat) for r in records] == [
            (0.1, 0), (0.1, 1), (0.1, 2), (1.0, 0), (1.0, 1), (1.0, 2)
        ]

    def test_ten_repeats_five_epsilons_give_fifty_records(self, synth_csv, tmp_path):
        cfg = config(
            synth_csv, tmp_path, repeats=10, rounds=1,
            epsilons=(0.01, 0.02, 0.04, 0.08, 0.16),
        )
        assert len(run_experiment(cfg)) == 50

    def test_all_algorithms_produce_accuracies(self, synth_csv, tmp_path):
        for algo in ("brc", "brc-all-private", "logreg", "public-only", "dp-logreg", "pate"):
            cfg = config(
                synth_csv, tmp_path, algorithm=algo, repeats=1, epsilons=(1.0,),
                rounds=3, pate_teachers=5,
            )
            (rec,) = run_experiment(cfg)
            assert rec.error is None, rec.error
            assert 0.0 <= rec.test_accuracy <= 1.0
            assert 0.0 <= rec.train_accuracy <= 1.0
            assert rec.streams["laplace"] >= 0

    def test_boosting_records_rounds(self, synth_csv, tmp_path):
        cfg = config(synth_csv, tmp_path, algorithm="brc", repeats=1, epsilons=(1.0,), rounds=4)
        (rec,) = run_experiment(cfg)
        assert len(rec.rounds) == 4
        assert all(r.chosen in ("public", "private") for r in rec.rounds)

    def test_error_cells_do_not_abort_sweep(self, synth_csv, tmp_path):
        # dp-logreg on a tiny epsilon needs an inadmissible lambda and fails;
        # the generous epsilon cell still succeeds.
        csv_path, schema_path = synth_csv
        import dpboost.data as data

        schema = data.Schema.from_json_file(schema_path)
        raw = data.load_csv(csv_path, schema)
        small = data.encode(raw, schema)
        small = data.normalize(small, schema)
        small = small.take(np.arange(24))
        cfg = config(synth_csv, tmp_path, algorithm="dp-logreg", repeats=1, epsilons=(0.001, 8.0))
        records = run_experiment(cfg, full=small)
        assert records[0].error is not None and "unfixable" in records[0].error
        assert records[1].error is None

    def test_deterministic_records(self, synth_csv, tmp_path):
        cfg = config(synth_csv, tmp_path, algorithm="brc", rounds=3)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert [r.test_accuracy for r in a] == [r.test_accuracy for r in b]
        assert [r.train_accuracy for r in a] == [r.train_accuracy for r in b]

    def test_workers_env_cap(self, synth_csv, tmp_path, monkeypatch):
        cfg = config(synth_csv, tmp_path, workers=8)
        monkeypatch.setenv("DPBOOST_WORKERS", "2")
        assert effective_workers(cfg) == 2
        monkeypatch.delenv("DPBOOST_WORKERS")
        assert effective_workers(cfg) == 8

    def test_parallel_matches_serial(self, synth_csv, tmp_path, monkeypatch):
        monkeypatch.delenv("DPBOOST_WORKERS", raising=False)
        full, _ = load_prepared_dataset(config(synth_csv, tmp_path))
        # brc on full data; then dp-logreg on 24 rows, where the eps=0.001
        # cell fails and the eps=8 cells succeed
        small = full.take(np.arange(24))
        cases = [
            (dict(algorithm="brc", rounds=3, repeats=2), full),
            (dict(algorithm="brc-all-private", rounds=3, repeats=2), full),
            (dict(algorithm="dp-logreg", repeats=2, epsilons=(0.001, 8.0)), small),
        ]
        for overrides, data in cases:
            serial = run_experiment(config(synth_csv, tmp_path, **overrides), full=data)
            parallel = run_experiment(config(synth_csv, tmp_path, workers=2, **overrides), full=data)
            assert [dataclasses.replace(r, wall_time=None) for r in serial] == [
                dataclasses.replace(r, wall_time=None) for r in parallel
            ]
        assert serial[0].error is not None and serial[-1].error is None

    def test_single_cell_runs_without_a_pool(self, synth_csv, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-cell sweep started a process pool")

        monkeypatch.delenv("DPBOOST_WORKERS", raising=False)
        monkeypatch.setattr(harness.concurrent.futures, "ProcessPoolExecutor", no_pool)
        cfg = config(synth_csv, tmp_path, workers=8, repeats=1, epsilons=(1.0,), rounds=2)
        (rec,) = run_experiment(cfg)
        assert rec.error is None, rec.error

    def test_pool_workers_split_the_blas_threads(self, synth_csv, tmp_path, monkeypatch):
        blas_threads = _openblas_get_num_threads()
        if blas_threads is None:
            pytest.skip("numpy bundles no OpenBLAS")
        before = blas_threads()

        def report_threads(full, cfg, eps, repeat):
            return ResultRecord(
                algorithm=cfg.algorithm, epsilon=eps, repeat=repeat, seed=cfg.seed,
                streams={}, wall_time=float(blas_threads()),
            )

        # forked workers inherit the patched cell runner
        monkeypatch.delenv("DPBOOST_WORKERS", raising=False)
        monkeypatch.setattr(harness, "_run_cell", report_threads)
        # two cells, so the pool has two workers, not eight
        records = run_experiment(config(synth_csv, tmp_path, workers=8, repeats=1))
        cores = len(os.sched_getaffinity(0))
        assert [r.wall_time for r in records] == [max(1, cores // 2)] * 2
        assert blas_threads() == before

    def test_pate_cell_reserves_evaluation_queries(self, synth_csv, tmp_path):
        # train rows are re-queried during evaluation, so the noise scale is
        # set from 2*train.n + test.n query events, not train.n + test.n
        from dpboost.harness import _fit_cell, load_prepared_dataset

        cfg = config(
            synth_csv, tmp_path, algorithm="pate", repeats=1, epsilons=(0.5,),
            pate_teachers=5,
        )
        full, _ = load_prepared_dataset(cfg)
        model, _, train, test = _fit_cell(full, cfg, 0.5, 0)
        expected_queries = 2 * train.n + test.n
        assert model.vote_scale == pytest.approx(2.0 * expected_queries / 0.5)

    def test_pate_evaluation_spends_reserve_exactly_then_raises(self, synth_csv, tmp_path):
        from dpboost import accuracy
        from dpboost.harness import _fit_cell, _run_cell, load_prepared_dataset

        cfg = config(
            synth_csv, tmp_path, algorithm="pate", repeats=1, epsilons=(0.5,),
            pate_teachers=5,
        )
        full, _ = load_prepared_dataset(cfg)
        assert _run_cell(full, cfg, 0.5, 0).error is None
        # the same evaluation as _run_cell: train accuracy, then test accuracy
        model, _, train, test = _fit_cell(full, cfg, 0.5, 0)
        accuracy(model, train)
        accuracy(model, test)
        assert model.queries_spent == model.query_budget == 2 * train.n + test.n
        with pytest.raises(RuntimeError, match="query budget"):
            model.predict(test.X[:1])

    def test_record_replays_in_isolation(self, synth_csv, tmp_path):
        # a record's (seed, epsilon, repeat) suffice to re-run just that cell
        # and land on the identical accuracy
        from dpboost.harness import _run_cell

        cfg = config(synth_csv, tmp_path, algorithm="brc", rounds=3, repeats=2, epsilons=(0.5,))
        records = run_experiment(cfg)
        target = records[1]
        full, _ = load_prepared_dataset(cfg)
        replayed = _run_cell(full, cfg, target.epsilon, target.repeat)
        assert replayed.test_accuracy == target.test_accuracy
        assert replayed.train_accuracy == target.train_accuracy
        assert replayed.streams == target.streams


class TestAggregate:
    def rec(self, algo, eps, repeat, acc, error=None):
        return ResultRecord(
            algorithm=algo, epsilon=eps, repeat=repeat, seed=0, streams={},
            test_accuracy=acc, train_accuracy=acc, wall_time=0.0, error=error,
        )

    def test_mean_and_sample_std(self):
        rows = aggregate([self.rec("a", 0.1, 0, 0.6), self.rec("a", 0.1, 1, 0.8)])
        assert rows[0].mean_accuracy == pytest.approx(0.7)
        assert rows[0].std == pytest.approx(math.sqrt(0.02), abs=1e-12)  # ~0.1414
        assert rows[0].count == 2

    def test_single_record_flagged(self):
        rows = aggregate([self.rec("a", 0.1, 0, 0.6)])
        assert rows[0].std == 0.0 and rows[0].count == 1

    def test_grouping(self):
        records = [
            self.rec("a", eps, r, 0.5 + 0.01 * r)
            for eps in (0.01, 0.02, 0.04, 0.08, 0.16)
            for r in range(10)
        ]
        rows = aggregate(records)
        assert len(rows) == 5
        assert all(r.count == 10 for r in rows)

    def test_error_records_excluded(self):
        rows = aggregate(
            [self.rec("a", 0.1, 0, 0.6), self.rec("a", 0.1, 1, None, error="boom")]
        )
        assert rows[0].count == 1

    def test_shard_linearity(self):
        records = [self.rec("a", 0.1, r, 0.5 + 0.02 * r) for r in range(8)]
        whole = aggregate(records)
        merged = aggregate(records[:3] + records[3:])
        assert whole == merged

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])


class TestConvergenceTrace:
    def test_trace_lengths(self, synth_csv, tmp_path):
        cfg = config(synth_csv, tmp_path, algorithm="brc", rounds=6, repeats=2, epsilons=(1.0,))
        traces = convergence_trace(cfg)
        assert len(traces) == 2
        assert all(len(t.accuracies) == 6 for t in traces)
        assert all(0.0 <= a <= 1.0 for t in traces for a in t.accuracies)

    def test_single_round_trace(self, synth_csv, tmp_path):
        cfg = config(synth_csv, tmp_path, rounds=1, repeats=1, epsilons=(1.0,))
        (trace,) = convergence_trace(cfg)
        assert len(trace.accuracies) == 1

    def test_non_boosting_rejected(self, synth_csv, tmp_path):
        cfg = config(synth_csv, tmp_path, algorithm="logreg")
        with pytest.raises(DataError, match="boosting"):
            convergence_trace(cfg)


class TestEmitters:
    def summary(self):
        return [
            SummaryRow("brc", 0.01, 0.5833, 0.1028, 10),
            SummaryRow("brc", 0.16, 0.7275, 0.0045, 10),
            SummaryRow("logreg", 0.01, 0.7575, 0.0100, 10),
            SummaryRow("logreg", 0.16, 0.7575, 0.0100, 10),
        ]

    def test_csv_shape(self, tmp_path):
        path = tmp_path / "summary.csv"
        emit_csv(self.summary(), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "algorithm,epsilon,mean_accuracy,std,count"
        assert len(lines) == 5

    def test_csv_round_trip_six_decimals(self, tmp_path):
        path = tmp_path / "summary.csv"
        rows = self.summary()
        emit_csv(rows, path)
        back = read_summary_csv(path)
        for a, b in zip(rows, back):
            assert a.algorithm == b.algorithm and a.epsilon == b.epsilon
            assert abs(a.mean_accuracy - b.mean_accuracy) < 1e-6
            assert abs(a.std - b.std) < 1e-6
            assert a.count == b.count

    def test_svg_handles_infinite_epsilon(self, tmp_path):
        path = tmp_path / "inf.svg"
        emit_svg(
            [SummaryRow("logreg", math.inf, 0.75, 0.01, 10),
             SummaryRow("brc", 0.16, 0.72, 0.01, 10)],
            path,
        )
        text = path.read_text()
        assert "nan" not in text and "inf</text>" in text
        ET.parse(path)

    def test_csv_round_trips_infinite_epsilon(self, tmp_path):
        path = tmp_path / "inf.csv"
        emit_csv([SummaryRow("logreg", math.inf, 0.75, 0.0, 1)], path)
        (row,) = read_summary_csv(path)
        assert math.isinf(row.epsilon)

    def test_svg_well_formed_one_polyline_per_algorithm(self, tmp_path):
        path = tmp_path / "summary.svg"
        emit_svg(self.summary(), path)
        root = ET.parse(path).getroot()
        ns = "{http://www.w3.org/2000/svg}"
        polylines = root.findall(f".//{ns}polyline")
        assert len(polylines) == 2
        texts = [t.text for t in root.findall(f".//{ns}text")]
        assert "epsilon" in texts and "accuracy" in texts
        assert "brc" in texts and "logreg" in texts

    def test_jsonl_round_trip(self, tmp_path):
        rec = ResultRecord(
            algorithm="brc", epsilon=0.1, repeat=0, seed=1, streams={"laplace": 2},
            test_accuracy=0.7, train_accuracy=0.8, wall_time=0.1,
        )
        path = tmp_path / "records.jsonl"
        emit_records_jsonl([rec], path)
        row = json.loads(path.read_text().splitlines()[0])
        assert row["algorithm"] == "brc" and row["test_accuracy"] == 0.7

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv([], tmp_path / "x.csv")
        with pytest.raises(ValueError):
            emit_svg([], tmp_path / "x.svg")
