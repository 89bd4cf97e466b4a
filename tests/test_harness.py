import contextlib
import dataclasses
import glob
import itertools
import json
import math
import os
import threading
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from dpboost import Budget, DataError, Ensemble, ExperimentConfig, accuracy, aggregate, emit_csv, emit_svg
from dpboost import cell_budget, run_experiment, score_matrix
from dpboost import baselines, boosting, harness, noise
from dpboost.data import config_from_dict
from dpboost.noise import Purpose, laplace_scale, rng_for
from dpboost.harness import (
    ResultRecord,
    SummaryRow,
    effective_workers,
    emit_records_jsonl,
    load_prepared_dataset,
    read_summary_csv,
)

from conftest import _openblas_get_num_threads, blas_threads, write_synthetic_csv


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


def fit_cell(full, cfg, eps, repeat):
    """Fit one boosting cell by itself, as its repeat's task does: (model, round records, test)."""
    train_rows, test, fsplit = harness._prepare(full, cfg, repeat)
    fit = harness._cell_fitter(cfg, repeat, full, train_rows, test, fsplit)
    model, rounds = fit(cell_budget(cfg.seed, repeat, eps))
    return model, rounds, test


def without_wall_time(records):
    return [dataclasses.replace(r, wall_time=None) for r in records]


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
            {"pate_teachers": 2.5},
            {"workers": 1.5},
            {"workers": 2.0},
            {"public_columns": "sex"},
            {"public_columns": [["sex"]]},
            {"public_columns": [5]},
            {"public_columns": 5},
            {"public_columns": None},
            {"public_columns": {"sex": 1}},
            {"epsilons": "0.5"},
            {"epsilons": (True,)},
            {"epsilons": ("0.5",)},
            {"epsilons": (0.5, 0.5)},
            {"epsilons": (1, 0.5, 1.0)},
            {"c1": True},
            {"dataset": 0},
            {"schema": 0},
        ],
        ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()),
    )
    def test_bad_values_rejected(self, synth_csv, tmp_path, overrides):
        with pytest.raises(DataError):
            config(synth_csv, tmp_path, **overrides)

    @pytest.mark.parametrize("algorithm", ["brc", "public-only", "pate"])
    def test_algorithms_that_read_public_columns_need_one(self, synth_csv, tmp_path, algorithm):
        # no cell of these could run without public columns; brc-all-private
        # is the boosting fit without them
        with pytest.raises(DataError, match=f"{algorithm} needs at least one public column"):
            config(synth_csv, tmp_path, algorithm=algorithm, public_columns=())
        assert config(synth_csv, tmp_path, algorithm="brc-all-private", public_columns=()).public_columns == ()

    def test_T_alias_rejected(self, synth_csv, tmp_path):
        csv_path, schema_path = synth_csv
        with pytest.raises(DataError, match=r"unknown config keys: \['T'\]"):
            config_from_dict(
                ExperimentConfig,
                {
                    "dataset": csv_path,
                    "schema": schema_path,
                    "algorithm": "brc",
                    "epsilons": [0.1],
                    "T": 13,
                },
            )

    def test_unknown_keys_rejected(self, synth_csv, tmp_path):
        csv_path, schema_path = synth_csv
        with pytest.raises(DataError, match="unknown config keys"):
            config_from_dict(
                ExperimentConfig,
                {
                    "dataset": csv_path,
                    "schema": schema_path,
                    "algorithm": "brc",
                    "epsilons": [0.1],
                    "bogus": 1,
                },
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
        # a record releases only its declared fields: nothing exact about
        # the private training rows reaches records.jsonl
        released = {
            "algorithm", "epsilon", "repeat", "seed", "streams", "test_accuracy", "wall_time", "error",
        }
        for algo in ("brc", "brc-all-private", "logreg", "public-only", "dp-logreg", "pate"):
            cfg = config(
                synth_csv, tmp_path, algorithm=algo, repeats=1, epsilons=(1.0,),
                rounds=3, pate_teachers=5,
            )
            (rec,) = run_experiment(cfg)
            assert rec.error is None, rec.error
            assert 0.0 <= rec.test_accuracy <= 1.0
            assert rec.streams["laplace"] >= 0
            path = tmp_path / f"{algo}.jsonl"
            emit_records_jsonl([rec], path)
            (row,) = [json.loads(line) for line in path.read_text().splitlines()]
            rounds = row.pop("rounds", None)
            assert set(row) == released
            assert (rounds is not None) == algo.startswith("brc")
            for r in rounds or ():
                assert set(r) == {"t", "chosen", "err_pub", "err_pri_noisy", "alpha", "test_accuracy"}

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

    @pytest.mark.parametrize("algorithm", ["brc-all-private", "logreg"])
    def test_empty_test_split_is_an_error_cell(self, synth_csv, tmp_path, algorithm):
        # round(0.1 * 4) = 0 test rows: the cell fails instead of scoring nothing
        full, _ = load_prepared_dataset(config(synth_csv, tmp_path))
        tiny = full.take(np.concatenate([np.flatnonzero(full.y == 1)[:2], np.flatnonzero(full.y == -1)[:2]]))
        cfg = config(synth_csv, tmp_path, algorithm=algorithm, repeats=1, epsilons=(1.0,), test_frac=0.1)
        (rec,) = run_experiment(cfg, full=tiny)
        assert rec.test_accuracy is None and "empty test set" in rec.error

    def test_deterministic_records(self, synth_csv, tmp_path):
        cfg = config(synth_csv, tmp_path, algorithm="brc", rounds=3)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert [r.test_accuracy for r in a] == [r.test_accuracy for r in b]

    def test_workers_capped_at_usable_cores(self, synth_csv, tmp_path, monkeypatch):
        cfg = config(synth_csv, tmp_path, workers=8)
        monkeypatch.setattr(harness, "_usable_cores", lambda: 2)
        assert effective_workers(cfg) == 2
        monkeypatch.setattr(harness, "_usable_cores", lambda: 16)
        assert effective_workers(cfg) == 8

    def test_parallel_matches_serial(self, synth_csv, tmp_path, monkeypatch):
        # two cores, so a pool runs even on a one-core machine
        monkeypatch.setattr(harness, "_usable_cores", lambda: 2)
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
            assert without_wall_time(serial) == without_wall_time(parallel)
        assert serial[0].error is not None and serial[-1].error is None

    def test_single_cell_runs_without_a_pool(self, synth_csv, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-cell sweep started a process pool")

        monkeypatch.setattr(harness.concurrent.futures, "ProcessPoolExecutor", no_pool)
        cfg = config(synth_csv, tmp_path, workers=8, repeats=1, epsilons=(1.0,), rounds=2)
        (rec,) = run_experiment(cfg)
        assert rec.error is None, rec.error

    def test_pool_workers_split_the_blas_threads(self, synth_csv, tmp_path, monkeypatch):
        get_threads = _openblas_get_num_threads()
        if get_threads is None:
            pytest.skip("numpy bundles no OpenBLAS")

        def report_threads(full, cfg, repeat):
            return [
                ResultRecord(
                    algorithm=cfg.algorithm, epsilon=eps, repeat=repeat, seed=cfg.seed,
                    streams={}, wall_time=float(get_threads()),
                )
                for eps in cfg.epsilons
            ]

        # forked workers inherit the patched repeat task; two cores, so a
        # pool runs even on a one-core machine
        monkeypatch.setattr(harness, "_run_repeat", report_threads)
        monkeypatch.setattr(harness, "_usable_cores", lambda: 2)
        # two repeats, so two workers, not eight: this process and a pool of one
        records = run_experiment(config(synth_csv, tmp_path, workers=8, repeats=2))
        assert [r.wall_time for r in records] == [1, 1, 1, 1]
        assert [(r.epsilon, r.repeat) for r in records] == [(0.5, 0), (0.5, 1), (8.0, 0), (8.0, 1)]
        assert get_threads() == 1  # the sweep's process keeps its share

    def test_the_sweeps_process_runs_every_workers_th_repeat(self, synth_csv, tmp_path, monkeypatch):
        # two cores and workers: 2, so this process runs repeats 0 and 2 and a
        # pool of one forked worker runs repeats 1 and 3; a bad repeat in this
        # process's share fails its own cells only
        monkeypatch.setattr(harness, "_usable_cores", lambda: 2)
        pools = []
        real_pool = harness.concurrent.futures.ProcessPoolExecutor

        def recording_pool(*args, **kwargs):
            pools.append((kwargs["max_workers"], kwargs["mp_context"].get_start_method()))
            return real_pool(*args, **kwargs)

        real_prepare, real_run = harness._prepare, harness._run_repeat

        def prepare(full, cfg, repeat):
            if repeat == 2:
                raise DataError("a bad repeat")
            return real_prepare(full, cfg, repeat)

        def run_repeat(full, cfg, repeat):  # tags each record with the process that ran it
            return [dataclasses.replace(r, wall_time=float(os.getpid())) for r in real_run(full, cfg, repeat)]

        monkeypatch.setattr(harness.concurrent.futures, "ProcessPoolExecutor", recording_pool)
        monkeypatch.setattr(harness, "_prepare", prepare)
        monkeypatch.setattr(harness, "_run_repeat", run_repeat)
        records = run_experiment(config(synth_csv, tmp_path, workers=2, repeats=4, rounds=3))
        assert pools == [(1, "fork")]  # the workers inherit the BLAS share, the dataset and any tracer
        assert [(r.epsilon, r.repeat) for r in records] == [(e, r) for e in (0.5, 8.0) for r in range(4)]
        assert sorted({r.repeat for r in records if r.wall_time == os.getpid()}) == [0, 2]
        assert [(r.repeat, r.error) for r in records if r.error] == [(2, "DataError: a bad repeat")] * 2

    def test_the_sweeps_process_keeps_its_share_and_pins_no_dataset(self, synth_csv, tmp_path, monkeypatch):
        # a count set after a fork starts OpenBLAS threads that busy-wait, so
        # the sweep's process keeps the share it set before the pool forked;
        # its dataset reaches the workers through the fork, and the module
        # drops it once the pool has shut down, also after a failing repeat
        get_threads = _openblas_get_num_threads()
        if get_threads is None or not os.path.isdir("/proc/self/task"):
            pytest.skip("needs numpy's bundled OpenBLAS and /proc")
        monkeypatch.setattr(harness, "_usable_cores", lambda: 2)  # a share of 1
        cfg = config(synth_csv, tmp_path, workers=2, repeats=2, rounds=3)
        parent, real_run = os.getpid(), harness._run_repeat

        def failing(full, cfg, repeat):
            if os.getpid() == parent:
                raise RuntimeError("a failing repeat task")
            return real_run(full, cfg, repeat)

        def other_threads_ticks():  # user + system CPU ticks of each thread but this one
            ticks = {}
            for task in glob.glob("/proc/self/task/*"):
                if int(os.path.basename(task)) != threading.get_native_id():
                    with contextlib.suppress(FileNotFoundError), open(os.path.join(task, "stat")) as fh:
                        stat = fh.read().rsplit(")", 1)[1].split()
                        ticks[task] = int(stat[11]) + int(stat[12])
            return ticks

        harness._set_blas_threads(2)  # not the sweep's share
        run_experiment(cfg)
        before = other_threads_ticks()
        time.sleep(0.3)
        after = other_threads_ticks()
        assert sum(t - before.get(task, 0) for task, t in after.items()) == 0
        assert get_threads() == 1
        assert harness._worker_full is None
        monkeypatch.setattr(harness, "_run_repeat", failing)
        with pytest.raises(RuntimeError, match="a failing repeat task"):
            run_experiment(cfg)
        assert get_threads() == 1
        assert harness._worker_full is None

    def test_no_repeat_runs_beside_a_native_thread(self, synth_csv, tmp_path, monkeypatch):
        # setting OpenBLAS's thread count after a fork starts a worker thread
        # that busy-waits; the sweep's process sets the share once, before the
        # pool forks, and keeps it, so no process runs a repeat beside a
        # thread Python did not start
        if _openblas_get_num_threads() is None or not os.path.isdir("/proc/self/task"):
            pytest.skip("needs numpy's bundled OpenBLAS and /proc")
        monkeypatch.setattr(harness, "_usable_cores", lambda: 2)  # a share of 1
        parent, events = os.getpid(), []
        real_set, real_run = harness._set_blas_threads, harness._run_repeat

        def set_threads(threads):
            real_set(threads)
            events.append((os.getpid(), "set", threads))

        class RecordingPool(harness.concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                events.append((os.getpid(), "pool"))
                super().__init__(*args, **kwargs)

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                events.append((os.getpid(), "shutdown"))

        def run_repeat(full, cfg, repeat):  # tags each record with its process's native threads and sets
            native = len(os.listdir("/proc/self/task")) - threading.active_count()
            own_sets = [e for e in events if e[0] == os.getpid() != parent]
            tag = {"pid": os.getpid(), "native_threads": native, "sets": own_sets}
            return [dataclasses.replace(r, streams=tag) for r in real_run(full, cfg, repeat)]

        monkeypatch.setattr(harness, "_set_blas_threads", set_threads)
        monkeypatch.setattr(harness.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness, "_run_repeat", run_repeat)
        records = run_experiment(config(synth_csv, tmp_path, workers=2, repeats=4, rounds=3))
        assert all(r.error is None for r in records), [r.error for r in records]
        tags = {r.repeat: r.streams for r in records}
        assert {repeat: tag["native_threads"] for repeat, tag in tags.items()} == {0: 0, 1: 0, 2: 0, 3: 0}
        assert sorted(repeat for repeat, tag in tags.items() if tag["pid"] == parent) == [0, 2]
        assert all(tag["sets"] == [] for tag in tags.values())
        assert events == [(parent, "set", 1), (parent, "pool"), (parent, "shutdown")]

    def test_pate_cell_scale_counts_its_test_queries(self, synth_csv, tmp_path):
        # the cell queries each test row once, so the noise scale is set
        # from train.n + test.n query events, plus pate_teachers - 1 for the
        # query on a training row's own features
        cfg = config(
            synth_csv, tmp_path, algorithm="pate", repeats=1, epsilons=(0.5,),
            pate_teachers=5,
        )
        full, _ = load_prepared_dataset(cfg)
        train_rows, test, fsplit = harness._prepare(full, cfg, 0)
        budget = cell_budget(cfg.seed, 0, 0.5)
        harness._cell_fitter(cfg, 0, full, train_rows, test, fsplit)(budget)
        (scale,) = {scale for _, _, scale, _ in budget.ledger}
        assert scale == pytest.approx(2.0 * (len(train_rows) + test.n + 5 - 1) / 0.5)

    def test_pate_cell_spends_its_budget_exactly(self, synth_csv, tmp_path):
        cfg = config(
            synth_csv, tmp_path, algorithm="pate", repeats=1, epsilons=(0.5,),
            pate_teachers=5,
        )
        full, _ = load_prepared_dataset(cfg)
        (record,) = harness._run_repeat(full, cfg, 0)
        # the same fit as the repeat task: its labels give the record's accuracy
        train_rows, test, fsplit = harness._prepare(full, cfg, 0)
        budget = cell_budget(cfg.seed, 0, 0.5)
        labels, rounds = harness._cell_fitter(cfg, 0, full, train_rows, test, fsplit)(budget)
        assert rounds is None and record.test_accuracy == np.mean(labels == test.y)
        # the ledger is complete when the fit returns: the own-row surplus,
        # then the training rows' votes and the test rows' votes
        assert [name for name, *_ in budget.ledger] == ["pate own-row surplus", "pate votes", "pate votes"]
        assert math.fsum(share for *_, share in budget.ledger) == pytest.approx(0.5, rel=1e-12)
        assert budget.spent == pytest.approx(0.5, rel=1e-12)
        assert sum(sens for name, sens, _, _ in budget.ledger if name == "pate votes") == 2 * (len(train_rows) + test.n)

    def test_record_replays_in_isolation(self, synth_csv, tmp_path):
        # a record's (seed, epsilon, repeat) suffice to re-run just that cell
        # and land on the identical accuracy
        cfg = config(synth_csv, tmp_path, algorithm="brc", rounds=3, repeats=2, epsilons=(0.5,))
        records = run_experiment(cfg)
        target = records[1]
        full, _ = load_prepared_dataset(cfg)
        (replayed,) = harness._run_repeat(full, dataclasses.replace(cfg, epsilons=(target.epsilon,)), target.repeat)
        assert replayed.test_accuracy == target.test_accuracy
        assert replayed.streams == target.streams


class TestRepeatTasks:
    """A sweep task is one repeat: it prepares the data and does the work its
    epsilons share once, and each of its records is the one its cell gives
    when run alone."""

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool"])
    @pytest.mark.parametrize("algorithm", harness.ALGORITHMS)
    def test_every_record_equals_its_single_epsilon_run(self, synth_csv, tmp_path, monkeypatch, algorithm, workers):
        # two cores, so a pool runs even on a one-core machine
        monkeypatch.setattr(harness, "_usable_cores", lambda: 2)
        cfg = config(synth_csv, tmp_path, algorithm=algorithm, rounds=4, pate_teachers=5, workers=workers)
        full, _ = load_prepared_dataset(cfg)
        records = run_experiment(cfg, full=full)
        assert [(r.epsilon, r.repeat) for r in records] == [(0.5, 0), (0.5, 1), (8.0, 0), (8.0, 1)]
        alone = []
        for eps in cfg.epsilons:
            alone += run_experiment(dataclasses.replace(cfg, epsilons=(eps,), workers=1), full=full)
        assert without_wall_time(records) == without_wall_time(alone)
        assert all(r.error is None for r in records), [r.error for r in records]

    def test_shared_work_runs_once_per_repeat(self, synth_csv, tmp_path, monkeypatch):
        counts = {"balance_indices": 0, "draw_private_classifiers": 0, "fit_logreg_weighted": 0}
        for name in counts:
            real = getattr(harness, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(harness, name, counting)
        epsilons = (0.1, 0.5, 8.0)
        for algorithm in ("brc-all-private", "logreg"):
            run_experiment(config(synth_csv, tmp_path, algorithm=algorithm, epsilons=epsilons, repeats=2))
        assert counts == {"balance_indices": 4, "draw_private_classifiers": 2, "fit_logreg_weighted": 2}

    @pytest.mark.parametrize("algorithm", ["brc", "brc-all-private"])
    def test_a_repeat_scores_each_classifier_on_the_test_rows_once(self, synth_csv, tmp_path, monkeypatch, algorithm):
        # a repeat's epsilons vote the same draws and chain links: each
        # distinct member is scored on the test rows once, and every round's
        # test accuracy is the one its cell's own prefix predictions give
        cfg = config(synth_csv, tmp_path, algorithm=algorithm, epsilons=(0.1, 0.5, 8.0), rounds=6, repeats=1)
        full, _ = load_prepared_dataset(cfg)
        scored, models = [], []
        real_score, real_fit = harness.score_matrix, harness.brc_fit

        def counting_score(clfs, X):
            scored.extend(clfs)
            return real_score(clfs, X)

        def keeping_fit(*args, **kwargs):
            model, rounds = real_fit(*args, **kwargs)
            models.append(model)
            return model, rounds

        monkeypatch.setattr(harness, "score_matrix", counting_score)
        monkeypatch.setattr(harness, "brc_fit", keeping_fit)
        records = harness._run_repeat(full, cfg, 0)
        assert all(r.error is None for r in records), [r.error for r in records]
        distinct = {id(m.clf) for model in models for m in model.members}
        assert sorted(map(id, scored)) == sorted(distinct)
        assert len(distinct) < sum(len(model) for model in models)  # the cells share members
        for eps, rec in zip(cfg.epsilons, records):
            model, _, test = fit_cell(full, cfg, eps, 0)
            flags = score_matrix([m.clf for m in model.members], test.X) >= 0
            accs = (model.prefix_vote(flags) == test.y).mean(axis=1)
            assert [r.test_accuracy for r in rec.rounds] == accs.tolist()

    def test_a_pate_repeat_fits_its_teachers_once(self, synth_csv, tmp_path, monkeypatch):
        # per repeat: pate_teachers teacher fits, then one student fit per epsilon
        fits = []
        real = baselines.fit_logreg_weighted

        def counting(*args, **kwargs):
            fits.append(args[0].columns[-1] == ("vote", "numeric"))
            return real(*args, **kwargs)

        monkeypatch.setattr(baselines, "fit_logreg_weighted", counting)
        cfg = config(synth_csv, tmp_path, algorithm="pate", epsilons=(0.1, 0.5, 8.0), pate_teachers=5)
        records = run_experiment(cfg)
        assert all(r.error is None for r in records), [r.error for r in records]
        assert fits == ([False] * 5 + [True] * 3) * cfg.repeats

    def test_a_repeat_fits_each_public_link_once(self, synth_csv, tmp_path, monkeypatch):
        # a repeat's epsilons share one public chain: per repeat, one fit per
        # link any epsilon reads, 1 + the most public rounds in rounds 1..T-1
        fitted_on = []
        real = boosting.fit_logreg_weighted

        def counting(data, cols, weights):
            fitted_on.append(data)
            return real(data, cols, weights)

        monkeypatch.setattr(boosting, "fit_logreg_weighted", counting)
        cfg = config(synth_csv, tmp_path, algorithm="brc", epsilons=(0.05, 0.5, 8.0), rounds=10)
        records = run_experiment(cfg)
        chains = []  # each repeat's gathered public columns, in repeat order
        for data in fitted_on:
            if not any(data is c for c in chains):
                chains.append(data)
        fits = [sum(data is c for data in fitted_on) for c in chains]
        public_rounds = [
            [sum(r.chosen == "public" for r in rec.rounds[:-1]) for rec in records if rec.repeat == repeat]
            for repeat in range(cfg.repeats)
        ]
        assert fits == [1 + max(counts) for counts in public_rounds]
        assert any(len(set(counts)) > 1 for counts in public_rounds)  # the epsilons' fits differ

    def test_records_share_the_task_wall_time(self, synth_csv, tmp_path):
        records = run_experiment(config(synth_csv, tmp_path, epsilons=(0.1, 0.5, 8.0), repeats=2))
        for repeat in (0, 1):
            times = {r.wall_time for r in records if r.repeat == repeat}
            assert len(times) == 1 and times.pop() > 0

    def test_failing_preparation_fails_every_epsilon_of_the_repeat(self, synth_csv, tmp_path):
        full, _ = load_prepared_dataset(config(synth_csv, tmp_path))
        one_label = full.take(np.flatnonzero(full.y == 1))
        cfg = config(synth_csv, tmp_path, epsilons=(0.1, 0.5, 8.0), repeats=2)
        records = run_experiment(cfg, full=one_label)
        assert [(r.epsilon, r.repeat) for r in records] == [(e, r) for e in (0.1, 0.5, 8.0) for r in (0, 1)]
        assert {r.error for r in records} == {"DataError: balance requires both labels to be present"}
        assert all(r.test_accuracy is None and r.wall_time > 0 for r in records)

    @pytest.mark.parametrize(
        "algorithm, fitter, epsilon_of",
        [
            ("brc", "brc_fit", lambda args: args[1].epsilon),
            ("dp-logreg", "fit_dp_logreg", lambda args: args[1].epsilon),
            ("pate", "fit_pate", lambda args: args[3].epsilon),
        ],
        ids=["brc", "dp-logreg", "pate"],
    )
    def test_failing_fit_leaves_the_other_epsilons_intact(
        self, synth_csv, tmp_path, monkeypatch, algorithm, fitter, epsilon_of
    ):
        cfg = config(synth_csv, tmp_path, algorithm=algorithm, rounds=4, pate_teachers=5)
        full, _ = load_prepared_dataset(cfg)
        clean = run_experiment(cfg, full=full)
        real = getattr(harness, fitter)

        def fails_at_eps_8(*args, **kwargs):
            if epsilon_of(args) == 8.0:
                raise RuntimeError("no fit at eps 8")
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, fitter, fails_at_eps_8)
        records = run_experiment(cfg, full=full)
        assert without_wall_time(records[:2]) == without_wall_time(clean[:2])
        assert [r.error for r in records[2:]] == ["RuntimeError: no fit at eps 8"] * 2
        assert all(r.test_accuracy is None and r.rounds is None for r in records[2:])


class TestPrivacyLedger:
    """The budgets the harness gives each cell, as the repeat task spends them."""

    @pytest.fixture
    def budgets(self, monkeypatch):
        made = []

        class Recorded(Budget):
            def __init__(self, epsilon, rng):
                super().__init__(epsilon, rng)
                self.start = rng.bit_generator.state
                made.append(self)

        monkeypatch.setattr(noise, "Budget", Recorded)  # the class cell_budget builds
        return made

    @pytest.mark.parametrize("algorithm", ["brc", "brc-all-private", "dp-logreg", "pate"])
    def test_shares_sum_to_epsilon(self, synth_csv, tmp_path, budgets, algorithm):
        # pate's budget includes the votes of the test rows; at
        # eps 0.16 dp-logreg raises lam, at eps 1 it does not
        cfg = config(synth_csv, tmp_path, algorithm=algorithm, epsilons=(0.16, 1.0), pate_teachers=5)
        full, _ = load_prepared_dataset(cfg)
        assert all(r.error is None for r in harness._run_repeat(full, cfg, 0))
        assert [b.epsilon for b in budgets] == [0.16, 1.0]
        for budget in budgets:
            assert math.fsum(share for *_, share in budget.ledger) == pytest.approx(budget.epsilon, rel=1e-12)
            assert budget.spent == pytest.approx(budget.epsilon, rel=1e-12)

    @pytest.mark.parametrize("algorithm", ["brc", "brc-all-private", "dp-logreg", "pate"])
    def test_an_infinite_budget_draws_only_dp_logregs_ball(self, synth_csv, tmp_path, budgets, algorithm):
        cfg = config(synth_csv, tmp_path, algorithm=algorithm, epsilons=(math.inf,), pate_teachers=5)
        full, _ = load_prepared_dataset(cfg)
        assert harness._run_repeat(full, cfg, 0)[0].error is None
        (budget,) = budgets
        ref = np.random.default_rng()
        ref.bit_generator.state = budget.start
        if algorithm == "dp-logreg":
            d = full.d + 1  # the constant column included
            ref.gamma(shape=d, scale=1.0)
            ref.normal(size=d)
        assert budget.rng.bit_generator.state == ref.bit_generator.state
        assert budget.spent == math.inf


class TestCellNoise:
    """What a sweep's records release together: each cell's noise is its own,
    and no record depends on the BLAS thread count."""

    def test_round_one_errors_of_a_sweep_do_not_solve_to_the_exact_error(self, synth_csv, tmp_path):
        # round 1 has unit weights and the same classifier at every epsilon,
        # so its released errors are e = g + b*z at each cell's scale b. Were
        # z shared, any two cells would give g = (b_b*e_a - b_a*e_b)/(b_b - b_a)
        # up to rounding: the exact private error, from records costing sum eps
        cfg = config(synth_csv, tmp_path, epsilons=(0.5, 1.0, 2.0), rounds=10, repeats=1)
        full, _ = load_prepared_dataset(cfg)
        records = run_experiment(cfg, full=full)
        train_rows, _, fsplit = harness._prepare(full, cfg, 0)
        classifier_rng = rng_for(cfg.seed, 0, Purpose.PRIVATE_CLASSIFIER)
        draws = boosting.draw_private_classifiers(full, train_rows, fsplit, cfg.rounds, classifier_rng)
        n = len(train_rows)
        exact = boosting.weighted_error(draws.mis[0], np.ones(n))
        released = [
            (laplace_scale(cfg.c1, cfg.c2, cfg.rounds, r.epsilon, n), r.rounds[0].err_pri_noisy) for r in records
        ]
        for (b_a, e_a), (b_b, e_b) in itertools.combinations(released, 2):
            solved = (b_b * e_a - b_a * e_b) / (b_b - b_a)
            assert abs(solved - exact) > 1e-6

    @pytest.mark.skipif(_openblas_get_num_threads() is None, reason="numpy bundles no OpenBLAS")
    @pytest.mark.parametrize("algorithm", ["brc", "brc-all-private", "logreg", "dp-logreg"])
    def test_records_do_not_depend_on_the_blas_thread_count(self, tmp_path, algorithm):
        # about 19,500 training rows: OpenBLAS splits a dot product of more
        # than 10,000 terms between its threads, and a pool worker runs fewer
        # threads than a serial sweep
        synth = write_synthetic_csv(str(tmp_path), n=24_000)
        cfg = config(synth, tmp_path, algorithm=algorithm, epsilons=(0.5, 2.0), rounds=10, repeats=1, test_frac=0.1)
        full, _ = load_prepared_dataset(cfg)
        runs = []
        for threads in (1, 2):
            with blas_threads(threads):
                runs.append(without_wall_time(run_experiment(cfg, full=full)))
        assert all(r.error is None for r in runs[0]), [r.error for r in runs[0]]
        assert runs[0] == runs[1]


class TestAggregate:
    def rec(self, algo, eps, repeat, acc, error=None):
        return ResultRecord(
            algorithm=algo, epsilon=eps, repeat=repeat, seed=0, streams={},
            test_accuracy=acc, wall_time=0.0, error=error,
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
    """The test accuracy of each partial ensemble H_1..H_T, carried by the
    round records of the sweep's one fit per cell."""

    def test_trace_lengths(self, synth_csv, tmp_path):
        cfg = config(synth_csv, tmp_path, algorithm="brc", rounds=6, repeats=2, epsilons=(1.0,))
        records = run_experiment(cfg)
        assert len(records) == 2
        for rec in records:
            accs = [r.test_accuracy for r in rec.rounds]
            assert len(accs) == 6
            assert all(0.0 <= a <= 1.0 for a in accs)
            assert accs[-1] == rec.test_accuracy

    def test_single_round_trace(self, synth_csv, tmp_path):
        cfg = config(synth_csv, tmp_path, rounds=1, repeats=1, epsilons=(1.0,))
        (rec,) = run_experiment(cfg)
        (only,) = rec.rounds
        assert only.test_accuracy == rec.test_accuracy

    def test_non_boosting_cells_have_no_rounds(self, synth_csv, tmp_path):
        cfg = config(synth_csv, tmp_path, algorithm="logreg", repeats=1, epsilons=(1.0,))
        (rec,) = run_experiment(cfg)
        assert rec.error is None and rec.rounds is None

    @pytest.mark.parametrize("algorithm", ["brc", "brc-all-private"])
    def test_rounds_score_the_partial_ensembles(self, synth_csv, tmp_path, algorithm):
        # an independent oracle: refit each cell and score every truncated ensemble
        cfg = config(synth_csv, tmp_path, algorithm=algorithm, rounds=6, epsilons=(0.5, 8.0))
        full, _ = load_prepared_dataset(cfg)
        for rec in run_experiment(cfg, full=full):
            model, _, test = fit_cell(full, cfg, rec.epsilon, rec.repeat)
            assert rec.test_accuracy == accuracy(model, test)
            assert [r.test_accuracy for r in rec.rounds] == [
                accuracy(Ensemble(members=model.members[:t]), test) for t in range(1, 7)
            ]


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

    @pytest.mark.parametrize(
        "row", ["brc,0.1,0.5", "brc,0.1,high,0.1,10", "brc,0.1,0.5,0.1,10,extra"], ids=["short", "non-numeric", "long"]
    )
    def test_bad_summary_row_names_path_and_line(self, tmp_path, row):
        path = tmp_path / "summary.csv"
        path.write_text(f"algorithm,epsilon,mean_accuracy,std,count\nbrc,0.01,0.5,0.1,10\n{row}\n")
        with pytest.raises(DataError, match=f"summary.csv, line 3: bad summary row '{row}'"):
            read_summary_csv(path)

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
            test_accuracy=0.7, wall_time=0.1,
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
