"""Experiment orchestration: config-driven sweeps over epsilon with repeated
runs, aggregation, and CSV/SVG emission.

A sweep's task is one repeat, not one (epsilon, repeat) cell: every input of
a cell except its Laplace draws depends on the repeat alone. So a task
balances and splits the data once with the repeat's shuffle stream, does the
work its epsilons share once (a boosting fit's private draws and public
chain, whose links are fitted when the first epsilon reaches them, PATE's
teachers, or the whole fit of an algorithm that ignores epsilon), then fits
and scores each epsilon's cell. Each record is the one its cell would give
if run alone. A boosting cell scores every partial ensemble H_1..H_T, so
each of its round records carries that round's test accuracy (the convergence
trace) and the last one is the cell's. The sweep's process runs every
workers-th repeat and a pool of workers - 1 the rest. Records are merged in
deterministic (epsilon, repeat) order regardless of execution order, so a
fixed (config, seed) pair always yields byte-identical CSV output.
"""

from __future__ import annotations

import concurrent.futures
import ctypes
import glob
import json
import math
import os
import time
from dataclasses import asdict, dataclass, fields, replace
from xml.sax.saxutils import escape

import numpy as np

from .baselines import fit_dp_logreg, fit_logreg_weighted, fit_pate, fit_pate_teachers
from .boosting import RoundRecord, brc_fit, draw_private_classifiers
from .data import (
    DataError,
    Dataset,
    FeatureSplit,
    Schema,
    balance_indices,
    check_int,
    check_str,
    config_from_dict,
    encode,
    load_csv,
    normalize,
    split_indices,
)
from .model import score_matrix
from .noise import Budget, Purpose, cell_budget, check_clipping, check_epsilons, rng_for, stream_id

ALGORITHMS = ("brc", "brc-all-private", "logreg", "dp-logreg", "pate", "public-only")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str
    schema: str
    algorithm: str
    epsilons: tuple[float, ...]
    public_columns: tuple[str, ...] = ()
    rounds: int = 25
    c1: float = math.sqrt(2.0)
    c2: float = math.sqrt(2.0)
    repeats: int = 10
    seed: int = 0
    test_frac: float = 0.1
    output_dir: str = "results"
    workers: int = 1
    pate_teachers: int = 25

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise DataError(f"unknown algorithm {self.algorithm!r}; pick one of {ALGORITHMS}")
        for name, minimum in (("rounds", 1), ("repeats", 1), ("seed", 0), ("workers", 1), ("pate_teachers", 2)):
            check_int(name, getattr(self, name), minimum)
        if not isinstance(self.public_columns, (list, tuple)):
            raise DataError(f"public_columns must be a list, got {self.public_columns!r}")
        for column in self.public_columns:
            check_str("each of public_columns", column)
        for name in ("dataset", "schema", "output_dir"):
            check_str(name, getattr(self, name))
        if not 0.0 < self.test_frac < 1.0:
            raise DataError(f"test_frac must lie strictly between 0 and 1, got {self.test_frac}")
        check_clipping(self.c1, self.c2)
        object.__setattr__(self, "epsilons", check_epsilons(self.epsilons))
        object.__setattr__(self, "public_columns", tuple(self.public_columns))
        if not self.public_columns and self.algorithm in ("brc", "public-only", "pate"):
            raise DataError(f"{self.algorithm} needs at least one public column; public_columns is empty")

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            return config_from_dict(cls, json.load(fh))


@dataclass(frozen=True)
class ResultRecord:
    """One (epsilon, repeat) cell, with enough seed/stream data to replay it:
    ``streams`` holds the repeat's stream ids, and the cell's noise stream is
    its LAPLACE one keyed further on the record's own ``epsilon``
    (``noise.cell_budget``).

    ``wall_time`` is the wall time of the cell's repeat task divided equally
    among that task's cells, one per epsilon: the task shares its data
    preparation and draws between them, so no cell has a time of its own.
    """

    algorithm: str
    epsilon: float
    repeat: int
    seed: int
    streams: dict
    test_accuracy: float | None = None
    wall_time: float | None = None
    error: str | None = None
    rounds: tuple[RoundRecord, ...] | None = None

    def to_dict(self) -> dict:
        d = asdict(self)
        if self.rounds is None:
            del d["rounds"]
        return d


def load_prepared_dataset(cfg: ExperimentConfig) -> tuple[Dataset, Schema]:
    """Load, encode, and normalize the configured CSV once per experiment,
    after rejecting public columns that would fail every cell."""
    schema = Schema.from_json_file(cfg.schema)
    unknown = set(cfg.public_columns) - set(schema.feature_names)
    if unknown:
        raise DataError(f"public columns not in schema: {sorted(unknown)}")
    if cfg.algorithm in ("brc", "pate") and set(cfg.public_columns) == set(schema.feature_names):
        raise DataError(f"{cfg.algorithm} needs at least one private column; public_columns names every feature")
    raw = load_csv(cfg.dataset, schema)
    ds = normalize(encode(raw, schema), schema)
    return ds, schema


def _streams(repeat: int) -> dict:
    return {p.name.lower(): stream_id(repeat, p) for p in Purpose}


def _prepare(full: Dataset, cfg: ExperimentConfig, repeat: int):
    """The repeat's (training row indices into ``full``, test set, feature
    split): the balanced rows and the split drawn from the SHUFFLE stream,
    the test rows taken from ``full`` in one gather."""
    shuffle_rng = rng_for(cfg.seed, repeat, Purpose.SHUFFLE)
    rows = balance_indices(full.y, shuffle_rng)
    train_rows, test_rows = split_indices(len(rows), cfg.test_frac, shuffle_rng)
    if cfg.algorithm == "brc-all-private":
        fsplit = FeatureSplit.all_private(full.d)
    else:
        fsplit = FeatureSplit.from_public_sources(full.columns, cfg.public_columns)
    return rows[train_rows], full.take(rows[test_rows]), fsplit


def _cell_fitter(cfg: ExperimentConfig, repeat: int, full: Dataset, train_rows, test: Dataset, fsplit: FeatureSplit):
    """Do the work the repeat's epsilons share, then return ``fit(budget)``
    for one cell, given its ``cell_budget``: a boosting fit gives ``(model,
    round records)``, any other fit ``(the test rows' labels, None)``."""
    if cfg.algorithm in ("brc", "brc-all-private"):
        classifier_rng = rng_for(cfg.seed, repeat, Purpose.PRIVATE_CLASSIFIER)
        draws = draw_private_classifiers(full, train_rows, fsplit, cfg.rounds, classifier_rng)
        return lambda budget: brc_fit(draws, budget, c1=cfg.c1, c2=cfg.c2)
    train = full.take(train_rows)
    if cfg.algorithm in ("logreg", "public-only"):
        cols = range(train.d) if cfg.algorithm == "logreg" else fsplit.public_cols
        labels = fit_logreg_weighted(train, cols).predict(test.X)  # no noise: one fit serves every epsilon
        return lambda budget: (labels, None)
    if cfg.algorithm == "dp-logreg":
        return lambda budget: (fit_dp_logreg(train, budget).predict(test.X), None)
    if cfg.algorithm == "pate":
        rng = rng_for(cfg.seed, repeat, Purpose.BASELINE)
        teachers = fit_pate_teachers(train, fsplit, rng, k_teachers=cfg.pate_teachers)
        return lambda budget: (fit_pate(train, fsplit, teachers, budget, test.X), None)
    raise DataError(f"unknown algorithm {cfg.algorithm!r}")  # pragma: no cover - guarded by config validation


def _error(exc: Exception) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}"}


def _cell_outcome(fit, budget: Budget, test: Dataset, test_flags: dict) -> dict:
    """Fit and score one cell on its ``budget``; its record's outcome fields.
    ``test_flags`` maps each classifier the repeat has scored to its test-row flags."""
    try:
        fitted, rounds = fit(budget)
        if rounds is None:  # fitted is the test rows' labels
            return {"test_accuracy": float(np.mean(fitted == test.y))}
        new = [m.clf for m in fitted.members if m.clf not in test_flags]
        test_flags.update(zip(new, score_matrix(new, test.X).T >= 0))
        flags = np.stack([test_flags[m.clf] for m in fitted.members]).T
        accs = (fitted.prefix_vote(flags) == test.y).mean(axis=1)
        rounds = tuple(replace(r, test_accuracy=float(a)) for r, a in zip(rounds, accs))
        return {"test_accuracy": rounds[-1].test_accuracy, "rounds": rounds}
    except Exception as exc:  # noqa: BLE001 - a bad cell must not kill the sweep
        return _error(exc)


def _run_repeat(full: Dataset, cfg: ExperimentConfig, repeat: int) -> list[ResultRecord]:
    """One sweep task: the records of every epsilon's cell of ``repeat``, in
    epsilon order. A failing preparation fails all of them with its error;
    a failing fit fails its own cell only."""
    start = time.perf_counter()
    try:
        train_rows, test, fsplit = _prepare(full, cfg, repeat)
        fit = _cell_fitter(cfg, repeat, full, train_rows, test, fsplit)
    except Exception as exc:  # noqa: BLE001 - a bad repeat must not kill the sweep
        outcomes = [_error(exc)] * len(cfg.epsilons)
    else:
        test_flags: dict = {}  # the epsilons' fits vote the same draws and chain links
        outcomes = [_cell_outcome(fit, cell_budget(cfg.seed, repeat, eps), test, test_flags) for eps in cfg.epsilons]
    wall_time = (time.perf_counter() - start) / len(cfg.epsilons)
    return [
        ResultRecord(
            algorithm=cfg.algorithm,
            epsilon=eps,
            repeat=repeat,
            seed=cfg.seed,
            streams=_streams(repeat),
            wall_time=wall_time,
            **outcome,
        )
        for eps, outcome in zip(cfg.epsilons, outcomes)
    ]


_worker_full: Dataset | None = None  # the dataset of the sweep whose pool is running


def _set_blas_threads(threads: int) -> None:
    """Set the thread count of numpy's bundled OpenBLAS; without one, a no-op."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for prefix, suffix in (("scipy_", "64_"), ("", "")):
            set_ = getattr(handle, f"{prefix}openblas_set_num_threads{suffix}", None)
            if set_:
                set_.argtypes, set_.restype = [ctypes.c_int], None
                set_(threads)
                return


def _worker(task) -> list[ResultRecord]:
    """Run one pooled repeat on the dataset the worker inherited from the
    fork, with the BLAS share it inherited too: setting the count again
    after a fork would start an OpenBLAS thread that spins."""
    return _run_repeat(_worker_full, *task)


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def effective_workers(cfg: ExperimentConfig) -> int:
    """The config's worker count, capped at the cores this process may use."""
    return min(cfg.workers, _usable_cores())


def run_experiment(cfg: ExperimentConfig, full: Dataset | None = None) -> list[ResultRecord]:
    """Run every (epsilon, repeat) cell, one task per repeat, and return
    records in deterministic (epsilon index, repeat) order. A failing cell
    yields an error record and the sweep continues.
    """
    if full is None:
        full, _ = load_prepared_dataset(cfg)
    tasks = [(cfg, r) for r in range(cfg.repeats)]
    workers = min(effective_workers(cfg), len(tasks))
    if workers == 1:
        by_repeat = [_run_repeat(full, *task) for task in tasks]
    else:
        # Set a worker's share of the BLAS threads once, before the pool forks,
        # and keep it: a count set after a fork, in a worker or in this
        # process, starts an OpenBLAS thread that busy-waits. The forked
        # workers inherit the share, the dataset and any tracer.
        import multiprocessing  # here, so that serial sweeps never load it

        global _worker_full
        _set_blas_threads(max(1, _usable_cores() // workers))
        _worker_full = full
        try:
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers - 1, mp_context=multiprocessing.get_context("fork")
            ) as pool:
                pooled = pool.map(_worker, [task for task in tasks if task[1] % workers])  # submits them all now
                by_repeat = [_run_repeat(full, *task) for task in tasks[::workers]]
                by_repeat = sorted(by_repeat + list(pooled), key=lambda records: records[0].repeat)
        finally:
            _worker_full = None  # the module pins no dataset between sweeps
    # each task gives its repeat's records in epsilon order
    return [rec for records in zip(*by_repeat) for rec in records]


@dataclass(frozen=True)
class SummaryRow:
    algorithm: str
    epsilon: float
    mean_accuracy: float
    std: float
    count: int


_SUMMARY_HEADER = ",".join(f.name for f in fields(SummaryRow))


def aggregate(records) -> list[SummaryRow]:
    """Per (algorithm, epsilon): mean and sample std (n-1 denominator) of the
    test accuracy over successful repeats. A group with a single record
    reports std 0.0 and is flagged by count=1. Error records are excluded.
    """
    records = list(records)
    if not records:
        raise ValueError("aggregate needs at least one record")
    groups: dict[tuple[str, float], list[float]] = {}
    for rec in records:
        if rec.error is not None:
            continue
        groups.setdefault((rec.algorithm, rec.epsilon), []).append(rec.test_accuracy)
    rows = []
    for (algo, eps), vals in sorted(groups.items()):
        arr = np.array(vals)
        std = float(np.std(arr, ddof=1)) if len(arr) > 1 else 0.0
        rows.append(SummaryRow(algo, eps, float(np.mean(arr)), std, len(arr)))
    return rows


def emit_records_jsonl(records, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_dict()) + "\n")


def emit_csv(summary, path) -> None:
    """Summary table as CSV: a header of ``SummaryRow``'s field names, then
    one line per row."""
    summary = list(summary)
    if not summary:
        raise ValueError("emit_csv needs a non-empty summary")
    lines = [_SUMMARY_HEADER]
    for row in summary:
        lines.append(
            f"{row.algorithm},{row.epsilon:g},{row.mean_accuracy:.6f},{row.std:.6f},{row.count}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_summary_csv(path) -> list[SummaryRow]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != _SUMMARY_HEADER:
            raise DataError(f"{path}: unexpected summary header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                algo, eps, mean, std, count = line.strip().split(",")
                rows.append(SummaryRow(algo, float(eps), float(mean), float(std), int(count)))
            except ValueError as exc:
                raise DataError(f"{path}, line {lineno}: bad summary row {line.strip()!r}: {exc}") from exc
    return rows


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf")


def emit_svg(summary, path) -> None:
    """Line chart of mean accuracy vs epsilon (log axis) with +/-1 std error
    bars, one polyline per algorithm, axis labels, and a legend. Pure text
    output, no plotting dependency.
    """
    summary = list(summary)
    if not summary:
        raise ValueError("emit_svg needs a non-empty summary")

    width, height = 640, 420
    left, right_pad, top, bottom = 60.0, 170.0, 20.0, 50.0
    plot_w = width - left - right_pad
    plot_h = height - top - bottom

    algorithms = sorted({row.algorithm for row in summary})
    eps_all = sorted({row.epsilon for row in summary})
    finite = [e for e in eps_all if math.isfinite(e)]
    if finite:
        lo, hi = math.log10(finite[0]), math.log10(finite[-1])
    else:
        lo = hi = 0.0
    if hi - lo < 1e-12:
        lo, hi = lo - 0.5, hi + 0.5
    if any(math.isinf(e) for e in eps_all):
        hi = hi + 1.0  # infinite budget drawn one decade past the largest

    def sx(eps: float) -> float:
        pos = hi if math.isinf(eps) else math.log10(eps)
        return left + (pos - lo) / (hi - lo) * plot_w

    def sy(acc: float) -> float:
        return top + (1.0 - min(1.0, max(0.0, acc))) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        # axes
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="black"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" y2="{top + plot_h}" '
        'stroke="black"/>',
    ]
    for frac in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
        y = sy(frac)
        parts.append(f'<line x1="{left - 4}" y1="{y:.2f}" x2="{left}" y2="{y:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{left - 8}" y="{y + 4:.2f}" font-size="11" text-anchor="end">{frac:g}</text>'
        )
    for eps in eps_all:
        x = sx(eps)
        label = "inf" if math.isinf(eps) else f"{eps:g}"
        parts.append(
            f'<line x1="{x:.2f}" y1="{top + plot_h}" x2="{x:.2f}" y2="{top + plot_h + 4}" '
            'stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{top + plot_h + 18:.2f}" font-size="11" '
            f'text-anchor="middle">{label}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.2f}" y="{height - 8}" font-size="13" '
        'text-anchor="middle">epsilon</text>'
    )
    parts.append(
        f'<text x="16" y="{top + plot_h / 2:.2f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {top + plot_h / 2:.2f})">accuracy</text>'
    )

    for i, algo in enumerate(algorithms):
        color = _PALETTE[i % len(_PALETTE)]
        rows = sorted((r for r in summary if r.algorithm == algo), key=lambda r: r.epsilon)
        points = " ".join(f"{sx(r.epsilon):.2f},{sy(r.mean_accuracy):.2f}" for r in rows)
        for r in rows:
            x, y0, y1 = sx(r.epsilon), sy(r.mean_accuracy - r.std), sy(r.mean_accuracy + r.std)
            parts.append(
                f'<line x1="{x:.2f}" y1="{y0:.2f}" x2="{x:.2f}" y2="{y1:.2f}" stroke="{color}"/>'
            )
            for y in (y0, y1):
                parts.append(
                    f'<line x1="{x - 3:.2f}" y1="{y:.2f}" x2="{x + 3:.2f}" y2="{y:.2f}" '
                    f'stroke="{color}"/>'
                )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        ly = top + 16 + 18 * i
        lx = left + plot_w + 14
        parts.append(
            f'<line x1="{lx:.2f}" y1="{ly:.2f}" x2="{lx + 20:.2f}" y2="{ly:.2f}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 26:.2f}" y="{ly + 4:.2f}" font-size="12">{escape(algo)}</text>'
        )

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
