"""Experiment orchestration: config-driven sweeps over epsilon with repeated
runs, aggregation, convergence traces, and CSV/SVG emission.

Each (epsilon, repeat) cell is an independent task: it re-balances and
re-splits the data with the repeat's shuffle stream, fits the configured
algorithm, and evaluates train/test accuracy. Cells are merged in
deterministic (epsilon, repeat) order regardless of execution order, so a
fixed (config, seed) pair always yields byte-identical CSV output.
"""

from __future__ import annotations

import concurrent.futures
import ctypes
import glob
import json
import math
import numbers
import os
import time
from dataclasses import dataclass
from xml.sax.saxutils import escape

import numpy as np

from .baselines import LogRegHyper, PateConfig, fit_dp_logreg, fit_logreg, fit_pate
from .boosting import RoundRecord, brc_fit
from .data import DataError, Dataset, FeatureSplit, Schema, balance, load_csv, encode, normalize, split
from .model import accuracy
from .noise import PrivacyParams, Purpose, rng_for, stream_id

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
    ranges_from_data: bool = False
    pate_teachers: int = 25

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise DataError(f"unknown algorithm {self.algorithm!r}; pick one of {ALGORITHMS}")
        for name in ("repeats", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise DataError(f"{name} must be an integer, got {value!r}")
        if self.repeats < 1:
            raise DataError("repeats must be >= 1")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")
        if not self.epsilons:
            raise DataError("epsilon values must be non-empty")
        if not 0.0 < self.test_frac < 1.0:
            raise DataError(f"test_frac must lie strictly between 0 and 1, got {self.test_frac}")
        if self.workers < 1:
            raise DataError("workers must be >= 1")
        try:
            for e in self.epsilons:
                PrivacyParams(e, self.rounds, self.c1, self.c2, n=1)
            PateConfig(k_teachers=self.pate_teachers)
        except ValueError as exc:
            raise DataError(f"bad experiment config: {exc}") from exc
        object.__setattr__(self, "epsilons", tuple(float(e) for e in self.epsilons))
        object.__setattr__(self, "public_columns", tuple(self.public_columns))

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(d)
        if "T" in d:  # accepted alias for rounds
            d["rounds"] = d.pop("T")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise DataError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**d)
        except TypeError as exc:
            raise DataError(f"bad experiment config: {exc}") from exc

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class ResultRecord:
    """One (epsilon, repeat) cell, with enough seed/stream data to replay it."""

    algorithm: str
    epsilon: float
    repeat: int
    seed: int
    streams: dict
    train_accuracy: float | None = None
    test_accuracy: float | None = None
    wall_time: float | None = None
    rounds: tuple[RoundRecord, ...] | None = None
    error: str | None = None

    def to_dict(self) -> dict:
        d = {
            "algorithm": self.algorithm,
            "epsilon": self.epsilon,
            "repeat": self.repeat,
            "seed": self.seed,
            "streams": self.streams,
            "train_accuracy": self.train_accuracy,
            "test_accuracy": self.test_accuracy,
            "wall_time": self.wall_time,
            "error": self.error,
        }
        if self.rounds is not None:
            d["rounds"] = [r.to_dict() for r in self.rounds]
        return d


def load_prepared_dataset(cfg: ExperimentConfig) -> tuple[Dataset, Schema]:
    """Load, encode, and normalize the configured CSV once per experiment."""
    schema = Schema.from_json_file(cfg.schema)
    unknown = set(cfg.public_columns) - set(schema.feature_names)
    if unknown:
        raise DataError(f"public columns not in schema: {sorted(unknown)}")
    raw = load_csv(cfg.dataset, schema)
    ds = normalize(encode(raw, schema), schema, ranges_from_data=cfg.ranges_from_data)
    return ds, schema


def _streams(cfg: ExperimentConfig, repeat: int) -> dict:
    return {p.name.lower(): stream_id(repeat, p) for p in Purpose}


def _prepare_cell_data(full: Dataset, cfg: ExperimentConfig, repeat: int):
    shuffle_rng = rng_for(cfg.seed, repeat, Purpose.SHUFFLE)
    balanced = balance(full, shuffle_rng)
    return split(balanced, cfg.test_frac, shuffle_rng)


def _fit_cell(full: Dataset, cfg: ExperimentConfig, eps: float, repeat: int):
    """Fit one cell; returns (model, round records or None, train, test)."""
    train, test = _prepare_cell_data(full, cfg, repeat)
    rounds = None
    if cfg.algorithm in ("brc", "brc-all-private"):
        if cfg.algorithm == "brc":
            fsplit = FeatureSplit.from_public_sources(train.columns, cfg.public_columns)
        else:
            fsplit = FeatureSplit.all_private(train.d)
        params = PrivacyParams(epsilon=eps, rounds=cfg.rounds, c1=cfg.c1, c2=cfg.c2, n=train.n)
        model, rounds = brc_fit(
            train,
            fsplit,
            params,
            classifier_rng=rng_for(cfg.seed, repeat, Purpose.PRIVATE_CLASSIFIER),
            noise_rng=rng_for(cfg.seed, repeat, Purpose.LAPLACE),
        )
    elif cfg.algorithm == "logreg":
        model = fit_logreg(train, range(train.d))
    elif cfg.algorithm == "public-only":
        fsplit = FeatureSplit.from_public_sources(train.columns, cfg.public_columns)
        if not fsplit.public_cols:
            raise DataError("public-only baseline needs at least one public column")
        model = fit_logreg(train, fsplit.public_cols)
    elif cfg.algorithm == "dp-logreg":
        model = fit_dp_logreg(
            train, eps, LogRegHyper(), rng_for(cfg.seed, repeat, Purpose.BASELINE)
        )
    elif cfg.algorithm == "pate":
        fsplit = FeatureSplit.from_public_sources(train.columns, cfg.public_columns)
        model = fit_pate(
            train,
            fsplit,
            eps,
            PateConfig(k_teachers=cfg.pate_teachers),
            rng_for(cfg.seed, repeat, Purpose.BASELINE),
            # evaluation re-queries every train row once and each test row
            # once; each re-query is a fresh noise event that needs budget
            extra_query_budget=train.n + test.n,
        )
    else:  # pragma: no cover - guarded by config validation
        raise DataError(f"unknown algorithm {cfg.algorithm!r}")
    return model, rounds, train, test


def _run_cell(full: Dataset, cfg: ExperimentConfig, eps: float, repeat: int) -> ResultRecord:
    start = time.perf_counter()
    try:
        model, rounds, train, test = _fit_cell(full, cfg, eps, repeat)
        record = ResultRecord(
            algorithm=cfg.algorithm,
            epsilon=eps,
            repeat=repeat,
            seed=cfg.seed,
            streams=_streams(cfg, repeat),
            train_accuracy=accuracy(model, train),
            test_accuracy=accuracy(model, test),
            wall_time=time.perf_counter() - start,
            rounds=tuple(rounds) if rounds is not None else None,
        )
    except Exception as exc:  # noqa: BLE001 - a bad cell must not kill the sweep
        record = ResultRecord(
            algorithm=cfg.algorithm,
            epsilon=eps,
            repeat=repeat,
            seed=cfg.seed,
            streams=_streams(cfg, repeat),
            wall_time=time.perf_counter() - start,
            error=f"{type(exc).__name__}: {exc}",
        )
    return record


_worker_full: Dataset | None = None  # the sweep's dataset, set once per pool worker


def _set_blas_threads(threads: int) -> None:
    """Cap the thread pool of numpy's bundled OpenBLAS; a no-op without one."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.argtypes = [ctypes.c_int]
                fn.restype = None
                fn(threads)
                break


def _init_worker(full: Dataset, blas_threads: int) -> None:
    """Pool initializer: keep the dataset for every cell this worker runs, and
    split the cores' BLAS threads between the workers so they do not
    oversubscribe them."""
    global _worker_full
    _worker_full = full
    _set_blas_threads(blas_threads)


def _worker(args) -> tuple[int, int, ResultRecord]:
    cfg, ei, eps, repeat = args
    return ei, repeat, _run_cell(_worker_full, cfg, eps, repeat)


def effective_workers(cfg: ExperimentConfig) -> int:
    cap = os.environ.get("DPBOOST_WORKERS")
    workers = cfg.workers
    if cap is not None:
        workers = min(workers, max(1, int(cap)))
    return max(1, workers)


def run_experiment(cfg: ExperimentConfig, full: Dataset = None) -> list[ResultRecord]:
    """Run every (epsilon, repeat) cell and return records in deterministic
    (epsilon index, repeat) order. A failing cell yields an error record and
    the sweep continues.
    """
    if full is None:
        full, _ = load_prepared_dataset(cfg)
    cells = [(ei, eps, r) for ei, eps in enumerate(cfg.epsilons) for r in range(cfg.repeats)]
    workers = min(effective_workers(cfg), len(cells))
    results: dict[tuple[int, int], ResultRecord] = {}
    if workers == 1:
        for ei, eps, r in cells:
            results[(ei, r)] = _run_cell(full, cfg, eps, r)
    else:
        # Keep the default start method: on Linux it forks, and forked
        # workers inherit the parent's module state, which the benchmark's
        # tracing wrappers rely on.
        if hasattr(os, "sched_getaffinity"):
            cores = len(os.sched_getaffinity(0))
        else:
            cores = os.cpu_count() or 1
        blas_threads = max(1, cores // workers)
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(full, blas_threads)
        ) as pool:
            for ei, r, rec in pool.map(_worker, [(cfg, ei, eps, r) for ei, eps, r in cells]):
                results[(ei, r)] = rec
    return [results[(ei, r)] for ei, eps, r in cells]


@dataclass(frozen=True)
class SummaryRow:
    algorithm: str
    epsilon: float
    mean_accuracy: float
    std: float
    count: int


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


@dataclass(frozen=True)
class TraceRecord:
    algorithm: str
    epsilon: float
    repeat: int
    accuracies: tuple[float, ...]  # test accuracy of H_1..H_T


def convergence_trace(cfg: ExperimentConfig, full: Dataset = None) -> list[TraceRecord]:
    """Per-round test accuracy of the partial ensembles H_1..H_T, one trace
    per (epsilon, repeat) cell. Only meaningful for the boosting algorithms.
    """
    if cfg.algorithm not in ("brc", "brc-all-private"):
        raise DataError("convergence traces require a boosting algorithm")
    if full is None:
        full, _ = load_prepared_dataset(cfg)
    traces = []
    for eps in cfg.epsilons:
        for repeat in range(cfg.repeats):
            model, _, _, test = _fit_cell(full, cfg, eps, repeat)
            prefix = model.prefix_predictions(test.X)
            accs = tuple(float(np.mean(p == test.y)) for p in prefix)
            traces.append(TraceRecord(cfg.algorithm, eps, repeat, accs))
    return traces


def emit_records_jsonl(records, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_dict()) + "\n")


def emit_csv(summary, path) -> None:
    """Summary table as CSV: algorithm,epsilon,mean_accuracy,std,count."""
    summary = list(summary)
    if not summary:
        raise ValueError("emit_csv needs a non-empty summary")
    lines = ["algorithm,epsilon,mean_accuracy,std,count"]
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
        if header != "algorithm,epsilon,mean_accuracy,std,count":
            raise DataError(f"{path}: unexpected summary header {header!r}")
        for line in fh:
            if not line.strip():
                continue
            algo, eps, mean, std, count = line.strip().split(",")
            rows.append(SummaryRow(algo, float(eps), float(mean), float(std), int(count)))
    return rows


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf")


def emit_svg(summary, path, *, width: int = 640, height: int = 420) -> None:
    """Line chart of mean accuracy vs epsilon (log axis) with +/-1 std error
    bars, one polyline per algorithm, axis labels, and a legend. Pure text
    output, no plotting dependency.
    """
    summary = list(summary)
    if not summary:
        raise ValueError("emit_svg needs a non-empty summary")

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
