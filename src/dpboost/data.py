"""Tabular data pipeline: CSV ingestion, one-hot encoding, [-1,1] normalization,
and the row indices of label balancing and train/test splitting, plus the
loading and the integer and real-number checks shared by the experiment and
toy configs.

All types are immutable after construction and all operations are pure
functions of (input, seed), so repeated runs with the same seed produce
bit-identical outputs.
"""

from __future__ import annotations

import csv
import json
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

# Field values treated as missing; rows containing any of them are dropped
# during encoding (the drop count is reported via a warning).
MISSING_TOKENS = frozenset({"", "?"})

NUMERIC = "numeric"
CATEGORICAL = "categorical"


class DataError(ValueError):
    """Raised for malformed input files, schemas, or dataset contracts."""


def check_int(name: str, value, minimum: int) -> None:
    """Raise ``DataError`` unless ``value`` is an integer (not a bool) >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DataError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise DataError(f"{name} must be >= {minimum}, got {value}")


def check_real(name: str, value) -> None:
    """Raise ``DataError`` unless ``value`` is a real number (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DataError(f"{name} must be a number, got {value!r}")


def config_from_dict(cls, d: dict):
    """Build the config dataclass ``cls`` from a parsed JSON object.

    Unknown keys, and missing or mistyped fields that make the constructor
    raise ``TypeError``, are reported as ``DataError``.
    """
    if not isinstance(d, dict):
        raise DataError(f"config must be a JSON object, got {type(d).__name__}")
    unknown = set(d) - set(cls.__dataclass_fields__)
    if unknown:
        raise DataError(f"unknown config keys: {sorted(unknown)}")
    try:
        return cls(**d)
    except TypeError as exc:
        raise DataError(f"bad {cls.__name__}: {exc}") from exc


@dataclass(frozen=True)
class ColumnSpec:
    """Declared kind and (for numerics, required) exogenous value range of one raw column."""

    name: str
    kind: str
    min: float | None = None
    max: float | None = None

    def __post_init__(self):
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise DataError(f"column {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == NUMERIC and (self.min is None or self.max is None):
            raise DataError(f"column {self.name!r}: a numeric column needs a declared min and max")
        for bound in ("min", "max"):
            value = getattr(self, bound)
            if value is not None:
                check_real(f"column {self.name!r}: {bound}", value)
                if not np.isfinite(value):
                    raise DataError(f"column {self.name!r}: {bound} must be finite, got {value}")
        if self.min is not None and self.max is not None and not self.min < self.max:
            raise DataError(f"column {self.name!r}: range requires min < max")


@dataclass(frozen=True)
class LabelSpec:
    """Label column name plus the two raw values mapped onto +1 / -1."""

    name: str
    positive: str
    negative: str

    def __post_init__(self):
        if self.positive == self.negative:
            raise DataError("label mapping must be a bijection onto {-1,+1}")


@dataclass(frozen=True)
class Schema:
    """Feature column declarations and the binary label mapping."""

    columns: tuple[ColumnSpec, ...]
    label: LabelSpec

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise DataError("duplicate column names in schema")
        if self.label.name in names:
            raise DataError(f"label column {self.label.name!r} also declared as a feature")

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def column(self, name: str) -> ColumnSpec:
        for c in self.columns:
            if c.name == name:
                return c
        raise DataError(f"column {name!r} not in schema")

    @classmethod
    def from_dict(cls, d: dict) -> "Schema":
        try:
            cols = tuple(
                ColumnSpec(
                    name=c["name"],
                    kind=c["kind"],
                    min=c.get("min"),
                    max=c.get("max"),
                )
                for c in d["columns"]
            )
            label = LabelSpec(
                name=d["label"]["name"],
                positive=str(d["label"]["positive"]),
                negative=str(d["label"]["negative"]),
            )
        except KeyError as exc:
            raise DataError(f"schema is missing required key: {exc}") from exc
        except TypeError as exc:
            raise DataError(f"malformed schema: {exc}") from exc
        return cls(columns=cols, label=label)

    @classmethod
    def from_json_file(cls, path) -> "Schema":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class RawTable:
    """Parsed CSV contents: header and string records."""

    header: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]

    @property
    def n(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class Dataset:
    """Encoded observation matrix with +/-1 labels and a column manifest.

    ``columns`` records, per encoded column, the raw source column and an
    encoding tag: ``"numeric"`` for pass-through columns and ``"=<value>"``
    for one-hot indicator columns.
    """

    X: np.ndarray
    y: np.ndarray
    columns: tuple[tuple[str, str], ...]

    def __post_init__(self):
        X = np.ascontiguousarray(self.X, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.int64)
        if X.ndim != 2:
            raise DataError("X must be a 2-d matrix")
        if y.shape != (X.shape[0],):
            raise DataError("y length must match the number of rows")
        if X.shape[0] >= 1 and not np.all(np.abs(y) == 1):
            raise DataError("labels must lie in {-1,+1}")
        if X.shape[1] != len(self.columns):
            raise DataError("column manifest length must match X width")
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def take(self, idx: np.ndarray) -> "Dataset":
        """New dataset from a row index array (copies; order preserved)."""
        return Dataset(X=self.X[idx], y=self.y[idx], columns=self.columns)


@dataclass(frozen=True)
class FeatureSplit:
    """Partition of encoded column indices into public and private sets."""

    public_cols: tuple[int, ...]
    private_cols: tuple[int, ...]

    def __post_init__(self):
        pub, pri = set(self.public_cols), set(self.private_cols)
        if pub & pri:
            raise DataError("public and private column sets overlap")
        object.__setattr__(self, "public_cols", tuple(sorted(pub)))
        object.__setattr__(self, "private_cols", tuple(sorted(pri)))

    def validate_for(self, d: int) -> None:
        if set(self.public_cols) | set(self.private_cols) != set(range(d)):
            raise DataError(f"split does not cover all {d} columns exactly once")

    @classmethod
    def from_public_sources(
        cls, columns: tuple[tuple[str, str], ...], public_sources
    ) -> "FeatureSplit":
        """Split encoded columns by the raw source column names marked public."""
        public_sources = set(public_sources)
        known = {src for src, _ in columns}
        unknown = public_sources - known
        if unknown:
            raise DataError(f"public columns not present in dataset: {sorted(unknown)}")
        pub = tuple(i for i, (src, _) in enumerate(columns) if src in public_sources)
        pri = tuple(i for i, (src, _) in enumerate(columns) if src not in public_sources)
        return cls(public_cols=pub, private_cols=pri)

    @classmethod
    def all_private(cls, d: int) -> "FeatureSplit":
        return cls(public_cols=(), private_cols=tuple(range(d)))


def load_csv(path, schema: Schema) -> RawTable:
    """Read an RFC-4180-style CSV with a header row.

    Cell whitespace is stripped. Raises ``DataError`` on a missing header,
    a ragged row (the 0-based data row index is reported), or when a column
    the schema reads (a feature or the label) is absent from the header or
    named there more than once.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataError(f"{path}: missing header") from None
        rows = []
        for i, row in enumerate(reader):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path}: ragged row at index {i}")
            rows.append(tuple(cell.strip() for cell in row))
    if schema.label.name not in header:
        raise DataError(f"{path}: missing label column {schema.label.name!r}")
    for name in schema.feature_names:
        if name not in header:
            raise DataError(f"{path}: missing column {name!r}")
    for name in (schema.label.name, *schema.feature_names):
        if header.count(name) > 1:
            raise DataError(f"{path}: column {name!r} is named {header.count(name)} times in the header")
    return RawTable(header=tuple(header), rows=tuple(rows))


def encode(raw: RawTable, schema: Schema) -> Dataset:
    """Expand categoricals to 0/1 one-hot columns and map labels to +/-1.

    Numeric columns pass through unchanged (normalization is a separate
    step); a token that is not a finite number, ``nan`` and ``inf`` included,
    raises ``DataError`` naming the column and the kept-row index. Rows
    containing missing values in any schema column are dropped, with the
    count reported through a warning. One-hot columns are created for the
    values observed in each categorical column, in sorted order.
    """
    col_idx = {name: raw.header.index(name) for name in schema.feature_names}
    label_idx = raw.header.index(schema.label.name)
    used = list(col_idx.values()) + [label_idx]

    kept = [r for r in raw.rows if not any(r[i] in MISSING_TOKENS for i in used)]
    dropped = raw.n - len(kept)
    if dropped:
        warnings.warn(f"encode: dropped {dropped} rows with missing values", stacklevel=2)
    if not kept:
        raise DataError("no rows remain after dropping missing values")

    label_map = {schema.label.positive: 1, schema.label.negative: -1}
    y = np.empty(len(kept), dtype=np.int64)
    for i, row in enumerate(kept):
        v = row[label_idx]
        if v not in label_map:
            raise DataError(f"unseen label value {v!r} at row {i}")
        y[i] = label_map[v]

    blocks: list[np.ndarray] = []
    manifest: list[tuple[str, str]] = []
    for spec in schema.columns:
        values = [row[col_idx[spec.name]] for row in kept]
        if spec.kind == NUMERIC:
            try:
                col = np.array([float(v) for v in values], dtype=np.float64)
            except ValueError as exc:
                raise DataError(f"non-numeric token in column {spec.name!r}: {exc}") from exc
            bad = np.flatnonzero(~np.isfinite(col))
            if bad.size:
                i = int(bad[0])
                raise DataError(f"non-finite value {values[i]!r} in column {spec.name!r} at row {i}")
            blocks.append(col[:, None])
            manifest.append((spec.name, NUMERIC))
        else:
            levels = sorted(set(values))
            lookup = {v: j for j, v in enumerate(levels)}
            onehot = np.zeros((len(values), len(levels)), dtype=np.float64)
            onehot[np.arange(len(values)), [lookup[v] for v in values]] = 1.0
            blocks.append(onehot)
            manifest.extend((spec.name, f"={v}") for v in levels)

    X = np.hstack(blocks) if blocks else np.empty((len(kept), 0))
    return Dataset(X=X, y=y, columns=tuple(manifest))


def normalize(ds: Dataset, schema: Schema) -> Dataset:
    """Map every column into [-1, 1].

    Numeric entry v with the schema's declared range (min, max) maps to
    ``2(v - min)/(max - min) - 1`` and is then clamped to [-1, 1]; one-hot
    indicator columns map {0,1} onto {-1,+1}. The ranges are exogenous, so
    nothing about the data's extremes reaches the output.
    """
    X = ds.X.copy()
    for j, (src, tag) in enumerate(ds.columns):
        if tag == NUMERIC:
            spec = schema.column(src)
            lo, hi = spec.min, spec.max
            X[:, j] = np.clip(2.0 * (X[:, j] - lo) / (hi - lo) - 1.0, -1.0, 1.0)
        else:
            X[:, j] = 2.0 * X[:, j] - 1.0
    return Dataset(X=X, y=ds.y, columns=ds.columns)


def balance_indices(y: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Row indices that equalize label counts by subsampling the majority class.

    Returns 2*min(n+, n-) indices: the minority class in full, the majority
    class subsampled uniformly without replacement, in shuffled order.
    """
    pos = np.flatnonzero(y == 1)
    neg = np.flatnonzero(y == -1)
    if len(pos) == 0 or len(neg) == 0:
        raise DataError("balance requires both labels to be present")
    m = min(len(pos), len(neg))
    pos = rng.permutation(pos)[:m]
    neg = rng.permutation(neg)[:m]
    return rng.permutation(np.concatenate([pos, neg]))


def split_indices(n: int, test_frac: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(train, test) row indices of a disjoint uniform-random partition of n
    rows with |test| = round(test_frac * n)."""
    if not 0.0 < test_frac < 1.0:
        raise DataError(f"test_frac must lie strictly between 0 and 1, got {test_frac}")
    n_test = int(round(test_frac * n))
    if n_test < 1:
        raise DataError(f"test_frac={test_frac} of {n} rows would leave an empty test set")
    if n - n_test < 1:
        raise DataError("split would leave an empty training set")
    perm = rng.permutation(n)
    return perm[n_test:], perm[:n_test]
