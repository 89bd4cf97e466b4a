"""Tabular data pipeline: CSV ingestion, one-hot encoding, [-1,1] normalization,
and the row indices of label balancing and train/test splitting, plus the
loader (``config_from_dict``) and the integer, real-number and string checks
shared by the schema and the experiment and toy configs.

All types are immutable after construction and all operations are pure
functions of (input, seed), so repeated runs with the same seed produce
bit-identical outputs.

Ingestion holds no table of cell strings. ``load_csv`` reads the file in
blocks of rows and codes each column of a block against that column's
distinct values (``RawTable``); ``encode`` then works on the codes, parsing
each distinct numeric token once, and writes X into one matrix. On the
48,842-row census file this keeps the set-up's memory near the size of X.
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


def check_str(name: str, value) -> None:
    """Raise ``DataError`` unless ``value`` is a string."""
    if not isinstance(value, str):
        raise DataError(f"{name} must be a string, got {value!r}")


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
        for name in ("name", "positive", "negative"):
            check_str(f"label {name}", getattr(self, name))
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
        """Build from exactly the keys ``columns`` (a list) and ``label``; each
        column and the label go through ``config_from_dict``."""
        if not isinstance(d, dict) or set(d) != {"columns", "label"}:
            got = sorted(d) if isinstance(d, dict) else type(d).__name__
            raise DataError(f"a schema needs exactly the keys ['columns', 'label'], got {got}")
        if not isinstance(d["columns"], list):
            raise DataError(f"schema columns must be a list, got {type(d['columns']).__name__}")
        columns = tuple(config_from_dict(ColumnSpec, c) for c in d["columns"])
        return cls(columns=columns, label=config_from_dict(LabelSpec, d["label"]))

    @classmethod
    def from_json_file(cls, path) -> "Schema":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True, eq=False)
class RawTable:
    """Parsed CSV contents, coded column by column.

    ``levels[j]`` holds column j's distinct whitespace-stripped values in
    first-seen order, and ``codes[i, j]`` is the index into ``levels[j]`` of
    row i's value: a read-only ``(n, len(header))`` int32 matrix. Twelve of
    the census file's 15 columns take at most 91 distinct values over its
    48,842 rows, so a cell costs 4 bytes of codes where a table of row
    strings spends about 58.
    """

    header: tuple[str, ...]
    levels: tuple[tuple[str, ...], ...]
    codes: np.ndarray

    def __post_init__(self):
        self.codes.setflags(write=False)

    @property
    def n(self) -> int:
        return self.codes.shape[0]


@dataclass(frozen=True, eq=False)
class Dataset:
    """Encoded observation matrix with +/-1 labels and a column manifest.

    ``columns`` records, per encoded column, the raw source column and an
    encoding tag: ``"numeric"`` for pass-through columns and ``"=<value>"``
    for one-hot indicator columns. A C- or F-contiguous ``X`` keeps its
    layout (the BLAS rounds the two differently); any other is copied to C
    order.
    """

    X: np.ndarray
    y: np.ndarray
    columns: tuple[tuple[str, str], ...]

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        if not (X.flags.c_contiguous or X.flags.f_contiguous):
            X = np.ascontiguousarray(X)
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


# Rows read per block in load_csv: bounds the row strings held at once at
# _LOAD_BLOCK rows, whatever the length of the file.
_LOAD_BLOCK = 512


def load_csv(path, schema: Schema) -> RawTable:
    """Read an RFC-4180-style CSV with a header row.

    Cell whitespace is stripped. Raises ``DataError`` on a missing header,
    a ragged row (the 0-based data row index, blank lines included, is
    reported), or when a column the schema reads (a feature or the label) is
    absent from the header or named there more than once.

    The rows are coded ``_LOAD_BLOCK`` at a time, column by column, as they
    are read, so no table of row strings is ever held.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataError(f"{path}: missing header") from None
        # per column: each distinct stripped value and its code, and each
        # distinct raw cell and the code of its stripped value
        levels: list[dict[str, int]] = [{} for _ in header]
        lookups: list[dict[str, int]] = [{} for _ in header]
        rows, blocks = [], []
        for i, row in enumerate(reader):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path}: ragged row at index {i}")
            rows.append(row)
            if len(rows) == _LOAD_BLOCK:
                blocks.append(_code_rows(rows, levels, lookups))
                rows = []
        blocks.append(_code_rows(rows, levels, lookups))
    del lookups  # the raw cells go before the concatenation copies the codes
    if schema.label.name not in header:
        raise DataError(f"{path}: missing label column {schema.label.name!r}")
    for name in schema.feature_names:
        if name not in header:
            raise DataError(f"{path}: missing column {name!r}")
    for name in (schema.label.name, *schema.feature_names):
        if header.count(name) > 1:
            raise DataError(f"{path}: column {name!r} is named {header.count(name)} times in the header")
    return RawTable(header=tuple(header), levels=tuple(map(tuple, levels)), codes=np.concatenate(blocks))


def _code_rows(rows: list[list[str]], levels: list[dict[str, int]], lookups: list[dict[str, int]]) -> np.ndarray:
    """The ``(len(rows), len(levels))`` int32 codes of a block of rows, coded
    column by column; a cell not seen before is stripped once and added to
    its column's ``lookups`` and, if its stripped value is new, ``levels``."""
    codes = np.empty((len(rows), len(levels)), dtype=np.int32)
    for j, (level, lookup, cells) in enumerate(zip(levels, lookups, zip(*rows))):
        for cell in dict.fromkeys(cells):
            if cell not in lookup:
                lookup[cell] = level.setdefault(cell.strip(), len(level))
        codes[:, j] = np.fromiter(map(lookup.__getitem__, cells), np.int32, len(cells))
    return codes


def _numeric_table(name: str, levels: tuple[str, ...], codes: np.ndarray) -> np.ndarray:
    """The float value of each level, parsed once for each level that ``codes``
    uses; raises ``DataError`` at the first row of ``codes`` whose token is not
    a number, and only then at the first whose value is not finite."""
    table = np.zeros(len(levels))
    errors = {}
    for c in np.unique(codes):
        try:
            table[c] = float(levels[c])
        except ValueError as exc:
            errors[c] = exc
    if errors:
        exc = errors[codes[np.flatnonzero(np.isin(codes, list(errors)))[0]]]
        raise DataError(f"non-numeric token in column {name!r}: {exc}") from exc
    bad = np.flatnonzero(~np.isfinite(table[codes]))
    if bad.size:
        i = int(bad[0])
        raise DataError(f"non-finite value {levels[codes[i]]!r} in column {name!r} at row {i}")
    return table


def encode(raw: RawTable, schema: Schema) -> Dataset:
    """Expand categoricals to 0/1 one-hot columns and map labels to +/-1.

    Numeric columns pass through unchanged (normalization is a separate
    step); a token that is not a finite number, ``nan`` and ``inf`` included,
    raises ``DataError`` naming the column and the kept-row index. Rows
    containing missing values in any schema column are dropped, with the
    count reported through a warning. One-hot columns are created for the
    values observed in each categorical column, in sorted order.

    Every step works on ``raw``'s codes, and X is written in place into one
    C-ordered matrix.
    """
    col_idx = {name: raw.header.index(name) for name in schema.feature_names}
    label_idx = raw.header.index(schema.label.name)

    missing = np.zeros(raw.n, dtype=bool)
    for j in (*col_idx.values(), label_idx):
        missing |= np.array([v in MISSING_TOKENS for v in raw.levels[j]], dtype=bool)[raw.codes[:, j]]
    kept = np.flatnonzero(~missing)
    dropped = raw.n - len(kept)
    if dropped:
        warnings.warn(f"encode: dropped {dropped} rows with missing values", stacklevel=2)
    if not kept.size:
        raise DataError("no rows remain after dropping missing values")

    label_map = {schema.label.positive: 1, schema.label.negative: -1}
    codes = raw.codes[kept, label_idx]
    y = np.array([label_map.get(v, 0) for v in raw.levels[label_idx]], dtype=np.int64)[codes]
    unseen = np.flatnonzero(y == 0)
    if unseen.size:
        i = int(unseen[0])
        raise DataError(f"unseen label value {raw.levels[label_idx][codes[i]]!r} at row {i}")

    # per schema column, its kept rows' codes and the table that maps them
    # to a value (numeric) or to a one-hot offset (categorical)
    plan = []
    manifest: list[tuple[str, str]] = []
    for spec in schema.columns:
        levels = raw.levels[col_idx[spec.name]]
        codes = raw.codes[kept, col_idx[spec.name]]
        if spec.kind == NUMERIC:
            plan.append((spec.kind, len(manifest), codes, _numeric_table(spec.name, levels, codes)))
            manifest.append((spec.name, NUMERIC))
        else:
            seen = sorted((levels[c], c) for c in np.unique(codes))
            offset = np.zeros(len(levels), dtype=np.intp)
            offset[[c for _, c in seen]] = np.arange(len(seen))
            plan.append((spec.kind, len(manifest), codes, offset))
            manifest.extend((spec.name, f"={v}") for v, _ in seen)

    X = np.zeros((len(kept), len(manifest)))
    rows = np.arange(len(kept))
    for kind, first, codes, table in plan:
        if kind == NUMERIC:
            X[:, first] = table[codes]
        else:
            X[rows, first + table[codes]] = 1.0
    return Dataset(X=X, y=y, columns=tuple(manifest))


def normalize(ds: Dataset, schema: Schema) -> Dataset:
    """Map every column into [-1, 1].

    Numeric entry v with the schema's declared range (min, max) maps to
    ``2(v - min)/(max - min) - 1`` and is then clamped to [-1, 1]; one-hot
    indicator columns map {0,1} onto {-1,+1}. The ranges are exogenous, so
    nothing about the data's extremes reaches the output.

    The one-hot map is applied in place to a C-ordered copy of X, and the
    numeric columns are then overwritten by the range map of all of them at
    once: the element-wise operations are those of a column-by-column loop.
    """
    numeric = [j for j, (_, tag) in enumerate(ds.columns) if tag == NUMERIC]
    specs = [schema.column(ds.columns[j][0]) for j in numeric]
    lo = np.array([s.min for s in specs], dtype=np.float64)
    span = np.array([s.max - s.min for s in specs], dtype=np.float64)
    X = ds.X.copy()
    X *= 2.0
    X -= 1.0
    X[:, numeric] = np.clip(2.0 * (ds.X[:, numeric] - lo) / span - 1.0, -1.0, 1.0)
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
