import csv
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpboost import data
from dpboost import (
    ColumnSpec,
    DataError,
    Dataset,
    FeatureSplit,
    LabelSpec,
    Schema,
    balance_indices,
    encode,
    load_csv,
    normalize,
    split_indices,
)
from dpboost.noise import make_rng


def simple_schema():
    return Schema(
        columns=(
            ColumnSpec("a", "numeric", min=0.0, max=100.0),
            ColumnSpec("sex", "categorical"),
        ),
        label=LabelSpec("label", positive="+", negative="-"),
    )


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def row(raw, i):
    """Row i of a RawTable as its stripped strings."""
    return tuple(levels[c] for levels, c in zip(raw.levels, raw.codes[i]))


class TestLoadCsv:
    def test_three_rows(self, tmp_path):
        path = write(tmp_path, "a,b,label\n1,2,+\n3,4,-\n5,6,+\n")
        schema = Schema(
            columns=(ColumnSpec("a", "numeric", min=0, max=10), ColumnSpec("b", "numeric", min=0, max=10)),
            label=LabelSpec("label", "+", "-"),
        )
        raw = load_csv(path, schema)
        assert raw.n == 3
        assert raw.header == ("a", "b", "label")
        assert raw.levels == (("1", "3", "5"), ("2", "4", "6"), ("+", "-"))
        assert raw.codes.tolist() == [[0, 0, 0], [1, 1, 1], [2, 2, 0]]
        assert raw.codes.dtype == np.int32 and not raw.codes.flags.writeable
        assert row(raw, 0) == ("1", "2", "+")

    def test_ragged_row_reports_index(self, tmp_path):
        path = write(tmp_path, "a,b,label\n1,2,+\n3,4\n")
        with pytest.raises(DataError, match="ragged row at index 1"):
            load_csv(path, simple_schema())

    def test_empty_file_missing_header(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(DataError, match="missing header"):
            load_csv(path, simple_schema())

    def test_label_absent_from_header(self, tmp_path):
        path = write(tmp_path, "a,sex\n1,M\n")
        with pytest.raises(DataError, match="missing label column"):
            load_csv(path, simple_schema())

    @pytest.mark.parametrize("header, name", [("a,a,sex,label", "a"), ("a,sex,label,label", "label")])
    def test_column_named_twice_rejected(self, tmp_path, header, name):
        path = write(tmp_path, f"{header}\n1,2,M,+\n")
        with pytest.raises(DataError, match=f"column '{name}' is named 2 times"):
            load_csv(path, simple_schema())

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "nope.csv", simple_schema())

    def test_whitespace_stripped(self, tmp_path):
        path = write(tmp_path, "a, sex, label\n1, M , +\n1,M,+\n")
        raw = load_csv(path, simple_schema())
        assert row(raw, 0) == ("1", "M", "+")
        # cells equal after stripping share one level and one code
        assert raw.levels == (("1",), ("M",), ("+",))
        assert raw.codes.tolist() == [[0, 0, 0], [0, 0, 0]]


class TestEncode:
    def test_one_hot_expansion(self, tmp_path):
        path = write(tmp_path, "a,sex,label\n1,M,+\n2,F,-\n")
        raw = load_csv(path, simple_schema())
        ds = encode(raw, simple_schema())
        assert ds.columns == (("a", "numeric"), ("sex", "=F"), ("sex", "=M"))
        # one-hot block rows: M -> (F=0, M=1), F -> (F=1, M=0)
        assert ds.X[0].tolist() == [1.0, 0.0, 1.0]
        assert ds.X[1].tolist() == [2.0, 1.0, 0.0]

    def test_numeric_passthrough(self, tmp_path):
        path = write(tmp_path, "a,sex,label\n3.5,M,+\n")
        ds = encode(load_csv(path, simple_schema()), simple_schema())
        assert ds.X[0, 0] == 3.5

    def test_label_mapping(self, tmp_path):
        path = write(tmp_path, "a,sex,label\n1,M,+\n2,F,-\n3,M,+\n")
        ds = encode(load_csv(path, simple_schema()), simple_schema())
        assert ds.y.tolist() == [1, -1, 1]

    def test_unseen_label_value(self, tmp_path):
        path = write(tmp_path, "a,sex,label\n1,M,wat\n")
        with pytest.raises(DataError, match="unseen label value"):
            encode(load_csv(path, simple_schema()), simple_schema())

    def test_non_numeric_token(self, tmp_path):
        path = write(tmp_path, "a,sex,label\nxyz,M,+\n")
        with pytest.raises(DataError, match="non-numeric token"):
            encode(load_csv(path, simple_schema()), simple_schema())

    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
    def test_non_finite_token(self, tmp_path, token):
        # the row index counts kept rows: the '?' row before it is dropped
        path = write(tmp_path, f"a,sex,label\n1,M,+\n2,?,-\n3,F,-\n{token},M,+\n")
        with pytest.warns(UserWarning, match="dropped 1 rows"):
            with pytest.raises(DataError, match=f"non-finite value '{token}' in column 'a' at row 2"):
                encode(load_csv(path, simple_schema()), simple_schema())

    def test_missing_rows_dropped_with_count(self, tmp_path):
        path = write(tmp_path, "a,sex,label\n1,M,+\n2,?,-\n,F,+\n4,F,-\n")
        raw = load_csv(path, simple_schema())
        with pytest.warns(UserWarning, match="dropped 2 rows"):
            ds = encode(raw, simple_schema())
        assert ds.n == 2

    def test_row_count_preserved_without_missing(self, tmp_path):
        path = write(tmp_path, "a,sex,label\n" + "".join(f"{i},M,+\n" for i in range(7)))
        raw = load_csv(path, simple_schema())
        ds = encode(raw, simple_schema())
        assert ds.n == raw.n == 7


class TestNormalize:
    def test_endpoints_and_midpoint(self):
        ds = Dataset(
            X=np.array([[0.0], [100.0], [50.0]]),
            y=np.array([1, -1, 1]),
            columns=(("a", "numeric"),),
        )
        out = normalize(ds, simple_schema())
        assert out.X[:, 0].tolist() == [-1.0, 1.0, 0.0]

    def test_clamp_above_range(self):
        ds = Dataset(X=np.array([[150.0]]), y=np.array([1]), columns=(("a", "numeric"),))
        out = normalize(ds, simple_schema())
        assert out.X[0, 0] == 1.0

    def test_one_hot_to_plus_minus(self):
        ds = Dataset(
            X=np.array([[1.0, 0.0], [0.0, 1.0]]),
            y=np.array([1, -1]),
            columns=(("sex", "=F"), ("sex", "=M")),
        )
        out = normalize(ds, simple_schema())
        assert out.X.tolist() == [[1.0, -1.0], [-1.0, 1.0]]

    def test_missing_range_errors(self):
        # normalize never derives a range from the data: a numeric column
        # without both bounds is rejected when the schema is built
        for bounds in ({}, {"min": 0.0}, {"max": 100.0}):
            with pytest.raises(DataError, match="'a': a numeric column needs a declared min and max"):
                ColumnSpec("a", "numeric", **bounds)

    def test_schema_without_numeric_range_rejected(self, tmp_path):
        path = write(tmp_path, json.dumps({
            "columns": [{"name": "sex", "kind": "categorical"}, {"name": "a", "kind": "numeric", "min": 0}],
            "label": {"name": "label", "positive": "+", "negative": "-"},
        }), name="schema.json")
        with pytest.raises(DataError, match="'a': a numeric column needs a declared min and max"):
            Schema.from_json_file(path)

    @pytest.mark.parametrize("bounds", [
        {"min": 0.0, "max": float("inf")},
        {"min": float("-inf"), "max": 1.0},
        {"min": float("nan"), "max": 1.0},
    ])
    def test_non_finite_range_rejected(self, bounds):
        with pytest.raises(DataError, match="'a': m(in|ax) must be finite"):
            ColumnSpec("a", "numeric", **bounds)

    def test_infinite_range_in_schema_file_rejected(self, tmp_path):
        # json.loads reads the non-standard token Infinity as float('inf')
        path = write(tmp_path, '{"columns": [{"name": "a", "kind": "numeric", "min": 0, "max": Infinity}], '
                               '"label": {"name": "label", "positive": "+", "negative": "-"}}', name="schema.json")
        with pytest.raises(DataError, match="'a': max must be finite, got inf"):
            Schema.from_json_file(path)

    def test_degenerate_range(self):
        with pytest.raises(DataError, match="range requires min < max"):
            ColumnSpec("a", "numeric", min=5.0, max=5.0)

    def test_shape_preserved_and_bounded(self):
        rng = make_rng(0)
        ds = Dataset(
            X=rng.uniform(-20, 120, size=(50, 1)),
            y=np.where(rng.random(50) < 0.5, 1, -1),
            columns=(("a", "numeric"),),
        )
        out = normalize(ds, simple_schema())
        assert out.X.shape == ds.X.shape
        assert np.max(np.abs(out.X)) <= 1.0

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_all_outputs_in_range(self, v):
        ds = Dataset(X=np.array([[v]]), y=np.array([1]), columns=(("a", "numeric"),))
        out = normalize(ds, simple_schema())
        assert -1.0 <= out.X[0, 0] <= 1.0


def reference_load_csv(path, schema):
    """The row-wise reader that load_csv replaced: (header, rows of stripped cells)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataError(f"{path}: missing header") from None
        rows = []
        for i, r in enumerate(reader):
            if not r:
                continue
            if len(r) != len(header):
                raise DataError(f"{path}: ragged row at index {i}")
            rows.append(tuple(cell.strip() for cell in r))
    if schema.label.name not in header:
        raise DataError(f"{path}: missing label column {schema.label.name!r}")
    for name in schema.feature_names:
        if name not in header:
            raise DataError(f"{path}: missing column {name!r}")
    for name in (schema.label.name, *schema.feature_names):
        if header.count(name) > 1:
            raise DataError(f"{path}: column {name!r} is named {header.count(name)} times in the header")
    return tuple(header), tuple(rows)


def reference_encode(header, rows, schema):
    """The row-wise encode that per-column codes replaced: per-column blocks, then hstack."""
    col_idx = {name: header.index(name) for name in schema.feature_names}
    label_idx = header.index(schema.label.name)
    used = list(col_idx.values()) + [label_idx]
    kept = [r for r in rows if not any(r[i] in data.MISSING_TOKENS for i in used)]
    dropped = len(rows) - len(kept)
    if dropped:
        warnings.warn(f"encode: dropped {dropped} rows with missing values", stacklevel=2)
    if not kept:
        raise DataError("no rows remain after dropping missing values")
    label_map = {schema.label.positive: 1, schema.label.negative: -1}
    y = np.empty(len(kept), dtype=np.int64)
    for i, r in enumerate(kept):
        v = r[label_idx]
        if v not in label_map:
            raise DataError(f"unseen label value {v!r} at row {i}")
        y[i] = label_map[v]
    blocks, manifest = [], []
    for spec in schema.columns:
        values = [r[col_idx[spec.name]] for r in kept]
        if spec.kind == "numeric":
            try:
                col = np.array([float(v) for v in values], dtype=np.float64)
            except ValueError as exc:
                raise DataError(f"non-numeric token in column {spec.name!r}: {exc}") from exc
            bad = np.flatnonzero(~np.isfinite(col))
            if bad.size:
                i = int(bad[0])
                raise DataError(f"non-finite value {values[i]!r} in column {spec.name!r} at row {i}")
            blocks.append(col[:, None])
            manifest.append((spec.name, "numeric"))
        else:
            levels = sorted(set(values))
            lookup = {v: j for j, v in enumerate(levels)}
            onehot = np.zeros((len(values), len(levels)), dtype=np.float64)
            onehot[np.arange(len(values)), [lookup[v] for v in values]] = 1.0
            blocks.append(onehot)
            manifest.extend((spec.name, f"={v}") for v in levels)
    X = np.hstack(blocks) if blocks else np.empty((len(kept), 0))
    return Dataset(X=X, y=y, columns=tuple(manifest))


def reference_normalize(ds, schema):
    """The column-by-column normalize that two broadcast expressions replaced."""
    X = ds.X.copy()
    for j, (src, tag) in enumerate(ds.columns):
        if tag == "numeric":
            spec = schema.column(src)
            lo, hi = spec.min, spec.max
            X[:, j] = np.clip(2.0 * (X[:, j] - lo) / (hi - lo) - 1.0, -1.0, 1.0)
        else:
            X[:, j] = 2.0 * X[:, j] - 1.0
    return Dataset(X=X, y=ds.y, columns=ds.columns)


def oracle_schema():
    # 'note' is in every file's header but the schema never reads it
    return Schema(
        columns=(
            ColumnSpec("a", "numeric", min=0.0, max=100.0),
            ColumnSpec("sex", "categorical"),
            ColumnSpec("b", "numeric", min=-5, max=5),
        ),
        label=LabelSpec("label", positive="+", negative="-"),
    )


def many_rows(n, late_level_at):
    """n rows, with the sex level 'X' first seen within three rows of
    ``late_level_at``; a and b also take values outside their ranges."""
    lines = ["a,sex,note,b,label"]
    for i in range(n):
        sex = "X" if i >= late_level_at and i % 3 == 0 else "MF"[i % 2]
        a = "?" if i % 17 == 5 else str(i % 130)
        lines.append(f"{a},{sex},n{i % 7},{(i % 11) - 5}.5,{'+-'[i % 3 == 1]}")
    return "\n".join(lines) + "\n"


# per case, the CSV and what preparing it gives: the shape of X, or the end of
# the DataError message
ORACLE_CASES = {
    "padded whitespace": ("a , sex,note, b ,label\n 1 , M ,x, 2 , +\n2,F , y ,-1,-\n  3,M,z,0.5,+ \n", (3, 4)),
    "missing in every column": (
        "a,sex,note,b,label\n1,M,?,1,+\n?,F,x,1,-\n,F,x,1,-\n2,?,x,1,+\n3,,x,1,+\n"
        "4,M,x,?,-\n5,M,x,,+\n6,M,x,1,?\n7,F,x,1,\n8,F,,2,-\n",
        (2, 4),
    ),
    "level only in a dropped row": ("a,sex,note,b,label\n1,M,x,1,+\n?,Q,x,1,-\n2,F,x,1,-\n", (2, 4)),
    "bad token only in a dropped row": ("a,sex,note,b,label\n1,M,x,1,+\nxyz,?,x,1,-\n2,F,x,1,-\n", (2, 4)),
    "first kept row's bad token named": (
        "a,sex,note,b,label\ndef,?,x,1,+\n1,M,x,1,+\nabc,F,x,1,-\ndef,M,x,1,-\n",
        "non-numeric token in column 'a': could not convert string to float: 'abc'",
    ),
    "non-finite token at its kept-row index": (
        "a,sex,note,b,label\ninf,?,x,1,+\n1,M,x,1,+\n2,?,x,1,-\n3,F,x,nan,-\n4,M,x,inf,+\n",
        "non-finite value 'nan' in column 'b' at row 1",
    ),
    "label only in a dropped row": ("a,sex,note,b,label\n1,M,x,1,+\n2,?,x,1,wat\n3,F,x,1,-\n", (2, 4)),
    "unseen label in a kept row": (
        "a,sex,note,b,label\n1,M,x,1,+\n2,?,x,1,wat\n3,F,x,1,yes\n", "unseen label value 'yes' at row 1",
    ),
    "blank lines before a ragged row": ("a,sex,note,b,label\n1,M,x,1,+\n\n\n2,F,x,1\n", "ragged row at index 3"),
    "header only": ("a,sex,note,b,label\n", "no rows remain after dropping missing values"),
    "every row dropped": ("a,sex,note,b,label\n?,M,x,1,+\n", "no rows remain after dropping missing values"),
    # 71 of the 1,200 rows have a '?'; sex takes the levels F, M and X
    "more rows than one block": (many_rows(1_200, late_level_at=700), (1_129, 5)),
}


# cell pools of the random tables: padding, missing tokens, and now and then
# a token that raises
NUMERIC_TOKENS = ["1", " 2", "2 ", "-3.5", "1e9", "99", "?", "", " ?", "nan", "x"]
LEVEL_TOKENS = ["M", "F ", " M", "F", "?", "", "1"]
LABEL_TOKENS = ["+", "-", " +", "- ", "?", "wat"]


def prepared(prepare):
    """What a preparation returns or raises, and the warnings it emits."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            encoded, ds = prepare()
            outcome = (encoded.X.tobytes(), ds.X.tobytes(), ds.X.shape, ds.X.flags.c_contiguous,
                       ds.y.tobytes(), ds.columns)
        except DataError as exc:
            outcome = str(exc)
    return outcome, [str(w.message) for w in caught]


def assert_matches_reference(path, schema):
    def current():
        encoded = encode(load_csv(path, schema), schema)
        return encoded, normalize(encoded, schema)

    def reference():
        encoded = reference_encode(*reference_load_csv(path, schema), schema)
        return encoded, reference_normalize(encoded, schema)

    got, want = prepared(current), prepared(reference)
    assert got == want
    return got


class TestIngestionOracle:
    """load_csv, encode and normalize against the row-wise code they replace:
    the same X, y and columns byte for byte, the same errors and warnings."""

    @pytest.mark.parametrize("block", [2, data._LOAD_BLOCK])
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_matches_row_wise_reference(self, tmp_path, monkeypatch, case, block):
        monkeypatch.setattr(data, "_LOAD_BLOCK", block)
        text, expected = ORACLE_CASES[case]
        got, _ = assert_matches_reference(write(tmp_path, text), oracle_schema())
        if isinstance(expected, str):  # the case reaches the branch it names
            assert isinstance(got, str) and got.endswith(expected)
        else:
            assert got[2] == expected

    def test_level_of_a_dropped_row_gets_no_column(self, tmp_path):
        text, _ = ORACLE_CASES["level only in a dropped row"]
        got, warned = assert_matches_reference(write(tmp_path, text), oracle_schema())
        assert ("sex", "=Q") not in got[-1]
        assert warned == ["encode: dropped 1 rows with missing values"]

    def test_a_level_first_seen_in_a_later_block(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data, "_LOAD_BLOCK", 512)
        path = write(tmp_path, ORACLE_CASES["more rows than one block"][0])
        raw = load_csv(path, oracle_schema())
        assert raw.n == 1_200 and raw.levels[1] == ("M", "F", "X")
        got, _ = assert_matches_reference(path, oracle_schema())
        assert ("sex", "=X") in got[-1]

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_normalize_matches_reference_in_either_layout(self, order):
        rng = make_rng(3)
        X = np.column_stack([rng.uniform(-50, 150, 40), rng.random(40) < 0.5, rng.uniform(-9, 9, 40)])
        ds = Dataset(X=np.asarray(X, order=order), y=np.ones(40, dtype=np.int64),
                     columns=(("a", "numeric"), ("sex", "=M"), ("b", "numeric")))
        got, want = normalize(ds, oracle_schema()), reference_normalize(ds, oracle_schema())
        assert got.X.tobytes() == want.X.tobytes() and got.X.flags.c_contiguous

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(NUMERIC_TOKENS), st.sampled_from(LEVEL_TOKENS), st.sampled_from(["n", "?", ""]),
        st.sampled_from(NUMERIC_TOKENS), st.sampled_from(LABEL_TOKENS),
    ), max_size=12))
    def test_random_tables_match_reference(self, tmp_path_factory, rows):
        text = "a,sex,note,b,label\n" + "".join(",".join(r) + "\n" for r in rows)
        assert_matches_reference(write(tmp_path_factory.mktemp("csv"), text), oracle_schema())


NUMERIC_RANGES = {"age": (17, 91), "fnlwgt": (10_000, 1_500_000), "edu_num": (1, 17),
                  "gain": (0, 100), "loss": (0, 50), "hours": (1, 100)}
CATEGORICAL_LEVELS = {"workclass": 7, "education": 16, "marital": 7, "occupation": 14,
                      "relationship": 6, "race": 5, "sex": 2, "country": 41}


def write_census_like_csv(tmp_path, n, seed=0):
    """A census-shaped file: 15 columns, one near-unique numeric column, the
    Adult level counts (104 encoded columns) and padded categorical cells."""
    rng = np.random.default_rng(seed)
    cols = {name: rng.integers(lo, hi, size=n).astype(str) for name, (lo, hi) in NUMERIC_RANGES.items()}
    for name, k in CATEGORICAL_LEVELS.items():
        cols[name] = np.char.add(f" {name}-", rng.integers(0, k, size=n).astype(str))
    cols["income"] = np.where(rng.random(n) < 0.25, " >50K", " <=50K")
    lines = [",".join(cols)] + [",".join(r) for r in zip(*cols.values())]
    schema = Schema(
        columns=tuple(ColumnSpec(k, "numeric", min=lo, max=hi) for k, (lo, hi) in NUMERIC_RANGES.items())
        + tuple(ColumnSpec(k, "categorical") for k in CATEGORICAL_LEVELS),
        label=LabelSpec("income", positive=">50K", negative="<=50K"),
    )
    return write(tmp_path, "\n".join(lines) + "\n"), schema


class TestIngestionMemory:
    N = 20_000

    def traced_peak(self, f, *args):
        tracemalloc.start()
        try:
            result = f(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result, peak

    def test_load_holds_codes_not_row_strings(self, tmp_path):
        # a table of this file's row strings takes 19 MB; its codes take
        # 1.2 MB, and reading in blocks bounds the row strings held at once
        path, schema = write_census_like_csv(tmp_path, self.N)
        raw, peak = self.traced_peak(load_csv, path, schema)
        assert raw.codes.shape == (self.N, 15)
        assert peak < 8e6

    def test_encode_allocates_one_matrix(self, tmp_path):
        # X is written in place: beside it only the kept codes and a few
        # row-length vectors, where a copy of X would add 17 MB
        path, schema = write_census_like_csv(tmp_path, self.N)
        raw = load_csv(path, schema)
        ds, peak = self.traced_peak(encode, raw, schema)
        assert ds.X.shape == (self.N, 104)
        assert peak < ds.X.nbytes + 5e6


class TestBalance:
    def labels(self, n_pos, n_neg):
        return np.array([1] * n_pos + [-1] * n_neg)

    def test_majority_subsampled(self):
        y = self.labels(10, 4)
        rows = balance_indices(y, make_rng(1))
        assert len(rows) == 8
        assert int(np.sum(y[rows] == 1)) == 4
        assert int(np.sum(y[rows] == -1)) == 4

    def test_already_balanced_keeps_multiset(self):
        rows = balance_indices(self.labels(5, 5), make_rng(2))
        assert sorted(rows.tolist()) == list(range(10))

    def test_deterministic_given_seed(self):
        y = self.labels(1000, 200)
        a = balance_indices(y, make_rng(3))
        b = balance_indices(y, make_rng(3))
        assert len(a) == 400
        assert np.array_equal(a, b)

    def test_output_is_sub_multiset(self):
        rows = balance_indices(self.labels(30, 12), make_rng(4))
        assert len(set(rows.tolist())) == len(rows) == 24  # no row picked twice
        assert rows.min() >= 0 and rows.max() < 42

    def test_one_class_absent(self):
        with pytest.raises(DataError, match="both labels"):
            balance_indices(self.labels(5, 0), make_rng(0))


class TestSplit:
    def test_sizes(self):
        train, test = split_indices(100, 0.1, make_rng(0))
        assert len(test) == 10 and len(train) == 90

    def test_fraction_zero_rejected(self):
        with pytest.raises(DataError):
            split_indices(100, 0.0, make_rng(0))

    def test_fraction_one_rejected(self):
        with pytest.raises(DataError):
            split_indices(100, 1.0, make_rng(0))

    @pytest.mark.parametrize("test_frac, side", [(0.1, "test"), (0.9, "training")])
    def test_empty_side_rejected(self, test_frac, side):
        with pytest.raises(DataError, match=f"empty {side} set"):
            split_indices(4, test_frac, make_rng(0))

    def test_deterministic(self):
        a = split_indices(100, 0.25, make_rng(5))
        b = split_indices(100, 0.25, make_rng(5))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_partition(self):
        train, test = split_indices(60, 0.3, make_rng(9))
        assert sorted(train.tolist() + test.tolist()) == list(range(60))


SCHEMA_COLUMN = {"name": "a", "kind": "numeric", "min": -5, "max": 5}
SCHEMA_LABEL = {"name": "label", "positive": "+", "negative": "-"}


class TestSchema:
    @pytest.mark.parametrize(
        "schema, match",
        [
            ({"columns": [{**SCHEMA_COLUMN, "min": "-5", "max": "5"}], "label": SCHEMA_LABEL}, "number"),
            ({"columns": [{**SCHEMA_COLUMN, "min": False, "max": True}], "label": SCHEMA_LABEL}, "number"),
            ({"columns": "abc", "label": SCHEMA_LABEL}, "list"),
            ({"columns": [SCHEMA_COLUMN], "label": SCHEMA_LABEL, "extra": 1}, "extra"),
            ({"columns": [{"name": "c", "kind": "categorical", "levels": ["x"]}], "label": SCHEMA_LABEL}, "levels"),
            ({"columns": [{**SCHEMA_COLUMN, "mx": 5}], "label": SCHEMA_LABEL}, "mx"),
            ({"columns": [SCHEMA_COLUMN], "label": {**SCHEMA_LABEL, "extra": 1}}, "extra"),
            ({"columns": [SCHEMA_COLUMN], "label": {**SCHEMA_LABEL, "positive": 1}}, "label positive"),
            ({"columns": [SCHEMA_COLUMN], "label": {"name": "label", "positive": "+"}}, "negative"),
            ({"label": SCHEMA_LABEL}, "columns"),
            ({"columns": [SCHEMA_COLUMN]}, "label"),
            ([SCHEMA_COLUMN], "list"),
        ],
        ids=[
            "string-range", "bool-range", "columns-string", "top-level-key", "column-levels",
            "column-typo", "label-key", "int-positive", "label-missing-key", "no-columns", "no-label",
            "not-an-object",
        ],
    )
    def test_malformed_schema_rejected(self, schema, match):
        with pytest.raises(DataError, match=match):
            Schema.from_dict(schema)


class TestFeatureSplit:
    def test_disjoint_required(self):
        with pytest.raises(DataError):
            FeatureSplit(public_cols=(0, 1), private_cols=(1, 2))

    def test_from_public_sources(self):
        columns = (("a", "numeric"), ("sex", "=F"), ("sex", "=M"), ("b", "numeric"))
        fs = FeatureSplit.from_public_sources(columns, ["sex"])
        assert fs.public_cols == (1, 2)
        assert fs.private_cols == (0, 3)

    def test_unknown_source_rejected(self):
        with pytest.raises(DataError, match="not present"):
            FeatureSplit.from_public_sources((("a", "numeric"),), ["nope"])

    def test_coverage_validation(self):
        fs = FeatureSplit(public_cols=(0,), private_cols=(1,))
        fs.validate_for(2)
        with pytest.raises(DataError):
            fs.validate_for(3)


class TestDatasetInvariants:
    def test_labels_checked(self):
        with pytest.raises(DataError):
            Dataset(X=np.zeros((2, 1)), y=np.array([1, 2]), columns=(("a", "numeric"),))

    def test_manifest_width_checked(self):
        with pytest.raises(DataError):
            Dataset(X=np.zeros((2, 2)), y=np.array([1, -1]), columns=(("a", "numeric"),))

    def test_arrays_frozen(self):
        ds = Dataset(X=np.zeros((2, 1)), y=np.array([1, -1]), columns=(("a", "numeric"),))
        with pytest.raises(ValueError):
            ds.X[0, 0] = 5.0
