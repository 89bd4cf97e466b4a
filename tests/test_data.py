import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
        assert raw.rows[0] == ("1", "2", "+")

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
        path = write(tmp_path, "a, sex, label\n1, M , +\n")
        raw = load_csv(path, simple_schema())
        assert raw.rows[0] == ("1", "M", "+")


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


class TestSchema:
    @pytest.mark.parametrize(
        "columns",
        [
            [{"name": "a", "kind": "numeric", "min": "-5", "max": "5"}],
            [{"name": "a", "kind": "numeric", "min": False, "max": True}],
            "abc",
        ],
        ids=["string-range", "bool-range", "columns-string"],
    )
    def test_malformed_schema_rejected(self, columns):
        d = {"columns": columns, "label": {"name": "label", "positive": "+", "negative": "-"}}
        with pytest.raises(DataError):
            Schema.from_dict(d)


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
