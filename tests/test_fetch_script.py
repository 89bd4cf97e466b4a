"""Offline checks for the census fetch script's parsing, and for the full
experiment path and the README quick start on a fabricated file with the
same shape (header, missing tokens, label values) the script would produce."""

import importlib.util
import math
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from dpboost import ExperimentConfig, aggregate, run_experiment
from dpboost.harness import _prepare, load_prepared_dataset

REPO = Path(__file__).resolve().parents[1]


def load_fetch_module():
    spec = importlib.util.spec_from_file_location("fetch_data", REPO / "scripts" / "fetch_data.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCleanLines:
    def test_strips_label_periods_and_whitespace(self):
        fetch = load_fetch_module()
        raw = (
            "|1x3 Cross validator\n"
            "\n"
            "25, Private, 226802, 11th, 7, Never-married, Machine-op-inspct, "
            "Own-child, Black, Male, 0, 0, 40, United-States, <=50K.\n"
        )
        lines = fetch.clean_lines(raw)
        assert len(lines) == 1
        assert lines[0].endswith(",<=50K")
        assert " " not in lines[0].split(",")[1]

    def test_drops_short_rows(self):
        fetch = load_fetch_module()
        assert fetch.clean_lines("1,2,3\n") == []

    def test_header_matches_schema(self):
        fetch = load_fetch_module()
        import json

        schema = json.loads((REPO / "configs" / "adult.schema.json").read_text())
        names = [c["name"] for c in schema["columns"]] + [schema["label"]["name"]]
        assert fetch.HEADER.split(",") == names


def fabricate_adult_like(path, n=400, seed=0):
    """Small file with the census header, a few categorical levels, numeric
    ranges inside the schema bounds, missing '?' tokens, and both labels."""
    fetch = load_fetch_module()
    rng = np.random.default_rng(seed)
    workclasses = ["Private", "Self-emp-not-inc", "State-gov", "?"]
    educations = ["Bachelors", "HS-grad", "11th"]
    maritals = ["Married-civ-spouse", "Never-married", "Divorced"]
    occupations = ["Tech-support", "Craft-repair", "Sales"]
    relationships = ["Husband", "Not-in-family", "Own-child"]
    races = ["White", "Black", "Asian-Pac-Islander"]
    sexes = ["Male", "Female"]
    countries = ["United-States", "Mexico", "India"]
    rows = []
    for _ in range(n):
        age = rng.integers(17, 91)
        edu_num = rng.integers(1, 17)
        hours = rng.integers(1, 100)
        gain = rng.choice([0, 0, 0, 5000, 15024])
        # plant signal: income correlates with education-num and hours
        score = 0.2 * (edu_num - 8) + 0.05 * (hours - 40) + rng.normal(0, 1)
        label = ">50K" if score > 0 else "<=50K"
        rows.append(
            ",".join(
                map(
                    str,
                    [
                        age,
                        rng.choice(workclasses),
                        rng.integers(20000, 900000),
                        rng.choice(educations),
                        edu_num,
                        rng.choice(maritals),
                        rng.choice(occupations),
                        rng.choice(relationships),
                        rng.choice(races),
                        rng.choice(sexes),
                        gain,
                        rng.integers(0, 1000),
                        hours,
                        rng.choice(countries),
                        label,
                    ],
                )
            )
        )
    path.write_text(fetch.HEADER + "\n" + "\n".join(rows) + "\n")


class TestAdultShapedPipeline:
    def test_full_path_runs_on_fabricated_file(self, tmp_path):
        csv_path = tmp_path / "adult.csv"
        fabricate_adult_like(csv_path)
        cfg = ExperimentConfig(
            dataset=str(csv_path),
            schema=str(REPO / "configs" / "adult.schema.json"),
            algorithm="brc",
            epsilons=(0.16,),
            public_columns=("workclass", "fnlwgt", "race", "sex", "native-country"),
            rounds=5,
            c1=math.sqrt(2),
            c2=math.sqrt(2),
            repeats=2,
            seed=0,
            test_frac=0.1,
        )
        with pytest.warns(UserWarning, match="dropped"):
            full, schema = load_prepared_dataset(cfg)
        assert np.max(np.abs(full.X)) <= 1.0
        records = run_experiment(cfg, full=full)
        assert all(r.error is None for r in records), [r.error for r in records]
        rows = aggregate(records)
        assert 0.0 <= rows[0].mean_accuracy <= 1.0

    def test_readme_quick_start_reproduces_the_sweeps_repeat_0(self, tmp_path, monkeypatch):
        # Runs the README's first python block in a directory laid out like
        # a checkout, with a fabricated data/adult.csv, and compares its
        # training rows and test set with what a seed-0 sweep prepares for repeat 0.
        (tmp_path / "configs").mkdir()
        (tmp_path / "data").mkdir()
        shutil.copy(REPO / "configs" / "adult.schema.json", tmp_path / "configs")
        fabricate_adult_like(tmp_path / "data" / "adult.csv")
        block = re.search(r"```python\n(.*?)```", (REPO / "README.md").read_text(), re.S).group(1)
        monkeypatch.chdir(tmp_path)
        namespace = {}
        with pytest.warns(UserWarning, match="dropped"):
            exec(compile(block, "README.md", "exec"), namespace)

        cfg = ExperimentConfig(
            dataset="data/adult.csv",
            schema="configs/adult.schema.json",
            algorithm="brc",
            epsilons=(0.16,),
            public_columns=("workclass", "fnlwgt", "race", "sex", "native-country"),
            seed=0,
            test_frac=0.1,
        )
        with pytest.warns(UserWarning, match="dropped"):
            full, _ = load_prepared_dataset(cfg)
        train_rows, test, _ = _prepare(full, cfg, repeat=0)
        assert np.array_equal(namespace["train_rows"], train_rows)
        mine = namespace["test"]
        assert np.array_equal(mine.X, test.X) and np.array_equal(mine.y, test.y)
        assert mine.columns == test.columns
