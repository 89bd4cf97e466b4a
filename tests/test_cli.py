import json
import os
from pathlib import Path

import pytest

from dpboost import Schema, cli, harness
from dpboost.cli import main

from conftest import write_synthetic_csv


def write_run_config(tmp_path, csv_path, schema_path, out_name="out", **overrides):
    cfg = {
        "dataset": csv_path,
        "schema": schema_path,
        "algorithm": "brc",
        "epsilons": [0.5, 4.0],
        "public_columns": ["pubnum"],
        "rounds": 3,
        "repeats": 2,
        "seed": 3,
        "test_frac": 0.2,
        "output_dir": str(tmp_path / out_name),
    }
    cfg.update(overrides)
    path = tmp_path / f"{out_name}.json"
    path.write_text(json.dumps(cfg))
    return path, cfg["output_dir"]


class TestRunCommand:
    @pytest.mark.parametrize("algorithm", ["brc", "logreg", "public-only"])
    def test_run_writes_artifacts(self, tmp_path, capsys, algorithm):
        csv_path, schema_path = write_synthetic_csv(str(tmp_path))
        cfg_path, out_dir = write_run_config(tmp_path, csv_path, schema_path, algorithm=algorithm)
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert os.path.exists(os.path.join(out_dir, "summary.csv"))
        assert os.path.exists(os.path.join(out_dir, "summary.svg"))
        assert os.path.exists(os.path.join(out_dir, "records.jsonl"))
        assert f"{algorithm} eps=0.5" in capsys.readouterr().out

    def test_byte_identical_reruns(self, tmp_path):
        csv_path, schema_path = write_synthetic_csv(str(tmp_path))
        cfg1, out1 = write_run_config(tmp_path, csv_path, schema_path, out_name="a")
        cfg2, out2 = write_run_config(tmp_path, csv_path, schema_path, out_name="b")
        assert main(["run", "--config", str(cfg1)]) == 0
        assert main(["run", "--config", str(cfg2)]) == 0
        with open(os.path.join(out1, "summary.csv"), "rb") as fh:
            first = fh.read()
        with open(os.path.join(out2, "summary.csv"), "rb") as fh:
            second = fh.read()
        assert first == second

    def test_bad_config_is_fatal(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"algorithm": "brc"}))
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("dpboost: error: bad ExperimentConfig")
        # valid JSON that is not an object
        for config in ([1, 2], "x", None):
            path.write_text(json.dumps(config))
            assert main(["run", "--config", str(path)]) == 1
            assert capsys.readouterr().err.startswith("dpboost: error: config must be a JSON object")
        # a schema with an unknown key at the top level, in a column or in the label
        csv_path, schema_path = write_synthetic_csv(str(tmp_path))
        with open(schema_path, encoding="utf-8") as fh:
            schema = json.load(fh)
        bad_schemas = {
            "stray": {**schema, "stray": 1},
            "levels": {**schema, "columns": [{**c, "levels": ["x"]} for c in schema["columns"]]},
            "flip": {**schema, "label": {**schema["label"], "flip": True}},
        }
        cfg_path, _ = write_run_config(tmp_path, csv_path, schema_path)
        for key, bad in bad_schemas.items():
            Path(schema_path).write_text(json.dumps(bad))
            assert main(["run", "--config", str(cfg_path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("dpboost: error:") and f"'{key}'" in err

    def test_partial_failure_exit_code(self, tmp_path):
        # tiny dataset + dp-logreg at hopeless epsilon: some cells fail
        csv_path, schema_path = write_synthetic_csv(str(tmp_path), n=30)
        cfg_path, _ = write_run_config(
            tmp_path, csv_path, schema_path,
            algorithm="dp-logreg", epsilons=[0.0001, 8.0], repeats=1,
        )
        assert main(["run", "--config", str(cfg_path)]) == 2

    def test_every_cell_failed_reports_why(self, tmp_path, capsys):
        # dp-logreg at hopeless epsilons on a tiny dataset fails every cell:
        # the cells' errors reach stderr, records are kept, and no summary is written
        csv_path, schema_path = write_synthetic_csv(str(tmp_path), n=30)
        cfg_path, out_dir = write_run_config(
            tmp_path, csv_path, schema_path, algorithm="dp-logreg", epsilons=[0.0001, 0.0002]
        )
        assert main(["run", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("is unfixable") == 4
        assert "every cell failed" in err
        assert os.path.exists(os.path.join(out_dir, "records.jsonl"))
        assert not os.path.exists(os.path.join(out_dir, "summary.csv"))
        assert not os.path.exists(os.path.join(out_dir, "summary.svg"))

    def test_brc_without_public_columns_rejected_before_any_cell(self, tmp_path, capsys, monkeypatch):
        def no_cell(*args):
            raise AssertionError("a repeat ran")

        monkeypatch.setattr(harness, "_run_repeat", no_cell)
        csv_path, schema_path = write_synthetic_csv(str(tmp_path))
        cfg_path, _ = write_run_config(tmp_path, csv_path, schema_path, public_columns=[])
        assert main(["run", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("dpboost: error:") and "brc needs at least one public column" in err

    @pytest.mark.parametrize("output_dir", [5, ["out"]], ids=["int", "list"])
    def test_non_string_output_dir_rejected_before_any_cell(
        self, tmp_path, capsys, monkeypatch, output_dir
    ):
        def no_cell(*args):
            raise AssertionError("a repeat ran")

        monkeypatch.setattr(harness, "_run_repeat", no_cell)
        csv_path, schema_path = write_synthetic_csv(str(tmp_path))
        cfg_path, _ = write_run_config(tmp_path, csv_path, schema_path, output_dir=output_dir)
        assert main(["run", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("dpboost: error:") and "output_dir" in err


def write_toy_config(tmp_path, **overrides):
    cfg = {
        "n": 100,
        "flip_prob": 0.49,
        "rounds": 5,
        "c1": 2,
        "c2": 2,
        "repeats": 2,
        "seed": 0,
        "epsilons": [0.5, 5.0],
        "output_dir": str(tmp_path / "toyout"),
    }
    cfg.update(overrides)
    path = tmp_path / "toy.json"
    path.write_text(json.dumps({k: v for k, v in cfg.items() if v is not None}))
    return path


class TestToyCommand:
    def test_toy_writes_csv_and_traces(self, tmp_path, capsys):
        path = write_toy_config(tmp_path)
        assert main(["toy", "--config", str(path)]) == 0
        assert os.path.exists(tmp_path / "toyout" / "toy_accuracy.csv")
        assert os.path.exists(tmp_path / "toyout" / "toy_traces.json")
        out = capsys.readouterr().out
        assert "toy eps=0.5" in out and "median=" in out

    @pytest.mark.parametrize(
        "overrides",
        [
            {"repeats": 2.5},
            {"n": 100.0},
            {"seed": 1.5},
            {"seed": -1},
            {"rounds": 2.5},
            {"c1": 0.5},
            {"epsilons": None},
            {"epsilons": "0.5"},
            {"epsilons": ["0.5"]},
            {"epsilons": [0.5, -1.0]},
            {"epsilons": [0.5, 0.5]},
            {"c1": True},
        ],
        ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()),
    )
    def test_bad_values_rejected(self, tmp_path, capsys, overrides):
        path = write_toy_config(tmp_path, **overrides)
        assert main(["toy", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        (name,) = overrides
        assert err.startswith("dpboost: error:") and name in err
        assert not os.path.exists(tmp_path / "toyout")

    @pytest.mark.parametrize("output_dir", [5, ["out"]], ids=["int", "list"])
    def test_non_string_output_dir_rejected_before_the_sweep(
        self, tmp_path, capsys, monkeypatch, output_dir
    ):
        def no_sweep(*args):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "run_toy_sweep", no_sweep)
        path = write_toy_config(tmp_path, output_dir=output_dir)
        assert main(["toy", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("dpboost: error:") and "output_dir" in err

    @pytest.mark.parametrize("config", [[1, 2], "x", None], ids=["list", "string", "null"])
    def test_non_object_config_rejected(self, tmp_path, capsys, config):
        path = tmp_path / "toy.json"
        path.write_text(json.dumps(config))
        assert main(["toy", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("dpboost: error: toy config must be a JSON object")


class TestSensitivityCheckCommand:
    def test_exit_zero_and_report(self, capsys):
        assert main(["sensitivity-check", "--max-n", "4"]) == 0
        out = capsys.readouterr().out
        assert "worst oracle/bound ratio" in out
        assert "VIOLATION" not in out

    @pytest.mark.parametrize("max_n", ["1", "9"])
    def test_max_n_outside_oracle_range_rejected(self, capsys, max_n):
        assert main(["sensitivity-check", "--max-n", max_n]) == 1
        captured = capsys.readouterr()
        assert "--max-n must lie in [2, 8]" in captured.err
        assert "oracle=" not in captured.out


class TestPlotCommand:
    def test_plot_from_csv(self, tmp_path):
        src = tmp_path / "summary.csv"
        src.write_text(
            "algorithm,epsilon,mean_accuracy,std,count\n"
            "brc,0.01,0.583300,0.102800,10\n"
            "brc,0.16,0.727500,0.004500,10\n"
        )
        out = tmp_path / "chart.svg"
        assert main(["plot", "--in", str(src), "--out", str(out)]) == 0
        assert out.read_text().startswith("<?xml")


CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_committed_config_loads(path, tmp_path, monkeypatch, capsys):
    if path.name.endswith(".schema.json"):
        Schema.from_json_file(path)
    elif path.name == "toy.json":
        # the whole toy sweep, read as ``dpboost toy`` reads it
        monkeypatch.chdir(tmp_path)
        assert main(["toy", "--config", str(path)]) == 0
        assert "toy eps=100" in capsys.readouterr().out
    else:
        assert harness.ExperimentConfig.from_json_file(path).algorithm in harness.ALGORITHMS
