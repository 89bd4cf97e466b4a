import json
import os

import pytest

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
    def test_run_writes_artifacts(self, tmp_path, capsys):
        csv_path, schema_path = write_synthetic_csv(str(tmp_path))
        cfg_path, out_dir = write_run_config(tmp_path, csv_path, schema_path)
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert os.path.exists(os.path.join(out_dir, "summary.csv"))
        assert os.path.exists(os.path.join(out_dir, "summary.svg"))
        assert os.path.exists(os.path.join(out_dir, "records.jsonl"))
        assert "brc eps=0.5" in capsys.readouterr().out

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

    def test_bad_config_is_fatal(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"algorithm": "brc"}))
        assert main(["run", "--config", str(path)]) == 1

    def test_partial_failure_exit_code(self, tmp_path):
        # tiny dataset + dp-logreg at hopeless epsilon: some cells fail
        csv_path, schema_path = write_synthetic_csv(str(tmp_path), n=30)
        cfg_path, _ = write_run_config(
            tmp_path, csv_path, schema_path,
            algorithm="dp-logreg", epsilons=[0.0001, 8.0], repeats=1,
        )
        assert main(["run", "--config", str(cfg_path)]) == 2

    def test_every_cell_failed_reports_why(self, tmp_path, capsys):
        # public-only without public columns fails every cell: the cells'
        # errors reach stderr, records are kept, and no summary is written
        csv_path, schema_path = write_synthetic_csv(str(tmp_path))
        cfg_path, out_dir = write_run_config(
            tmp_path, csv_path, schema_path, algorithm="public-only", public_columns=[]
        )
        assert main(["run", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("public-only baseline needs at least one public column") == 4
        assert "every cell failed" in err
        assert os.path.exists(os.path.join(out_dir, "records.jsonl"))
        assert not os.path.exists(os.path.join(out_dir, "summary.csv"))
        assert not os.path.exists(os.path.join(out_dir, "summary.svg"))


class TestToyCommand:
    def test_toy_writes_csv_and_traces(self, tmp_path, capsys):
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
        path = tmp_path / "toy.json"
        path.write_text(json.dumps(cfg))
        assert main(["toy", "--config", str(path)]) == 0
        assert os.path.exists(tmp_path / "toyout" / "toy_accuracy.csv")
        assert os.path.exists(tmp_path / "toyout" / "toy_traces.json")
        out = capsys.readouterr().out
        assert "toy eps=0.5" in out and "median=" in out


class TestBaselineCommand:
    def test_baseline_logreg(self, tmp_path):
        csv_path, schema_path = write_synthetic_csv(str(tmp_path))
        out = str(tmp_path / "base")
        code = main(
            [
                "baseline", "--algo", "logreg", "--data", csv_path,
                "--schema", schema_path, "--repeats", "2", "--out", out,
            ]
        )
        assert code == 0
        assert os.path.exists(os.path.join(out, "summary.csv"))

    def test_baseline_public_only_needs_columns(self, tmp_path):
        csv_path, schema_path = write_synthetic_csv(str(tmp_path))
        out = str(tmp_path / "base2")
        code = main(
            [
                "baseline", "--algo", "public-only", "--data", csv_path,
                "--schema", schema_path, "--repeats", "1",
                "--public-column", "pubnum", "--out", out,
            ]
        )
        assert code == 0


class TestSensitivityCheckCommand:
    def test_exit_zero_and_report(self, capsys):
        assert main(["sensitivity-check", "--max-n", "4"]) == 0
        out = capsys.readouterr().out
        assert "worst oracle/bound ratio" in out
        assert "VIOLATION" not in out


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
