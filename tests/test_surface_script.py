"""The settable surface that scripts/surface.py reports: a new option has to
change this pin on purpose."""

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SCRIPT = REPO / "scripts" / "surface.py"


def load_surface_module():
    spec = importlib.util.spec_from_file_location("surface", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_settable_value_count_is_pinned():
    values = load_surface_module().settable_values()
    assert len(values) == len(set(values)) == 40
    assert "boosting.RoundRecord.test_accuracy" in values
    assert "dpboost sensitivity-check --max-n" in values


def test_script_prints_line_count_and_total():
    out = subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, text=True, check=True, cwd=REPO
    ).stdout.splitlines()
    assert out[0].startswith("src lines: ") and int(out[0].split(": ")[1]) > 0
    assert out[-1] == "settable values: 40"
    assert len(out) == 40 + 2
