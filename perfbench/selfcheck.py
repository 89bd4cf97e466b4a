#!/usr/bin/env python3
"""Seconds-long self-check of the benchmark.

    python3 perfbench/selfcheck.py

1. ``BENCHMARK.json`` has the keys, names, units and bounds the runner
   relies on, and ``setup_s`` has the largest bound.
2. Every workload runs on a small census CSV (``--rows 3000``) with and
   without tracing; the last output line is the result object and names every
   end-to-end (trace 0) or per-layer (trace 1) metric with its unit.
3. In a directory holding only ``BENCHMARK.json`` and ``perfbench/`` (no
   ``src/``), the runner exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec: dict) -> None:
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    names = [w["name"] for w in spec["workloads"]]
    for section in ("end_to_end", "per_layer"):
        for m in spec[section]:
            names.append(m["name"])
            assert UNIT.match(m["unit"]), m
            assert m["better"] in ("lower", "higher"), m
    assert all(NAME.match(n) for n in names) and len(set(names)) == len(names)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60


def run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_spec(spec)
    print("BENCHMARK.json: ok")

    for w in spec["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, "--workload", w["name"], "--seed", "7", "--seconds", "0.1",
                       "--trace", str(trace), "--rows", "3000")
            last = proc.stdout.strip().splitlines()[-1]
            result = json.loads(last)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert proc.returncode == 0 and result["correct"] is True, proc.stdout + proc.stderr
            assert result["attempted"] >= 1 and result["failed"] == 0
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (w["name"], trace, set(want) ^ set(got))
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            print(f"{w['name']} trace {trace}: {len(got)} metrics with units: ok")

    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        name = spec["workloads"][0]["name"]
        proc = run(bare, "--workload", name, "--seed", "0", "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0, proc.stdout
        assert '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("bare directory without src/: exits non-zero without a result: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
