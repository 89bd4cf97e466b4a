#!/usr/bin/env python3
"""Steadiness proof: run the benchmark over several seeds and report, per
workload and end-to-end metric, the median and the quartile spread
(Q3 - Q1 of the runs, as ``statistics.quantiles(values, n=4)`` gives them,
divided by the median) against a third of the metric's bound.

    python3 perfbench/prove.py --seeds 10 [--workload toy-sweep ...] [--record]

Seeds run from 1 to ``--seeds``.

``--record`` also makes one traced run per workload (first seed) and writes
the medians, the spreads, the traced breakdown and the machine description to
``perfbench/baseline.json``, the recorded baseline of the current commit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    if proc.returncode != 0 or not last.startswith("{"):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed (exit {proc.returncode})")
    result = json.loads(last)
    with open(os.path.join(ROOT, ".bench_out", f"{workload}-seed{seed}-trace{trace}.json"),
              encoding="utf-8") as fh:
        result["detail"] = json.load(fh)
    return result


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = list(range(1, args.seeds + 1))
    steady = True
    recorded = {}
    for name in names:
        runs = []
        for seed in seeds:
            runs.append(run(name, seed, 0))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        entry = {"seeds": seeds, "end_to_end": {}}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            s = spread(values)
            ok = metric["name"] == "setup_s" or s <= metric["bound"] / 3
            steady &= ok
            entry["end_to_end"][metric["name"]] = {
                "median": statistics.median(values), "spread": s, "bound": metric["bound"],
                "unit": metric["unit"], "values": values,
            }
            print(f"  {name:<17} {metric['name']:<14} median {statistics.median(values):<12.6g} "
                  f"spread {s:.4f}  bound/3 {metric['bound'] / 3:.4f}  {'ok' if ok else 'WIDE'}")
        if args.record:
            traced = run(name, seeds[0], 1)
            entry["traced_seed"] = seeds[0]
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["environment"] = traced["detail"]["environment"]
            entry["inputs"] = traced["detail"]["inputs"]
        recorded[name] = entry
    if args.record:
        path = os.path.join(HERE, "baseline.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workloads": recorded}, fh, indent=1)
            fh.write("\n")
        print(f"wrote {os.path.relpath(path, ROOT)}")
    print("all spreads below a third of their bounds" if steady else "some spreads are too wide")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
