#!/usr/bin/env python3
"""dpboost benchmark: four sweep workloads, end-to-end metrics and a traced
per-module breakdown.

    python3 perfbench/run.py --workload brc-split --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --seed 0            # every workload, one table

Run from the root of a dpboost checkout; the package is imported from
``src/`` of that checkout and nowhere else. The workload seed generates the
census-shaped CSV; nothing else is handed to the program, and the toy's input
is its config alone. Each run times the set-up, warms up untimed, repeats
the workload's pass in a closed loop from this one process until the next
pass would end after ``--seconds`` (at least one pass), then checks the
outputs.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the same
loop untraced, then again with every public dpboost function wrapped by the
tracer, and reports the per-layer metrics (per pass) and the tracing overhead.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 1 when an
output check fails or the checkout has no importable ``src/dpboost``.

See METRICS.md for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
BOUNDARY_WORKLOADS = ("brc-split", "all-private-pool", "toy-sweep")  # criterion-10 invariant


def import_dpboost():
    """Import dpboost from this checkout's src/, or exit 2 without a result."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    try:
        import dpboost
    except ImportError as exc:
        sys.exit(f"benchmark: cannot import dpboost from {src}: {exc}")
    if not os.path.abspath(dpboost.__file__).startswith(src + os.sep):
        sys.exit(f"benchmark: dpboost was imported from {dpboost.__file__}, not from {src}")
    return dpboost


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- machine and environment -----------------------------------------------------
def blas_info() -> dict:
    import ctypes
    import glob

    import numpy as np

    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                break
    return info


def environment(workers: int) -> dict:
    import numpy as np

    from workloads import nproc

    env_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "DPBOOST_WORKERS")
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "workers": workers,
        "env": {k: os.environ[k] for k in env_vars if k in os.environ},
    }


def code_fingerprint() -> str:
    """Hash of the program and benchmark sources; keys the summary digests."""
    h = hashlib.sha256()
    for base, exts in (("src", (".py",)), ("configs", (".json",)), ("perfbench", (".py", ".json"))):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(exts):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


# -- statistics -----------------------------------------------------------------
def tail(values) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, else the max."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], f"max of {len(ordered)}"
    k = len(ordered) - 11
    return ordered[k], f"p{100.0 * (k + 1) / len(ordered):.1f} of {len(ordered)}"


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# -- one workload -----------------------------------------------------------------
def closed_loop(workload, seconds: float, out_dir: str, tracer=None):
    """Run passes until the next one would end past ``seconds``; at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        result = workload.run_pass(out_dir)
        if tracer is not None:
            tracer.collect_children()
            result.spans = tracer.spans
            tracer.reset()
        passes.append(result)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p.workload_s for p in passes) > seconds:
            return passes


def timed_setup(workload) -> list[float]:
    times = []
    for _ in range(workload.setup_repeats):
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
    return times


def end_to_end(passes, setup_times) -> tuple[dict, dict]:
    cells = [c for p in passes for c in p.cell_s]
    accs = [a for p in passes for a in p.accuracies]
    tail_value, tail_label = tail(cells)
    values = {
        "setup_s": statistics.median(setup_times),
        "workload_s": statistics.median(p.workload_s for p in passes),
        "cell_p50_s": statistics.median(cells),
        "cell_tail_s": tail_value,
        "peak_rss_mb": peak_rss_mb(),
        "test_accuracy": statistics.fmean(accs) if accs else 0.0,
    }
    notes = {
        "setup_s": f"median of {len(setup_times)}",
        "workload_s": f"median of {len(passes)} passes",
        "cell_p50_s": f"median of {len(cells)} cells",
        "cell_tail_s": tail_label,
        "peak_rss_mb": "driver + largest child",
        "test_accuracy": f"mean of {len(accs)} fitted models",
    }
    return values, notes


def per_layer(workload, untraced, traced, setup_spans) -> dict:
    from tracer import SpanIndex

    n = len(traced)
    spans = SpanIndex([s for p in traced for s in p.spans])
    setup = SpanIndex(setup_spans)

    def per_pass(x):
        return x / n

    weighted = spans.attrs("baselines.fit_logreg_weighted")
    fits = spans.count("baselines.fit_logreg_weighted", "baselines.fit_dp_logreg")
    boost = spans.attrs("boosting.brc_fit") + spans.attrs("boosting.brc_fit_all_private")
    rounds = sum(a.get("rounds", 0) for a in boost)
    public_rounds = sum(a.get("public_rounds", 0) for a in boost)
    grad_nd = sum(a.get("nd", 0) for a in spans.attrs("baselines.weighted_logistic_grad"))
    untraced_s = statistics.median(p.workload_s for p in untraced)
    traced_s = statistics.median(p.workload_s for p in traced)
    cell_sums = [sum(p.cell_s) for p in untraced]
    task = workload.task() if workload.workers > 1 else None
    full = workload.full
    return {
        "baselines.fits": per_pass(fits),
        "baselines.fit_s": per_pass(spans.busy_s(
            "baselines.fit_logreg", "baselines.fit_logreg_weighted", "baselines.fit_dp_logreg")),
        "baselines.grad_evals": per_pass(spans.count("baselines.weighted_logistic_grad")),
        "baselines.loss_evals": per_pass(spans.count("baselines.weighted_logistic_loss")),
        "baselines.grad_gflop": per_pass(4.0 * grad_nd / 1e9),
        "baselines.converged_frac": (
            sum(1 for a in weighted if a.get("converged")) / len(weighted) if weighted else 0.0),
        "baselines.dp_logreg_s": per_pass(spans.busy_s("baselines.fit_dp_logreg")),
        "baselines.pate_s": per_pass(spans.busy_s("baselines.fit_pate")),
        "harness.task_mb": len(pickle.dumps(task)) / 1e6 if task is not None else 0.0,
        "harness.pool_efficiency": statistics.median(
            s / (workload.workers * p.workload_s) for s, p in zip(cell_sums, untraced)),
        "harness.cell_s_sum": statistics.median(cell_sums),
        "harness.emit_s": per_pass(spans.busy_s(
            "harness.emit_records_jsonl", "harness.aggregate", "harness.emit_csv", "harness.emit_svg")),
        "data.load_csv_s": setup.busy_s("data.load_csv"),
        "data.encode_s": setup.busy_s("data.encode"),
        "data.normalize_s": setup.busy_s("data.normalize"),
        "data.balance_s": per_pass(spans.busy_s("data.balance")),
        "data.split_s": per_pass(spans.busy_s("data.split")),
        "data.matrix_mb": (full.X.nbytes + full.y.nbytes) / 1e6,
        "boosting.fit_s": per_pass(spans.busy_s("boosting.brc_fit", "boosting.brc_fit_all_private")),
        "boosting.self_s": per_pass(spans.self_s("boosting.brc_fit", "boosting.brc_fit_all_private")),
        "boosting.rounds": per_pass(rounds),
        "boosting.public_round_frac": public_rounds / rounds if rounds else 0.0,
        "model.predict_calls": per_pass(spans.count("model.LinearClassifier.predict", "model.Ensemble.predict")),
        "model.predict_s": per_pass(spans.busy_s("model.LinearClassifier.predict", "model.Ensemble.predict")),
        "model.eval_s": per_pass(spans.busy_s("model.accuracy")),
        "noise.classifier_draws": per_pass(spans.count("noise.random_linear_classifier")),
        "noise.classifier_draw_s": per_pass(spans.busy_s("noise.random_linear_classifier")),
        "noise.laplace_calls": per_pass(spans.count("noise.laplace")),
        "noise.laplace_s": per_pass(spans.busy_s("noise.laplace")),
        "toy.threshold_fits": per_pass(spans.count("toy.flip_and_fit_threshold")),
        "toy.threshold_fit_s": per_pass(spans.busy_s("toy.flip_and_fit_threshold")),
        "trace.spans": per_pass(len(spans.spans)),
        "trace.workload_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
    }


def check_outputs(name, passes, seed, rows, spec, checks: list, fingerprint: str) -> None:
    """Append (description, ok) pairs for every output check of the untraced passes."""
    attempted = sum(len(p.cell_s) for p in passes)
    failed = sum(len(p.errors) for p in passes)
    checks.append((f"error_frac is 0 ({failed}/{attempted} cells failed)", failed == 0))
    first = passes[0].summary
    same = all(p.summary == first for p in passes)
    checks.append((f"summary.csv byte-identical over {len(passes)} passes", same))

    digest = hashlib.sha256(first).hexdigest()
    store = os.path.join(OUT, "summary-digests.json")
    key = f"{name}|seed={seed}|rows={rows}|{fingerprint}"
    known = {}
    if os.path.exists(store):
        with open(store, encoding="utf-8") as fh:
            known = json.load(fh)
    if key in known:
        checks.append(("summary.csv byte-identical to an earlier run of this seed", known[key] == digest))
    else:
        known[key] = digest
        with open(store, "w", encoding="utf-8") as fh:
            json.dump(known, fh, indent=1, sort_keys=True)

    import census

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)["test_accuracy"].get(name)
    if reference is not None and (name == "toy-sweep" or rows == census.ROWS):
        bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "test_accuracy")
        acc = statistics.fmean(a for p in passes for a in p.accuracies)
        checks.append((
            f"test_accuracy {acc:.4f} within {bound:g} of reference {reference:.4f}",
            abs(acc - reference) <= bound * reference,
        ))


def run_workload(args, spec) -> int:
    import workloads
    from tracer import Tracer

    import census

    cls = workloads.WORKLOADS[args.workload]
    work_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        csv_path = None
        if cls is not workloads.ToySweep:
            csv_path = os.path.join(work_dir, "census.csv")
            census.write_census_csv(csv_path, args.seed, args.rows)
        workload = cls(ROOT, csv_path)
        setup_times = timed_setup(workload)
        workload.warm_up()
        out_dir = os.path.join(work_dir, "out")
        passes = closed_loop(workload, args.seconds, out_dir)
        values, notes = end_to_end(passes, setup_times)
        checks: list[tuple[str, bool]] = []
        fingerprint = code_fingerprint()
        check_outputs(args.workload, passes, args.seed, args.rows, spec, checks, fingerprint)

        if args.trace:
            tracer = Tracer(work_dir)
            tracer.install()
            try:
                workload.setup()
                setup_spans = tracer.spans
                tracer.reset()
                traced = closed_loop(workload, args.seconds, out_dir, tracer)
            finally:
                tracer.uninstall()
            checks.append(("traced passes reproduce the untraced summary.csv",
                           all(p.summary == passes[0].summary for p in traced)))
            values = per_layer(workload, passes, traced, setup_spans)
            notes = {}
            if args.workload in BOUNDARY_WORKLOADS:
                expected = sum(p.rounds for p in traced) / len(traced)
                checks.append((
                    f"noise.laplace_calls {values['noise.laplace_calls']:g} == rounds x boosting cells "
                    f"{expected:g} == boosting.rounds {values['boosting.rounds']:g}",
                    values["noise.laplace_calls"] == expected == values["boosting.rounds"],
                ))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    missing = sorted(set(units) - set(values))
    checks.append((f"every {section} metric emitted (missing: {missing or 'none'})", not missing))
    correct = all(ok for _, ok in checks)
    attempted = sum(len(p.cell_s) for p in passes)
    failed = sum(len(p.errors) for p in passes)
    env = environment(workload.workers)
    inputs = {"seed": args.seed, "rows": args.rows if csv_path else None,
              "n": workload.full.n, "d": workload.full.d}

    print(f"dpboost benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{len(passes)} pass(es), {attempted} cells")
    print(f"  environment: {json.dumps(env, sort_keys=True)}")
    print(f"  inputs: {json.dumps(inputs)}")
    for name, value in values.items():
        unit = units.get(name, "-")
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<28} {value:>14.6g} {unit}{note}")
    if not args.trace:
        print(f"  {'error_frac':<28} {failed / attempted:>14.6g} ratio  ({failed} of {attempted} cells)")
    for text, ok in checks:
        print(f"  check {'ok  ' if ok else 'FAIL'} {text}")

    os.makedirs(OUT, exist_ok=True)
    detail_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(detail_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "environment": env, "inputs": inputs,
                   "metrics": values, "notes": notes, "attempted": attempted, "failed": failed,
                   "checks": [{"check": t, "ok": ok} for t, ok in checks]}, fh, indent=1)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items() if k in units},
    }
    print(json.dumps(result))
    return 0 if correct else 1


# -- every workload ---------------------------------------------------------------
def run_all(args, spec) -> int:
    """Run each workload in its own process and print one table."""
    results = {}
    status = 0
    for w in spec["workloads"]:
        for trace in ((0, 1) if args.trace else (0,)):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", w["name"],
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--rows", str(args.rows)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                status = 1
            if lines and lines[-1].startswith("{"):
                results[f"{w['name']}/trace{trace}"] = json.loads(lines[-1])
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "results.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"seed": args.seed, "seconds": args.seconds, "results": results}, fh, indent=1)
    print(f"results written to {os.path.relpath(path, ROOT)}; {'all checks passed' if status == 0 else 'FAILED'}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="one workload; omit to run them all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rows", type=int, default=None, help="census CSV rows (default: the Adult size)")
    args = parser.parse_args(argv)

    spec = load_spec()
    import_dpboost()
    import census
    import workloads

    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.rows is None:
        args.rows = census.ROWS
    if args.workload is None:
        return run_all(args, spec)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick one of {sorted(workloads.WORKLOADS)}")
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
