"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s``).

The census-income criteria need ``data/adult.csv``; fetch it once with
``python3 scripts/fetch_data.py``. Without the file those tests skip with a
pointer instead of failing.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import dpboost.boosting as boosting
from dpboost import (
    Budget,
    ExperimentConfig,
    FeatureSplit,
    PrivacyParams,
    ToyConfig,
    aggregate,
    brc_fit,
    draw_private_classifiers,
    flip_and_fit_threshold,
    generate_toy,
    laplace,
    make_rng,
    run_experiment,
    run_toy_sweep,
)
from dpboost.baselines import weighted_logistic_grad, weighted_logistic_loss
from dpboost.cli import main as cli_main
from dpboost.harness import load_prepared_dataset

from conftest import FixedFlips, fit_with_draws, planted_dataset, write_synthetic_csv

REPO = Path(__file__).resolve().parents[1]
ADULT_CSV = REPO / "data" / "adult.csv"
ADULT_SCHEMA = REPO / "configs" / "adult.schema.json"
ADULT_PUBLIC = ("workclass", "fnlwgt", "race", "sex", "native-country")
ADULT_EPS = (0.02, 0.04, 0.08, 0.16)
SQRT2 = math.sqrt(2.0)

needs_adult = pytest.mark.skipif(
    not ADULT_CSV.exists(),
    reason=f"census data not fetched; run `python3 scripts/fetch_data.py` to create {ADULT_CSV}",
)

_adult_cache: dict = {}


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


def adult_full():
    if "full" not in _adult_cache:
        cfg = ExperimentConfig(
            dataset=str(ADULT_CSV), schema=str(ADULT_SCHEMA), algorithm="logreg",
            epsilons=(1.0,), public_columns=ADULT_PUBLIC,
        )
        # the census file has rows with '?' values, and encode drops them
        with pytest.warns(UserWarning, match="dropped .* rows with missing values"):
            _adult_cache["full"], _ = load_prepared_dataset(cfg)
    return _adult_cache["full"]


def adult_summary(algorithm, epsilons, repeats=10, seed=0):
    """Aggregated test accuracies per epsilon, cached across criteria."""
    key = (algorithm, tuple(epsilons), repeats, seed)
    if key not in _adult_cache:
        cfg = ExperimentConfig(
            dataset=str(ADULT_CSV), schema=str(ADULT_SCHEMA), algorithm=algorithm,
            epsilons=tuple(epsilons), public_columns=ADULT_PUBLIC,
            rounds=25, c1=SQRT2, c2=SQRT2, repeats=repeats, seed=seed, test_frac=0.1,
        )
        start = time.perf_counter()
        records = run_experiment(cfg, full=adult_full())
        elapsed = time.perf_counter() - start
        errors = [r.error for r in records if r.error]
        assert not errors, f"cells failed: {errors[:3]}"
        rows = {row.epsilon: row for row in aggregate(records)}
        _adult_cache[key] = (rows, elapsed)
    return _adult_cache[key]


def test_criterion_01_sensitivity_bound():
    """Random small instances (``boosting.sensitivity_sweep`` at n <= 6, two
    seeds): the brute-forced error sensitivity never exceeds c1*c2/n + 1e-12.
    Runtime < 30 s."""
    start = time.perf_counter()
    rows = [row for seed in (0, 1) for row in boosting.sensitivity_sweep(6, make_rng(seed))]
    for n, k, c, value in rows:
        assert value <= c * c / n + 1e-12, (n, k, c, value)
    worst_margin = max(value - c * c / n for n, k, c, value in rows)
    elapsed = time.perf_counter() - start
    report(
        "01 sensitivity bound",
        True,
        f"{len(rows)} instances, worst value-bound margin {worst_margin:.3e}, {elapsed:.1f}s",
    )
    assert len(rows) == 60
    assert elapsed < 30.0


def test_criterion_02_laplace_moments():
    """At unit scale over 1e6 draws: |mean| < 0.01, |var - 2| < 0.04, and
    P(|Y| > ln 2) = 0.5 +/- 0.01. Runtime < 5 s."""
    start = time.perf_counter()
    xs = laplace(1.0, make_rng(20260810), size=1_000_000)
    mean, var = float(xs.mean()), float(xs.var())
    tail = float(np.mean(np.abs(xs) > math.log(2.0)))
    elapsed = time.perf_counter() - start
    ok = abs(mean) < 0.01 and abs(var - 2.0) < 0.04 and abs(tail - 0.5) < 0.01
    report(
        "02 laplace moments",
        ok,
        f"mean={mean:.4f} var={var:.4f} tail={tail:.4f} ({elapsed:.1f}s)",
    )
    assert abs(mean) < 0.01
    assert abs(var - 2.0) < 0.04
    assert abs(tail - 0.5) < 0.01
    assert elapsed < 5.0


def _toy_report():
    if "toy" not in _adult_cache:
        cfg = ToyConfig(n=2000, flip_prob=0.49, rounds=50, c1=2.0, c2=2.0, repeats=10, seed=0)
        start = time.perf_counter()
        _adult_cache["toy"] = (
            run_toy_sweep(cfg, [0.01, 1.0, 10.0, 100.0]),
            time.perf_counter() - start,
        )
    return _adult_cache["toy"]


def test_criterion_03_toy_regime_boundary():
    """n=2000, c1=c2=2, T=50, 10 repeats: median accuracy >= 0.9 for
    eps in {1, 10, 100}; accuracy IQR at eps=0.01 exceeds the IQR at eps=1.
    Runtime < 2 min."""
    toy, elapsed = _toy_report()

    def iqr(eps):
        acc = toy.accuracies(eps)
        return float(np.subtract(*np.percentile(acc, [75, 25])))

    medians = {eps: float(np.median(toy.accuracies(eps))) for eps in (1.0, 10.0, 100.0)}
    ok = all(m >= 0.9 for m in medians.values()) and iqr(0.01) > iqr(1.0)
    report(
        "03 toy regime boundary",
        ok,
        f"medians={ {e: round(m, 4) for e, m in medians.items()} } "
        f"iqr(0.01)={iqr(0.01):.4f} > iqr(1)={iqr(1.0):.4f}, {elapsed:.1f}s",
    )
    for eps, med in medians.items():
        assert med >= 0.9, (eps, med)
    assert iqr(0.01) > iqr(1.0)
    assert elapsed < 120.0


def _threshold_argmax_law(n, p):
    """Exact law of ``flip_and_fit_threshold(generate_toy(n), p, rng)``.

    The accuracy count correct(k) is a +/-1 walk with step X_k = -y~_k, so
    X_k = +1 with probability 1-p on the left half and p on the right half.
    The fitter returns the first maximizer k, i.e. S_k > S_i for every i < k
    and S_k >= S_i for every i > k; the two events use disjoint steps, so
    P(k) = P(V_{k-1} = 0) P(X_{k-1} = +1) * P(M_k = 0) with the drawdown
    V_k = max(0, V_{k-1} - X_{k-1}) run forward and the future maximum
    M_k = max(0, X_k + M_{k+1}), M_n = 0, run backward. O(n^2)."""
    up = np.where(np.arange(n) < n // 2, 1.0 - p, p)

    def step(dist, rise):
        # One step of max(0, Z + J), J = +1 w.p. rise and -1 otherwise.
        out = np.empty_like(dist)
        out[0] = (1.0 - rise) * (dist[0] + dist[1])
        out[1:-1] = (1.0 - rise) * dist[2:] + rise * dist[:-2]
        out[-1] = rise * dist[-2]
        return out

    first = np.ones(n + 1)
    drawdown = np.zeros(n + 1)
    drawdown[0] = 1.0
    for i in range(n):
        first[i + 1] = drawdown[0] * up[i]
        drawdown = step(drawdown, 1.0 - up[i])
    last = np.ones(n + 1)
    future = np.zeros(n + 1)
    future[0] = 1.0
    for k in range(n - 1, -1, -1):
        future = step(future, up[k])
        last[k] = future[0]
    return first * last


def _threshold_argmax_law_by_enumeration(n, p):
    """The same law by scoring every one of the 2^n flip patterns with
    ``flip_and_fit_threshold`` itself, one pattern per row of one batch."""
    ds = generate_toy(n)
    flips = (np.arange(2**n)[:, None] >> np.arange(n)) & 1 == 1
    indices = flip_and_fit_threshold(ds.y, p, 2**n, FixedFlips(flips))
    flipped = flips.sum(axis=1)
    return np.bincount(indices, weights=p**flipped * (1.0 - p) ** (n - flipped), minlength=n + 1)


def test_criterion_04a_threshold_distribution_uniformity():
    """10^4 flip-threshold draws at p=0.49, n=2000 against the exact law of
    the fitted threshold, 20-bucket chi-square at significance 1e-3.

    The fitted threshold is the first argmax of a nearly driftless random
    walk, so its law is not uniform: it piles up at both ends (arcsine-type),
    carries a bump at the center (the residual label signal), and the
    smallest-index tie-break puts about twice the mass at index 0 as at
    index n. The expected bucket counts therefore come from
    ``_threshold_argmax_law``, which is first checked against exhaustive
    enumeration of every flip pattern at small n. The chi-square against
    uniform is printed for information only (total-variation distance of
    the bucketed law to uniform is 0.137). Runtime (with 04b) < 1 min."""
    start = time.perf_counter()
    for n in (4, 6, 8, 10):
        for p in (0.3, 0.49):
            law = _threshold_argmax_law(n, p)
            brute = _threshold_argmax_law_by_enumeration(n, p)
            np.testing.assert_allclose(law, brute, rtol=0, atol=1e-12)
            assert abs(law.sum() - 1.0) < 1e-12
    law = _threshold_argmax_law(2000, 0.49)
    assert abs(law.sum() - 1.0) < 1e-12
    index_buckets = np.minimum(np.arange(2001) * 20 // 2001, 19)
    bucket_probs = np.bincount(index_buckets, weights=law, minlength=20)
    expected = 10_000 * bucket_probs

    ds = generate_toy(2000)
    rng = make_rng(404)
    # blocks of fits take the same draws as one fit after another
    draws = np.concatenate([flip_and_fit_threshold(ds.y, 0.49, 500, rng) for _ in range(20)])
    buckets = np.minimum(draws * 20 // 2001, 19).astype(int)
    counts = np.bincount(buckets, minlength=20)
    chi2, p_value = stats.chisquare(counts, f_exp=expected)
    chi2_uniform, p_uniform = stats.chisquare(counts)
    elapsed = time.perf_counter() - start
    ok = p_value > 1e-3
    report(
        "04a threshold law chi-square",
        ok,
        f"exact law chi2={chi2:.1f} p={p_value:.3e}; uniform chi2={chi2_uniform:.1f} "
        f"p={p_uniform:.3e} (information only); observed {counts.tolist()} expected "
        f"{np.round(expected).astype(int).tolist()} ({elapsed:.1f}s)",
    )
    assert elapsed < 60.0
    assert p_value > 1e-3, (
        f"chi-square {chi2:.1f} (p={p_value:.2e}) rejects the exact fitted-threshold law"
    )


def test_criterion_04b_alpha_weighted_mean_threshold():
    """At eps=100 the alpha-weighted mean fitted threshold lies in
    [900, 1100] (pooled over rounds and repeats)."""
    toy, _ = _toy_report()
    mean_thr = toy.alpha_weighted_mean_threshold(100.0)
    ok = 900.0 <= mean_thr <= 1100.0
    report("04b alpha-weighted mean threshold", ok, f"mean threshold {mean_thr:.1f}")
    assert 900.0 <= mean_thr <= 1100.0


@needs_adult
def test_criterion_05_adult_reproduction():
    """Census income reproduction with the fixed public columns, balanced
    labels, T=25, c1=c2=sqrt(2), 10 repeats: non-private baseline
    0.7575 +/- 0.03, public-only baseline 0.6159 +/- 0.03, split-boosting at
    eps=0.16 0.7275 +/- 0.05, and split boosting above dp-logreg at every
    eps in {0.02, 0.04, 0.08, 0.16}. Runtime < 15 min."""
    logreg_rows, t_logreg = adult_summary("logreg", (0.16,))
    public_rows, t_public = adult_summary("public-only", (0.16,))
    brc_rows, t_brc = adult_summary("brc", ADULT_EPS)
    dp_rows, t_dp = adult_summary("dp-logreg", ADULT_EPS)

    nonpriv = logreg_rows[0.16].mean_accuracy
    public = public_rows[0.16].mean_accuracy
    brc16 = brc_rows[0.16].mean_accuracy
    dominance = {
        eps: (brc_rows[eps].mean_accuracy, dp_rows[eps].mean_accuracy) for eps in ADULT_EPS
    }
    elapsed = t_logreg + t_public + t_brc + t_dp
    ok = (
        abs(nonpriv - 0.7575) <= 0.03
        and abs(public - 0.6159) <= 0.03
        and abs(brc16 - 0.7275) <= 0.05
        and all(b > d for b, d in dominance.values())
    )
    report(
        "05 adult reproduction",
        ok,
        f"non-private={nonpriv:.4f} public-only={public:.4f} brc@0.16={brc16:.4f} "
        f"dominance={ {e: (round(b, 4), round(d, 4)) for e, (b, d) in dominance.items()} } "
        f"({elapsed:.0f}s)",
    )
    assert abs(nonpriv - 0.7575) <= 0.03
    assert abs(public - 0.6159) <= 0.03
    assert abs(brc16 - 0.7275) <= 0.05
    for eps, (b, d) in dominance.items():
        assert b > d, (eps, b, d)
    assert elapsed < 900.0


@needs_adult
def test_criterion_06_all_private_adult():
    """The all-private variant on balanced census data reaches
    0.7057 +/- 0.05 at eps=0.16 and beats dp-logreg at every eps >= 0.02.
    Runtime < 10 min."""
    ap_rows, t_ap = adult_summary("brc-all-private", ADULT_EPS)
    dp_rows, t_dp = adult_summary("dp-logreg", ADULT_EPS)
    ap16 = ap_rows[0.16].mean_accuracy
    dominance = {
        eps: (ap_rows[eps].mean_accuracy, dp_rows[eps].mean_accuracy) for eps in ADULT_EPS
    }
    ok = abs(ap16 - 0.7057) <= 0.05 and all(a > d for a, d in dominance.values())
    report(
        "06 all-private adult",
        ok,
        f"all-private@0.16={ap16:.4f} "
        f"dominance={ {e: (round(a, 4), round(d, 4)) for e, (a, d) in dominance.items()} } "
        f"({t_ap:.0f}s)",
    )
    assert abs(ap16 - 0.7057) <= 0.05
    for eps, (a, d) in dominance.items():
        assert a > d, (eps, a, d)
    assert t_ap < 600.0


@needs_adult
def test_criterion_07a_adult_convergence_gain():
    """At eps=0.1 the split booster gains at least 0.10 test accuracy from
    round 1 to round 25, averaged over 5 seeds."""
    cfg = ExperimentConfig(
        dataset=str(ADULT_CSV), schema=str(ADULT_SCHEMA), algorithm="brc",
        epsilons=(0.1,), public_columns=ADULT_PUBLIC,
        rounds=25, c1=SQRT2, c2=SQRT2, repeats=5, seed=0, test_frac=0.1,
    )
    records = run_experiment(cfg, full=adult_full())
    gains = [rec.rounds[-1].test_accuracy - rec.rounds[0].test_accuracy for rec in records]
    mean_gain = float(np.mean(gains))
    ok = mean_gain >= 0.10
    report("07a adult convergence gain", ok, f"mean gain {mean_gain:.4f} over 5 seeds")
    assert mean_gain >= 0.10


def _reference_adaboost_random(train, test, rounds, c1, c2, classifier_rng):
    """Independent plain implementation: random classifiers, exact errors,
    alpha = 0.5 - err, clipped weight updates; returns the per-round test
    accuracy of the partial vote."""
    w = np.ones(train.n)
    running = np.zeros(test.n)
    trace = []
    for _ in range(rounds):
        vals = classifier_rng.uniform(-1.0, 1.0, size=train.d + 1)
        coeffs, intercept = vals[:-1], vals[-1]
        pred_train = np.where(train.X @ coeffs + intercept >= 0.0, 1, -1)
        mis = pred_train != train.y
        err = float(np.dot(w, mis) / np.sum(w))
        alpha = 0.5 - err
        candidate = w * np.exp(alpha * mis)
        inside = (candidate >= 1.0 / c1) & (candidate <= c2)
        w = np.where(inside, candidate, w)
        pred_test = np.where(test.X @ coeffs + intercept >= 0.0, 1, -1)
        running = running + alpha * pred_test
        labels = np.where(running >= 0.0, 1, -1)
        trace.append(float(np.mean(labels == test.y)))
    return trace


def test_criterion_07b_noise_free_trace_matches_reference_adaboost():
    """With the noise scale forced to zero and matched seeds, the all-private
    booster's convergence trace equals an independently written
    random-classifier AdaBoost trace exactly."""
    full, _ = planted_dataset(n=260, seed=42)
    train = full.take(np.arange(200))
    test = full.take(np.arange(200, 260))
    params = PrivacyParams(epsilon=math.inf, rounds=30, c1=SQRT2, c2=SQRT2)
    ens, _ = fit_with_draws(
        train,
        FeatureSplit.all_private(train.d),
        params,
        classifier_rng=make_rng(77),
        noise_rng=make_rng(78),
    )
    prefix = ens.prefix_predictions(test.X)
    ours = [float(np.mean(p == test.y)) for p in prefix]
    reference = _reference_adaboost_random(train, test, 30, SQRT2, SQRT2, make_rng(77))
    ok = ours == reference
    report("07b noise-free trace equality", ok, f"30-round traces identical: {ok}")
    assert ours == reference


def test_criterion_08_gradient_correctness():
    """Weighted logistic loss: analytic gradient vs central finite
    differences (h=1e-5), relative error < 1e-5 at 10 random points on a
    50x5 random dataset."""
    rng = make_rng(808)
    X = rng.uniform(-1, 1, size=(50, 5))
    y = np.where(rng.random(50) < 0.5, 1.0, -1.0)
    w = rng.uniform(0.5, 2.0, size=50)
    lam = 1e-3
    h = 1e-5
    worst = 0.0
    for _ in range(10):
        theta = rng.normal(size=5)
        b = float(rng.normal())
        g_theta, g_b = weighted_logistic_grad(theta, b, X, y, w, lam)
        fd = np.empty(6)
        for j in range(5):
            e = np.zeros(5)
            e[j] = h
            fd[j] = (
                weighted_logistic_loss(theta + e, b, X, y, w, lam)
                - weighted_logistic_loss(theta - e, b, X, y, w, lam)
            ) / (2 * h)
        fd[5] = (
            weighted_logistic_loss(theta, b + h, X, y, w, lam)
            - weighted_logistic_loss(theta, b - h, X, y, w, lam)
        ) / (2 * h)
        analytic = np.concatenate([g_theta, [g_b]])
        rel = float(np.linalg.norm(analytic - fd) / np.linalg.norm(fd))
        worst = max(worst, rel)
    ok = worst < 1e-5
    report("08 gradient correctness", ok, f"worst relative error {worst:.2e}")
    assert worst < 1e-5


def test_criterion_09_cli_determinism(tmp_path):
    """`dpboost run` twice with the same config and seed produces
    byte-identical CSV outputs."""
    csv_path, schema_path = write_synthetic_csv(str(tmp_path))
    outputs = []
    for name in ("first", "second"):
        cfg = {
            "dataset": csv_path,
            "schema": schema_path,
            "algorithm": "brc",
            "epsilons": [0.1, 1.0],
            "public_columns": ["pubnum"],
            "rounds": 5,
            "repeats": 3,
            "seed": 11,
            "test_frac": 0.2,
            "output_dir": str(tmp_path / name),
        }
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["run", "--config", str(cfg_path)]) == 0
        with open(tmp_path / name / "summary.csv", "rb") as fh:
            outputs.append(fh.read())
    ok = outputs[0] == outputs[1]
    report("09 cli determinism", ok, f"summary.csv byte-identical: {ok}")
    assert outputs[0] == outputs[1]


def test_criterion_10_privacy_accounting_audit():
    """The split fit books exactly T releases in its budget's ledger, each at
    scale c1*c2*T/(eps*n), and its noise stream advances exactly T Laplace
    draws, so nothing else data-dependent is drawn from it."""
    ds, split = planted_dataset(n=150, seed=10)
    params = PrivacyParams(epsilon=0.16, rounds=25, c1=SQRT2, c2=SQRT2)
    noise_rng = make_rng(31)
    budget = Budget(params.epsilon, noise_rng)
    brc_fit(draw_private_classifiers(ds, np.arange(ds.n), split, params.rounds, make_rng(30)), params, budget=budget)
    ref = make_rng(31)
    for _ in range(params.rounds):
        laplace(params.laplace_scale(ds.n), ref)
    scales = [scale for _, _, scale, _ in budget.ledger]
    ok = (
        len(scales) == params.rounds
        and all(s == params.laplace_scale(ds.n) for s in scales)
        and noise_rng.bit_generator.state == ref.bit_generator.state
    )
    report(
        "10 privacy accounting audit",
        ok,
        f"{len(scales)} releases at scale {params.laplace_scale(ds.n):.6g}, spent {budget.spent:.6g} "
        f"of {params.epsilon:g}, noise stream advanced exactly {params.rounds} draws",
    )
    assert len(scales) == params.rounds
    assert all(s == params.laplace_scale(ds.n) for s in scales)
    assert budget.spent == pytest.approx(params.epsilon, rel=1e-12)
    assert noise_rng.bit_generator.state == ref.bit_generator.state


@needs_adult
def test_trend_pate_below_brc_at_largest_epsilon():
    """Teacher-vote baseline stays below split boosting at eps=0.16 on the
    census data (trend property only)."""
    pate_rows, _ = adult_summary("pate", (0.16,))
    brc_rows, _ = adult_summary("brc", ADULT_EPS)
    pate16 = pate_rows[0.16].mean_accuracy
    brc16 = brc_rows[0.16].mean_accuracy
    ok = pate16 < brc16
    report("11 pate below brc trend", ok, f"pate@0.16={pate16:.4f} < brc@0.16={brc16:.4f}")
    assert pate16 < brc16
