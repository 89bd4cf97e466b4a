"""One-dimensional toy problem: n points on a line, left half labeled -1 and
right half +1, with a label-flipping threshold learner standing in for the
random private classifier. Because the flip probability is close to 1/2 the
fitted threshold is the argmax of a nearly driftless random walk: every index
is possible, but the law is not uniform. It piles up at the two ends of the
line (arcsine-type) and carries a bump at the center, where the residual label
signal sits. Boosting such thresholds still recovers an accurate ensemble once
the noise scale c1*c2*rounds/(eps*n) is small.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass

import numpy as np

from .boosting import brc_fit, draw_private_classifiers
from .data import DataError, Dataset, FeatureSplit, check_int, check_real
from .model import LinearClassifier
from .noise import Budget, PrivacyParams, Purpose, check_epsilons, rng_for


@dataclass(frozen=True)
class ToyConfig:
    n: int = 2000
    flip_prob: float = 0.49
    rounds: int = 50
    c1: float = 2.0
    c2: float = 2.0
    repeats: int = 10
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("n", 2), ("repeats", 1), ("seed", 0)):
            check_int(name, getattr(self, name), minimum)
        if self.n % 2 != 0:
            raise DataError("n must be even and at least 2")
        check_real("flip_prob", self.flip_prob)
        if not 0.0 <= self.flip_prob < 0.5:
            raise DataError("flip probability must lie in [0, 0.5)")
        PrivacyParams(1.0, self.rounds, self.c1, self.c2)  # checks rounds, c1 and c2


def threshold_classifier(index: int, n: int) -> LinearClassifier:
    """The cut at integer position ``index`` of ``n`` sorted points: points
    with index < ``index`` are -1, the others +1.

    Valid indices run from 0 (everything +1) to n (everything -1). Assumes
    rows sorted ascending by the single feature, as ``generate_toy`` emits.
    """
    if not 0 <= index <= n:
        raise ValueError(f"threshold index must lie in [0, {n}]")
    # Positions are -1 + 2i/(n-1); index n cuts one step past the last point.
    step = 2.0 / (n - 1)
    cut = -1.0 + index * step
    return LinearClassifier(coeffs=np.array([1.0]), intercept=-cut, cols=(0,))


def generate_toy(n: int) -> Dataset:
    """n evenly spaced 1-d points in [-1, 1], first half -1, second half +1."""
    if n < 2 or n % 2 != 0:
        raise ValueError("n must be even and at least 2")
    x = -1.0 + 2.0 * np.arange(n) / (n - 1)
    y = np.concatenate([-np.ones(n // 2), np.ones(n // 2)]).astype(np.int64)
    return Dataset(X=x[:, None], y=y, columns=(("position", "numeric"),))


def flip_and_fit_threshold(y: np.ndarray, p: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """The indices of ``count`` independent fits on the labels ``y``: each
    flips every label independently with probability p and takes the
    threshold (see ``threshold_classifier``) maximizing unit-weight accuracy
    on the flipped labels.

    The accuracy of cut i less that of cut 0 is the walk S_i = sum_{j < i}
    (+1 if y~_j = -1 else -1). The fits' one ``rng.random((count, n))`` draw
    takes the uniforms of ``count`` draws of ``rng.random(n)`` and leaves the
    generator as they would, so blocks of fits give the fits one at a time.
    The walks are one (count, n) int32 array (n >= 2**30 is rejected, so
    none overflows). A fit is the first index of its walk's maximum, or 0
    when no S_i > 0 = S_0: ties break to the smallest index, which favors
    index 0 over index n (at n=2000, p=0.49 index 0 has about twice the
    probability of index n). Ignores any observation weights by construction.
    """
    if not 0.0 <= p < 0.5:
        raise ValueError("flip probability must lie in [0, 0.5)")
    n = len(y)
    if n >= 2**30:
        raise ValueError(f"the threshold walk needs n < 2**30, got {n}")
    minus = (rng.random((count, n)) < p) == (y == 1)  # the flipped label is -1
    walk = np.multiply(minus, 2, dtype=np.int32)
    walk -= 1
    np.add.accumulate(walk, axis=1, out=walk)  # walk[:, k] = S_{k+1}
    k = walk.argmax(axis=1)  # argmax returns the first (smallest) maximizer
    return np.where(walk[np.arange(count), k] > 0, k + 1, 0)


@dataclass(frozen=True)
class ToyRun:
    epsilon: float
    repeat: int
    accuracy: float
    thresholds: tuple[int, ...]
    alphas: tuple[float, ...]


@dataclass(frozen=True)
class ToyReport:
    config: ToyConfig
    runs: tuple[ToyRun, ...]

    def noise_scale(self, epsilon: float) -> float:
        """The rule-of-thumb quantity c1*c2*rounds/(epsilon*n) for this config."""
        cfg = self.config
        return PrivacyParams(epsilon, cfg.rounds, cfg.c1, cfg.c2).laplace_scale(cfg.n)

    def accuracies(self, epsilon: float) -> np.ndarray:
        return np.array([r.accuracy for r in self.runs if r.epsilon == epsilon])

    def alpha_weighted_mean_threshold(self, epsilon: float) -> float:
        """Sum(alpha * threshold) / sum(alpha) pooled over all rounds and repeats."""
        alphas, thresholds = [], []
        for r in self.runs:
            if r.epsilon == epsilon:
                alphas.extend(r.alphas)
                thresholds.extend(r.thresholds)
        alphas = np.array(alphas)
        thresholds = np.array(thresholds, dtype=np.float64)
        return float(np.dot(alphas, thresholds) / np.sum(alphas))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epsilon", "repeat", "accuracy"])
            for r in self.runs:
                writer.writerow([f"{r.epsilon:g}", r.repeat, f"{r.accuracy:.6f}"])

    def to_json(self, path) -> None:
        payload = {
            "config": asdict(self.config),
            "noise_scales": {f"{r.epsilon:g}": self.noise_scale(r.epsilon) for r in self.runs},
            "runs": [
                {
                    "epsilon": r.epsilon,
                    "repeat": r.repeat,
                    "accuracy": r.accuracy,
                    "thresholds": list(r.thresholds),
                    "alphas": list(r.alphas),
                }
                for r in self.runs
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def run_toy_sweep(cfg: ToyConfig, eps_list) -> ToyReport:
    """Fit the booster over an all-private split with the flip-threshold sampler once per
    (epsilon, repeat) cell, recording final training accuracy and the
    per-round (threshold, alpha) trace.

    Repeats are paired across epsilon values: repeat r always uses the
    streams (seed, r, purpose), so cells differ only in the noise scale. A
    repeat's thresholds are drawn once and shared by its epsilons' fits,
    each with its own Laplace stream; the runs come out in (epsilon,
    repeat) order. ``eps_list`` is checked by ``check_epsilons``.

    Each ensemble votes its training accuracy from its draws' flags: up to
    ``boosting._DRAW_BLOCK`` rounds bit for bit the flags ``score_matrix``
    gives the whole ensemble, above that the flags its fit used.
    """
    check_epsilons(eps_list, cfg.rounds, cfg.c1, cfg.c2)
    all_params = [PrivacyParams(epsilon=eps, rounds=cfg.rounds, c1=cfg.c1, c2=cfg.c2) for eps in eps_list]
    ds = generate_toy(cfg.n)
    split = FeatureSplit.all_private(ds.d)
    by_repeat = []
    for repeat in range(cfg.repeats):
        fitted: list[np.ndarray] = []  # the fitter's indices, one array per block of rounds

        def sampler(y, count, rng):
            fitted.append(flip_and_fit_threshold(y, cfg.flip_prob, count, rng))
            return [threshold_classifier(index, cfg.n) for index in fitted[-1].tolist()]

        draws = draw_private_classifiers(
            ds, np.arange(ds.n), split, cfg.rounds, rng_for(cfg.seed, repeat, Purpose.PRIVATE_CLASSIFIER), sampler
        )
        thresholds = tuple(np.concatenate(fitted).tolist())
        flags = (draws.mis != (ds.y == 1)).T  # (n, rounds): True where round t's classifier votes +1
        runs = []
        for params in all_params:
            budget = Budget(params.epsilon, rng_for(cfg.seed, repeat, Purpose.LAPLACE))
            ensemble, _ = brc_fit(draws, params, budget=budget)
            runs.append(
                ToyRun(
                    epsilon=params.epsilon,
                    repeat=repeat,
                    accuracy=float(np.mean(ensemble.vote(flags) == ds.y)),
                    thresholds=thresholds,
                    alphas=tuple(m.alpha for m in ensemble.members),
                )
            )
        by_repeat.append(runs)
    return ToyReport(config=cfg, runs=tuple(run for column in zip(*by_repeat) for run in column))
