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
from dataclasses import dataclass

import numpy as np

from .boosting import brc_fit
from .data import Dataset, FeatureSplit
from .model import LinearClassifier, accuracy
from .noise import PrivacyParams, Purpose, rng_for


@dataclass(frozen=True)
class ToyConfig:
    n: int = 2000
    flip_prob: float = 0.49
    rounds: int = 50
    c1: float = 2.0
    c2: float = 2.0
    epsilon: float | None = None
    repeats: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError("n must be even and at least 2")
        if not 0.0 <= self.flip_prob < 0.5:
            raise ValueError("flip probability must lie in [0, 0.5)")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")


@dataclass(frozen=True)
class ThresholdClassifier:
    """Cut at integer position i: points with index < i are -1, >= i are +1.

    Valid indices run from 0 (everything +1) to n (everything -1). Assumes
    rows sorted ascending by the single feature, as ``generate_toy`` emits.
    """

    index: int
    n: int

    def __post_init__(self):
        if not 0 <= self.index <= self.n:
            raise ValueError(f"threshold index must lie in [0, {self.n}]")

    def cut_value(self) -> float:
        # Positions are -1 + 2i/(n-1); index n cuts one step past the last point.
        step = 2.0 / (self.n - 1)
        return -1.0 + self.index * step

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.as_linear().predict(X)

    def as_linear(self) -> LinearClassifier:
        return LinearClassifier(coeffs=np.array([1.0]), intercept=-self.cut_value(), cols=(0,))


def generate_toy(n: int) -> Dataset:
    """n evenly spaced 1-d points in [-1, 1], first half -1, second half +1."""
    if n < 2 or n % 2 != 0:
        raise ValueError("n must be even and at least 2")
    x = -1.0 + 2.0 * np.arange(n) / (n - 1)
    y = np.concatenate([-np.ones(n // 2), np.ones(n // 2)]).astype(np.int64)
    return Dataset(X=x[:, None], y=y, columns=(("position", "numeric"),))


def flip_and_fit_threshold(ds: Dataset, p: float, rng: np.random.Generator) -> ThresholdClassifier:
    """Flip each label independently with probability p, then return the
    threshold maximizing unit-weight accuracy on the flipped labels.

    Ties break to the smallest index, which favors index 0 over index n: at
    n=2000, p=0.49 index 0 has about twice the probability of index n. Scans
    all n+1 thresholds in O(n) via prefix counts. Ignores any observation
    weights by construction.
    """
    if not 0.0 <= p < 0.5:
        raise ValueError("flip probability must lie in [0, 0.5)")
    n = ds.n
    flips = rng.random(n) < p
    y_flipped = np.where(flips, -ds.y, ds.y)

    # correct(i) = #{j < i : y~_j = -1} + #{j >= i : y~_j = +1}
    prefix_minus = np.concatenate([[0], np.cumsum(y_flipped == -1)])
    total_plus = int(np.sum(y_flipped == 1))
    idx = np.arange(n + 1)
    correct = prefix_minus + total_plus - (idx - prefix_minus)
    best = int(np.argmax(correct))  # argmax returns the first (smallest) maximizer
    return ThresholdClassifier(index=best, n=n)


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
        return PrivacyParams(epsilon, cfg.rounds, cfg.c1, cfg.c2, cfg.n).laplace_scale

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
            "config": {
                "n": self.config.n,
                "flip_prob": self.config.flip_prob,
                "rounds": self.config.rounds,
                "c1": self.config.c1,
                "c2": self.config.c2,
                "repeats": self.config.repeats,
                "seed": self.config.seed,
            },
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


def run_toy_sweep(cfg: ToyConfig, eps_list=None) -> ToyReport:
    """Fit the booster over an all-private split with the flip-threshold sampler once per
    (epsilon, repeat) cell, recording final training accuracy and the
    per-round (threshold, alpha) trace.

    Repeats are paired across epsilon values: repeat r always uses the
    streams (seed, r, purpose), so cells differ only in the noise scale.
    """
    if eps_list is None:
        if cfg.epsilon is None:
            raise ValueError("either cfg.epsilon or eps_list must be given")
        eps_list = [cfg.epsilon]

    ds = generate_toy(cfg.n)
    runs = []
    for eps in eps_list:
        params = PrivacyParams(epsilon=eps, rounds=cfg.rounds, c1=cfg.c1, c2=cfg.c2, n=cfg.n)
        for repeat in range(cfg.repeats):
            thresholds: list[int] = []

            def sampler(data, rng):
                thr = flip_and_fit_threshold(data, cfg.flip_prob, rng)
                thresholds.append(thr.index)
                return thr.as_linear()

            ensemble, _ = brc_fit(
                ds,
                FeatureSplit.all_private(ds.d),
                params,
                classifier_rng=rng_for(cfg.seed, repeat, Purpose.PRIVATE_CLASSIFIER),
                noise_rng=rng_for(cfg.seed, repeat, Purpose.LAPLACE),
                sampler=sampler,
            )
            runs.append(
                ToyRun(
                    epsilon=eps,
                    repeat=repeat,
                    accuracy=accuracy(ensemble, ds),
                    thresholds=tuple(thresholds),
                    alphas=tuple(m.alpha for m in ensemble.members),
                )
            )
    return ToyReport(config=cfg, runs=tuple(runs))
