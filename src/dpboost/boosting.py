"""AdaBoost-style boosting where the private-feature learner is a random
linear classifier and only its error estimate is perturbed for privacy.

``brc_fit`` is the one booster loop; the feature split picks its shape:

* public and private columns: each round trains a weighted public classifier
  and draws a random private classifier, perturbs the private error with
  Laplace noise, and keeps whichever classifier's error is farther from 0.5.
* no public columns (``FeatureSplit.all_private``): every feature is private
  and each round only draws a random classifier and uses its noisy error.

Observation weights on the private side are clipped to [1/c1, c2], which
bounds the sensitivity of the weighted error at c1*c2/n; the matching brute
force check lives in ``sensitivity_oracle``.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .data import Dataset, FeatureSplit
from .model import Ensemble, EnsembleMember, LinearClassifier
from .noise import PrivacyParams, laplace, random_linear_classifier


@dataclass(frozen=True)
class RoundRecord:
    """Diagnostics for one boosting round.

    ``chosen`` is "public" or "private" for split fits and "all" for fits
    without public columns; ``err_pub`` is None when no public classifier was
    trained that round.
    """

    t: int
    chosen: str
    err_pub: float | None
    err_pri_noisy: float
    alpha: float

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "chosen": self.chosen,
            "err_pub": self.err_pub,
            "err_pri_noisy": self.err_pri_noisy,
            "alpha": self.alpha,
        }


def records_to_jsonl(records) -> str:
    return "\n".join(json.dumps(r.to_dict()) for r in records)


def weighted_error(mis, weights) -> float:
    """sum(w_i * mis_i) / sum(w_i) for strictly positive weights, where
    ``mis`` flags the misclassified rows."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != np.shape(mis):
        raise ValueError(f"weights shape {w.shape} does not match {np.shape(mis)}")
    if not w.min() > 0:
        raise ValueError("weights must be strictly positive")
    return float(np.dot(w, mis) / np.sum(w))


def noisy_private_error(mis, w_pri, params: PrivacyParams, rng: np.random.Generator) -> float:
    """Weighted error plus one Lap(c1*c2*rounds/(epsilon*n)) draw.

    The result may legitimately fall outside [0, 1]. A zero noise scale
    (epsilon = inf) adds nothing and consumes no draw.
    """
    w = np.asarray(w_pri, dtype=np.float64)
    if w.min() < 1.0 / params.c1 - 1e-12 or w.max() > params.c2 + 1e-12:
        raise ValueError("private weights outside the clipping bounds [1/c1, c2]")
    err = weighted_error(mis, w)
    scale = params.laplace_scale
    if scale > 0:
        err += laplace(scale, rng)
    return err


def clipped_update(w: np.ndarray, alpha: float, mis: np.ndarray, c1: float, c2: float) -> np.ndarray:
    """Multiplicative weight update that skips (not clamps) out-of-range results.

    Each candidate w_i * exp(alpha * mis_i) replaces w_i if it stays in
    [1/c1, c2]; otherwise w_i is left unchanged.
    """
    candidate = w * np.exp(alpha * mis)
    ok = (candidate >= 1.0 / c1) & (candidate <= c2)
    return np.where(ok, candidate, w)


def _default_weak_learner(ds: Dataset, cols, weights) -> LinearClassifier:
    from .baselines import fit_logreg_weighted

    return fit_logreg_weighted(ds, cols, weights)


def brc_fit(
    train: Dataset,
    split: FeatureSplit,
    params: PrivacyParams,
    weak_learner=None,
    *,
    classifier_rng: np.random.Generator,
    noise_rng: np.random.Generator,
    sampler=None,
) -> tuple[Ensemble, list[RoundRecord]]:
    """Boost for ``params.rounds`` rounds over a public/private feature split.

    Per round: (a) fit a public classifier on the public columns with the
    public weights, (b) draw a random classifier on the private columns,
    (c) compute the exact public error and the noisy private error, (d) keep
    the classifier whose error is farther from 0.5 (ties go private),
    (e) set alpha = 0.5 - err of the chosen classifier, and (f) update only
    the chosen side's weights; public updates are unclipped, private updates
    are clipped to [1/c1, c2]. Exactly ``rounds`` Laplace draws are consumed
    (one per round, from ``noise_rng``), for a total privacy cost of epsilon.

    ``classifier_rng`` drives the random private classifiers, ``noise_rng``
    the Laplace noise; keeping the streams separate means adding consumers
    to one never perturbs the other. If ``split.public_cols`` is empty the
    public branch is skipped and every round is private, tagged "all".

    ``sampler(ds, rng) -> classifier`` replaces the default uniform random
    linear classifier on the private columns; it must ignore the observation
    weights, since the only privacy cost accounted for is the noisy error
    estimate.
    """
    if params.n != train.n:
        raise ValueError(f"params.n={params.n} does not match training size {train.n}")
    split.validate_for(train.d)
    if len(split.private_cols) == 0:
        raise ValueError("brc_fit requires a non-empty private column set")
    if weak_learner is None:
        weak_learner = _default_weak_learner
    if sampler is None:

        def sampler(ds, rng):
            return random_linear_classifier(split.private_cols, rng)

    private_tag = "private" if split.public_cols else "all"
    n = train.n
    w_pub = np.ones(n)
    w_pri = np.ones(n)
    members: list[EnsembleMember] = []
    records: list[RoundRecord] = []

    for t in range(1, params.rounds + 1):
        h_pub = None
        err_pub = None
        if split.public_cols:
            h_pub = weak_learner(train, split.public_cols, w_pub)
            mis_pub = h_pub.predict(train.X) != train.y
            err_pub = weighted_error(mis_pub, w_pub)

        h_pri = sampler(train, classifier_rng)
        mis_pri = h_pri.predict(train.X) != train.y
        err_pri = noisy_private_error(mis_pri, w_pri, params, noise_rng)

        if h_pub is not None and abs(0.5 - err_pub) > abs(0.5 - err_pri):
            alpha = 0.5 - err_pub
            w_pub = w_pub * np.exp(alpha * mis_pub)
            members.append(EnsembleMember(alpha=alpha, clf=h_pub, subspace="public"))
            records.append(RoundRecord(t, "public", err_pub, err_pri, alpha))
        else:
            alpha = 0.5 - err_pri
            w_pri = clipped_update(w_pri, alpha, mis_pri, params.c1, params.c2)
            members.append(EnsembleMember(alpha=alpha, clf=h_pri, subspace=private_tag))
            records.append(RoundRecord(t, private_tag, err_pub, err_pri, alpha))

    return Ensemble(members=tuple(members)), records


def sensitivity_oracle(
    clf,
    ds: Dataset,
    weights_grid,
    c1: float,
    c2: float,
    *,
    value_grid=None,
    max_n: int = 8,
    max_private_dim: int = 2,
) -> float:
    """Brute-force the sensitivity of the weighted error on small instances.

    Enumerates every neighbor of ``ds`` that differs in one row's private
    features (the columns ``clf`` reads), with replacement values drawn from
    a finite grid over [-1, 1], and every admissible weight the replaced row
    may carry in [1/c1, c2]; returns the maximum observed
    |g(clf, D) - g(clf, D')| over all base weight vectors in
    ``weights_grid``. The replaced row's label stays fixed (labels are
    public). The result must never exceed c1*c2/n.

    The per-row weight grid is {1/c1, 1, c2} plus 5 uniformly spaced interior
    points; g is monotone in the single replaced weight, so the extremes
    dominate and the grid is sufficient.
    """
    k = len(clf.cols)
    if ds.n > max_n or k > max_private_dim:
        raise ValueError(
            f"instance too large for exhaustive search (n={ds.n} > {max_n} "
            f"or private dim {k} > {max_private_dim})"
        )
    if value_grid is None:
        value_grid = np.linspace(-1.0, 1.0, 5)

    lo, hi = 1.0 / c1, c2
    row_weight_grid = np.unique(
        np.concatenate([[lo, 1.0, hi], np.linspace(lo, hi, 7)[1:-1]])
    )

    def g(X, y, w):
        return weighted_error(clf.predict(X) != y, w)

    worst = 0.0
    for w in weights_grid:
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (ds.n,):
            raise ValueError("each weight vector must have one entry per row")
        if w.min() < lo - 1e-12 or w.max() > hi + 1e-12:
            raise ValueError("weight vector outside the admissible range [1/c1, c2]")
        g_base = g(ds.X, ds.y, w)
        for r in range(ds.n):
            for replacement in itertools.product(value_grid, repeat=k):
                X_nbr = ds.X.copy()
                X_nbr[r, list(clf.cols)] = replacement
                for w_r in row_weight_grid:
                    w_nbr = w.copy()
                    w_nbr[r] = w_r
                    worst = max(worst, abs(g_base - g(X_nbr, ds.y, w_nbr)))
    return worst
