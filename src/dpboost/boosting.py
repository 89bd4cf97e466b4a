"""AdaBoost-style boosting where the private-feature learner is a random
linear classifier and only its error estimate is perturbed for privacy.

``brc_fit`` is the one booster loop; the feature split picks its shape:

* public and private columns: each round takes a weighted public classifier
  and a random private classifier, perturbs the private error with
  Laplace noise, and keeps whichever classifier's error is farther from 0.5.
  The public classifier is refitted only after a public round moved its
  weights; otherwise the previous fit is reused, with identical outputs.
* no public columns (``FeatureSplit.all_private``): every feature is private
  and each round only takes a random classifier and uses its noisy error.

All rounds' random private classifiers are drawn by
``draw_private_classifiers`` before any weight exists, in round order, and
scored in one matrix product. This reads nothing new: a draw ignores the
weights and ``classifier_rng`` feeds only the draws, so every round gets the
classifier it would have drawn itself, and fits that differ only in epsilon
can share one set of draws.

Observation weights on the private side are clipped to [1/c1, c2], which
bounds the sensitivity of the weighted error at c1*c2/n; the matching brute
force check lives in ``sensitivity_oracle``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .baselines import fit_logreg_weighted
from .data import Dataset, FeatureSplit
from .model import Ensemble, EnsembleMember, LinearClassifier, score_matrix
from .noise import PrivacyParams, laplace, random_linear_classifier


@dataclass(frozen=True)
class RoundRecord:
    """Diagnostics for one boosting round.

    ``chosen`` is "public" or "private" for split fits and "all" for fits
    without public columns; ``err_pub`` is None only in fits without public
    columns (a round that reuses the public fit records its error).
    ``test_accuracy`` is the held-out accuracy of the partial ensemble
    H_1..H_t; the harness sets it and ``brc_fit`` leaves it None.
    """

    t: int
    chosen: str
    err_pub: float | None
    err_pri_noisy: float
    alpha: float
    test_accuracy: float | None = None


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
    """Weighted error plus one Lap(c1*c2*rounds/(epsilon*n)) draw, n = len(w_pri).

    The result may legitimately fall outside [0, 1]. A zero noise scale
    (epsilon = inf) adds nothing and consumes no draw.
    """
    w = np.asarray(w_pri, dtype=np.float64)
    if w.min() < 1.0 / params.c1 - 1e-12 or w.max() > params.c2 + 1e-12:
        raise ValueError("private weights outside the clipping bounds [1/c1, c2]")
    err = weighted_error(mis, w)
    scale = params.laplace_scale(len(w))
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


def _check_split(train: Dataset, split: FeatureSplit) -> None:
    split.validate_for(train.d)
    if len(split.private_cols) == 0:
        raise ValueError("brc_fit requires a non-empty private column set")


def draw_private_classifiers(
    train: Dataset,
    split: FeatureSplit,
    rounds: int,
    classifier_rng: np.random.Generator,
    sampler=None,
) -> tuple[list[LinearClassifier], np.ndarray]:
    """The ``rounds`` random private classifiers of a fit and the training rows
    each misclassifies: ``(draws, mis)``, where row t-1 of the (rounds, n)
    matrix ``mis`` flags the rows that round t's draw gets wrong.

    ``classifier_rng`` feeds only the draws. ``sampler(ds, rng) ->
    LinearClassifier`` replaces the default uniform random linear classifier
    on the private columns and is called ``rounds`` times, in round order; it
    must ignore the observation weights (none exist yet), since the only
    privacy cost accounted for is the noisy error estimate.
    """
    _check_split(train, split)
    if sampler is None:

        def sampler(ds, rng):
            return random_linear_classifier(split.private_cols, rng)

    draws = [sampler(train, classifier_rng) for _ in range(rounds)]
    positive = np.ascontiguousarray((score_matrix(draws, train.X) >= 0).T)  # 0 predicts +1
    mis = positive != (train.y == 1)
    mis.setflags(write=False)  # shared by every fit that takes these draws
    return draws, mis


def brc_fit(
    train: Dataset,
    split: FeatureSplit,
    params: PrivacyParams,
    *,
    draws: tuple[list[LinearClassifier], np.ndarray],
    noise_rng: np.random.Generator,
) -> tuple[Ensemble, list[RoundRecord]]:
    """Boost for ``params.rounds`` rounds over a public/private feature split.

    Per round: (a) fit a weighted logistic regression on the public columns
    with the public weights, in round 1 and after each public round; after
    a private round the weights have not moved, so the previous fit, its
    misclassified rows and its error are reused, exactly what the
    deterministic solver would return again, (b) take the round's random
    classifier on the private columns and its misclassified rows from
    ``draws``, the result of ``draw_private_classifiers`` on the same
    ``train`` and ``split``, (c) compute the exact public error and the
    noisy private error, (d) keep the classifier whose error is farther
    from 0.5 (ties go private), (e) set alpha = 0.5 - err of the chosen
    classifier, and (f) update only the chosen side's weights; public
    updates are unclipped, private updates are clipped to [1/c1, c2].
    Exactly ``rounds`` Laplace draws are consumed (one per round, from
    ``noise_rng``), for a total privacy cost of epsilon.

    The draws read no weights and no noise, so fits that differ only in
    ``params`` may share them. ``noise_rng`` is the fit's own and feeds only
    the Laplace noise; keeping it apart from the draws' stream means adding
    consumers to one never perturbs the other. If
    ``split.public_cols`` is empty the public branch is skipped and every
    round is private, tagged "all". Raises ``ValueError`` when ``draws``
    does not hold ``params.rounds`` classifiers and a (rounds, train.n)
    matrix.
    """
    _check_split(train, split)
    classifiers, mis_pri_all = draws
    expected = (params.rounds, train.n)
    if len(classifiers) != params.rounds or np.shape(mis_pri_all) != expected:
        raise ValueError(
            f"draws hold {len(classifiers)} classifiers and a {np.shape(mis_pri_all)} matrix; "
            f"this fit needs {params.rounds} and {expected}"
        )

    private_tag = "private" if split.public_cols else "all"
    n = train.n
    w_pub = np.ones(n)
    w_pri = np.ones(n)
    members: list[EnsembleMember] = []
    records: list[RoundRecord] = []

    h_pub = err_pub = None
    refit_pub = bool(split.public_cols)
    for t, (h_pri, mis_pri) in enumerate(zip(classifiers, mis_pri_all), start=1):
        if refit_pub:
            h_pub = fit_logreg_weighted(train, split.public_cols, w_pub)
            mis_pub = h_pub.predict(train.X) != train.y
            err_pub = weighted_error(mis_pub, w_pub)
            refit_pub = False

        err_pri = noisy_private_error(mis_pri, w_pri, params, noise_rng)

        if h_pub is not None and abs(0.5 - err_pub) > abs(0.5 - err_pri):
            alpha = 0.5 - err_pub
            w_pub = w_pub * np.exp(alpha * mis_pub)
            refit_pub = True
            members.append(EnsembleMember(alpha=alpha, clf=h_pub))
            records.append(RoundRecord(t, "public", err_pub, err_pri, alpha))
        else:
            alpha = 0.5 - err_pri
            w_pri = clipped_update(w_pri, alpha, mis_pri, params.c1, params.c2)
            members.append(EnsembleMember(alpha=alpha, clf=h_pri))
            records.append(RoundRecord(t, private_tag, err_pub, err_pri, alpha))

    return Ensemble(members=tuple(members)), records


# Largest instance sensitivity_oracle enumerates; its work grows as n * len(_ORACLE_VALUES)**k.
_ORACLE_MAX_N, _ORACLE_MAX_DIM = 8, 2
_ORACLE_VALUES = np.linspace(-1.0, 1.0, 5)  # replacement values for a private feature


def sensitivity_oracle(clf, ds: Dataset, weights_grid, c1: float, c2: float) -> float:
    """Brute-force the sensitivity of the weighted error on small instances.

    Enumerates every neighbor of ``ds`` that differs in one row's private
    features (the columns ``clf`` reads), with replacement values drawn from
    the grid ``_ORACLE_VALUES`` over [-1, 1], and every admissible weight the
    replaced row may carry in [1/c1, c2]; returns the maximum observed
    |g(clf, D) - g(clf, D')| over all base weight vectors in
    ``weights_grid``. The replaced row's label stays fixed (labels are
    public). The result must never exceed c1*c2/n.

    The per-row weight grid is {1/c1, 1, c2} plus 5 uniformly spaced interior
    points; g is monotone in the single replaced weight, so the extremes
    dominate and the grid is sufficient.
    """
    k = len(clf.cols)
    if ds.n > _ORACLE_MAX_N or k > _ORACLE_MAX_DIM:
        raise ValueError(
            f"instance too large for exhaustive search (n={ds.n} > {_ORACLE_MAX_N} "
            f"or private dim {k} > {_ORACLE_MAX_DIM})"
        )

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
            for replacement in itertools.product(_ORACLE_VALUES, repeat=k):
                X_nbr = ds.X.copy()
                X_nbr[r, list(clf.cols)] = replacement
                for w_r in row_weight_grid:
                    w_nbr = w.copy()
                    w_nbr[r] = w_r
                    worst = max(worst, abs(g_base - g(X_nbr, ds.y, w_nbr)))
    return worst
