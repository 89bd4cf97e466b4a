"""AdaBoost-style boosting where the private-feature learner is a random
linear classifier and only its error estimate is perturbed for privacy.

``brc_fit`` is the one booster loop; the feature split picks its shape:

* public and private columns: each round weighs the next link of a
  ``PublicChain`` (the public classifier fitted after the fit's public rounds
  so far) against a random private classifier, perturbs only the private
  error with Laplace noise, and keeps whichever classifier's error is
  farther from 0.5. The chain reads public data only, so fits that differ
  only in epsilon walk prefixes of one chain.
* no public columns (``FeatureSplit.all_private``): every feature is private
  and each round only takes a random classifier and uses its noisy error.

All rounds' random private classifiers are drawn by
``draw_private_classifiers`` before any weight exists, in round order, and
scored one block of rounds per matrix product. This reads nothing new: a
draw ignores the weights and ``classifier_rng`` feeds only the draws, so
every round gets the classifier it would have drawn itself, and fits that
differ only in epsilon can share one set of draws.

Observation weights on the private side are clipped to [1/c1, c2], which
bounds the sensitivity of the weighted error at c1*c2/n; the matching brute
force check lives in ``sensitivity_oracle``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .baselines import fit_logreg_weighted
from .data import Dataset, FeatureSplit
from .model import Ensemble, EnsembleMember, LinearClassifier, score_matrix
from .noise import PrivacyParams, laplace, random_linear_classifier


@dataclass(frozen=True)
class RoundRecord:
    """Diagnostics for one boosting round.

    ``chosen`` is "public" or "private" for split fits and "all" for fits
    without public columns; ``err_pub`` is the error of the chain link the
    round read, and None only in fits without public columns.
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


# Draws scored per matrix product in draw_private_classifiers: bounds its
# float temporaries at n * _DRAW_BLOCK, whatever the number of rounds.
_DRAW_BLOCK = 128


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
    privacy cost accounted for is the noisy error estimate. The draws are
    scored ``_DRAW_BLOCK`` at a time, so the float temporaries stay at
    O(n * _DRAW_BLOCK) however many rounds there are.
    """
    _check_split(train, split)
    if sampler is None:

        def sampler(ds, rng):
            return random_linear_classifier(split.private_cols, rng)

    draws = [sampler(train, classifier_rng) for _ in range(rounds)]
    mis = np.empty((rounds, train.n), dtype=bool)
    y_positive = train.y == 1
    for start in range(0, rounds, _DRAW_BLOCK):
        block = draws[start : start + _DRAW_BLOCK]
        positive = score_matrix(block, train.X) >= 0  # 0 predicts +1
        np.not_equal(positive.T, y_positive, out=mis[start : start + len(block)])
    mis.setflags(write=False)  # shared by every fit that takes these draws
    return draws, mis


class PublicChain:
    """The public weak learners of split fits on ``train``, fitted lazily:
    ``chain[k]`` is ``(h_k, mis_k, err_k)``, the ``fit_logreg_weighted`` fit
    on one F-ordered copy of the public columns after k public rounds, the
    rows it gets wrong and its weighted error.

    Exact: from unit weights at link 0, link k+1 is fitted on link k's
    weights times ``exp((0.5 - err_k) * mis_k)``, the only update a fit makes
    to its public weights, so after k public rounds every fit holds link k's
    weights. Free: the links read public columns and labels only, no private
    column, noise or epsilon, so fits that share a chain spend no budget on it.
    """

    def __init__(self, train: Dataset, split: FeatureSplit):
        self.n, self.cols = train.n, split.public_cols
        X = train.X[:, list(self.cols)]
        self._public = Dataset(X=X, y=train.y, columns=tuple(train.columns[c] for c in self.cols))
        self._links: list[tuple[LinearClassifier, np.ndarray, float]] = []
        self._weights = np.ones(train.n)

    def __getitem__(self, k: int) -> tuple[LinearClassifier, np.ndarray, float]:
        while len(self._links) <= k:
            fitted = fit_logreg_weighted(self._public, range(self._public.d), self._weights)
            mis = fitted.predict(self._public.X) != self._public.y
            err = weighted_error(mis, self._weights)
            self._links.append((replace(fitted, cols=self.cols), mis, err))  # members read train's columns
            self._weights = self._weights * np.exp((0.5 - err) * mis)
        return self._links[k]


def brc_fit(
    train: Dataset,
    split: FeatureSplit,
    params: PrivacyParams,
    *,
    draws: tuple[list[LinearClassifier], np.ndarray],
    public: PublicChain | None,
    noise_rng: np.random.Generator,
) -> tuple[Ensemble, list[RoundRecord]]:
    """Boost for ``params.rounds`` rounds over a public/private feature split.

    Round t merges two precomputed streams: link k of ``public``, the
    ``PublicChain`` of ``train`` and ``split``, where k counts the public
    rounds before t, and round t's private classifier and misclassified rows
    from ``draws``, the ``draw_private_classifiers`` result on the same
    ``train`` and ``split``. It then (a) adds Laplace noise to the private
    error only, (b) keeps the classifier whose error is farther from 0.5
    (ties go private), (c) sets alpha = 0.5 - err of the chosen classifier,
    and (d) after a private round updates the private weights, clipped to
    [1/c1, c2]; a public round moves on to the next link. Exactly ``rounds``
    Laplace draws are consumed (one per round, from ``noise_rng``), for a
    total privacy cost of epsilon.

    Neither stream reads this fit's weights, noise or epsilon, so fits that
    differ only in ``params`` may share them. ``noise_rng`` is the fit's own
    and feeds only the Laplace noise; keeping it apart from the draws'
    stream means adding consumers to one never perturbs the other. Without
    public columns ``public`` is None and every round is private, tagged
    "all". Raises ``ValueError`` when ``draws`` does not hold
    ``params.rounds`` classifiers and a (rounds, train.n) matrix, or when
    ``public`` is None on a split with public columns, a chain on a split
    without, or a chain of other rows or public columns.
    """
    _check_split(train, split)
    classifiers, mis_pri_all = draws
    expected = (params.rounds, train.n)
    if len(classifiers) != params.rounds or np.shape(mis_pri_all) != expected:
        raise ValueError(
            f"draws hold {len(classifiers)} classifiers and a {np.shape(mis_pri_all)} matrix; "
            f"this fit needs {params.rounds} and {expected}"
        )
    want = (train.n, split.public_cols) if split.public_cols else None
    got = None if public is None else (public.n, public.cols)
    if got != want:
        raise ValueError(f"public chain (rows, public columns): this fit needs {want}, got {got}")

    private_tag = "all" if public is None else "private"
    w_pri = np.ones(train.n)
    members: list[EnsembleMember] = []
    records: list[RoundRecord] = []
    k = 0  # public rounds so far
    for t, (h_pri, mis_pri) in enumerate(zip(classifiers, mis_pri_all), start=1):
        h_pub, _, err_pub = (None, None, None) if public is None else public[k]
        err_pri = noisy_private_error(mis_pri, w_pri, params, noise_rng)

        if h_pub is not None and abs(0.5 - err_pub) > abs(0.5 - err_pri):
            alpha = 0.5 - err_pub
            k += 1
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
