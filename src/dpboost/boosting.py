"""AdaBoost-style boosting where the private-feature learner is a random
linear classifier and only its error estimate is perturbed for privacy.

``brc_fit`` is the one booster loop; the feature split picks its shape:

* public and private columns: each round weighs the next link of a
  ``PublicChain`` (the public classifier fitted after the fit's public rounds
  so far) against a random private classifier, perturbs only the private
  error with Laplace noise, and keeps whichever classifier's error is
  farther from 0.5.
* no public columns (``FeatureSplit.all_private``): every feature is private
  and each round only takes a random classifier and uses its noisy error.

``draw_private_classifiers`` builds a fit's free inputs as one ``Draws``:
all rounds' random private classifiers, drawn before any weight exists, in
round order, one block of rounds per sampler call, and the split's public
chain (None without public columns). Both read the training rows from the
full data a block of rows at a time, never from a copy of the training
matrix. None of it reads a weight, noise or epsilon: a draw sees only the
labels, ``classifier_rng`` feeds only the draws and the chain reads public
columns only. So every round gets the classifier it would have drawn
itself, and fits that differ only in their budget share one ``Draws``.

Observation weights on the private side are clipped to [1/c1, c2], which
bounds the sensitivity of the weighted error at c1*c2/n; the matching brute
force check lives in ``sensitivity_oracle``, and ``sensitivity_sweep`` runs it
on random small instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .baselines import fit_logreg_weighted
from .data import Dataset, FeatureSplit, check_int
from .model import Ensemble, EnsembleMember, LinearClassifier, score_matrix
from .noise import Budget, check_clipping, laplace_scale, random_linear_classifier


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
    ``mis`` flags the misclassified rows. The sum is ``np.einsum``'s, whose
    order does not depend on the BLAS thread count (``np.dot`` splits more
    than 10,000 terms between OpenBLAS threads)."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != np.shape(mis):
        raise ValueError(f"weights shape {w.shape} does not match {np.shape(mis)}")
    if not w.min() > 0:
        raise ValueError("weights must be strictly positive")
    return float(np.einsum("i,i->", w, mis) / w.sum())


def noisy_private_error(mis, w_pri, c1: float, c2: float, rounds: int, budget: Budget) -> float:
    """Weighted error released through ``budget`` at sensitivity c1*c2/n and
    scale ``laplace_scale(c1, c2, rounds, budget.epsilon, n)``, n = len(w_pri):
    epsilon/rounds of it.

    The result may legitimately fall outside [0, 1].
    """
    w = np.asarray(w_pri, dtype=np.float64)
    if w.min() < 1.0 / c1 - 1e-12 or w.max() > c2 + 1e-12:
        raise ValueError("private weights outside the clipping bounds [1/c1, c2]")
    n = len(w)
    scale = laplace_scale(c1, c2, rounds, budget.epsilon, n)
    return budget.release("brc error", weighted_error(mis, w), c1 * c2 / n, scale)


def clipped_update(w: np.ndarray, alpha: float, mis: np.ndarray, c1: float, c2: float) -> np.ndarray:
    """Multiplicative weight update that skips (not clamps) out-of-range results.

    Each candidate w_i * exp(alpha * mis_i) replaces w_i if it stays in
    [1/c1, c2]; otherwise w_i is left unchanged.
    """
    candidate = w * np.exp(alpha * mis)
    ok = (candidate >= 1.0 / c1) & (candidate <= c2)
    return np.where(ok, candidate, w)


# Rows per block of _row_blocks. A power of two: each full block scores with
# the bits of one product over all rows, and on the census sweeps' shapes so
# does the last (1,000 would not); a last bit moves a flag only at a score ~0.
_SCORE_ROWS = 2048


def _row_blocks(X: np.ndarray, rows: np.ndarray):
    """Yield (start, X[rows[start : start + _SCORE_ROWS]]) for start = 0,
    _SCORE_ROWS, ..., each gathered into the same C-ordered buffer."""
    buf = np.empty((min(_SCORE_ROWS, len(rows)), X.shape[1]))
    for start in range(0, len(rows), _SCORE_ROWS):
        chunk = rows[start : start + _SCORE_ROWS]
        # "raise" would gather into a copy; the callers' y[rows] raises for a row outside X
        yield start, np.take(X, chunk, axis=0, out=buf[: len(chunk)], mode="wrap")


class PublicChain:
    """The public weak learners of split fits on the training rows ``rows`` of
    ``data``, fitted lazily: ``chain[k]`` is ``(h_k, mis_k, err_k)``, the
    ``fit_logreg_weighted`` fit on one F-ordered copy of the rows' public
    columns after k public rounds, the rows it gets wrong and its weighted error.

    Exact: from unit weights at link 0, link k+1 is fitted on link k's
    weights times ``exp((0.5 - err_k) * mis_k)``, the only update a fit makes
    to its public weights, so after k public rounds every fit holds link k's
    weights. Free: the links read public columns and labels only, no private
    column, noise or epsilon, so fits that share a chain spend no budget on it.
    """

    def __init__(self, data: Dataset, rows: np.ndarray, split: FeatureSplit):
        self.cols = split.public_cols
        X = np.empty((len(rows), len(self.cols)), order="F")
        for start, block in _row_blocks(data.X, rows):
            X[start : start + len(block)] = block[:, self.cols]
        self._public = Dataset(X=X, y=data.y[rows], columns=tuple(data.columns[c] for c in self.cols))
        self._links: list[tuple[LinearClassifier, np.ndarray, float]] = []
        self._weights = np.ones(len(rows))

    def __getitem__(self, k: int) -> tuple[LinearClassifier, np.ndarray, float]:
        while len(self._links) <= k:
            fitted = fit_logreg_weighted(self._public, range(self._public.d), self._weights)
            mis = fitted.predict(self._public.X) != self._public.y
            err = weighted_error(mis, self._weights)
            self._links.append((replace(fitted, cols=self.cols), mis, err))  # members read data's columns
            self._weights = self._weights * np.exp((0.5 - err) * mis)
        return self._links[k]


@dataclass(frozen=True, eq=False)
class Draws:
    """The inputs of a fit that cost no budget, as ``draw_private_classifiers``
    builds them for one set of training rows and split: round t's private
    classifier ``classifiers[t-1]``, the training rows it gets wrong
    ``mis[t-1]`` (a read-only (rounds, n) matrix), and the split's ``public``
    chain, None when the split has no public columns."""

    classifiers: tuple[LinearClassifier, ...]
    mis: np.ndarray
    public: PublicChain | None


# Rounds drawn per sampler call in draw_private_classifiers: bounds its
# float temporaries at _SCORE_ROWS * _DRAW_BLOCK, whatever the number of rounds.
_DRAW_BLOCK = 128


def draw_private_classifiers(
    data: Dataset,
    rows: np.ndarray,
    split: FeatureSplit,
    rounds: int,
    classifier_rng: np.random.Generator,
    sampler=None,
) -> Draws:
    """The ``Draws`` of fits of ``rounds`` rounds on the training rows ``rows``
    of ``data`` and ``split``: the random private classifiers, the training
    rows each misclassifies, and a ``PublicChain`` when the split has public
    columns.

    ``classifier_rng`` feeds only the draws. ``sampler(y, count, rng)``
    replaces the default uniform random linear classifier on the private
    columns: it is called once per block of at most ``_DRAW_BLOCK`` rounds,
    in round order, with the training labels ``data.y[rows]``, and returns
    ``count`` classifiers. It sees no feature column and no observation
    weight (none exists yet), since the only privacy cost accounted for is
    the noisy error estimate. Each block is scored on ``_SCORE_ROWS`` training
    rows at a time, gathered into one buffer: the training matrix is never
    copied. Raises ``DataError`` unless ``rounds`` is a positive integer, and
    ``ValueError`` when ``split`` does not cover ``data``'s columns or has no
    private column, or when a sampler returns another count.
    """
    check_int("rounds", rounds, 1)
    split.validate_for(data.d)
    if len(split.private_cols) == 0:
        raise ValueError("boosting requires a non-empty private column set")
    if sampler is None:

        def sampler(y, count, rng):
            return [random_linear_classifier(split.private_cols, rng) for _ in range(count)]

    y = data.y[rows]
    classifiers: list[LinearClassifier] = []
    mis = np.empty((rounds, len(rows)), dtype=bool)
    y_positive = y == 1
    for start in range(0, rounds, _DRAW_BLOCK):
        count = min(_DRAW_BLOCK, rounds - start)
        block = list(sampler(y, count, classifier_rng))
        if len(block) != count:
            raise ValueError(f"the sampler returned {len(block)} classifiers for a block of {count} rounds")
        for first, X in _row_blocks(data.X, rows):
            end = first + len(X)
            positive = score_matrix(block, X) >= 0  # 0 predicts +1
            np.not_equal(positive.T, y_positive[first:end], out=mis[start : start + count, first:end])
        classifiers.extend(block)
    mis.setflags(write=False)  # shared by every fit that takes these draws
    public = PublicChain(data, rows, split) if split.public_cols else None
    return Draws(tuple(classifiers), mis, public)


def brc_fit(draws: Draws, budget: Budget, *, c1: float, c2: float) -> tuple[Ensemble, list[RoundRecord]]:
    """Boost for T = ``len(draws.classifiers)`` rounds on the inputs ``draws``
    holds, spending ``budget.epsilon``.

    Round t merges two precomputed streams: link k of ``draws.public``,
    where k counts the public rounds before t, and round t's private
    classifier and misclassified rows. It then (a) adds Laplace noise to the
    private error only, (b) keeps the classifier whose error is farther from
    0.5 (ties go private), (c) sets alpha = 0.5 - err of the chosen
    classifier, and (d) after a private round updates the private weights,
    clipped to [1/c1, c2]; a public round moves on to the next link. Exactly
    T Laplace releases go through ``budget`` (one per round, each
    epsilon/T), for a total privacy cost of epsilon; n, which sets their
    scale, is the number of training rows in ``draws.mis``.

    ``draws`` reads no weight, noise or epsilon, so fits that differ only in
    ``budget`` may share it. ``budget`` is the fit's own and its stream feeds
    only the Laplace noise; keeping it apart from the draws' stream means
    adding consumers to one never perturbs the other. Without public columns
    every round is private, tagged "all". Raises ``DataError`` unless c1 and
    c2 pass ``check_clipping``.
    """
    check_clipping(c1, c2)
    rounds = len(draws.classifiers)
    public = draws.public
    private_tag = "all" if public is None else "private"
    w_pri = np.ones(draws.mis.shape[1])
    members: list[EnsembleMember] = []
    records: list[RoundRecord] = []
    k = 0  # public rounds so far
    for t, (h_pri, mis_pri) in enumerate(zip(draws.classifiers, draws.mis), start=1):
        h_pub, _, err_pub = (None, None, None) if public is None else public[k]
        err_pri = noisy_private_error(mis_pri, w_pri, c1, c2, rounds, budget)

        if h_pub is not None and abs(0.5 - err_pub) > abs(0.5 - err_pri):
            alpha = 0.5 - err_pub
            k += 1
            members.append(EnsembleMember(alpha=alpha, clf=h_pub))
            records.append(RoundRecord(t, "public", err_pub, err_pri, alpha))
        else:
            alpha = 0.5 - err_pri
            w_pri = clipped_update(w_pri, alpha, mis_pri, c1, c2)
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


def sensitivity_sweep(max_n: int, rng) -> list[tuple[int, int, float, float]]:
    """Brute-force one random instance per n = 2..max_n, k = 1, 2 private
    columns and c1 = c2 = c in {1, sqrt 2, 2}, drawn from ``rng`` in that
    order; returns (n, k, c, oracle value) rows, each bounded by c*c/n. The
    ``ValueError`` for a max_n outside [2, _ORACLE_MAX_N] names the CLI's flag.
    """
    if not 2 <= max_n <= _ORACLE_MAX_N:
        raise ValueError(f"--max-n must lie in [2, {_ORACLE_MAX_N}], got {max_n}")
    rows = []
    for n in range(2, max_n + 1):
        for k in (1, 2):
            for c in (1.0, np.sqrt(2.0), 2.0):
                X = rng.choice(_ORACLE_VALUES, size=(n, k))
                y = np.where(rng.random(n) < 0.5, 1, -1)
                if np.all(y == y[0]):
                    y[0] = -y[0]
                ds = Dataset(X=X, y=y, columns=tuple(("f", f"={j}") for j in range(k)))
                clf = LinearClassifier(
                    coeffs=rng.uniform(-1, 1, size=k), intercept=rng.uniform(-1, 1), cols=tuple(range(k))
                )
                weights_grid = [np.ones(n), np.full(n, 1.0 / c), np.full(n, c), rng.uniform(1.0 / c, c, size=n)]
                rows.append((n, k, c, sensitivity_oracle(clf, ds, weights_grid, c, c)))
    return rows
