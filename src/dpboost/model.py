"""Linear classifiers over column subsets, boosted ensembles, and accuracy.

Sign convention: a score of exactly 0 predicts +1, everywhere. Keeping one
global convention makes label flips exact inverses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset


def sign_labels(scores: np.ndarray) -> np.ndarray:
    """Map real scores to labels: +1 for score >= 0, else -1."""
    return np.where(np.asarray(scores) >= 0.0, 1, -1).astype(np.int64, copy=False)


def _columns(X: np.ndarray, cols: tuple[int, ...]) -> np.ndarray:
    """X restricted to ``cols``: X itself when ``cols`` is every column in
    order, so full-width classifiers never copy the matrix."""
    if cols == tuple(range(X.shape[1])):
        return X
    return X[:, list(cols)]


@dataclass(frozen=True, eq=False)
class LinearClassifier:
    """Affine predictor reading only the columns in ``cols``.

    Predicts sign(coeffs . x[cols] + intercept), with 0 mapped to +1.
    """

    coeffs: np.ndarray
    intercept: float
    cols: tuple[int, ...]

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=np.float64)
        cols = tuple(int(c) for c in self.cols)
        if coeffs.ndim != 1 or coeffs.shape[0] != len(cols):
            raise ValueError("coeffs must be a 1-d vector matching cols")
        if len(cols) < 1:
            raise ValueError("a linear classifier needs at least one column")
        if not np.all(np.isfinite(coeffs)) or not np.isfinite(self.intercept):
            raise ValueError("coefficients and intercept must be finite")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "intercept", float(self.intercept))
        object.__setattr__(self, "cols", cols)

    def scores(self, X: np.ndarray) -> np.ndarray:
        return score_matrix([self], X)[:, 0]

    def predict(self, X: np.ndarray) -> np.ndarray:
        return sign_labels(self.scores(X))


def score_matrix(clfs, X: np.ndarray) -> np.ndarray:
    """(n, k) raw scores of the k classifiers ``clfs`` on X, column j for clfs[j].

    The result is F-ordered: each classifier's column is contiguous, and its
    transpose is the C-ordered (k, n) matrix of one row per classifier.

    Classifiers that read the same columns are scored together: one gather
    and one matrix product per distinct column set, computed as
    ``(W @ X.T).T`` for the (k, d) coefficient rows W: the BLAS's fast
    orientation for a short W against a tall X, in either layout. A lone
    classifier's coefficients go in twice, because the BLAS computes a
    one-row product as a matrix-vector product, which rounds differently
    from a row of a matrix product; so a classifier's scores are the same
    bits whether it is scored alone or with others.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    groups: dict[tuple[int, ...], list[int]] = {}
    for j, clf in enumerate(clfs):
        groups.setdefault(clf.cols, []).append(j)
    scores = None if len(groups) == 1 else np.empty((X.shape[0], len(clfs)), order="F")
    for cols, idx in groups.items():
        W = np.stack([clfs[j].coeffs for j in idx])  # one row per classifier
        if len(idx) == 1:
            W = np.repeat(W, 2, axis=0)
        block = (W @ _columns(X, cols).T).T[:, : len(idx)]
        block += np.array([clfs[j].intercept for j in idx])
        if scores is None:
            return block  # one column set: its product is the whole matrix
        scores[:, idx] = block
    return scores


@dataclass(frozen=True)
class EnsembleMember:
    alpha: float
    clf: LinearClassifier


@dataclass(frozen=True)
class Ensemble:
    """Weighted vote of classifiers: H(x) = sign(sum_t alpha_t * h_t(x)).

    Each member contributes its +/-1 label scaled by alpha; scaling every
    alpha by the same positive factor leaves all predictions unchanged. The
    weighted votes are summed in member order, one running sum for every
    prefix, so ``predict`` is the last row of ``prefix_predictions`` bit for
    bit.
    """

    members: tuple[EnsembleMember, ...]

    def __post_init__(self):
        if len(self.members) == 0:
            raise ValueError("ensemble must contain at least one member")

    def __len__(self) -> int:
        return len(self.members)

    def vote_matrix(self, X: np.ndarray) -> np.ndarray:
        """(n, T) matrix of member labels, in member order."""
        return sign_labels(score_matrix([m.clf for m in self.members], X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.prefix_predictions(X)[-1]

    def prefix_predictions(self, X: np.ndarray) -> np.ndarray:
        """(T, n) labels of each partial ensemble H_1..H_T, for the per-round test accuracies."""
        alphas = np.array([m.alpha for m in self.members])
        running = np.multiply(self.vote_matrix(X).T, alphas[:, None], order="C")
        for t in range(1, len(running)):
            running[t] += running[t - 1]  # one n-wide add per member, cheaper than a cumsum along T
        return sign_labels(running)


def accuracy(predictor, ds: Dataset) -> float:
    """Fraction of rows where the predictor's label matches ds.y.

    ``predictor`` is either an object with a ``predict(X)`` method or a
    callable mapping a feature matrix to labels.
    """
    if ds.n == 0:
        raise ValueError("accuracy of an empty dataset is undefined")
    predict = predictor.predict if hasattr(predictor, "predict") else predictor
    return float(np.mean(predict(ds.X) == ds.y))
