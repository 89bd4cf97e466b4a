"""Linear classifiers over column subsets, boosted ensembles, and accuracy.

Sign convention: a score of exactly 0 predicts +1, everywhere. Keeping one
global convention makes label flips exact inverses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset


def sign_labels(scores: np.ndarray) -> np.ndarray:
    """Map real scores to labels: +1 for score >= 0, else -1."""
    return _labels(np.asarray(scores) >= 0.0)


def _labels(nonneg: np.ndarray) -> np.ndarray:
    """int64 labels from score flags: +1 where ``nonneg`` is True, else -1."""
    return nonneg.astype(np.int64) * 2 - 1  # several times faster than np.where(nonneg, 1, -1)


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
        cols = tuple(map(int, self.cols))
        if coeffs.shape != (len(cols),):
            raise ValueError("coeffs must be a 1-d vector matching cols")
        if not cols:
            raise ValueError("a linear classifier needs at least one column")
        if not (math.isfinite(self.intercept) and np.isfinite(coeffs).all()):
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
    members' labels are read from one boolean matrix of score flags (score
    >= 0, so a score of exactly 0 votes +1), and each member adds +alpha or
    -alpha to one running n-vector, in member order. ``vote`` and
    ``prefix_vote`` take that matrix from the caller; ``predict`` and
    ``prefix_predictions`` compute it from X and share the same sum, so
    ``predict`` is the last row of ``prefix_predictions`` bit for bit.
    """

    members: tuple[EnsembleMember, ...]

    def __post_init__(self):
        if len(self.members) == 0:
            raise ValueError("ensemble must contain at least one member")

    def __len__(self) -> int:
        return len(self.members)

    def _flags(self, X: np.ndarray) -> np.ndarray:
        """(n, T) booleans, column t True where member t votes +1."""
        return score_matrix([m.clf for m in self.members], X) >= 0.0

    def _running_votes(self, flags: np.ndarray):
        """Yield the weighted vote of H_1, ..., H_T in turn: one n-vector,
        updated in place by each member's +/-alpha in member order."""
        running = np.zeros(flags.shape[0])
        for flag, member in zip(flags.T, self.members):
            running += np.where(flag, member.alpha, -member.alpha)
            yield running

    def vote(self, flags: np.ndarray) -> np.ndarray:
        """Labels of H from the (n, T) score flags of its members on n rows,
        as ``_flags`` computes them from X: a caller that already holds them
        (a fit's ``Draws``, on its training rows) scores no member again."""
        *_, running = self._running_votes(flags)
        return sign_labels(running)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.vote(self._flags(X))

    def prefix_vote(self, flags: np.ndarray) -> np.ndarray:
        """(T, n) labels of each partial ensemble H_1..H_T from the flags
        ``vote`` takes: row t is the sign of the running vote after member t."""
        nonneg = np.empty(flags.T.shape, dtype=bool)
        for row, running in zip(nonneg, self._running_votes(flags)):
            np.greater_equal(running, 0.0, out=row)
        return _labels(nonneg)

    def prefix_predictions(self, X: np.ndarray) -> np.ndarray:
        return self.prefix_vote(self._flags(X))


def accuracy(predictor, ds: Dataset) -> float:
    """Fraction of rows where the predictor's label matches ds.y.

    ``predictor`` is either an object with a ``predict(X)`` method or a
    callable mapping a feature matrix to labels.
    """
    if ds.n == 0:
        raise ValueError("accuracy of an empty dataset is undefined")
    predict = predictor.predict if hasattr(predictor, "predict") else predictor
    return float(np.mean(predict(ds.X) == ds.y))
