"""Comparison classifiers: weighted/unweighted logistic regression, a
differentially private logistic regression via objective perturbation, and a
teacher-ensemble voting scheme that feeds a noisy aggregate label to a
student model as an extra feature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, FeatureSplit, check_int
from .model import LinearClassifier, _columns, score_matrix, sign_labels
from .noise import Budget


@dataclass(frozen=True)
class LogRegHyper:
    """Ridge coefficient and damped-Newton stopping rule for the logistic fits."""

    lam: float = 1e-3
    max_iters: int = 500
    tol: float = 1e-6

    def __post_init__(self):
        # lam > 0 keeps the Hessian positive definite, so each Newton step
        # exists (at lam = 0 a constant-zero column makes it singular)
        if not self.lam > 0:
            raise ValueError("ridge coefficient must be > 0")
        if self.max_iters < 1 or self.tol <= 0:
            raise ValueError("max_iters >= 1 and tol > 0 required")


def _sigmoid(t: np.ndarray) -> np.ndarray:
    # exp(-|t|) never overflows: 1/(1+exp(-t)) for t >= 0, exp(t)/(1+exp(t)) below
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def weighted_logistic_loss(theta, intercept, X, y, weights, lam) -> float:
    """(1/sum w) * sum_i w_i * log(1 + exp(-y_i (theta.x_i + b))) + (lam/2)||theta||^2."""
    z = X @ theta + intercept
    margins = -y * z
    w = np.asarray(weights, dtype=np.float64)
    # log(1 + exp(m)) = max(m, 0) + log1p(exp(-|m|)), without overflow
    terms = np.maximum(margins, 0.0) + np.log1p(np.exp(-np.abs(margins)))
    data = float(np.dot(w, terms) / np.sum(w))
    return data + 0.5 * lam * float(np.dot(theta, theta))


def weighted_logistic_grad(theta, intercept, X, y, weights, lam):
    """Analytic gradient of ``weighted_logistic_loss`` w.r.t. (theta, intercept)."""
    z = X @ theta + intercept
    w = np.asarray(weights, dtype=np.float64)
    coeff = w * (-y) * _sigmoid(-y * z) / np.sum(w)
    return X.T @ coeff + lam * theta, float(np.sum(coeff))


def weighted_logistic_hess(theta, intercept, X, y, weights, lam):
    """Hessian of ``weighted_logistic_loss`` w.r.t. (theta, intercept), intercept last.

    The intercept is unregularized, so ``lam`` sits on the theta block only.
    The intercept row and column are the curvature-weighted column sums of
    X, taken in one matrix-vector product ``curv @ X``.
    """
    z = X @ theta + intercept
    w = np.asarray(weights, dtype=np.float64)
    # sigma(z) * sigma(-z) without the cancellation of p * (1 - p); y^2 = 1
    e = np.exp(-np.abs(z))
    curv = w * e / (1.0 + e) ** 2 / np.sum(w)
    d = X.shape[1]
    H = np.empty((d + 1, d + 1))
    Xc = X * curv[:, None]
    H[:d, :d] = X.T @ Xc
    H[:d, :d][np.diag_indices(d)] += lam
    H[:d, d] = H[d, :d] = curv @ X
    H[d, d] = curv.sum()
    return H


def _newton(loss_fn, grad_fn, hess_fn, x, hyper: LogRegHyper):
    """Damped Newton minimization of a smooth convex objective of the vector ``x``.

    Each iteration solves H s = g and halves the step (up to 30 times) until
    the loss does not rise, so the loss sequence is non-increasing. Stops
    once the gradient norm is <= ``tol``, after ``max_iters`` iterations, or
    when no halved step keeps the loss from rising (the loss is then flat to
    rounding). Returns ``(x, stopped at the gradient tolerance)``.
    """
    loss = loss_fn(x)
    if not math.isfinite(loss):
        raise RuntimeError("non-finite loss at initialization")
    for _ in range(hyper.max_iters):
        g = grad_fn(x)
        if np.linalg.norm(g) <= hyper.tol:
            return x, True
        s = np.linalg.solve(hess_fn(x), g)
        t = 1.0
        for _ in range(31):
            cand = x - t * s
            cand_loss = loss_fn(cand)
            if cand_loss <= loss:  # False for NaN
                break
            t *= 0.5
        else:
            break
        x, loss = cand, cand_loss
    return x, False


def fit_logreg_weighted(
    ds: Dataset, cols, weights=None, hyper: LogRegHyper = LogRegHyper()
) -> LinearClassifier:
    """Minimize the weighted ridge-regularized logistic loss on ``cols``.

    Stops at the gradient-norm tolerance or after ``max_iters`` iterations
    and returns the classifier (theta, b) restricted to those columns.
    """
    cols = tuple(int(c) for c in cols)
    if len(cols) == 0:
        raise ValueError("fit requires a non-empty column set")
    if weights is None:
        weights = np.ones(ds.n)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (ds.n,) or not np.all(w > 0):
        raise ValueError("weights must be strictly positive, one per row")

    # the solver always sees an F-ordered matrix: the BLAS rounds the two
    # layouts differently, and a fancy-indexed column gather is F-ordered
    X = np.asfortranarray(_columns(ds.X, cols))
    y = ds.y.astype(np.float64)
    lam = hyper.lam
    x, _ = _newton(
        lambda x: weighted_logistic_loss(x[:-1], x[-1], X, y, w, lam),
        lambda x: np.append(*weighted_logistic_grad(x[:-1], x[-1], X, y, w, lam)),
        lambda x: weighted_logistic_hess(x[:-1], x[-1], X, y, w, lam),
        np.zeros(X.shape[1] + 1),
        hyper,
    )
    return LinearClassifier(coeffs=x[:-1], intercept=float(x[-1]), cols=cols)


_MAX_LAM = 10.0  # largest ridge coefficient fit_dp_logreg may raise lam to


def fit_dp_logreg(ds: Dataset, budget: Budget) -> LinearClassifier:
    """``budget.epsilon``-DP logistic regression by objective perturbation.

    Appends a constant column and divides every row by sqrt(ds.d + 1). That
    bounds each row norm by one, because the features lie in [-1, 1] and the
    constant adds 1, and it depends on no row's values, so it releases
    nothing. It then minimizes

        (1/n) sum_i log(1 + exp(-y_i theta.x_i)) + (lam/2)||theta||^2
            + (b . theta)/n,

    where b is ``budget.gamma_ball`` at eps' = eps - 2*ln(1 + 1/(4*n*lam)),
    so the curvature term and b are two ledger entries that sum to eps. If
    eps' would be non-positive, lam is raised to 1/(4n(e^{eps/4}-1)), which
    makes eps' = eps/2; if that exceeds 10 the instance is too small and
    the fit fails.

    The guarantee covers only the exact minimizer, so the objective is
    solved by damped Newton to the gradient-norm tolerance ``tol`` of the
    default ``LogRegHyper`` (``lam`` is the starting ridge), or raises.
    """
    if ds.X.min(initial=0.0) < -1.0 or ds.X.max(initial=0.0) > 1.0:
        raise ValueError("fit_dp_logreg needs features in [-1, 1]; normalize first")

    hyper = LogRegHyper()
    n = ds.n
    lam = hyper.lam
    epsilon = budget.epsilon
    curvature = 2.0 * math.log(1.0 + 1.0 / (4.0 * n * lam))
    if curvature >= epsilon:  # eps' <= 0
        lam = 1.0 / (4.0 * n * (math.exp(epsilon / 4.0) - 1.0))
        if lam > _MAX_LAM:
            raise ValueError(
                f"epsilon'={epsilon - curvature:.3g} is unfixable: required lam {lam:.3g} "
                f"exceeds the admissible cap {_MAX_LAM} (n={n} too small for eps={epsilon})"
            )
        curvature = epsilon / 2.0

    d = ds.d + 1
    scale = math.sqrt(d)
    Xs = np.hstack([ds.X, np.ones((n, 1))]) / scale
    y = ds.y.astype(np.float64)

    budget.charge("dp-logreg curvature", None, None, curvature)
    b_vec = budget.gamma_ball("dp-logreg b", d, epsilon - curvature)

    # The constant column carries the intercept, so the intercept slot stays
    # pinned at 0 and lam regularizes every coordinate of theta.
    ones = np.ones(n)
    theta, converged = _newton(
        lambda t: weighted_logistic_loss(t, 0.0, Xs, y, ones, lam) + float(np.dot(b_vec, t)) / n,
        lambda t: weighted_logistic_grad(t, 0.0, Xs, y, ones, lam)[0] + b_vec / n,
        lambda t: weighted_logistic_hess(t, 0.0, Xs, y, ones, lam)[:-1, :-1],
        np.zeros(d),
        hyper,
    )
    if not converged:
        raise RuntimeError(f"dp-logreg: Newton stopped above the gradient tolerance {hyper.tol}; not released")
    return LinearClassifier(
        coeffs=theta[:-1] / scale,
        intercept=float(theta[-1]) / scale,
        cols=tuple(range(ds.d)),
    )


def fit_pate_teachers(
    train: Dataset, split: FeatureSplit, rng: np.random.Generator, *, k_teachers: int
) -> tuple[LinearClassifier, ...]:
    """Fit one teacher on the private columns of each of ``k_teachers`` (at
    least 2) disjoint shards of ``train``, cut from one
    ``rng.permutation(train.n)``. They read no epsilon, so one set serves
    every epsilon's ``fit_pate``."""
    check_int("k_teachers", k_teachers, 2)
    split.validate_for(train.d)
    if len(split.private_cols) == 0 or len(split.public_cols) == 0:
        raise ValueError("PATE needs both public and private columns")
    if k_teachers > train.n // 10:
        raise ValueError(f"{k_teachers} teachers over {train.n} rows leaves shards below 10 rows")
    teachers = []
    for shard in np.array_split(rng.permutation(train.n), k_teachers):
        if len(np.unique(train.y[shard])) < 2:
            raise ValueError("shard too small to train: only one label present")
        teachers.append(fit_logreg_weighted(train.take(shard), split.private_cols))
    return tuple(teachers)


def fit_pate(train: Dataset, split: FeatureSplit, teachers, budget: Budget, queries: np.ndarray) -> np.ndarray:
    """The labels of the rows of ``queries`` given by a student fitted on the
    public columns of ``train`` plus the noisy winning label that
    ``teachers`` (``fit_pate_teachers`` on the same ``train`` and ``split``)
    vote for each row.

    Both label counts of each row's vote are released through ``budget``
    with Lap(vote_scale) noise, first for the training rows, then for the
    rows of ``queries``, which must lie outside ``train``. Replacing one
    person's private features changes the teacher fitted on their shard,
    which moves each count of another row's vote by at most 1; their own
    row's vote also feeds the new features to all k teachers, so its counts
    move by at most k. So the votes of m rows are one release at L1
    sensitivity 2m, and the own-row surplus 2(k-1) is charged once: at
    vote_scale = 2(train.n + len(queries) + k - 1)/epsilon, the votes spend
    ``budget`` exactly. Every vote is drawn here, and nothing is released
    after the call returns.
    """
    k = len(teachers)
    m = train.n + len(queries)
    vote_scale = 2.0 * (m + k - 1) / budget.epsilon
    # the share 2(k-1)/vote_scale, written so that it is inf, not 0/0, at epsilon = inf
    budget.charge("pate own-row surplus", 2 * (k - 1), vote_scale, budget.epsilon * (k - 1) / (m + k - 1))

    def with_votes(X: np.ndarray) -> np.ndarray:
        plus = np.count_nonzero(score_matrix(teachers, X) >= 0, axis=1)
        plus, minus = budget.release("pate votes", np.stack([plus, k - plus]), 2 * X.shape[0], vote_scale)
        return np.hstack([X[:, list(split.public_cols)], sign_labels(plus - minus)[:, None]])

    columns = tuple(train.columns[i] for i in split.public_cols) + (("vote", "numeric"),)
    student = fit_logreg_weighted(Dataset(X=with_votes(train.X), y=train.y, columns=columns), range(len(columns)))
    return student.predict(with_votes(queries))
