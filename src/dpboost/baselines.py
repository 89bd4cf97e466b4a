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
from .noise import laplace


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


def fit_dp_logreg(ds: Dataset, epsilon: float, *, rng: np.random.Generator) -> LinearClassifier:
    """Epsilon-DP logistic regression by objective perturbation.

    Appends a constant column and divides every row by sqrt(ds.d + 1). That
    bounds each row norm by one, because the features lie in [-1, 1] and the
    constant adds 1, and it depends on no row's values, so it releases
    nothing. It then minimizes

        (1/n) sum_i log(1 + exp(-y_i theta.x_i)) + (lam/2)||theta||^2
            + (b . theta)/n,

    where the direction of b is uniform and ||b|| ~ Gamma(d, 2/eps') with
    eps' = eps - 2*ln(1 + 1/(4*n*lam)). If eps' would be non-positive, lam
    is raised to 1/(4n(e^{eps/4}-1)), which makes eps' = eps/2; if that
    exceeds 10 the instance is too small and the fit fails.

    The guarantee covers only the exact minimizer, so the objective is
    solved by damped Newton to the gradient-norm tolerance ``tol`` of the
    default ``LogRegHyper`` (``lam`` is the starting ridge), or raises.

    Consumes exactly d+1 draws from ``rng`` (one gamma, d normals), where d
    counts the constant column.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if ds.X.min(initial=0.0) < -1.0 or ds.X.max(initial=0.0) > 1.0:
        raise ValueError("fit_dp_logreg needs features in [-1, 1]; normalize first")

    hyper = LogRegHyper()
    n = ds.n
    lam = hyper.lam
    eps_prime = epsilon - 2.0 * math.log(1.0 + 1.0 / (4.0 * n * lam))
    if eps_prime <= 0:
        lam = 1.0 / (4.0 * n * (math.exp(epsilon / 4.0) - 1.0))
        if lam > _MAX_LAM:
            raise ValueError(
                f"epsilon'={eps_prime:.3g} is unfixable: required lam {lam:.3g} "
                f"exceeds the admissible cap {_MAX_LAM} (n={n} too small for eps={epsilon})"
            )
        eps_prime = epsilon / 2.0

    d = ds.d + 1
    scale = math.sqrt(d)
    Xs = np.hstack([ds.X, np.ones((n, 1))]) / scale
    y = ds.y.astype(np.float64)

    # Gamma(d, 2/eps') norm with a uniform direction gives ||b|| the density
    # proportional to exp(-eps' ||b|| / 2). Draws happen even at eps'=inf
    # (they are then zero) so the draw count never depends on the data.
    gamma_scale = 0.0 if math.isinf(eps_prime) else 2.0 / eps_prime
    norm_b = rng.gamma(shape=d, scale=gamma_scale)
    direction = rng.normal(size=d)
    direction /= np.linalg.norm(direction)
    b_vec = norm_b * direction

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


class PateModel:
    """Teachers on private columns vote a label feature for a public student.

    Each vote query costs a slice of the budget: the whole epsilon is spread
    over ``queries`` query events by basic composition, and both label
    counts are released per query, so each count is perturbed with
    Lap(2 * queries / epsilon) (one individual's private features move at
    most one teacher's vote, so each count has sensitivity 1). Re-querying
    a row draws fresh noise and therefore costs another event; the budget
    must cover every event, not just distinct points. The model counts its
    events and raises ``RuntimeError`` before drawing any noise for a query
    that would take it past ``query_budget``; a noise-free model (infinite
    epsilon) has no budget to overrun and is not limited.

    ``teachers`` is a tuple of ``LinearClassifier``, scored by one
    ``score_matrix`` call. Prediction is stateful: it consumes two noise draws
    from the model's rng and one query event per predicted row.
    """

    def __init__(self, teachers, student, public_cols, vote_scale, rng, query_budget):
        self.teachers = tuple(teachers)
        self.student = student
        self.public_cols = tuple(public_cols)
        self.vote_scale = vote_scale
        self._rng = rng
        self.query_budget = query_budget
        self.queries_spent = 0

    def noisy_votes(self, X: np.ndarray) -> np.ndarray:
        """+/-1 winning label per row from noise-perturbed teacher vote counts."""
        if self.vote_scale > 0 and self.queries_spent + X.shape[0] > self.query_budget:
            raise RuntimeError(
                f"PATE query budget exhausted: {X.shape[0]} more vote queries after "
                f"{self.queries_spent} of {self.query_budget} reserved"
            )
        self.queries_spent += X.shape[0]
        plus = np.count_nonzero(score_matrix(self.teachers, X) >= 0, axis=1)
        minus = len(self.teachers) - plus
        if self.vote_scale > 0:
            plus = plus + laplace(self.vote_scale, self._rng, size=X.shape[0])
            minus = minus + laplace(self.vote_scale, self._rng, size=X.shape[0])
        return sign_labels(plus - minus)

    def _student_matrix(self, X: np.ndarray) -> np.ndarray:
        votes = self.noisy_votes(X).astype(np.float64)
        return np.hstack([X[:, list(self.public_cols)], votes[:, None]])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.student.predict(self._student_matrix(X))


def fit_pate(
    train: Dataset,
    split: FeatureSplit,
    epsilon: float,
    rng: np.random.Generator,
    *,
    k_teachers: int,
    extra_query_budget: int,
) -> PateModel:
    """Train disjoint-shard teachers on private columns and a student on
    public columns plus the noisy winning-label feature.

    ``k_teachers`` (at least 2) disjoint shards each train one teacher.
    ``extra_query_budget`` reserves budget for vote queries made after
    training (each predicted row is one query event); the noise scale is
    fixed from queries = train.n + extra_query_budget, and querying more
    events than reserved raises instead of overrunning the budget.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    check_int("k_teachers", k_teachers, 2)
    split.validate_for(train.d)
    if len(split.private_cols) == 0 or len(split.public_cols) == 0:
        raise ValueError("PATE needs both public and private columns")
    if k_teachers > train.n // 10:
        raise ValueError(
            f"{k_teachers} teachers over {train.n} rows leaves shards below 10 rows"
        )

    shards = np.array_split(rng.permutation(train.n), k_teachers)
    teachers = []
    for shard in shards:
        if len(np.unique(train.y[shard])) < 2:
            raise ValueError("shard too small to train: only one label present")
        teachers.append(fit_logreg_weighted(train.take(shard), split.private_cols))

    queries = train.n + int(extra_query_budget)
    vote_scale = 0.0 if math.isinf(epsilon) else 2.0 * queries / epsilon
    model = PateModel(teachers, None, split.public_cols, vote_scale, rng, queries)

    student_X = model._student_matrix(train.X)
    student_ds = Dataset(
        X=student_X,
        y=train.y,
        columns=tuple(train.columns[i] for i in split.public_cols) + (("vote", "numeric"),),
    )
    model.student = fit_logreg_weighted(student_ds, range(student_X.shape[1]))
    return model
