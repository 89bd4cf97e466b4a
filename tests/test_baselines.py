import collections
import copy
import functools
import math
import warnings

import numpy as np
import pytest

from dpboost import baselines
from dpboost import (
    Budget,
    Dataset,
    FeatureSplit,
    LogRegHyper,
    accuracy,
    fit_dp_logreg,
    fit_logreg_weighted,
    fit_pate,
    fit_pate_teachers,
    make_rng,
    score_matrix,
    sign_labels,
)
from dpboost.baselines import (
    _sigmoid,
    weighted_logistic_grad,
    weighted_logistic_hess,
    weighted_logistic_loss,
)
from dpboost.boosting import _ORACLE_VALUES

from conftest import planted_dataset


def dp_objective_grad(clf, ds, b_vec, lam):
    """Gradient of fit_dp_logreg's perturbed objective at the released ``clf``,
    rows scaled by the data-independent sqrt(d+1)."""
    scale = math.sqrt(ds.d + 1)
    theta = np.append(clf.coeffs, clf.intercept) * scale
    Xs = np.hstack([ds.X, np.ones((ds.n, 1))]) / scale
    g, _ = weighted_logistic_grad(theta, 0.0, Xs, ds.y.astype(float), np.ones(ds.n), lam)
    return g + b_vec / ds.n


def one_d(xs, ys):
    return Dataset(
        X=np.asarray(xs, dtype=float)[:, None],
        y=np.asarray(ys, dtype=int),
        columns=(("x", "numeric"),),
    )


class TestWeightedLogReg:
    def test_separable_two_points(self):
        ds = one_d([-0.5, 0.5], [-1, 1])
        clf = fit_logreg_weighted(ds, (0,), hyper=LogRegHyper(lam=1e-4))
        assert accuracy(clf, ds) == 1.0

    def test_heavy_weight_pulls_decision(self):
        # conflicted 1-d triple: any threshold direction misclassifies one of
        # the light points, so the minimizer must side with the heavy point.
        ds = one_d([0.3, 0.4, 0.5], [1, -1, 1])
        weights = np.array([1.0, 100.0, 1.0])
        clf = fit_logreg_weighted(ds, (0,), weights)
        assert clf.predict(ds.X)[1] == -1
        # brute force over threshold classifiers (both orientations) confirms
        # every weighted-loss-optimal 0/1 labeling classifies the heavy point
        # correctly.
        best = None
        for cut in np.linspace(0.0, 1.0, 101):
            for sign in (1, -1):
                pred = np.where(sign * (ds.X[:, 0] - cut) >= 0, 1, -1)
                werr = float(np.dot(weights, pred != ds.y) / weights.sum())
                if best is None or werr < best[0]:
                    best = (werr, pred.copy())
        assert best[1][1] == -1

    def test_gradient_matches_finite_differences(self):
        rng = make_rng(0)
        X = rng.uniform(-1, 1, size=(50, 5))
        y = np.where(rng.random(50) < 0.5, 1.0, -1.0)
        w = rng.uniform(0.5, 3.0, size=50)
        lam = 1e-3
        h = 1e-5
        for _ in range(10):
            theta = rng.normal(size=5)
            b = float(rng.normal())
            g_theta, g_b = weighted_logistic_grad(theta, b, X, y, w, lam)
            fd = np.empty(6)
            for j in range(5):
                e = np.zeros(5)
                e[j] = h
                fd[j] = (
                    weighted_logistic_loss(theta + e, b, X, y, w, lam)
                    - weighted_logistic_loss(theta - e, b, X, y, w, lam)
                ) / (2 * h)
            fd[5] = (
                weighted_logistic_loss(theta, b + h, X, y, w, lam)
                - weighted_logistic_loss(theta, b - h, X, y, w, lam)
            ) / (2 * h)
            analytic = np.concatenate([g_theta, [g_b]])
            rel = np.linalg.norm(analytic - fd) / np.linalg.norm(fd)
            assert rel < 1e-5

    def test_hessian_matches_finite_differences(self):
        rng = make_rng(1)
        X = rng.uniform(-1, 1, size=(50, 5))
        y = np.where(rng.random(50) < 0.5, 1.0, -1.0)
        w = rng.uniform(0.5, 3.0, size=50)
        lam = 1e-3
        h = 1e-5

        def grad(v):
            return np.append(*weighted_logistic_grad(v[:-1], v[-1], X, y, w, lam))

        for _ in range(10):
            v = rng.normal(size=6)
            H = weighted_logistic_hess(v[:-1], v[-1], X, y, w, lam)
            fd = np.empty((6, 6))
            for j in range(6):
                e = np.zeros(6)
                e[j] = h
                fd[:, j] = (grad(v + e) - grad(v - e)) / (2 * h)
            assert np.linalg.norm(H - fd) / np.linalg.norm(fd) < 1e-5

    def test_weighted_fit_reaches_tolerance(self):
        ds, _ = planted_dataset(n=300, seed=8)
        w = make_rng(2).uniform(0.1, 5.0, size=ds.n)
        hyper = LogRegHyper(max_iters=50)
        clf = fit_logreg_weighted(ds, range(ds.d), w, hyper)
        g_theta, g_b = weighted_logistic_grad(
            clf.coeffs, clf.intercept, ds.X, ds.y.astype(float), w, hyper.lam
        )
        assert math.hypot(float(np.linalg.norm(g_theta)), g_b) <= hyper.tol

    def test_loss_non_increasing_along_iterations(self):
        ds, _ = planted_dataset(n=150, seed=3)
        w = np.ones(ds.n)
        losses = []
        for iters in range(1, 15):
            clf = fit_logreg_weighted(ds, range(ds.d), w, LogRegHyper(max_iters=iters))
            losses.append(
                weighted_logistic_loss(clf.coeffs, clf.intercept, ds.X, ds.y.astype(float), w, 1e-3)
            )
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_unit_weights_bit_identical_to_unweighted(self):
        ds, _ = planted_dataset(n=120, seed=5)
        a = fit_logreg_weighted(ds, range(ds.d))
        b = fit_logreg_weighted(ds, range(ds.d), np.ones(ds.n))
        assert np.array_equal(a.coeffs, b.coeffs)
        assert a.intercept == b.intercept

    def test_fit_ignores_gather_and_layout(self):
        # the solver gets the same F-ordered matrix from (ds, cols), from a
        # dataset of those columns alone, and from a C- or F-ordered whole
        n, d = 3000, 40
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, size=(n, d))
        y = np.where(X[:, :5].sum(axis=1) + rng.normal(0, 1, size=n) > 0, 1, -1)
        ds = Dataset(X=X, y=y, columns=tuple(("f", f"={j}") for j in range(d)))
        w = rng.uniform(0.5, 2.0, size=n)
        cols = tuple(range(1, d, 2))
        gathered = Dataset(X=ds.X[:, list(cols)], y=y, columns=tuple(ds.columns[c] for c in cols))
        fortran = Dataset(X=np.asfortranarray(X), y=y, columns=ds.columns)
        assert ds.X.flags.c_contiguous and fortran.X.flags.f_contiguous
        pairs = [
            (fit_logreg_weighted(ds, cols, w), fit_logreg_weighted(gathered, range(len(cols)), w)),
            (fit_logreg_weighted(ds, range(d), w), fit_logreg_weighted(fortran, range(d), w)),
        ]
        for a, b in pairs:
            assert np.array_equal(a.coeffs, b.coeffs)
            assert a.intercept == b.intercept

    def test_non_positive_ridge_rejected(self):
        for lam in (0.0, -1e-3):
            with pytest.raises(ValueError, match="ridge"):
                LogRegHyper(lam=lam)

    def test_empty_cols_rejected(self):
        ds, _ = planted_dataset(n=40)
        with pytest.raises(ValueError):
            fit_logreg_weighted(ds, (), np.ones(ds.n))

    def test_non_positive_weights_rejected(self):
        ds, _ = planted_dataset(n=40)
        with pytest.raises(ValueError):
            fit_logreg_weighted(ds, (0,), np.zeros(ds.n))


def masked_sigmoid(t):
    """The two-pass sigmoid: 1/(1+exp(-t)) where t >= 0, exp(t)/(1+exp(t)) elsewhere."""
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def column_sum_hess(theta, intercept, X, y, weights, lam):
    """The Hessian with its intercept row summed from the scaled copy of X."""
    z = X @ theta + intercept
    w = np.asarray(weights, dtype=np.float64)
    e = np.exp(-np.abs(z))
    curv = w * e / (1.0 + e) ** 2 / np.sum(w)
    d = X.shape[1]
    H = np.empty((d + 1, d + 1))
    Xc = X * curv[:, None]
    H[:d, :d] = X.T @ Xc
    H[:d, :d][np.diag_indices(d)] += lam
    H[:d, d] = H[d, :d] = Xc.sum(axis=0)
    H[d, d] = curv.sum()
    return H


class TestKernels:
    """The solver's kernels against the formulas they replace."""

    def test_sigmoid_bit_identical_to_masked_formula(self):
        t = np.array([0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 745.0, -745.0, np.inf, -np.inf, np.nan])
        t = np.concatenate([t, make_rng(0).uniform(-50, 50, size=1000)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, ref = _sigmoid(t), masked_sigmoid(t)
        assert np.array_equal(np.isnan(got), np.isnan(ref))
        finite = ~np.isnan(ref)
        assert np.array_equal(got[finite].view(np.uint64), ref[finite].view(np.uint64))

    def test_loss_within_two_ulp_of_logaddexp(self):
        margins = np.concatenate([np.linspace(-800.0, 800.0, 3201), [0.0, -1e-300, 1e-300, -37.0, 37.0]])
        one = np.ones(1)
        for m in margins:
            # one row with y = 1 and score -m has margin m
            got = weighted_logistic_loss(one, 0.0, np.array([[-m]]), one, one, 0.0)
            ref = float(np.logaddexp(0.0, m))
            assert abs(got - ref) <= 2 * np.spacing(ref), m

    @pytest.mark.parametrize("order", ["F", "C"])
    def test_hessian_intercept_row_matches_column_sum(self, order):
        # F is the layout fit_logreg_weighted hands the solver, C the one fit_dp_logreg builds
        rng = make_rng(5)
        n, d = 2000, 9
        X = np.asarray(rng.uniform(-1, 1, size=(n, d)), order=order)
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        w = rng.uniform(0.2, 3.0, size=n)
        theta, b = rng.normal(size=d), float(rng.normal())
        got = weighted_logistic_hess(theta, b, X, y, w, 1e-3)
        ref = column_sum_hess(theta, b, X, y, w, 1e-3)
        assert np.array_equal(got[:d, :d], ref[:d, :d]) and got[d, d] == ref[d, d]
        # relative to the sum of magnitudes, which no cancellation can shrink
        z = X @ theta + b
        e = np.exp(-np.abs(z))
        magnitude = (w * e / (1.0 + e) ** 2 / np.sum(w)) @ np.abs(X)
        assert np.all(np.abs(got[d, :d] - ref[d, :d]) <= 1e-15 * magnitude)
        assert np.array_equal(got[d, :d], got[:d, d])


class TestSolverWork:
    """The Newton solver's exact kernel calls on fixed inputs: a kernel change
    that adds an iteration or a backtracking step changes these counts."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = collections.Counter()
        for name in ("loss", "grad", "hess"):
            kernel = getattr(baselines, f"weighted_logistic_{name}")

            def counted(*args, kernel=kernel, name=name):
                calls[name] += 1
                return kernel(*args)

            monkeypatch.setattr(baselines, f"weighted_logistic_{name}", counted)
        return calls

    def test_weighted_fit_calls(self, calls):
        ds, split = planted_dataset(n=600, seed=3)
        w = make_rng(11).uniform(0.2, 3.0, size=ds.n)
        fit_logreg_weighted(ds, split.public_cols + split.private_cols, w)
        assert dict(calls) == {"loss": 8, "grad": 8, "hess": 7}

    def test_dp_fit_calls(self, calls):
        ds, _ = planted_dataset(n=500, seed=4)
        fit_dp_logreg(ds, Budget(1.0, make_rng(12)))
        assert dict(calls) == {"loss": 7, "grad": 7, "hess": 6}


class TestDpLogReg:
    def test_newton_stopping_short_of_the_tolerance_is_not_released(self, monkeypatch):
        # the guarantee covers only the minimizer; one Newton step does not reach it
        ds, _ = planted_dataset(n=500, seed=4)
        monkeypatch.setattr(baselines, "LogRegHyper", functools.partial(LogRegHyper, max_iters=1))
        with pytest.raises(RuntimeError, match="gradient tolerance"):
            fit_dp_logreg(ds, Budget(1.0, make_rng(12)))

    def test_infinite_budget_matches_plain_fit(self):
        ds, _ = planted_dataset(n=400, seed=1)
        plain = fit_logreg_weighted(ds, range(ds.d))
        dp = fit_dp_logreg(ds, Budget(math.inf, make_rng(0)))
        assert abs(accuracy(dp, ds) - accuracy(plain, ds)) <= 0.01

    def test_accuracy_improves_with_budget(self):
        ds, _ = planted_dataset(n=400, seed=2)
        lo = np.mean(
            [accuracy(fit_dp_logreg(ds, Budget(0.05, make_rng(s))), ds) for s in range(10)]
        )
        hi = np.mean(
            [accuracy(fit_dp_logreg(ds, Budget(8.0, make_rng(s))), ds) for s in range(10)]
        )
        assert hi > lo

    def test_returns_stationary_point_of_perturbed_objective(self):
        # objective perturbation covers only the exact minimizer: replay the
        # noise vector b and check the gradient, b/n included, vanishes
        ds, _ = planted_dataset(n=400, seed=9)
        eps, lam, d = 2.0, LogRegHyper().lam, ds.d + 1
        eps_prime = eps - 2.0 * math.log(1.0 + 1.0 / (4.0 * ds.n * lam))
        assert eps_prime > 0
        clf = fit_dp_logreg(ds, Budget(eps, make_rng(4)))
        ref = make_rng(4)
        norm_b = ref.gamma(shape=d, scale=2.0 / eps_prime)
        direction = ref.normal(size=d)
        b_vec = norm_b * direction / np.linalg.norm(direction)
        assert norm_b > 1.0
        assert np.linalg.norm(dp_objective_grad(clf, ds, b_vec, lam)) <= LogRegHyper().tol

    def test_row_scale_is_data_independent(self):
        # neighbours that differ in the one row of maximal norm sqrt(d+1) must
        # use the same scale; at eps = inf both fits are then stationary
        # points of the objective scaled by sqrt(d+1)
        ds, _ = planted_dataset(n=200, seed=10)
        X_max = ds.X.copy()
        X_max[0] = 1.0
        X_small = ds.X.copy()
        X_small[0] = 0.1
        zero = np.zeros(ds.d + 1)
        for X in (X_max, X_small):
            neighbour = Dataset(X=X, y=ds.y, columns=ds.columns)
            clf = fit_dp_logreg(neighbour, Budget(math.inf, make_rng(0)))
            grad = dp_objective_grad(clf, neighbour, zero, LogRegHyper().lam)
            assert np.linalg.norm(grad) <= LogRegHyper().tol

    def test_features_outside_unit_range_rejected(self):
        ds, _ = planted_dataset(n=40)
        X = ds.X.copy()
        X[0, 0] = 1.5
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            fit_dp_logreg(Dataset(X=X, y=ds.y, columns=ds.columns), Budget(1.0, make_rng(0)))

    def test_draw_count_is_dimension_plus_one(self):
        ds, _ = planted_dataset(n=100, seed=4)
        rng = make_rng(3)
        fit_dp_logreg(ds, Budget(0.5, rng))
        ref = make_rng(3)
        d = ds.d + 1  # constant column included
        ref.gamma(shape=d, scale=1.0)
        ref.normal(size=d)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_lambda_raised_when_budget_tiny(self):
        # eps' <= 0 at the default lam: the fit must still succeed by raising
        # lam, as long as the needed lam stays admissible.
        ds, _ = planted_dataset(n=400, seed=6)
        clf = fit_dp_logreg(ds, Budget(0.02, make_rng(1)))
        assert np.all(np.isfinite(clf.coeffs))

    def test_unfixable_instance_rejected(self):
        ds, _ = planted_dataset(n=8, d_pub=1, d_pri=1, seed=7)
        with pytest.raises(ValueError, match="unfixable"):
            fit_dp_logreg(ds, Budget(0.01, make_rng(0)))

    def test_rng_required(self):
        # the noise comes only from the caller's budget, which has no default rng
        ds, _ = planted_dataset(n=40)
        with pytest.raises(TypeError, match="budget"):
            fit_dp_logreg(ds)
        with pytest.raises(TypeError, match="rng"):
            Budget(1.0)


def separable_private_dataset(n=400, seed=0):
    """Private column fully determines the label; public column is noise."""
    rng = np.random.default_rng(seed)
    y = np.concatenate([np.ones(n // 2), -np.ones(n // 2)]).astype(int)
    pub = rng.uniform(-1, 1, size=(n, 1))
    pri = (0.6 * y + 0.2 * rng.uniform(-1, 1, size=n))[:, None]
    ds = Dataset(
        X=np.hstack([pub, np.clip(pri, -1, 1)]),
        y=y,
        columns=(("pub", "numeric"), ("pri", "numeric")),
    )
    return ds, FeatureSplit(public_cols=(0,), private_cols=(1,))


class RecordingBudget(Budget):
    """A ``Budget`` that keeps every noisy value it releases."""

    def __init__(self, epsilon, rng):
        super().__init__(epsilon, rng)
        self.released = []

    def release(self, mechanism, value, sensitivity, scale):
        out = super().release(mechanism, value, sensitivity, scale)
        self.released.append(out)
        return out

    def votes(self):
        """The winning labels of each vote release, in release order."""
        return [sign_labels(plus - minus) for plus, minus in self.released]

    def vote_scales(self):
        return {scale for name, _, scale, _ in self.ledger if name.startswith("pate")}


def fit_pate_with_own_teachers(ds, split, epsilon, rng, queries, *, k_teachers):
    """Teachers and student from one stream, as a repeat task fits them for
    its first epsilon: (the labels of ``queries``, the spent budget)."""
    teachers = fit_pate_teachers(ds, split, rng, k_teachers=k_teachers)
    budget = RecordingBudget(epsilon, rng)
    return fit_pate(ds, split, teachers, budget, queries), budget


class TestPate:
    def test_oracle_vote_dominates_with_infinite_budget(self):
        ds, split = separable_private_dataset()
        held_out, _ = separable_private_dataset(n=100, seed=1)
        labels, budget = fit_pate_with_own_teachers(ds, split, math.inf, make_rng(0), held_out.X, k_teachers=2)
        # noiseless votes recover the label, and the student leans on them
        train_votes, test_votes = budget.votes()
        assert np.array_equal(train_votes, ds.y) and np.array_equal(test_votes, held_out.y)
        assert np.mean(labels == held_out.y) >= 0.95

    def test_tiny_budget_votes_are_useless_but_student_survives(self):
        ds, split = separable_private_dataset(seed=3)
        held_out, _ = separable_private_dataset(seed=4)
        labels, budget = fit_pate_with_own_teachers(ds, split, 0.01, make_rng(1), held_out.X, k_teachers=2)
        for votes, y in zip(budget.votes(), (ds.y, held_out.y)):
            assert abs(np.mean(votes == y) - 0.5) < 0.1
        assert 0.3 <= np.mean(labels == held_out.y) <= 1.0

    def test_vote_scale_formula(self):
        ds, split = separable_private_dataset()
        held_out, _ = separable_private_dataset(n=40, seed=1)
        _, budget = fit_pate_with_own_teachers(ds, split, 0.16, make_rng(2), held_out.X, k_teachers=2)
        # n + 40 query events, plus k - 1 for the query on a row's own features
        (scale,) = budget.vote_scales()
        assert scale == pytest.approx(2.0 * (ds.n + 40 + 2 - 1) / 0.16)

    def test_too_many_teachers_rejected(self):
        ds, split = separable_private_dataset(n=100)
        for k, message in ((20, "shards below 10"), (1, "k_teachers must be >= 2")):
            with pytest.raises(ValueError, match=message):
                fit_pate_teachers(ds, split, make_rng(0), k_teachers=k)

    def test_prediction_deterministic_given_rng(self):
        ds, split = separable_private_dataset(seed=5)
        held_out, _ = separable_private_dataset(n=100, seed=6)
        preds = [
            fit_pate_with_own_teachers(ds, split, 0.5, make_rng(9), held_out.X, k_teachers=3)[0]
            for _ in range(2)
        ]
        assert np.array_equal(preds[0], preds[1])

    def test_needs_both_sides(self):
        ds, _ = separable_private_dataset(n=100)
        with pytest.raises(ValueError, match="both public and private"):
            fit_pate_teachers(ds, FeatureSplit.all_private(ds.d), make_rng(0), k_teachers=2)

    def test_teachers_draw_one_permutation(self):
        # the shards are cut from one n-permutation; the teachers draw nothing
        ds, split = separable_private_dataset(n=120, seed=8)
        rng = make_rng(13)
        fit_pate_teachers(ds, split, rng, k_teachers=2)
        ref = make_rng(13)
        ref.permutation(ds.n)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_fit_draws_two_vote_vectors(self):
        # the fit consumes 2n Laplace draws (both counts for each training
        # row) in one (2, n) release, as two n-vectors would, then 2m for
        # the m query rows the same way; the student draws nothing itself
        ds, split = separable_private_dataset(n=120, seed=8)
        held_out, _ = separable_private_dataset(n=30, seed=9)
        teachers = fit_pate_teachers(ds, split, make_rng(13), k_teachers=2)
        rng = make_rng(14)
        fit_pate(ds, split, teachers, Budget(0.5, rng), held_out.X)
        ref = make_rng(14)
        ref.random(ds.n)
        ref.random(ds.n)
        ref.random(held_out.n)
        ref.random(held_out.n)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_fit_votes_with_the_given_teachers(self, monkeypatch):
        # fit_pate fits no teacher: both vote releases score the ones it is given
        ds, split = separable_private_dataset(n=120, seed=8)
        held_out, _ = separable_private_dataset(n=30, seed=9)
        teachers = fit_pate_teachers(ds, split, make_rng(13), k_teachers=3)
        fits, voters = [], []
        real_fit, real_scores = baselines.fit_logreg_weighted, baselines.score_matrix

        def counting(*args, **kwargs):
            fits.append(args[0])
            return real_fit(*args, **kwargs)

        def scoring(clfs, X):
            voters.append(clfs)
            return real_scores(clfs, X)

        monkeypatch.setattr(baselines, "fit_logreg_weighted", counting)
        monkeypatch.setattr(baselines, "score_matrix", scoring)
        fit_pate(ds, split, teachers, Budget(0.5, make_rng(14)), held_out.X)
        assert len(fits) == 1 and fits[0].columns[-1] == ("vote", "numeric")
        assert len(voters) == 2 and all(v is teachers for v in voters)

    def test_vote_counts_move_by_k_on_a_rows_own_query_and_1_elsewhere(self):
        # Brute force on a tiny instance: replace one row's private features
        # with every grid value, refit the teachers on the same shards, and
        # measure how far each query's plus count moves (the minus count is
        # k - plus). Queries are the n training rows, whose own query sees the
        # replaced features, and a few held-out rows.
        ds, split = separable_private_dataset(n=30, seed=4)
        held_out, _ = separable_private_dataset(n=6, seed=5)
        k, epsilon = 3, 1.0
        stream = make_rng(21)

        def plus_counts(train):
            teachers = fit_pate_teachers(train, split, copy.deepcopy(stream), k_teachers=k)
            queries = np.vstack([train.X, held_out.X])
            return np.count_nonzero(score_matrix(teachers, queries) >= 0, axis=1)

        base = plus_counts(ds)
        own, others = [], []
        for i in range(ds.n):
            moved = np.zeros(ds.n + held_out.n, dtype=int)
            for value in _ORACLE_VALUES:
                X = ds.X.copy()
                X[i, list(split.private_cols)] = value
                moved = np.maximum(moved, np.abs(plus_counts(Dataset(X=X, y=ds.y, columns=ds.columns)) - base))
            own.append(moved[i])
            others.append(np.delete(moved, i).max())
        assert (max(own), max(others)) == (k, 1)
        # both counts of a query move together, so its L1 change is twice
        # the plus count's; basic composition charges every event at its worst
        teachers = fit_pate_teachers(ds, split, copy.deepcopy(stream), k_teachers=k)
        budget = RecordingBudget(epsilon, make_rng(0))
        fit_pate(ds, split, teachers, budget, held_out.X)
        (vote_scale,) = budget.vote_scales()
        queries = ds.n + held_out.n
        assert 2 * (max(own) + (queries - 1) * max(others)) / vote_scale <= epsilon * (1 + 1e-12)
        # the ledger books that worst case: the own-row surplus 2(k-1) and
        # each query's 2, all at vote_scale
        assert budget.spent == pytest.approx(2 * (k - 1 + queries) / vote_scale, rel=1e-12)
