import numpy as np
import pytest
from hypothesis import given, strategies as st

import dpboost.model as model
from dpboost import (
    Dataset, Draws, Ensemble, EnsembleMember, LinearClassifier, RawTable, accuracy, score_matrix, sign_labels,
)
from dpboost.noise import make_rng


def clf(coeffs, intercept, cols):
    return LinearClassifier(coeffs=np.array(coeffs, dtype=float), intercept=intercept, cols=cols)


def prefix_labels(e, X):
    """(T, n) labels of H_1..H_T on X, voted from the members' score flags."""
    return e.prefix_vote(score_matrix([m.clf for m in e.members], X) >= 0)


class TestLinearClassifier:
    def test_positive_score(self):
        assert clf([1.0], 0.0, (0,)).predict([[0.5]]).tolist() == [1]

    def test_negative_score(self):
        assert clf([1.0], 0.0, (0,)).predict([[-0.5]]).tolist() == [-1]

    def test_zero_score_maps_to_plus_one(self):
        assert clf([1.0], -0.5, (0,)).predict([[0.5]]).tolist() == [1]

    def test_ignores_columns_outside_cols(self):
        c = clf([1.0, -2.0], 0.3, (1, 3))
        rng = make_rng(0)
        base = rng.uniform(-1, 1, size=(20, 5))
        scrambled = base.copy()
        scrambled[:, [0, 2, 4]] = rng.uniform(-1, 1, size=(20, 3))
        assert np.array_equal(c.predict(base), c.predict(scrambled))

    def test_full_width_in_order_and_permuted_agree(self):
        rng = make_rng(5)
        coeffs = rng.uniform(-1, 1, size=4)
        X = rng.uniform(-1, 1, size=(200, 4))
        in_order = clf(coeffs, 0.1, (0, 1, 2, 3))
        perm = (2, 0, 3, 1)
        permuted = clf(coeffs[list(perm)], 0.1, perm)
        assert np.array_equal(in_order.predict(X), permuted.predict(X))
        assert np.array_equal(in_order.predict(X), sign_labels(X @ coeffs + 0.1))

    def test_needs_a_column(self):
        with pytest.raises(ValueError):
            LinearClassifier(coeffs=np.array([]), intercept=0.0, cols=())

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            clf([np.inf], 0.0, (0,))


class TestEnsemble:
    def two_member(self, a1, a2):
        # member 0 votes +1 everywhere, member 1 votes -1 everywhere
        plus = clf([0.0], 1.0, (0,))
        minus = clf([0.0], -1.0, (0,))
        return Ensemble(
            members=(
                EnsembleMember(a1, plus),
                EnsembleMember(a2, minus),
            )
        )

    def test_single_member_reduction(self):
        c = clf([1.0], 0.0, (0,))
        e = Ensemble(members=(EnsembleMember(1.0, c),))
        X = make_rng(0).uniform(-1, 1, size=(50, 1))
        assert np.array_equal(e.predict(X), c.predict(X))

    def test_tie_goes_to_plus_one(self):
        e = self.two_member(0.3, 0.3)
        assert e.predict([[0.0]]).tolist() == [1]

    def test_weighted_vote(self):
        # alphas (0.1, 0.4) voting (+1, -1): score -0.3 -> -1
        e = self.two_member(0.1, 0.4)
        assert e.predict([[0.0]]).tolist() == [-1]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Ensemble(members=())

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_positive_alpha_scaling_invariant(self, lam):
        rng = make_rng(11)
        members = tuple(
            EnsembleMember(
                alpha=float(rng.uniform(-0.5, 0.5)),
                clf=clf(rng.uniform(-1, 1, size=2), float(rng.uniform(-1, 1)), (0, 1)),
            )
            for _ in range(5)
        )
        scaled = tuple(
            EnsembleMember(m.alpha * lam, m.clf) for m in members
        )
        X = rng.uniform(-1, 1, size=(40, 2))
        assert np.array_equal(Ensemble(members).predict(X), Ensemble(scaled).predict(X))

    @staticmethod
    def interleaved_members(rng):
        """Members over 4 columns whose column sets interleave: public (0, 1),
        private (2, 3), every column in order, and every column permuted."""
        pub, pri, every, permuted = (0, 1), (2, 3), (0, 1, 2, 3), (3, 2, 1, 0)
        layout = [pub, pri, every, permuted, pri, every, pub]
        return tuple(
            EnsembleMember(
                alpha=float(rng.uniform(-0.5, 0.5)),
                clf=clf(rng.uniform(-1, 1, size=len(cols)), float(rng.uniform(-1, 1)), cols),
            )
            for cols in layout
        )

    def test_vote_of_member_predictions_is_predict(self):
        # flags built from each member's own predictions vote as predict does,
        # over interleaved column sets
        rng = make_rng(9)
        members = self.interleaved_members(rng)
        X = rng.uniform(-1, 1, size=(300, 4))
        flags = np.stack([m.clf.predict(X) == 1 for m in members], axis=1)
        e = Ensemble(members)
        assert np.array_equal(e.vote(flags), e.predict(X))
        assert np.array_equal(e.vote(flags), prefix_labels(e, X)[-1])
        assert np.array_equal(e.prefix_vote(flags), prefix_labels(e, X))

    def test_votes_match_the_int64_reference(self):
        # The reference votes are the int64 labels of the raw scores, summed
        # with their alphas in member order by a cumsum. Entries, coefficients
        # and intercepts on a grid of quarters make every score exact, so some
        # members score exactly 0 on some rows, and vote +1 there.
        rng = make_rng(21)
        X = rng.integers(-4, 5, size=(400, 4)) / 4
        layout = [(0, 1), (2, 3), (0, 1, 2, 3), (3, 2, 1, 0), (2, 3), (0, 1, 2, 3), (0, 1), (1,)]
        members = tuple(
            EnsembleMember(
                alpha=float(rng.uniform(-0.5, 0.5)),
                clf=clf(rng.integers(-4, 5, size=len(cols)) / 4, float(rng.integers(-4, 5)) / 4, cols),
            )
            for cols in layout
        )
        e = Ensemble(members)
        scores = score_matrix([m.clf for m in members], X)
        assert np.any(scores == 0.0) and min(m.alpha for m in members) < 0
        votes = sign_labels(scores)
        assert np.all(votes[scores == 0.0] == 1)
        alphas = np.array([m.alpha for m in members])
        expected = sign_labels(np.cumsum(votes * alphas, axis=1).T)
        assert e.vote(scores >= 0).dtype == e.prefix_vote(scores >= 0).dtype == e.predict(X).dtype == np.int64
        assert np.array_equal(e.prefix_vote(scores >= 0), expected)
        assert np.array_equal(e.predict(X), expected[-1])
        assert np.array_equal(e.vote(votes == 1), expected[-1])
        assert np.array_equal(e.prefix_vote(votes == 1), expected)

    def test_prefix_predictions_last_matches_full(self):
        rng = make_rng(3)
        members = self.interleaved_members(rng)
        e = Ensemble(members)
        X = rng.uniform(-1, 1, size=(30, 4))
        prefix = prefix_labels(e, X)
        assert prefix.shape == (7, 30)
        assert np.array_equal(prefix[-1], e.predict(X))
        assert np.array_equal(prefix[0], sign_labels(members[0].alpha * members[0].clf.predict(X)))

    def test_predict_is_last_prefix_where_summation_order_matters(self):
        # Alphas of 1e16 and 0.1 make the final score depend on the order in
        # which the weighted votes are summed: a BLAS dot product adds them in
        # another order than the running sum of prefix_vote, and on
        # some rows the two land on opposite signs. predict must be the last
        # prefix bit for bit there too, so a sweep's reported accuracy and
        # accuracy(model, test) agree.
        rng = make_rng(12)
        X = rng.uniform(-1, 1, size=(200, 1))
        order_matters = 0
        for _ in range(50):
            alphas = rng.choice([1e16, 0.1], size=6) * rng.choice([-1.0, 1.0], size=6)
            members = tuple(
                EnsembleMember(float(a), clf([rng.choice([-1.0, 1.0])], float(rng.uniform(-1, 1)), (0,)))
                for a in alphas
            )
            e = Ensemble(members)
            votes = np.stack([m.clf.predict(X) for m in members], axis=1)
            prefix = prefix_labels(e, X)
            # every prefix is the running sum of the weighted votes in member order
            assert np.array_equal(prefix, sign_labels(np.cumsum(votes * alphas, axis=1).T))
            assert np.array_equal(e.predict(X), prefix[-1])
            assert np.array_equal(e.vote(votes == 1), prefix[-1])
            order_matters += not np.array_equal(sign_labels(votes @ alphas), prefix[-1])
        assert order_matters > 0


class TestScoreMatrix:
    """``score_matrix`` against each classifier's own ``scores``.

    A classifier's ``scores`` are its column of a ``score_matrix`` call of
    its own, so the two agree bit for bit on any floats. Where entries,
    coefficients and intercepts lie on a grid of quarters, every partial sum
    is also exact, so the expected values are known whatever summation order
    the BLAS picks.
    """

    @staticmethod
    def grid_classifiers(rng, layout):
        return [
            clf(rng.integers(-4, 5, size=len(cols)) / 4, float(rng.integers(-4, 5)) / 4, cols)
            for cols in layout
        ]

    def test_mixed_column_sets_match_each_classifier(self):
        rng = make_rng(4)
        layout = [(0, 1), (2, 3), (0, 1, 2, 3), (3, 2, 1, 0), (2, 3), (0, 1, 2, 3), (1,)]
        clfs = self.grid_classifiers(rng, layout)
        X = rng.integers(-4, 5, size=(300, 4)) / 4
        expected = np.stack([c.scores(X) for c in clfs], axis=1)
        assert np.array_equal(score_matrix(clfs, X), expected)

    def test_full_width_in_order_reads_x_without_a_copy(self):
        rng = make_rng(6)
        X = rng.integers(-4, 5, size=(200, 3)) / 4
        assert model._columns(X, (0, 1, 2)) is X
        clfs = self.grid_classifiers(rng, [(0, 1, 2)] * 5)
        scores = score_matrix(clfs, X)
        # F-ordered (n, k), so the (k, n) transpose the draws consume is C-ordered
        assert scores.shape == (200, 5) and scores.flags.f_contiguous
        assert scores.T.flags.c_contiguous
        assert np.array_equal(scores, np.stack([c.scores(X) for c in clfs], axis=1))

    def test_two_column_sets_fill_an_f_ordered_matrix(self):
        rng = make_rng(9)
        X = rng.integers(-4, 5, size=(200, 4)) / 4
        clfs = self.grid_classifiers(rng, [(0, 1, 2, 3), (2, 0), (0, 1, 2, 3), (2, 0)])
        scores = score_matrix(clfs, X)
        assert scores.shape == (200, 4) and scores.flags.f_contiguous
        assert scores.T.flags.c_contiguous
        for j, c in enumerate(clfs):
            assert np.array_equal(scores[:, j], c.scores(X))

    def test_general_floats_agree_to_rounding(self):
        rng = make_rng(7)
        clfs = [clf(rng.uniform(-1, 1, size=3), float(rng.uniform(-1, 1)), (1, 3, 4)) for _ in range(9)]
        X = rng.uniform(-1, 1, size=(500, 6))
        expected = np.stack([c.scores(X) for c in clfs], axis=1)
        assert np.array_equal(score_matrix(clfs, X), expected)
        # and both agree with a plain matrix-vector product up to the order of
        # summing 4 terms of magnitude <= 1: at most 2 * 4 * 4 * eps/2 = 16 eps
        direct = np.stack([X[:, list(c.cols)] @ c.coeffs + c.intercept for c in clfs], axis=1)
        np.testing.assert_allclose(expected, direct, rtol=0, atol=16 * np.finfo(float).eps)

    def test_member_predictions_are_their_vote_columns_bit_for_bit(self):
        # Each member's intercept puts one row's score on 0 as its group's
        # matrix product rounds it, so a member scored any other way (a
        # matrix-vector product rounds differently in the last bits) would
        # vote -1 on some of those rows where the ensemble votes +1.
        rng = make_rng(8)
        n, d = 20_000, 104
        X = rng.uniform(-1, 1, size=(n, d))
        layout = [tuple(range(56))] + [tuple(range(56, d))] * 12 + [tuple(range(d))] * 12
        coeffs = [rng.uniform(-1, 1, size=len(cols)) for cols in layout]
        raw = score_matrix([clf(w, 0.0, cols) for w, cols in zip(coeffs, layout)], X)
        rows = rng.integers(0, n, size=len(layout))
        members = tuple(
            EnsembleMember(1.0, clf(w, -raw[i, j], cols))
            for j, (w, cols, i) in enumerate(zip(coeffs, layout, rows))
        )
        votes = sign_labels(score_matrix([m.clf for m in members], X))  # the labels the ensemble votes with
        assert np.all(votes[rows, np.arange(len(layout))] == 1)
        for j, m in enumerate(members):
            assert np.array_equal(m.clf.predict(X), votes[:, j])
            assert np.array_equal(m.clf.scores(X), score_matrix([x.clf for x in members], X)[:, j])

    def test_exact_zero_score_votes_plus_one(self):
        # 0.5 * 0.5 - 0.25 == 0 exactly; one member reads a column subset,
        # one every column, so both the gathered and the full-width path
        # meet the zero
        half = clf([0.5], -0.25, (1,))
        full = clf([0.5, 0.0], -0.25, (0, 1))
        X = np.array([[0.5, 0.5], [-0.5, -0.5]])
        assert score_matrix([half, full], X).tolist() == [[0.0, 0.0], [-0.5, -0.5]]
        members = tuple(EnsembleMember(1.0, c) for c in (half, full))
        assert [Ensemble((m,)).predict(X).tolist() for m in members] == [[1, -1], [1, -1]]
        assert Ensemble(members).predict(X).tolist() == [1, -1]


class TestAccuracy:
    def balanced(self, n=40):
        rng = make_rng(1)
        X = rng.uniform(-1, 1, size=(n, 1))
        y = np.concatenate([np.ones(n // 2), -np.ones(n // 2)]).astype(int)
        return Dataset(X=X, y=y, columns=(("a", "numeric"),))

    def test_perfect_predictor(self):
        ds = self.balanced()
        assert accuracy(lambda X: ds.y, ds) == 1.0

    def test_constant_on_balanced(self):
        ds = self.balanced()
        assert accuracy(lambda X: np.ones(len(X), dtype=int), ds) == 0.5

    def test_two_of_three(self):
        ds = Dataset(
            X=np.zeros((3, 1)), y=np.array([1, 1, -1]), columns=(("a", "numeric"),)
        )
        assert accuracy(lambda X: np.array([1, 1, 1]), ds) == pytest.approx(2 / 3)

    def test_empty_dataset_rejected(self):
        ds = Dataset(X=np.zeros((0, 1)), y=np.zeros(0, dtype=int), columns=(("a", "numeric"),))
        with pytest.raises(ValueError):
            accuracy(lambda X: X, ds)

    def test_flip_complement_off_ties(self):
        # For a predictor that never scores exactly 0, flipping all labels
        # complements the accuracy.
        rng = make_rng(2)
        ds = self.balanced()
        c = clf(rng.uniform(0.5, 1, size=1), 0.1, (0,))
        acc = accuracy(c, ds)
        assert accuracy(lambda X: -c.predict(X), ds) == pytest.approx(1.0 - acc)


def test_array_holders_compare_by_identity():
    # a generated __eq__ would compare the array fields and raise on any
    # array of more than one element
    def make():
        return (
            Dataset(X=np.zeros((2, 2)), y=np.array([1, -1]), columns=(("a", "numeric"), ("b", "numeric"))),
            RawTable(header=("a", "b"), levels=(("x",), ("y",)), codes=np.zeros((2, 2), dtype=np.int32)),
            LinearClassifier(coeffs=np.ones(2), intercept=0.0, cols=(0, 1)),
            Draws((), np.zeros((2, 2), dtype=bool), None),
        )

    for a, twin in zip(make(), make()):
        assert a == a
        assert (a == twin) is False
    clf, twin = make()[2], make()[2]
    assert EnsembleMember(alpha=0.5, clf=clf) == EnsembleMember(alpha=0.5, clf=clf)
    assert EnsembleMember(alpha=0.5, clf=clf) != EnsembleMember(alpha=0.5, clf=twin)
