import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import dpboost.boosting as boosting
from dpboost import (
    Budget,
    DataError,
    Dataset,
    FeatureSplit,
    LinearClassifier,
    PublicChain,
    accuracy,
    brc_fit,
    draw_private_classifiers,
    clipped_update,
    generate_toy,
    make_rng,
    noisy_private_error,
    random_linear_classifier,
    sensitivity_oracle,
    weighted_error,
)
from dpboost.baselines import fit_logreg_weighted
from dpboost.model import Ensemble, EnsembleMember, score_matrix
from dpboost.noise import Purpose, laplace, laplace_scale, rng_for

from conftest import blas_threads, fit_with_draws, planted_dataset

SQRT2 = math.sqrt(2.0)


def tiny_dataset(y, d=1):
    n = len(y)
    X = np.linspace(-1, 1, n)[:, None] * np.ones((1, d))
    return Dataset(X=X, y=np.array(y), columns=tuple((f"c{i}", "numeric") for i in range(d)))


def misclassified(clf, ds):
    return clf.predict(ds.X) != ds.y


def assert_same_ensemble(a, b):
    """Exactly the same members: alphas, columns, coefficients, intercepts."""
    assert len(a) == len(b)
    for m, r in zip(a.members, b.members):
        assert (m.alpha, m.clf.cols, m.clf.intercept) == (r.alpha, r.clf.cols, r.clf.intercept)
        assert np.array_equal(m.clf.coeffs, r.clf.coeffs)


class TestWeightedError:
    def test_perfect_classifier(self):
        ds = tiny_dataset([-1, -1, 1, 1])
        clf = LinearClassifier(coeffs=np.array([1.0]), intercept=0.0, cols=(0,))
        assert weighted_error(misclassified(clf, ds), np.ones(4)) == 0.0

    def test_unit_weights_one_of_four(self):
        ds = tiny_dataset([-1, -1, 1, -1])  # last point misclassified by the split at 0
        clf = LinearClassifier(coeffs=np.array([1.0]), intercept=0.0, cols=(0,))
        assert weighted_error(misclassified(clf, ds), np.ones(4)) == 0.25

    def test_weighted_ratio(self):
        # weights (3,1), the weight-3 point wrong -> 0.75
        ds = Dataset(X=np.array([[0.5], [0.5]]), y=np.array([-1, 1]), columns=(("c", "numeric"),))
        clf = LinearClassifier(coeffs=np.array([1.0]), intercept=0.0, cols=(0,))
        assert weighted_error(misclassified(clf, ds), np.array([3.0, 1.0])) == 0.75

    def test_length_mismatch(self):
        ds = tiny_dataset([-1, 1])
        clf = LinearClassifier(coeffs=np.array([1.0]), intercept=0.0, cols=(0,))
        with pytest.raises(ValueError):
            weighted_error(misclassified(clf, ds), np.ones(3))

    def test_positive_weights_required(self):
        ds = tiny_dataset([-1, 1])
        clf = LinearClassifier(coeffs=np.array([1.0]), intercept=0.0, cols=(0,))
        with pytest.raises(ValueError):
            weighted_error(misclassified(clf, ds), np.array([1.0, 0.0]))


class TestNoisyPrivateError:
    def setup_method(self):
        self.ds = tiny_dataset([-1, -1, 1, -1])
        self.clf = LinearClassifier(coeffs=np.array([1.0]), intercept=0.0, cols=(0,))
        self.mis = misclassified(self.clf, self.ds)

    def release(self, mis, w, epsilon, rng):
        """One of one round's releases at c1 = c2 = sqrt 2."""
        return noisy_private_error(mis, w, SQRT2, SQRT2, 1, Budget(epsilon, rng))

    def test_vanishing_noise(self):
        # scale ~ 1e-15: the perturbed value collapses onto the exact error
        epsilon = 2 * 1 / (4 * 1e-15)  # scale = c1 c2 T/(eps n) = 1e-15
        exact = weighted_error(self.mis, np.ones(4))
        noisy = self.release(self.mis, np.ones(4), epsilon, make_rng(0))
        assert abs(noisy - exact) < 1e-12

    def test_monte_carlo_mean(self):
        scale = laplace_scale(SQRT2, SQRT2, 1, 0.5, 4)
        exact = weighted_error(self.mis, np.ones(4))
        rng = make_rng(3)
        draws = [self.release(self.mis, np.ones(4), 0.5, rng) for _ in range(10_000)]
        assert np.mean(draws) == pytest.approx(exact, abs=3 * scale / 100)

    def test_outside_unit_interval_frequency(self):
        # err = 0.5 and scale 1: P(outside [0,1]) = P(|Lap(1)| > 0.5) = e^{-1/2}
        ds = Dataset(
            X=np.array([[0.5], [0.5]]), y=np.array([1, -1]), columns=(("c", "numeric"),)
        )
        assert laplace_scale(SQRT2, SQRT2, 1, 1.0, 2) == pytest.approx(1.0)
        rng = make_rng(11)
        mis = misclassified(self.clf, ds)
        draws = np.array([self.release(mis, np.ones(2), 1.0, rng) for _ in range(2000)])
        frac_outside = np.mean((draws < 0.0) | (draws > 1.0))
        assert frac_outside == pytest.approx(math.exp(-0.5), abs=0.05)

    def test_scale_follows_the_row_count(self):
        # one budget, two sizes: each release is at sensitivity
        # c1*c2/len(w) and scale c1*c2*T/(eps*len(w)), for eps/T
        budget = Budget(0.5, make_rng(0))
        for n in (100, 1000):
            noisy_private_error(np.zeros(n, dtype=bool), np.ones(n), SQRT2, 2.0, 3, budget)
        assert [entry[:3] for entry in budget.ledger] == [
            ("brc error", SQRT2 * 2.0 / n, SQRT2 * 2.0 * 3 / (0.5 * n)) for n in (100, 1000)
        ]
        assert [share for *_, share in budget.ledger] == pytest.approx([0.5 / 3] * 2, rel=1e-15)

    def test_weights_must_respect_bounds(self):
        with pytest.raises(ValueError, match="clipping bounds"):
            self.release(self.mis, np.full(4, 10.0), 1.0, make_rng(0))


class TestClippedUpdate:
    def test_correctly_classified_unchanged(self):
        out = clipped_update(np.array([1.3]), 0.4, np.array([False]), SQRT2, SQRT2)
        assert out.tolist() == [1.3]

    def test_in_range_update_applies(self):
        # 1 * e^0.2 = 1.2214... <= sqrt(2): updated
        out = clipped_update(np.array([1.0]), 0.2, np.array([True]), SQRT2, SQRT2)
        assert out[0] == pytest.approx(math.exp(0.2))

    def test_out_of_range_skips(self):
        # 1.4 * e^0.2 = 1.70996... > sqrt(2): left unchanged, not clamped
        out = clipped_update(np.array([1.4]), 0.2, np.array([True]), SQRT2, SQRT2)
        assert out.tolist() == [1.4]

    def test_negative_alpha_can_skip_at_lower_bound(self):
        lo = 1.0 / SQRT2
        out = clipped_update(np.array([lo]), -0.3, np.array([True]), SQRT2, SQRT2)
        assert out.tolist() == [lo]

    @given(
        st.lists(st.floats(min_value=1 / 2, max_value=2), min_size=1, max_size=8),
        st.floats(min_value=-1.5, max_value=1.5),
        st.lists(st.booleans(), min_size=8, max_size=8),
    )
    def test_result_always_in_bounds(self, w, alpha, mis):
        w = np.array(w)
        mis = np.array(mis[: len(w)])
        out = clipped_update(w, alpha, mis, 2.0, 2.0)
        assert np.all((0.5 <= out) & (out <= 2.0))
        # each entry is either its own update or left as it was
        candidate = w * np.exp(alpha * mis)
        assert np.all((out == candidate) | (out == w))


def replay_split_fit(train, split, c1, c2, ensemble, records):
    """Independently re-derive the weight trajectories from the fit outputs,
    checking the branch rule, the alpha rule, and the clipping bounds."""
    w_pub = np.ones(train.n)
    w_pri = np.ones(train.n)
    lo, hi = 1.0 / c1, c2
    for member, rec in zip(ensemble.members, records):
        assert rec.alpha == member.alpha
        if rec.err_pub is not None:
            public_wins = abs(0.5 - rec.err_pub) > abs(0.5 - rec.err_pri_noisy)
            assert rec.chosen == ("public" if public_wins else "private")
        mis = member.clf.predict(train.X) != train.y
        if rec.chosen == "public":
            assert rec.alpha == 0.5 - rec.err_pub
            # exact public error is recomputable from the replayed weights
            assert rec.err_pub == pytest.approx(np.dot(w_pub, mis) / np.sum(w_pub))
            w_pub = w_pub * np.exp(rec.alpha * mis)
        else:
            assert rec.alpha == 0.5 - rec.err_pri_noisy
            w_pri_before = w_pri.copy()
            w_pri = clipped_update(w_pri, rec.alpha, mis, c1, c2)
            assert np.all(w_pri >= lo) and np.all(w_pri <= hi)
            changed = w_pri != w_pri_before
            assert not np.any(changed & ~mis) or rec.alpha == 0.0
        assert np.all(w_pri >= lo) and np.all(w_pri <= hi)
    return w_pub, w_pri


def refit_every_round(train, split, epsilon, rounds, classifier_rng, noise_rng, c1=SQRT2, c2=SQRT2):
    """The split booster loop written out with a fresh public fit in every
    round, as a reference for the fit that reuses an unchanged one."""
    w_pub = np.ones(train.n)
    w_pri = np.ones(train.n)
    budget = Budget(epsilon, noise_rng)
    members, records = [], []
    for t in range(1, rounds + 1):
        h_pub = fit_logreg_weighted(train, split.public_cols, w_pub)
        mis_pub = h_pub.predict(train.X) != train.y
        err_pub = weighted_error(mis_pub, w_pub)
        h_pri = random_linear_classifier(split.private_cols, classifier_rng)
        mis_pri = h_pri.predict(train.X) != train.y
        err_pri = noisy_private_error(mis_pri, w_pri, c1, c2, rounds, budget)
        if abs(0.5 - err_pub) > abs(0.5 - err_pri):
            chosen, alpha, clf = "public", 0.5 - err_pub, h_pub
            w_pub = w_pub * np.exp(alpha * mis_pub)
        else:
            chosen, alpha, clf = "private", 0.5 - err_pri, h_pri
            w_pri = clipped_update(w_pri, alpha, mis_pri, c1, c2)
        members.append(EnsembleMember(alpha=alpha, clf=clf))
        records.append(boosting.RoundRecord(t, chosen, err_pub, err_pri, alpha))
    return Ensemble(members=tuple(members)), records


class TestBrcFit:
    def test_round_count_and_subspaces(self):
        ds, split = planted_dataset(n=200)
        ens, recs = fit_with_draws(
            ds, split, 1.0, 8, c1=SQRT2, c2=SQRT2, classifier_rng=make_rng(0), noise_rng=make_rng(1)
        )
        assert len(ens) == len(recs) == 8
        # a member's columns show the side it came from, as its round's tag says
        for m, r in zip(ens.members, recs):
            assert m.clf.cols == {"public": split.public_cols, "private": split.private_cols}[r.chosen]
        assert [r.t for r in recs] == list(range(1, 9))

    def test_replay_invariants(self):
        ds, split = planted_dataset(n=300, seed=4)
        ens, recs = fit_with_draws(
            ds, split, 0.8, 12, c1=SQRT2, c2=2.0, classifier_rng=make_rng(5), noise_rng=make_rng(6)
        )
        replay_split_fit(ds, split, SQRT2, 2.0, ens, recs)
        assert {r.chosen for r in recs} <= {"public", "private"}

    def test_noise_free_reduction_records_exact_private_error(self):
        ds, split = planted_dataset(n=150, seed=9)
        ens, recs = fit_with_draws(
            ds, split, math.inf, 10, c1=2.0, c2=2.0, classifier_rng=make_rng(1), noise_rng=make_rng(2)
        )
        # replay private weights and recompute each round's exact private error
        w_pri = np.ones(ds.n)
        clf_rng = make_rng(1)
        for rec in recs:
            h_pri = random_linear_classifier(split.private_cols, clf_rng)
            mis = h_pri.predict(ds.X) != ds.y
            exact = float(np.einsum("i,i->", w_pri, mis) / np.sum(w_pri))
            assert rec.err_pri_noisy == exact
            if rec.chosen == "private":
                w_pri = clipped_update(w_pri, rec.alpha, mis, 2.0, 2.0)

    def test_public_branch_purity(self):
        # rounds where the public classifier wins must leave w_pri unchanged,
        # and vice versa; checked through the replayed trajectories.
        ds, split = planted_dataset(n=200, seed=2)
        ens, recs = fit_with_draws(
            ds, split, 2.0, 15, c1=SQRT2, c2=SQRT2, classifier_rng=make_rng(3), noise_rng=make_rng(4)
        )
        w_pub = np.ones(ds.n)
        w_pri = np.ones(ds.n)
        for member, rec in zip(ens.members, recs):
            mis = member.clf.predict(ds.X) != ds.y
            pub_before, pri_before = w_pub.copy(), w_pri.copy()
            if rec.chosen == "public":
                w_pub = w_pub * np.exp(rec.alpha * mis)
                assert np.array_equal(w_pri, pri_before)
            else:
                w_pri = clipped_update(w_pri, rec.alpha, mis, SQRT2, SQRT2)
                assert np.array_equal(w_pub, pub_before)

    def test_single_round_with_perfect_public_classifier(self, monkeypatch):
        toy = generate_toy(100)
        junk = make_rng(0).uniform(-1, 1, size=(100, 1))
        ds = Dataset(
            X=np.hstack([toy.X, junk]),
            y=toy.y,
            columns=(("position", "numeric"), ("junk", "numeric")),
        )
        split = FeatureSplit(public_cols=(0,), private_cols=(1,))

        def perfect(data, cols, weights):
            return LinearClassifier(coeffs=np.array([1.0]), intercept=0.0, cols=tuple(cols))

        monkeypatch.setattr(boosting, "fit_logreg_weighted", perfect)
        ens, recs = fit_with_draws(
            ds, split, 100.0, 1, c1=2.0, c2=2.0, classifier_rng=make_rng(1), noise_rng=make_rng(2)
        )
        assert len(ens) == 1
        assert recs[0].chosen == "public" and ens.members[0].clf.cols == (0,)
        assert ens.members[0].alpha == 0.5
        assert accuracy(ens, ds) == 1.0

    def test_toy_instance_reaches_high_training_accuracy(self):
        # 1-d signal in the private column, an uninformative public column,
        # nearly no noise: boosted random classifiers recover the signal.
        toy = generate_toy(2000)
        junk = make_rng(7).uniform(-1, 1, size=(2000, 1))
        ds = Dataset(
            X=np.hstack([junk, toy.X]),
            y=toy.y,
            columns=(("junk", "numeric"), ("position", "numeric")),
        )
        split = FeatureSplit(public_cols=(0,), private_cols=(1,))
        ens, _ = fit_with_draws(
            ds, split, 100.0, 50, c1=2.0, c2=2.0,
            classifier_rng=rng_for(0, 0, Purpose.PRIVATE_CLASSIFIER),
            noise_rng=rng_for(0, 0, Purpose.LAPLACE),
        )
        assert accuracy(ens, ds) >= 0.95

    def test_requires_private_columns(self):
        ds, _ = planted_dataset(n=50)
        split = FeatureSplit(public_cols=tuple(range(ds.d)), private_cols=())
        with pytest.raises(ValueError, match="private column set"):
            draw_private_classifiers(ds, np.arange(ds.n), split, 2, make_rng(0))

    @pytest.mark.parametrize("rounds", [0, 2.5, True])
    def test_draws_need_a_positive_integer_round_count(self, rounds):
        ds, split = planted_dataset(n=60)
        with pytest.raises(DataError, match="rounds must be"):
            draw_private_classifiers(ds, np.arange(ds.n), split, rounds, make_rng(0))

    @pytest.mark.parametrize(
        "c1, c2, message",
        [(0.5, 2, "finite and >= 1"), (2, math.inf, "finite and >= 1"), (True, 2, "c1 must be a number"),
         (2, "2", "c2 must be a number")],
    )
    def test_rejects_bad_clipping_before_any_draw(self, c1, c2, message):
        ds, split = planted_dataset(n=60)
        draws = draw_private_classifiers(ds, np.arange(ds.n), split, 4, make_rng(0))
        rng = make_rng(1)
        state = rng.bit_generator.state
        with pytest.raises(DataError, match=message):
            brc_fit(draws, Budget(1.0, rng), c1=c1, c2=c2)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("all_private", [False, True], ids=["split", "all-private"])
    def test_shared_draws_give_each_fit_its_own_result(self, all_private):
        # fits that differ only in epsilon share one set of draws; each comes
        # out as it would on draws of its own, so a fit leaves them unchanged
        ds, split = planted_dataset(n=200, seed=13)
        if all_private:
            split = FeatureSplit.all_private(ds.d)
        draws = draw_private_classifiers(ds, np.arange(ds.n), split, 10, make_rng(60))
        for epsilon in (0.1, 2.0, math.inf, 0.1):
            ens, recs = brc_fit(draws, Budget(epsilon, make_rng(61)), c1=SQRT2, c2=SQRT2)
            ref_ens, ref_recs = fit_with_draws(
                ds, split, epsilon, 10, c1=SQRT2, c2=SQRT2, classifier_rng=make_rng(60), noise_rng=make_rng(61)
            )
            assert recs == ref_recs
            assert_same_ensemble(ens, ref_ens)
        assert not draws.mis.flags.writeable

    def test_deterministic_serialization(self):
        ds, split = planted_dataset(n=120, seed=3)
        def run():
            ens, _ = fit_with_draws(
                ds, split, 0.3, 6, c1=SQRT2, c2=SQRT2, classifier_rng=make_rng(8), noise_rng=make_rng(9)
            )
            return ens

        assert_same_ensemble(run(), run())

    def test_exactly_t_laplace_draws_at_stated_scale(self):
        ds, split = planted_dataset(n=100, seed=1)
        draws = draw_private_classifiers(ds, np.arange(ds.n), split, 7, make_rng(0))
        budget = Budget(0.4, make_rng(1))
        brc_fit(draws, budget, c1=SQRT2, c2=SQRT2)
        assert len(budget.ledger) == 7
        assert all(scale == laplace_scale(SQRT2, SQRT2, 7, 0.4, ds.n) for _, _, scale, _ in budget.ledger)
        assert budget.spent == pytest.approx(0.4, rel=1e-12)

    def test_loop_calls_the_tested_primitives(self, monkeypatch):
        # every round's errors and private update go through the exported
        # primitives, so their tests cover the code the fit runs
        ds, split = planted_dataset(n=100, seed=5)
        rounds = 6
        calls = {"weighted_error": 0, "noisy_private_error": 0, "clipped_update": 0}
        for name in calls:
            real = getattr(boosting, name)

            def counting(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(boosting, name, counting)
        _, recs = fit_with_draws(
            ds, split, 0.5, rounds, c1=SQRT2, c2=SQRT2, classifier_rng=make_rng(0), noise_rng=make_rng(1)
        )
        private_rounds = sum(r.chosen == "private" for r in recs)
        # the public learner is fitted in round 1 and after each public round
        fits = 1 + sum(r.chosen == "public" for r in recs[:-1])
        assert fits < rounds  # some rounds reuse the previous fit
        # one public error per fit, plus one inside each noisy private error
        assert calls["noisy_private_error"] == rounds
        assert calls["weighted_error"] == rounds + fits
        assert calls["clipped_update"] == private_rounds

    @pytest.mark.parametrize("epsilon", [0.5, math.inf])
    def test_reused_public_fit_matches_refitting_every_round(self, monkeypatch, epsilon):
        ds, split = planted_dataset(n=240, seed=8)
        ref_ens, ref_recs = refit_every_round(ds, split, epsilon, 14, make_rng(30), make_rng(31))

        fits = []
        real = boosting.fit_logreg_weighted

        def counting(*args):
            fits.append(args)
            return real(*args)

        monkeypatch.setattr(boosting, "fit_logreg_weighted", counting)
        ens, recs = fit_with_draws(
            ds, split, epsilon, 14, c1=SQRT2, c2=SQRT2, classifier_rng=make_rng(30), noise_rng=make_rng(31)
        )
        assert recs == ref_recs
        assert_same_ensemble(ens, ref_ens)
        public_rounds = sum(r.chosen == "public" for r in recs[:-1])
        assert 0 < public_rounds < 14 - 1
        assert len(fits) == 1 + public_rounds

        fits.clear()
        fit_all_private(ds, epsilon, 14, 30, 31, c1=SQRT2, c2=SQRT2)
        assert fits == []

    def test_public_fits_share_one_gathered_matrix(self, monkeypatch):
        # every public refit of a fit, and its misclassified-row flags, reads
        # one F-ordered copy of the public columns; members keep split's columns
        ds, split = planted_dataset(n=240, seed=8)
        seen = []
        real = boosting.fit_logreg_weighted

        def counting(data, cols, weights):
            seen.append(data.X)
            return real(data, cols, weights)

        monkeypatch.setattr(boosting, "fit_logreg_weighted", counting)
        ens, recs = fit_with_draws(
            ds, split, 0.5, 14, c1=SQRT2, c2=SQRT2, classifier_rng=make_rng(30), noise_rng=make_rng(31)
        )
        assert len(seen) > 1
        assert all(X is seen[0] for X in seen)
        assert seen[0].flags.f_contiguous and seen[0].shape == (ds.n, len(split.public_cols))
        assert np.array_equal(seen[0], ds.X[:, list(split.public_cols)])
        public = [m.clf for m, r in zip(ens.members, recs) if r.chosen == "public"]
        assert public and all(clf.cols == split.public_cols for clf in public)

    def test_noise_stream_consumption_is_data_independent(self):
        # After a fit, the noise stream sits exactly T laplace draws in, and
        # the classifier stream exactly T * (k+1) uniforms in: nothing else
        # on those streams can depend on the data.
        ds, split = planted_dataset(n=80, seed=6)
        k = len(split.private_cols)
        rounds = 9
        clf_rng, noise_rng = make_rng(20), make_rng(21)
        fit_with_draws(ds, split, 0.4, rounds, c1=SQRT2, c2=SQRT2, classifier_rng=clf_rng, noise_rng=noise_rng)

        ref_noise = make_rng(21)
        for _ in range(rounds):
            laplace(laplace_scale(SQRT2, SQRT2, rounds, 0.4, ds.n), ref_noise)
        assert noise_rng.bit_generator.state == ref_noise.bit_generator.state

        ref_clf = make_rng(20)
        ref_clf.uniform(-1.0, 1.0, size=rounds * (k + 1))
        assert clf_rng.bit_generator.state == ref_clf.bit_generator.state


def assert_same_links(a, b, links):
    """Links 0..links-1 of two chains are bit-equal."""
    for k in range(links):
        (h, mis, err), (h_ref, mis_ref, err_ref) = a[k], b[k]
        assert (h.cols, h.intercept, err) == (h_ref.cols, h_ref.intercept, err_ref)
        assert np.array_equal(h.coeffs, h_ref.coeffs) and np.array_equal(mis, mis_ref)


class TestPublicChain:
    def test_links_read_no_private_column(self):
        # the chain's privacy statement: replacing every private feature of
        # every row leaves each link bit for bit the same
        ds, split = planted_dataset(n=240, seed=8)
        X = ds.X.copy()
        X[:, list(split.private_cols)] = make_rng(5).uniform(-1, 1, size=(ds.n, len(split.private_cols)))
        other = Dataset(X=X, y=ds.y, columns=ds.columns)
        assert_same_links(PublicChain(ds, np.arange(ds.n), split), PublicChain(other, np.arange(ds.n), split), 6)

    def test_each_link_refits_after_one_public_update(self, monkeypatch):
        # link k+1 is the fit on link k's weights times exp((0.5 - err_k) * mis_k),
        # fitted lazily, once, when first read
        ds, split = planted_dataset(n=200, seed=2)
        fits = []
        real = boosting.fit_logreg_weighted

        def counting(data, cols, weights):
            fits.append(np.array(weights))
            return real(data, cols, weights)

        monkeypatch.setattr(boosting, "fit_logreg_weighted", counting)
        chain = PublicChain(ds, np.arange(ds.n), split)
        assert fits == []
        chain[3]
        chain[1]
        assert len(fits) == 4
        w = np.ones(ds.n)
        for k in range(4):
            h, mis, err = chain[k]
            assert np.array_equal(fits[k], w)
            ref = real(ds, split.public_cols, w)
            assert h.cols == split.public_cols and np.allclose(h.coeffs, ref.coeffs, atol=1e-9)
            assert np.array_equal(mis, h.predict(ds.X) != ds.y) and err == weighted_error(mis, w)
            w = w * np.exp((0.5 - err) * mis)


def fit_all_private(ds, epsilon, rounds, clf_seed, noise_seed, c1=2.0, c2=2.0, **kwargs):
    return fit_with_draws(
        ds,
        FeatureSplit.all_private(ds.d),
        epsilon,
        rounds,
        c1=c1,
        c2=c2,
        classifier_rng=make_rng(clf_seed),
        noise_rng=make_rng(noise_seed),
        **kwargs,
    )


def draw_in_each_round(train, epsilon, rounds, classifier_rng, noise_rng, sampler, c1=SQRT2, c2=SQRT2):
    """The all-private booster loop with each round drawing and scoring its
    own classifier, as a reference for the fit that draws them up front."""
    w = np.ones(train.n)
    budget = Budget(epsilon, noise_rng)
    members, records = [], []
    for t in range(1, rounds + 1):
        (h,) = sampler(train.y, 1, classifier_rng)
        mis = h.predict(train.X) != train.y
        err = noisy_private_error(mis, w, c1, c2, rounds, budget)
        alpha = 0.5 - err
        w = clipped_update(w, alpha, mis, c1, c2)
        members.append(EnsembleMember(alpha=alpha, clf=h))
        records.append(boosting.RoundRecord(t, "all", None, err, alpha))
    return Ensemble(members=tuple(members)), records


def uniform_sampler(d):
    """The default sampler of an all-private split over d columns."""

    def sampler(y, count, rng):
        return [random_linear_classifier(range(d), rng) for _ in range(count)]

    return sampler


def column_subset_sampler(d):
    """A sampler of random classifiers, each on a random set of one to three
    of d columns, so that one fit's draws read several different column sets."""

    def sampler(y, count, rng):
        return [
            random_linear_classifier(tuple(rng.choice(d, size=int(rng.integers(1, 4)), replace=False)), rng)
            for _ in range(count)
        ]

    return sampler


def same_classifiers(a, b):
    return len(a) == len(b) and all(
        (x.cols, x.intercept) == (y.cols, y.intercept) and np.array_equal(x.coeffs, y.coeffs) for x, y in zip(a, b)
    )


class TestDrawPrivateClassifiers:
    def test_scoring_memory_does_not_grow_with_the_round_count(self):
        # 1,000 draws at n = 20,000: the (T, n) flags take 20 MB, and their
        # scores are built a block of rounds at a time, not as one (n, T) product
        n, d = 20_000, 104
        rng = np.random.default_rng(0)
        ds = Dataset(
            X=rng.uniform(-1, 1, size=(n, d)),
            y=np.where(rng.random(n) < 0.5, 1, -1),
            columns=tuple(("f", f"={j}") for j in range(d)),
        )
        tracemalloc.start()
        try:
            mis = draw_private_classifiers(ds, np.arange(ds.n), FeatureSplit.all_private(d), 1_000, make_rng(1)).mis
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mis.shape == (1_000, n)
        assert peak < 64e6

    def test_blocks_of_rounds_match_scoring_each_draw_alone(self, monkeypatch):
        monkeypatch.setattr(boosting, "_DRAW_BLOCK", 4)
        ds, split = planted_dataset(n=150, seed=14)
        draws = draw_private_classifiers(ds, np.arange(ds.n), split, 11, make_rng(70))
        assert len(draws.classifiers) == 11 and draws.mis.flags.c_contiguous
        for clf, row in zip(draws.classifiers, draws.mis):
            assert np.array_equal(row, clf.predict(ds.X) != ds.y)

    @pytest.mark.parametrize("rounds", [1, 50, 128, 129, 300])
    def test_blocks_draw_what_single_draws_would(self, rounds):
        # the default sampler, called once per block, draws the classifiers
        # that random_linear_classifier called once per round draws, and
        # leaves the stream in the same state
        ds, split = planted_dataset(n=60, seed=15)
        rng, ref = make_rng(71), make_rng(71)
        draws = draw_private_classifiers(ds, np.arange(ds.n), split, rounds, rng)
        single = [random_linear_classifier(split.private_cols, ref) for _ in range(rounds)]
        assert same_classifiers(draws.classifiers, single)
        assert rng.bit_generator.state == ref.bit_generator.state
        for clf, row in zip(draws.classifiers, draws.mis):
            assert np.array_equal(row, clf.predict(ds.X) != ds.y)

    @pytest.mark.parametrize("public", [False, True], ids=["all-private", "split"])
    def test_short_draws_are_a_prefix_of_long_ones(self, public):
        # the 25-round Draws is the first 25 rounds of a 300-round one,
        # classifiers and flags, across the block boundary at 128
        ds, split = planted_dataset(n=200, seed=16)
        if not public:
            split = FeatureSplit.all_private(ds.d)
        short = draw_private_classifiers(ds, np.arange(ds.n), split, 25, make_rng(72))
        long = draw_private_classifiers(ds, np.arange(ds.n), split, 300, make_rng(72))
        assert same_classifiers(short.classifiers, long.classifiers[:25])
        assert np.array_equal(short.mis, long.mis[:25])

    @pytest.mark.parametrize("threads", [1, 2])
    def test_row_blocks_flag_what_one_product_flags(self, threads):
        # 12,345 permuted rows of 14,000 census-shaped ones: more than the
        # 10,001 rows at which OpenBLAS may split one product between
        # threads, and not a multiple of the block. Each block of rows is
        # scored on its own; the flags must equal those of one product over
        # all rows, and link 0 of the chain the fit on a copy of the rows.
        assert boosting._SCORE_ROWS & (boosting._SCORE_ROWS - 1) == 0  # see _SCORE_ROWS
        rng = make_rng(80)
        n, d = 14_000, 104
        X = np.where(rng.random((n, d)) < 0.2, 1.0, -1.0)  # one-hot columns scaled to [-1, 1]
        X[:, :6] = rng.uniform(-1, 1, size=(n, 6))  # numeric columns
        ds = Dataset(X=X, y=np.where(rng.random(n) < 0.5, 1, -1), columns=tuple(("f", f"={j}") for j in range(d)))
        rows = rng.permutation(n)[:12_345]
        assert len(rows) % boosting._SCORE_ROWS
        train = ds.take(rows)
        with blas_threads(threads):
            for split in (FeatureSplit.all_private(d), FeatureSplit(tuple(range(56)), tuple(range(56, d)))):
                draws = draw_private_classifiers(ds, rows, split, 25, make_rng(81))
                flags = score_matrix(draws.classifiers, ds.X[rows]) >= 0
                assert np.array_equal(draws.mis, flags.T != (train.y == 1))
            h, mis, _ = draws.public[0]
            ref = fit_logreg_weighted(train, split.public_cols)
            assert (h.cols, h.intercept) == (ref.cols, ref.intercept) and np.array_equal(h.coeffs, ref.coeffs)
            assert np.array_equal(mis, ref.predict(train.X) != train.y)

    def test_rows_index_as_numpy_does(self):
        # a row outside the data raises; a negative row counts from the end
        ds, split = planted_dataset(n=60)
        with pytest.raises(IndexError):
            draw_private_classifiers(ds, np.array([0, 60]), split, 3, make_rng(0))
        with pytest.raises(IndexError):
            PublicChain(ds, np.array([0, 60]), split)
        wrapped, plain = (
            draw_private_classifiers(ds, np.array(rows), split, 3, make_rng(0)) for rows in ([-1, 3, 10, -2], [59, 3, 10, 58])
        )
        assert np.array_equal(wrapped.mis, plain.mis)
        assert_same_links(wrapped.public, plain.public, 1)

    def test_draws_carry_the_splits_public_chain(self):
        # a split with public columns gets a chain on exactly those columns,
        # an all-private split none; the flags are shared and read-only
        ds, split = planted_dataset(n=60)
        draws = draw_private_classifiers(ds, np.arange(ds.n), split, 3, make_rng(0))
        assert isinstance(draws.public, PublicChain) and draws.public.cols == split.public_cols
        assert draw_private_classifiers(ds, np.arange(ds.n), FeatureSplit.all_private(ds.d), 3, make_rng(0)).public is None
        assert draws.mis.shape == (3, ds.n) and not draws.mis.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            draws.mis[0, 0] = not draws.mis[0, 0]


class TestBrcFitAllPrivate:
    @pytest.mark.parametrize("sampler", [None, column_subset_sampler], ids=["default", "column-subsets"])
    @pytest.mark.parametrize("epsilon", [0.5, math.inf])
    def test_up_front_draws_match_drawing_in_each_round(self, sampler, epsilon):
        # the fit's one sampler call for all 16 rounds draws what 16 calls of
        # one round each would
        ds, _ = planted_dataset(n=240, seed=10)
        sampler = sampler and sampler(ds.d)
        ref_ens, ref_recs = draw_in_each_round(
            ds, epsilon, 16, make_rng(40), make_rng(41), sampler or uniform_sampler(ds.d)
        )
        ens, recs = fit_all_private(ds, epsilon, 16, 40, 41, c1=SQRT2, c2=SQRT2, sampler=sampler)
        assert recs == ref_recs
        assert_same_ensemble(ens, ref_ens)
        if sampler is not None:
            assert len({m.clf.cols for m in ens.members}) > 1

    @pytest.mark.parametrize("public", [False, True], ids=["all-private", "split"])
    def test_sampler_called_once_per_block_in_order(self, public, monkeypatch):
        monkeypatch.setattr(boosting, "_DRAW_BLOCK", 4)
        ds, split = planted_dataset(n=120, seed=11)
        if not public:
            split = FeatureSplit.all_private(ds.d)
        calls, states, drawn = [], [], []

        def sampler(y, count, rng):
            calls.append((y, count))
            states.append(rng.bit_generator.state)
            block = [random_linear_classifier(split.private_cols, rng) for _ in range(count)]
            drawn.extend(block)
            return block

        ens, recs = fit_with_draws(ds, split, 0.5, 9, c1=SQRT2, c2=SQRT2, classifier_rng=make_rng(50),
                                   noise_rng=make_rng(51), sampler=sampler)
        # one call per block of at most _DRAW_BLOCK rounds, each given the labels
        assert [count for _, count in calls] == [4, 4, 1]
        assert all(np.array_equal(y, ds.y) for y, _ in calls)
        # call i continues the stream where call i-1 left it
        ref = make_rng(50)
        for state, (_, count) in zip(states, calls):
            assert state == ref.bit_generator.state
            for _ in range(count):
                random_linear_classifier(split.private_cols, ref)
        # round t keeps the t-th draw whenever it keeps the private classifier
        for member, rec in zip(ens.members, recs):
            if rec.chosen != "public":
                assert member.clf is drawn[rec.t - 1]
        assert public == any(r.chosen == "public" for r in recs)


    def test_round_count_and_tags(self):
        ds, _ = planted_dataset(n=100)
        ens, recs = fit_all_private(ds, 0.5, 5, 0, 1, c1=SQRT2, c2=SQRT2)
        assert len(ens) == 5
        assert all(m.clf.cols == tuple(range(ds.d)) for m in ens.members)
        assert all(r.chosen == "all" and r.err_pub is None for r in recs)

    def test_single_round_huge_noise_near_coin_flip(self):
        # One random classifier with a noise-dominated alpha: averaged over
        # seeds the balanced accuracy sits near 1/2.
        ds, _ = planted_dataset(n=200, seed=5)
        accs = []
        for seed in range(50):
            ens, _ = fit_all_private(ds, 0.001, 1, seed, 1000 + seed)
            accs.append(accuracy(ens, ds))
        assert np.mean(accs) == pytest.approx(0.5, abs=0.1)

    def test_weight_bounds_via_replay(self):
        ds, _ = planted_dataset(n=120, seed=12)
        ens, recs = fit_all_private(ds, 0.2, 20, 4, 5)
        w = np.ones(ds.n)
        for member, rec in zip(ens.members, recs):
            assert rec.alpha == 0.5 - rec.err_pri_noisy
            mis = member.clf.predict(ds.X) != ds.y
            w = clipped_update(w, rec.alpha, mis, 2.0, 2.0)
            assert np.all(w >= 0.5) and np.all(w <= 2.0)

    def test_round_records_serialize_to_json_lines(self, tmp_path):
        import json

        from dpboost.harness import ResultRecord, emit_records_jsonl

        ds, _ = planted_dataset(n=60)
        _, recs = fit_all_private(ds, 1.0, 3, 0, 1)
        cell = dict(algorithm="brc-all-private", epsilon=1.0, repeat=0, seed=0, streams={})
        path = tmp_path / "records.jsonl"
        emit_records_jsonl([ResultRecord(**cell, rounds=tuple(recs)), ResultRecord(**cell)], path)
        with_rounds, without_rounds = (json.loads(line) for line in path.read_text().splitlines())
        rounds = with_rounds["rounds"]
        assert len(rounds) == 3
        assert list(rounds[0]) == ["t", "chosen", "err_pub", "err_pri_noisy", "alpha", "test_accuracy"]
        assert [r["t"] for r in rounds] == [1, 2, 3]
        assert all(r["chosen"] == "all" and r["err_pub"] is None for r in rounds)
        # only the harness scores the prefixes on held-out rows
        assert all(r["test_accuracy"] is None for r in rounds)
        assert "rounds" not in without_rounds

    def test_custom_sampler_injected(self):
        # the sampler is handed the training labels and the round count, and
        # no Dataset, so it cannot read a private column
        ds, _ = planted_dataset(n=60)
        seen = []

        def sampler(*args):
            seen.append(args)
            y, count, _ = args
            return [LinearClassifier(coeffs=np.array([1.0]), intercept=0.0, cols=(0,))] * count

        ens, _ = fit_all_private(ds, 1.0, 4, 0, 1, sampler=sampler)
        assert len(seen) == 1
        y, count, rng = seen[0]
        assert np.array_equal(y, ds.y) and count == 4 and isinstance(rng, np.random.Generator)
        assert not any(isinstance(arg, Dataset) for arg in seen[0])
        assert all(m.clf.cols == (0,) for m in ens.members)

    @pytest.mark.parametrize("returned", [3, 5])
    def test_sampler_returning_another_count_rejected(self, returned):
        ds, _ = planted_dataset(n=60)

        def sampler(y, count, rng):
            return [LinearClassifier(coeffs=np.array([1.0]), intercept=0.0, cols=(0,))] * returned

        with pytest.raises(ValueError, match=f"returned {returned} classifiers for a block of 4 rounds"):
            draw_private_classifiers(ds, np.arange(ds.n), FeatureSplit.all_private(ds.d), 4, make_rng(0), sampler)


class TestSensitivityOracle:
    def oracle_instance(self, n, k, seed=0):
        rng = make_rng(seed)
        grid = np.linspace(-1, 1, 5)
        X = rng.choice(grid, size=(n, k))
        y = np.where(rng.random(n) < 0.5, 1, -1)
        if np.all(y == y[0]):
            y[0] = -y[0]
        ds = Dataset(X=X, y=y, columns=tuple((f"c{i}", "numeric") for i in range(k)))
        clf = LinearClassifier(
            coeffs=rng.uniform(-1, 1, size=k),
            intercept=float(rng.uniform(-1, 1)),
            cols=tuple(range(k)),
        )
        return ds, clf

    def test_pinned_weights_reach_one_over_n(self):
        # c1=c2=1 pins every weight to 1; a neighbor that flips one point's
        # correctness moves the error by exactly 1/n.
        n = 4
        X = np.full((n, 1), -1.0)
        y = np.array([1, -1, 1, -1])
        ds = Dataset(X=X, y=y, columns=(("c", "numeric"),))
        clf = LinearClassifier(coeffs=np.array([1.0]), intercept=0.0, cols=(0,))
        val = sensitivity_oracle(clf, ds, [np.ones(n)], 1.0, 1.0)
        assert val == pytest.approx(1.0 / n)
        assert val <= 1.0 / n + 1e-12

    def test_no_prediction_change_gives_zero(self):
        # 0.1 * x + 0.5 > 0 on all of [-1, 1]: every neighbor keeps identical
        # predictions, and the weights are pinned.
        clf = LinearClassifier(coeffs=np.array([0.1]), intercept=0.5, cols=(0,))
        X = np.full((4, 1), 0.5)
        ds0 = Dataset(X=X, y=np.array([1, 1, -1, -1]), columns=(("c", "numeric"),))
        assert sensitivity_oracle(clf, ds0, [np.ones(4)], 1.0, 1.0) == 0.0

    def test_combinatorial_guard(self):
        ds, clf = self.oracle_instance(n=4, k=2)
        big, _ = planted_dataset(n=10, d_pub=1, d_pri=1)
        with pytest.raises(ValueError, match="too large"):
            sensitivity_oracle(clf, big, [np.ones(10)], 2.0, 2.0)
        wide_clf = LinearClassifier(
            coeffs=np.ones(3), intercept=0.0, cols=(0, 1, 2)
        )
        with pytest.raises(ValueError, match="too large"):
            sensitivity_oracle(wide_clf, ds, [np.ones(4)], 2.0, 2.0)

    def test_weight_vectors_validated(self):
        ds, clf = self.oracle_instance(n=3, k=1)
        with pytest.raises(ValueError, match="admissible"):
            sensitivity_oracle(clf, ds, [np.full(3, 9.0)], 2.0, 2.0)
