import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import dpboost.boosting as boosting
from dpboost import (
    Dataset,
    FeatureSplit,
    LinearClassifier,
    PrivacyParams,
    accuracy,
    brc_fit,
    clipped_update,
    generate_toy,
    make_rng,
    noisy_private_error,
    random_linear_classifier,
    sensitivity_oracle,
    weighted_error,
)
from dpboost.noise import Purpose, rng_for

from conftest import planted_dataset

SQRT2 = math.sqrt(2.0)


def tiny_dataset(y, d=1):
    n = len(y)
    X = np.linspace(-1, 1, n)[:, None] * np.ones((1, d))
    return Dataset(X=X, y=np.array(y), columns=tuple((f"c{i}", "numeric") for i in range(d)))


def misclassified(clf, ds):
    return clf.predict(ds.X) != ds.y


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

    def params(self, epsilon, c=SQRT2):
        return PrivacyParams(epsilon=epsilon, rounds=1, c1=c, c2=c, n=4)

    def test_vanishing_noise(self):
        # scale ~ 1e-15: the perturbed value collapses onto the exact error
        p = self.params(epsilon=2 * 1 / (4 * 1e-15))  # scale = c1 c2 T/(eps n) = 1e-15
        exact = weighted_error(self.mis, np.ones(4))
        noisy = noisy_private_error(self.mis, np.ones(4), p, make_rng(0))
        assert abs(noisy - exact) < 1e-12

    def test_monte_carlo_mean(self):
        p = self.params(epsilon=0.5)
        scale = p.laplace_scale
        exact = weighted_error(self.mis, np.ones(4))
        rng = make_rng(3)
        draws = [noisy_private_error(self.mis, np.ones(4), p, rng) for _ in range(10_000)]
        assert np.mean(draws) == pytest.approx(exact, abs=3 * scale / 100)

    def test_outside_unit_interval_frequency(self):
        # err = 0.5 and scale 1: P(outside [0,1]) = P(|Lap(1)| > 0.5) = e^{-1/2}
        ds = Dataset(
            X=np.array([[0.5], [0.5]]), y=np.array([1, -1]), columns=(("c", "numeric"),)
        )
        p = PrivacyParams(epsilon=1.0, rounds=1, c1=SQRT2, c2=SQRT2, n=2)
        assert p.laplace_scale == pytest.approx(1.0)
        rng = make_rng(11)
        mis = misclassified(self.clf, ds)
        draws = np.array([noisy_private_error(mis, np.ones(2), p, rng) for _ in range(2000)])
        frac_outside = np.mean((draws < 0.0) | (draws > 1.0))
        assert frac_outside == pytest.approx(math.exp(-0.5), abs=0.05)

    def test_weights_must_respect_bounds(self):
        p = self.params(epsilon=1.0)
        with pytest.raises(ValueError, match="clipping bounds"):
            noisy_private_error(self.mis, np.full(4, 10.0), p, make_rng(0))


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


def replay_split_fit(train, split, params, ensemble, records):
    """Independently re-derive the weight trajectories from the fit outputs,
    checking the branch rule, the alpha rule, and the clipping bounds."""
    w_pub = np.ones(train.n)
    w_pri = np.ones(train.n)
    lo, hi = 1.0 / params.c1, params.c2
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
            w_pri = clipped_update(w_pri, rec.alpha, mis, params.c1, params.c2)
            assert np.all(w_pri >= lo) and np.all(w_pri <= hi)
            changed = w_pri != w_pri_before
            assert not np.any(changed & ~mis) or rec.alpha == 0.0
        assert np.all(w_pri >= lo) and np.all(w_pri <= hi)
    return w_pub, w_pri


class TestBrcFit:
    def test_round_count_and_subspaces(self):
        ds, split = planted_dataset(n=200)
        params = PrivacyParams(epsilon=1.0, rounds=8, c1=SQRT2, c2=SQRT2, n=ds.n)
        ens, recs = brc_fit(
            ds, split, params, classifier_rng=make_rng(0), noise_rng=make_rng(1)
        )
        assert len(ens) == len(recs) == 8
        assert all(m.subspace in ("public", "private") for m in ens.members)
        assert [r.t for r in recs] == list(range(1, 9))

    def test_replay_invariants(self):
        ds, split = planted_dataset(n=300, seed=4)
        params = PrivacyParams(epsilon=0.8, rounds=12, c1=SQRT2, c2=2.0, n=ds.n)
        ens, recs = brc_fit(
            ds, split, params, classifier_rng=make_rng(5), noise_rng=make_rng(6)
        )
        replay_split_fit(ds, split, params, ens, recs)
        assert {r.chosen for r in recs} <= {"public", "private"}

    def test_noise_free_reduction_records_exact_private_error(self):
        ds, split = planted_dataset(n=150, seed=9)
        params = PrivacyParams(epsilon=math.inf, rounds=10, c1=2.0, c2=2.0, n=ds.n)
        ens, recs = brc_fit(
            ds, split, params, classifier_rng=make_rng(1), noise_rng=make_rng(2)
        )
        # replay private weights and recompute each round's exact private error
        w_pri = np.ones(ds.n)
        clf_rng = make_rng(1)
        for rec in recs:
            h_pri = random_linear_classifier(split.private_cols, clf_rng)
            mis = h_pri.predict(ds.X) != ds.y
            exact = float(np.dot(w_pri, mis) / np.sum(w_pri))
            assert rec.err_pri_noisy == exact
            if rec.chosen == "private":
                w_pri = clipped_update(w_pri, rec.alpha, mis, 2.0, 2.0)

    def test_public_branch_purity(self):
        # rounds where the public classifier wins must leave w_pri unchanged,
        # and vice versa; checked through the replayed trajectories.
        ds, split = planted_dataset(n=200, seed=2)
        params = PrivacyParams(epsilon=2.0, rounds=15, c1=SQRT2, c2=SQRT2, n=ds.n)
        ens, recs = brc_fit(
            ds, split, params, classifier_rng=make_rng(3), noise_rng=make_rng(4)
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

    def test_single_round_with_perfect_public_classifier(self):
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

        params = PrivacyParams(epsilon=100.0, rounds=1, c1=2.0, c2=2.0, n=ds.n)
        ens, recs = brc_fit(
            ds, split, params, weak_learner=perfect,
            classifier_rng=make_rng(1), noise_rng=make_rng(2),
        )
        assert len(ens) == 1
        assert ens.members[0].subspace == "public"
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
        params = PrivacyParams(epsilon=100.0, rounds=50, c1=2.0, c2=2.0, n=2000)
        ens, _ = brc_fit(
            ds, split, params,
            classifier_rng=rng_for(0, 0, Purpose.PRIVATE_CLASSIFIER),
            noise_rng=rng_for(0, 0, Purpose.LAPLACE),
        )
        assert accuracy(ens, ds) >= 0.95

    def test_requires_private_columns(self):
        ds, _ = planted_dataset(n=50)
        split = FeatureSplit(public_cols=tuple(range(ds.d)), private_cols=())
        params = PrivacyParams(epsilon=1.0, rounds=2, c1=2, c2=2, n=ds.n)
        with pytest.raises(ValueError, match="private column set"):
            brc_fit(ds, split, params, classifier_rng=make_rng(0), noise_rng=make_rng(1))

    def test_n_mismatch_rejected(self):
        ds, split = planted_dataset(n=50)
        params = PrivacyParams(epsilon=1.0, rounds=2, c1=2, c2=2, n=49)
        with pytest.raises(ValueError, match="params.n"):
            brc_fit(ds, split, params, classifier_rng=make_rng(0), noise_rng=make_rng(1))

    def test_deterministic_serialization(self):
        ds, split = planted_dataset(n=120, seed=3)
        params = PrivacyParams(epsilon=0.3, rounds=6, c1=SQRT2, c2=SQRT2, n=ds.n)

        def run():
            ens, _ = brc_fit(
                ds, split, params, classifier_rng=make_rng(8), noise_rng=make_rng(9)
            )
            return ens.to_json()

        assert run() == run()

    def test_exactly_t_laplace_draws_at_stated_scale(self, monkeypatch):
        ds, split = planted_dataset(n=100, seed=1)
        params = PrivacyParams(epsilon=0.4, rounds=7, c1=SQRT2, c2=SQRT2, n=ds.n)
        calls = []
        real = boosting.laplace

        def counting(scale, rng, size=None):
            calls.append(scale)
            return real(scale, rng, size)

        monkeypatch.setattr(boosting, "laplace", counting)
        brc_fit(ds, split, params, classifier_rng=make_rng(0), noise_rng=make_rng(1))
        assert len(calls) == params.rounds
        assert all(s == params.laplace_scale for s in calls)

    def test_loop_calls_the_tested_primitives(self, monkeypatch):
        # every round's errors and private update go through the exported
        # primitives, so their tests cover the code the fit runs
        ds, split = planted_dataset(n=100, seed=5)
        params = PrivacyParams(epsilon=0.5, rounds=6, c1=SQRT2, c2=SQRT2, n=ds.n)
        calls = {"weighted_error": 0, "noisy_private_error": 0, "clipped_update": 0}
        for name in calls:
            real = getattr(boosting, name)

            def counting(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(boosting, name, counting)
        _, recs = brc_fit(ds, split, params, classifier_rng=make_rng(0), noise_rng=make_rng(1))
        private_rounds = sum(r.chosen == "private" for r in recs)
        # one public error per round, plus one inside each noisy private error
        assert calls["noisy_private_error"] == params.rounds
        assert calls["weighted_error"] == 2 * params.rounds
        assert calls["clipped_update"] == private_rounds

    def test_noise_stream_consumption_is_data_independent(self):
        # After a fit, the noise stream sits exactly T laplace draws in, and
        # the classifier stream exactly T * (k+1) uniforms in: nothing else
        # on those streams can depend on the data.
        ds, split = planted_dataset(n=80, seed=6)
        k = len(split.private_cols)
        params = PrivacyParams(epsilon=0.4, rounds=9, c1=SQRT2, c2=SQRT2, n=ds.n)
        clf_rng, noise_rng = make_rng(20), make_rng(21)
        brc_fit(ds, split, params, classifier_rng=clf_rng, noise_rng=noise_rng)

        ref_noise = make_rng(21)
        for _ in range(params.rounds):
            boosting.laplace(params.laplace_scale, ref_noise)
        assert noise_rng.bit_generator.state == ref_noise.bit_generator.state

        ref_clf = make_rng(20)
        ref_clf.uniform(-1.0, 1.0, size=params.rounds * (k + 1))
        assert clf_rng.bit_generator.state == ref_clf.bit_generator.state


def fit_all_private(ds, params, clf_seed, noise_seed, **kwargs):
    return brc_fit(
        ds,
        FeatureSplit.all_private(ds.d),
        params,
        classifier_rng=make_rng(clf_seed),
        noise_rng=make_rng(noise_seed),
        **kwargs,
    )


class TestBrcFitAllPrivate:
    def test_round_count_and_tags(self):
        ds, _ = planted_dataset(n=100)
        params = PrivacyParams(epsilon=0.5, rounds=5, c1=SQRT2, c2=SQRT2, n=ds.n)
        ens, recs = fit_all_private(ds, params, 0, 1)
        assert len(ens) == 5
        assert all(m.subspace == "all" for m in ens.members)
        assert all(m.clf.cols == tuple(range(ds.d)) for m in ens.members)
        assert all(r.chosen == "all" and r.err_pub is None for r in recs)

    def test_single_round_huge_noise_near_coin_flip(self):
        # One random classifier with a noise-dominated alpha: averaged over
        # seeds the balanced accuracy sits near 1/2.
        ds, _ = planted_dataset(n=200, seed=5)
        params = PrivacyParams(epsilon=0.001, rounds=1, c1=2.0, c2=2.0, n=ds.n)
        accs = []
        for seed in range(50):
            ens, _ = fit_all_private(ds, params, seed, 1000 + seed)
            accs.append(accuracy(ens, ds))
        assert np.mean(accs) == pytest.approx(0.5, abs=0.1)

    def test_weight_bounds_via_replay(self):
        ds, _ = planted_dataset(n=120, seed=12)
        params = PrivacyParams(epsilon=0.2, rounds=20, c1=2.0, c2=2.0, n=ds.n)
        ens, recs = fit_all_private(ds, params, 4, 5)
        w = np.ones(ds.n)
        for member, rec in zip(ens.members, recs):
            assert rec.alpha == 0.5 - rec.err_pri_noisy
            mis = member.clf.predict(ds.X) != ds.y
            w = clipped_update(w, rec.alpha, mis, 2.0, 2.0)
            assert np.all(w >= 0.5) and np.all(w <= 2.0)

    def test_round_records_serialize_to_json_lines(self):
        import json

        ds, _ = planted_dataset(n=60)
        params = PrivacyParams(epsilon=1.0, rounds=3, c1=2, c2=2, n=ds.n)
        _, recs = fit_all_private(ds, params, 0, 1)
        lines = boosting.records_to_jsonl(recs).splitlines()
        assert len(lines) == 3
        row = json.loads(lines[0])
        assert set(row) == {"t", "chosen", "err_pub", "err_pri_noisy", "alpha"}
        assert row["t"] == 1 and row["chosen"] == "all" and row["err_pub"] is None

    def test_custom_sampler_injected(self):
        ds, _ = planted_dataset(n=60)
        params = PrivacyParams(epsilon=1.0, rounds=4, c1=2, c2=2, n=ds.n)
        seen = []

        def sampler(data, rng):
            seen.append(data.n)
            return LinearClassifier(coeffs=np.array([1.0]), intercept=0.0, cols=(0,))

        ens, _ = fit_all_private(ds, params, 0, 1, sampler=sampler)
        assert seen == [60] * 4
        assert all(m.clf.cols == (0,) for m in ens.members)


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

    def test_bound_holds_on_random_instances(self):
        for seed in range(8):
            for c in (1.0, SQRT2, 2.0):
                ds, clf = self.oracle_instance(n=4, k=2, seed=seed)
                weights = [np.ones(4), np.full(4, 1.0 / c), np.full(4, c)]
                val = sensitivity_oracle(clf, ds, weights, c, c)
                assert val <= c * c / ds.n + 1e-12

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
        # restrict the replacement grid to the rows' own (constant) value:
        # every neighbor keeps identical predictions, weights are pinned.
        _, clf = self.oracle_instance(n=4, k=1, seed=3)
        X = np.full((4, 1), 0.5)
        ds0 = Dataset(X=X, y=np.array([1, 1, -1, -1]), columns=(("c", "numeric"),))
        val0 = sensitivity_oracle(
            clf, ds0, [np.ones(4)], 1.0, 1.0, value_grid=np.array([0.5])
        )
        assert val0 == 0.0

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
