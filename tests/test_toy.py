import numpy as np
import pytest

from dpboost import (
    DataError,
    ToyConfig,
    accuracy,
    flip_and_fit_threshold,
    generate_toy,
    make_rng,
    run_toy_sweep,
    threshold_classifier,
)


class TestGenerateToy:
    def test_small_instance(self):
        ds = generate_toy(4)
        assert ds.y.tolist() == [-1, -1, 1, 1]
        assert ds.X[:, 0] == pytest.approx([-1.0, -1 / 3, 1 / 3, 1.0])

    def test_perfect_midpoint_threshold(self):
        ds = generate_toy(2000)
        assert accuracy(threshold_classifier(1000, 2000), ds) == 1.0

    def test_threshold_zero_is_constant_plus(self):
        ds = generate_toy(2000)
        assert accuracy(threshold_classifier(0, 2000), ds) == 0.5

    def test_threshold_n_is_constant_minus(self):
        ds = generate_toy(100)
        clf = threshold_classifier(100, 100)
        assert np.all(clf.predict(ds.X) == -1)

    @pytest.mark.parametrize("index", [-1, 101])
    def test_index_outside_range_rejected(self, index):
        with pytest.raises(ValueError, match=r"lie in \[0, 100\]"):
            threshold_classifier(index, 100)

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            generate_toy(7)

    def test_entries_in_range(self):
        ds = generate_toy(50)
        assert np.max(np.abs(ds.X)) <= 1.0


class TestFlipAndFitThreshold:
    def test_no_flips_recovers_separator(self):
        ds = generate_toy(200)
        for seed in range(5):
            assert flip_and_fit_threshold(ds, 0.0, make_rng(seed)) == 100

    def test_matches_quadratic_rescan(self):
        # the O(n) scan must agree with an O(n^2) brute force, including the
        # smallest-index tie-break
        def oracle(y_flipped):
            n = len(y_flipped)
            best_i, best_c = 0, -1
            for i in range(n + 1):
                c = int(np.sum(y_flipped[:i] == -1) + np.sum(y_flipped[i:] == 1))
                if c > best_c:
                    best_i, best_c = i, c
            return best_i

        for trial in range(50):
            n = 2 * (trial % 40 + 5)
            ds = generate_toy(n)
            fit_rng = make_rng(trial)
            clone = make_rng(trial)
            index = flip_and_fit_threshold(ds, 0.35, fit_rng)
            flips = clone.random(n) < 0.35
            y_flipped = np.where(flips, -ds.y, ds.y)
            assert index == oracle(y_flipped)

    def test_flip_probability_bounds(self):
        ds = generate_toy(10)
        with pytest.raises(ValueError):
            flip_and_fit_threshold(ds, 0.5, make_rng(0))

    def test_classifier_semantics_match_index(self):
        ds = generate_toy(20)
        pred = threshold_classifier(7, 20).predict(ds.X)
        assert np.all(pred[:7] == -1) and np.all(pred[7:] == 1)


class TestToySweep:
    def small_cfg(self):
        return ToyConfig(n=200, flip_prob=0.49, rounds=10, c1=2, c2=2, repeats=3, seed=0)

    def test_shapes_and_fields(self):
        report = run_toy_sweep(self.small_cfg(), [0.1, 10.0])
        assert len(report.runs) == 6
        run = report.runs[0]
        assert len(run.thresholds) == 10 and len(run.alphas) == 10
        assert 0.0 <= run.accuracy <= 1.0

    def test_noise_scale_reported(self):
        report = run_toy_sweep(self.small_cfg(), [1.0])
        # c1 c2 T / (eps n) = 4*10/200 = 0.2
        assert report.noise_scale(1.0) == pytest.approx(0.2)

    def test_deterministic(self):
        a = run_toy_sweep(self.small_cfg(), [0.5])
        b = run_toy_sweep(self.small_cfg(), [0.5])
        assert a.runs == b.runs

    def test_repeats_paired_across_epsilon(self):
        # same repeat index uses the same classifier stream, so the threshold
        # sequences match whenever noise does not change the flips (it never
        # does: flips draw from the classifier stream only)
        report = run_toy_sweep(self.small_cfg(), [0.5, 50.0])
        lo = [r for r in report.runs if r.epsilon == 0.5]
        hi = [r for r in report.runs if r.epsilon == 50.0]
        for a, b in zip(lo, hi):
            assert a.thresholds == b.thresholds

    def test_csv_round_trip(self, tmp_path):
        report = run_toy_sweep(self.small_cfg(), [0.5])
        path = tmp_path / "toy.csv"
        report.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epsilon,repeat,accuracy"
        assert len(lines) == 1 + len(report.runs)
        eps, repeat, acc = lines[1].split(",")
        assert float(eps) == 0.5 and int(repeat) == 0
        assert abs(float(acc) - report.runs[0].accuracy) < 1e-6

    def test_json_traces(self, tmp_path):
        import json

        report = run_toy_sweep(self.small_cfg(), [0.5])
        path = tmp_path / "toy.json"
        report.to_json(path)
        payload = json.loads(path.read_text())
        assert payload["config"]["n"] == 200
        assert len(payload["runs"]) == 3
        assert len(payload["runs"][0]["thresholds"]) == 10

    def test_validation(self):
        for bad in ({"n": 11}, {"flip_prob": 0.5}, {"flip_prob": False}, {"repeats": 0}, {"c1": 0.5}):
            with pytest.raises(DataError):
                ToyConfig(**bad)

    def test_rule_of_thumb_half_marks_stable_regime(self):
        # noise scale c1*c2*rounds/(eps*n) = 4*50/(0.2*2000) = 0.5: still the
        # stable side of the boundary, median accuracy >= 0.9
        cfg = ToyConfig(n=2000, flip_prob=0.49, rounds=50, c1=2, c2=2, repeats=10, seed=0)
        report = run_toy_sweep(cfg, [0.2])
        assert report.noise_scale(0.2) == pytest.approx(0.5)
        assert float(np.median(report.accuracies(0.2))) >= 0.9

    def test_boosting_improves_on_typical_member(self):
        # With near-zero noise the boosted vote should clearly beat what a
        # typical (median-accuracy) fitted threshold manages alone. The best
        # single draw out of 50 is often near-perfect on this instance, so
        # the comparison is against the median member, not the maximum.
        cfg = ToyConfig(n=2000, flip_prob=0.49, rounds=50, c1=2, c2=2, repeats=10, seed=0)
        report = run_toy_sweep(cfg, [100.0])
        ds = generate_toy(2000)
        wins = 0
        for run in report.runs:
            member_accs = [accuracy(threshold_classifier(t, 2000), ds) for t in run.thresholds]
            wins += run.accuracy > float(np.median(member_accs))
        assert wins >= 9
