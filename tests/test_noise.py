import math

import numpy as np
import pytest

from dpboost import (
    DataError,
    PrivacyParams,
    Purpose,
    laplace,
    make_rng,
    random_linear_classifier,
    rng_for,
)
from dpboost.noise import check_epsilons, stream_id


class TestLaplaceSampler:
    def test_rejects_non_positive_scale(self):
        with pytest.raises(ValueError):
            laplace(0.0, make_rng(0))
        with pytest.raises(ValueError):
            laplace(-1.0, make_rng(0))

    def test_moments_at_unit_scale(self):
        xs = laplace(1.0, make_rng(42), size=1_000_000)
        assert abs(xs.mean()) < 0.01
        assert abs(xs.var() - 2.0) < 0.02  # Var = 2 b^2

    def test_median_absolute_tail(self):
        # P(|Y| > b ln 2) = exp(-ln 2) = 1/2
        xs = laplace(1.0, make_rng(7), size=1_000_000)
        assert np.mean(np.abs(xs) > math.log(2.0)) == pytest.approx(0.5, abs=0.01)

    def test_scale_linearity_bit_identical(self):
        for seed in range(20):
            xs = laplace(3.7, make_rng(seed), size=100)
            ys = 3.7 * laplace(1.0, make_rng(seed), size=100)
            assert np.array_equal(xs, ys)

    def test_scalar_matches_vector_stream(self):
        scalars = [laplace(1.0, make_rng(5)) for _ in range(1)]
        vector = laplace(1.0, make_rng(5), size=3)
        assert scalars[0] == vector[0]

    @pytest.mark.parametrize("size", [None, 3], ids=["scalar", "array"])
    def test_extreme_uniforms_give_finite_mirrored_draws(self, size):
        class Fixed:
            """Stands in for a Generator whose every uniform is ``value``."""

            def __init__(self, value):
                self.value = value

            def random(self, size=None):
                return self.value if size is None else np.full(size, self.value)

        low = laplace(2.5, Fixed(0.0), size)
        high = laplace(2.5, Fixed(1.0 - 2.0**-53), size)  # largest rng.random() value
        assert np.all(np.isfinite(low))
        assert np.all(low == pytest.approx(-2.5 * 52 * math.log(2.0), rel=1e-12))
        assert np.array_equal(low, -high)

    def test_one_uniform_per_draw(self):
        consumed = make_rng(9)
        laplace(1.0, consumed, size=250)
        reference = make_rng(9)
        reference.random(250)
        assert consumed.bit_generator.state == reference.bit_generator.state


class TestRandomLinearClassifier:
    def test_support_and_shape(self):
        rng = make_rng(0)
        for _ in range(200):
            c = random_linear_classifier((0, 3, 5), rng)
            assert len(c.coeffs) == 3 and c.cols == (0, 3, 5)
            assert np.all(np.abs(c.coeffs) <= 1.0) and abs(c.intercept) <= 1.0

    def test_coefficient_mean_near_zero(self):
        rng = make_rng(1)
        vals = np.array([random_linear_classifier((0,), rng).coeffs[0] for _ in range(100_000)])
        assert abs(vals.mean()) < 0.01

    def test_consumes_k_plus_one_draws(self):
        consumed = make_rng(2)
        random_linear_classifier((0, 1, 2), consumed)
        reference = make_rng(2)
        reference.uniform(-1.0, 1.0, size=4)
        assert consumed.bit_generator.state == reference.bit_generator.state

    def test_empty_cols_rejected(self):
        with pytest.raises(ValueError):
            random_linear_classifier((), make_rng(0))


class TestStreams:
    def test_same_seed_stream_identical(self):
        a = make_rng(123, 4).random(1000)
        b = make_rng(123, 4).random(1000)
        assert np.array_equal(a, b)

    def test_distinct_streams_uncorrelated(self):
        xs = make_rng(123, 0).random(100_000)
        ys = make_rng(123, 1).random(100_000)
        rho = np.corrcoef(xs, ys)[0, 1]
        assert abs(rho) < 0.01

    def test_purpose_streams_unique(self):
        ids = {stream_id(r, p) for r in range(10) for p in Purpose}
        assert len(ids) == 10 * len(Purpose)

    def test_rng_for_matches_stream_id(self):
        a = rng_for(9, 3, Purpose.LAPLACE).random(10)
        b = make_rng(9, stream_id(3, Purpose.LAPLACE)).random(10)
        assert np.array_equal(a, b)


class TestPrivacyParams:
    def test_laplace_scale_formula(self):
        p = PrivacyParams(epsilon=0.16, rounds=25, c1=math.sqrt(2), c2=math.sqrt(2))
        assert p.laplace_scale(1000) == math.sqrt(2) * math.sqrt(2) * 25 / (0.16 * 1000)

    def test_infinite_epsilon_gives_zero_scale(self):
        p = PrivacyParams(epsilon=math.inf, rounds=25, c1=2, c2=2)
        assert p.laplace_scale(100) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PrivacyParams(epsilon=0.0, rounds=1, c1=1, c2=1)
        with pytest.raises(ValueError):
            PrivacyParams(epsilon=1.0, rounds=0, c1=1, c2=1)
        with pytest.raises(ValueError):
            PrivacyParams(epsilon=1.0, rounds=2.5, c1=1, c2=1)
        with pytest.raises(ValueError):
            PrivacyParams(epsilon=1.0, rounds=1, c1=0.5, c2=1)
        with pytest.raises(ValueError):
            PrivacyParams(epsilon=1.0, rounds=1, c1=1, c2=math.nan)
        for bad in ({"c1": math.inf}, {"c2": math.inf}):
            with pytest.raises(ValueError, match="finite"):
                PrivacyParams(**{"epsilon": 1.0, "rounds": 1, "c1": 1, "c2": 1, **bad})
        for bad in ({"epsilon": "0.5"}, {"epsilon": True}, {"c1": True}, {"c2": "2"}):
            with pytest.raises(ValueError, match="must be a number"):
                PrivacyParams(**{"epsilon": 1.0, "rounds": 1, "c1": 1, "c2": 1, **bad})


class TestCheckEpsilons:
    def test_returns_floats_in_order(self):
        assert check_epsilons([1, 0.5, math.inf], 5, 2.0, 2.0) == (1.0, 0.5, math.inf)
        assert check_epsilons((0.1,), 5, 2.0, 2.0) == (0.1,)

    @pytest.mark.parametrize(
        "epsilons, message",
        [
            (None, "non-empty list"),
            ([], "non-empty list"),
            ("0.5", "non-empty list"),
            (0.5, "non-empty list"),
            ([0.5, "1"], "must be a number"),
            ([True], "must be a number"),
            ([0.5, 0.0], "must be positive"),
            ([1, 0.5, 1.0], "must not repeat"),
        ],
    )
    def test_bad_lists_rejected(self, epsilons, message):
        with pytest.raises(DataError, match=message):
            check_epsilons(epsilons, 5, 2.0, 2.0)

    def test_checks_the_other_parameters_too(self):
        with pytest.raises(DataError, match="rounds"):
            check_epsilons([0.5], 0, 2.0, 2.0)
