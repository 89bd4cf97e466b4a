import math

import numpy as np
import pytest

from dpboost import (
    Budget,
    DataError,
    Purpose,
    laplace,
    make_rng,
    random_linear_classifier,
    rng_for,
)
from dpboost.noise import check_clipping, check_epsilons, laplace_scale, stream_id


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


class TestBudget:
    def test_release_of_a_float_is_one_laplace_draw(self):
        budget = Budget(0.5, make_rng(3))
        got = budget.release("m", 0.25, 0.1, 0.2)
        assert got == 0.25 + laplace(0.2, make_rng(3))
        assert isinstance(got, float)
        assert budget.ledger == [("m", 0.1, 0.2, 0.1 / 0.2)] and budget.spent == 0.1 / 0.2

    def test_release_of_a_2_by_m_array_is_two_m_draws(self):
        # the bits and the rng state of two size-m draws, one per row
        counts = np.array([[3, 0, 2], [0, 3, 1]])
        rng, ref = make_rng(4), make_rng(4)
        got = Budget(1.0, rng).release("votes", counts, 6, 6.0)
        first, second = laplace(6.0, ref, size=3), laplace(6.0, ref, size=3)
        assert np.array_equal(got, np.stack([counts[0] + first, counts[1] + second]))
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_zero_scale_draws_nothing(self):
        rng = make_rng(5)
        state = rng.bit_generator.state
        budget = Budget(math.inf, rng)
        counts = np.array([[1, 2], [2, 1]])
        assert budget.release("m", counts, 4, 0.0) is counts
        assert budget.release("m", 0.5, 1.0, 0.0) == 0.5
        assert rng.bit_generator.state == state
        # a noise-free release is affordable under an infinite budget only
        assert budget.spent == math.inf
        with pytest.raises(RuntimeError, match="budget exhausted"):
            Budget(1e6, rng).release("m", 0.5, 1.0, 0.0)

    def test_overrun_raises_before_drawing(self):
        rng = make_rng(6)
        budget = Budget(1.0, rng)
        budget.charge("surplus", None, None, 0.25)
        for _ in range(3):
            budget.release("m", 0.0, 1.0, 4.0)
        assert budget.spent == 1.0
        state = rng.bit_generator.state
        with pytest.raises(RuntimeError, match="budget exhausted"):
            budget.release("m", 0.0, 1.0, 4.0)
        with pytest.raises(RuntimeError, match="budget exhausted"):
            budget.gamma_ball("b", 3, 0.5)
        assert rng.bit_generator.state == state
        assert len(budget.ledger) == 4 and budget.spent == 1.0

    def test_shares_within_rounding_of_epsilon_are_affordable(self):
        # ten shares of 0.16/10 add up to one ulp above 0.16
        budget = Budget(0.16, make_rng(0))
        for _ in range(10):
            budget.charge("round", None, None, 0.16 / 10)
        assert budget.spent == 0.16 + math.ulp(0.16)

    def test_gamma_ball_makes_d_plus_one_draws(self):
        rng, ref = make_rng(7), make_rng(7)
        b = Budget(1.0, rng).gamma_ball("b", 4, 0.5)
        norm = ref.gamma(shape=4, scale=2.0 / 0.5)
        direction = ref.normal(size=4)
        assert np.array_equal(b, norm * (direction / np.linalg.norm(direction)))
        # at an infinite share the ball is 0, from the same d + 1 draws
        rng, ref = make_rng(8), make_rng(8)
        assert not np.any(Budget(math.inf, rng).gamma_ball("b", 4, math.inf))
        ref.gamma(shape=4, scale=1.0)
        ref.normal(size=4)
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan])
    def test_epsilon_must_be_positive(self, epsilon):
        with pytest.raises(DataError, match="epsilon must be positive"):
            Budget(epsilon, make_rng(0))

    def test_negative_share_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Budget(1.0, make_rng(0)).charge("m", None, None, -0.1)


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


class TestPrivacyInputs:
    def test_laplace_scale_formula(self):
        scale = laplace_scale(math.sqrt(2), math.sqrt(2), 25, 0.16, 1000)
        assert scale == math.sqrt(2) * math.sqrt(2) * 25 / (0.16 * 1000)

    def test_infinite_epsilon_gives_zero_scale(self):
        assert laplace_scale(2, 2, 25, math.inf, 100) == 0.0

    def test_clipping_validation(self):
        check_clipping(1, 1)
        check_clipping(2.0, math.sqrt(2))
        for c1, c2 in ((0.5, 1), (1, math.nan)):
            with pytest.raises(DataError):
                check_clipping(c1, c2)
        for c1, c2 in ((math.inf, 1), (1, math.inf)):
            with pytest.raises(DataError, match="finite"):
                check_clipping(c1, c2)
        for c1, c2 in ((True, 1), (1, "2")):
            with pytest.raises(DataError, match="must be a number"):
                check_clipping(c1, c2)

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan, "0.5", True])
    def test_budget_and_sweep_share_one_epsilon_check(self, epsilon):
        with pytest.raises(DataError, match="epsilon must be"):
            Budget(epsilon, make_rng(0))
        with pytest.raises(DataError, match="epsilon must be"):
            check_epsilons([1.0, epsilon])


class TestCheckEpsilons:
    def test_returns_floats_in_order(self):
        assert check_epsilons([1, 0.5, math.inf]) == (1.0, 0.5, math.inf)
        assert check_epsilons((0.1,)) == (0.1,)

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
            check_epsilons(epsilons)
